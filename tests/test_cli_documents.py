"""Byte-identity of the 54 CLI documents of cli_documents.py: a fresh run
must print every document with the sha256 and exit code recorded in
data/cli_documents.json.  Two child processes run the commands, each
under its own PYTHONHASHSEED, so no document may depend on the order of
a set or of a dict built from one."""

import json
import os
import subprocess
import sys

import graycohom

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = ("0", "20201021")


def test_cli_documents_are_byte_identical():
    with open(os.path.join(HERE, "data", "cli_documents.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)
    src = os.path.dirname(os.path.dirname(graycohom.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    runs = {seed: subprocess.Popen(
        [sys.executable, os.path.join(HERE, "cli_documents.py")],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in SEEDS}
    for seed, proc in runs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err[-2000:]
        got = json.loads(out)
        assert sorted(got) == sorted(want), seed
        differ = [f"{name} (exit {got[name][0]}, recorded {want[name][0]})"
                  for name in sorted(want) if got[name] != want[name]]
        assert not differ, f"PYTHONHASHSEED={seed}: " + "; ".join(differ)
