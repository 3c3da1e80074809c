"""The sha256 and exit code of each of 54 CLI documents, as one JSON
object on stdout: `cohomology` in all six selections on z2-sign p=3,
z2-fiber q, z2-base p=2 and z2-sign p=2, and `classify` and `oracle` in
all five modes on z2-base, z2-sign and z2-fiber at p=2.  Each command
reads the `export` of its model from stdin and is run through the click
entry point, so the bytes are those the command prints.

Regenerate the committed digests with

    PYTHONPATH=src python tests/cli_documents.py > tests/data/cli_documents.json

test_cli_documents.py compares a fresh run with that file."""

import hashlib
import json

from click.testing import CliRunner

from graycohom import cli
from graycohom.defcomplex import SELECTION_KINDS

COHOMOLOGY = (("z2-sign", "p=3"), ("z2-fiber", "q"), ("z2-base", "p=2"),
              ("z2-sign", "p=2"))
CLASSIFY = ("z2-base", "z2-sign", "z2-fiber")


def commands():
    """(document name, export arguments, command arguments)."""
    for model, field in COHOMOLOGY:
        for kind in SELECTION_KINDS:
            yield (f"cohomology {model} {field} {kind}", (model, field),
                   ["cohomology", "-", "--complex", kind])
    for model in CLASSIFY:
        for command in ("classify", "oracle"):
            for mode in cli.CLASSIFY_MODES:
                yield (f"{command} {model} p=2 {mode}", (model, "p=2"),
                       [command, "-", "--mode", mode])


def digests() -> dict:
    """Document name -> [exit code, sha256 of the bytes printed]."""
    runner = CliRunner()
    exports = {}
    out = {}
    for name, (model, field), args in commands():
        if (model, field) not in exports:
            res = runner.invoke(cli.main, ["export", model, "--field", field])
            assert res.exit_code == 0, res.output
            exports[(model, field)] = res.stdout_bytes
        res = runner.invoke(cli.main, args, input=exports[(model, field)])
        if res.exception is not None and not isinstance(res.exception,
                                                        SystemExit):
            raise res.exception
        out[name] = [res.exit_code,
                     hashlib.sha256(res.stdout_bytes).hexdigest()]
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
