"""Repeat runs of one workload and report their spread and the tracing
overhead.

    python3 perfbench/report.py --workload cohomology --seeds 1 2 3 \\
        --seconds 10 [--traced]

Runs perfbench/run.py once per seed, one after the other, each in a fresh
process, untraced.  For each end-to-end metric it prints the values, their
median, the first and third quartiles (statistics.quantiles, n=4) and the
distance between the quartiles as a share of the median; the same for the
wall time before the speed correction.  With --traced it
adds one traced run on the first seed, prints every per-layer metric, and
the tracing overhead: traced wall_s against the untraced median, both as
measured, without the speed correction.  All
results are also written to perfbench/out/report-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _raw_wall(lines):
    """The uncorrected wall_s an untraced run prints as text."""
    return next(float(line.split()[2]) for line in lines
                if line.startswith("raw wall_s"))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    results, raw_walls = [], []
    for seed in args.seeds:
        res, lines = run_once(args.workload, seed, args.seconds, 0)
        results.append(res)
        raw_walls.append(_raw_wall(lines))
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4f}" for k, v in res["metrics"].items())
            + f", raw wall_s {raw_walls[-1]:.4f}; attempted "
              f"{res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}", flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds,
               "seconds": args.seconds, "runs": results,
               "raw_wall_s": raw_walls, "spread": {}}
    if len(results) >= 2:
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            summary["spread"][name] = {"median": med, "q1": q1, "q3": q3,
                                       "iqr_share": share}
            print(f"{name}: median {med:.4f}, quartiles {q1:.4f}-{q3:.4f}, "
                  f"spread {share:.2%} of the median ({len(values)} runs)")
        med, q1, q3, share = spread(raw_walls)
        print(f"raw wall_s (not corrected for the machine's speed): median "
              f"{med:.4f}, quartiles {q1:.4f}-{q3:.4f}, spread {share:.2%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")

    if args.traced:
        res, lines = run_once(args.workload, args.seeds[0], args.seconds, 1)
        traced = next(float(line.split()[2]) for line in lines
                      if line.startswith("traced wall_s"))
        # both as measured: the traced run has no speed correction
        untraced = statistics.median(raw_walls)
        summary["traced"] = res
        summary["overhead"] = {"traced_wall_s": traced,
                               "untraced_wall_s": untraced}
        for name, m in res["metrics"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead: traced wall_s {traced:.4f} s against "
              f"untraced raw median {untraced:.4f} s "
              f"({traced / untraced - 1:+.1%})")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"report-{args.workload}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
