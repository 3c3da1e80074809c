"""Run one benchmark workload of graycohom in this process.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a source checkout; graycohom is imported from its
src/ directory, so nothing is installed or built.  The run

1. imports graycohom, then parses and validates each input document once
   (the set-up, timed cold as ``setup_s``);
2. runs as many whole rounds of the workload's operations as fit in
   --seconds, at least one (``wall_s`` is the median round);
3. checks every operation's output, untimed;
4. prints its metrics by name and unit, then as its last line one JSON
   object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
layer wrappers of tracing.py are installed for the set-up and the rounds,
the metrics are the per-layer ones, and the spans are written to
perfbench/out/.  Untraced, ``wall_s`` and ``setup_s`` are corrected for the
drifting speed of the machine (speed.py); the times as measured are
printed beside them.  Exit code 0 when the run completed, 2 when graycohom's
sources are missing or the arguments are bad.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# probes of the machine's speed just before and just after the set-up
SETUP_PROBES = 8


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cohomology", "identities", "classify-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graycohom" / "__init__.py").is_file():
        print(f"graycohom sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import speed as speed_mod
    import tracing

    # ----- set-up: import, then parse and validate each input once --------
    # cold: nothing of graycohom is imported before this point.  The probe
    # bursts around it give the machine's speed (see speed.py).
    speed = speed_mod.Speed()
    speed.burst(SETUP_PROBES)
    t = time.perf_counter()
    # cli pulls in every module the commands use.  The program's functions
    # are called through their modules, so that the traced run's wrappers
    # see the set-up calls too.
    from graycohom import cli, gray, schema  # noqa: F401
    setup_raw = time.perf_counter() - t

    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    texts = {key: workloads.export(*key) for key in workload.inputs}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    t = time.perf_counter()
    for key, text in texts.items():
        report = gray.validate_gray(schema.load_structure(text))
        if not report.ok:
            print(f"input {key} fails validation: {report.violations[:3]}",
                  file=sys.stderr)
            return 1
    setup_raw += time.perf_counter() - t
    speed.burst(SETUP_PROBES)
    setup = setup_raw * speed.factor(0)

    # ----- measured rounds -------------------------------------------------
    # untraced, the probe corrects the round times for the machine's speed;
    # traced, the round times are as measured
    run = workloads.Run(tracer, random.Random(args.seed),
                        None if tracer else speed)
    walls, raw_walls = [], []
    if not tracer:
        speed.start()
    begin = time.perf_counter()
    # whole rounds while one more is expected to end within --seconds
    while not walls or (time.perf_counter() - begin) * (1 + 1 / len(walls)) \
            <= args.seconds:
        run.begin_round()
        workload.round(run, texts)
        raw_walls.append(run.round_wall)
        walls.append(run.corrected_round_wall() if run.speed
                     else run.round_wall)
    if not tracer:
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    # ----- checks, untimed -------------------------------------------------
    run.judge_outputs(workload.check(run, texts))

    wall = statistics.median(walls)
    print(f"workload {args.workload}, seed {args.seed}, {len(walls)} "
          f"round(s) of {run.attempted // len(walls)} operations")
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in tracer.metrics(len(walls)).items()}
        print(f"traced wall_s {wall:.4f} s (tracing on; compare with an "
              f"untraced run for the overhead)")
        print(f"traced setup_s {setup_raw:.4f} s (as measured)")
        print(f"{len(tracer.spans)} spans written to {trace_path}")
    else:
        print(f"raw wall_s {statistics.median(raw_walls):.4f} s, raw "
              f"setup_s {setup_raw:.4f} s (as measured, before the speed "
              f"correction)")
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        # a raise, a wrong exit code or a failed check
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
