"""One round of a workload in a fresh interpreter (started by run.py).

Prints ``READY`` once the package is imported and the inputs are built, then
one JSON line with the step times, work counters, check outcome and, when
traced, the per-layer counts.
"""

import time

_start = time.perf_counter()
import sl2tilings.cli  # noqa: E402  (the import is what cli.fresh_import_s times)

CLI_IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    trace_dir = workdir / "trace"
    env = dict(os.environ)
    tracer = None
    import_log = workdir / "imports.txt"
    if args.trace:
        trace_dir.mkdir()
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        tracer = tracing.Tracer()
        tracer.install()
    else:
        env["PERFBENCH_IMPORT_LOG"] = str(import_log)

    ctx = Context(seed=args.seed, workdir=workdir, env=env, rng=random.Random(args.seed))
    results, times, errors = {}, {}, []
    try:
        steps = WORKLOADS[args.workload](ctx)
    except Exception as exc:  # a set-up that fails is one failed operation
        steps = []
        errors.append(f"setup: {exc!r}")
    print("READY", flush=True)

    cli_times = {}
    for step in steps:
        start = time.perf_counter()
        before = len(ctx.cli_times)
        try:
            results[step.name] = step.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{step.name}: {exc!r}")
        times[step.name] = time.perf_counter() - start
        if len(ctx.cli_times) > before:
            cli_times[step.name] = sum(ctx.cli_times[before:])

    mismatches, units = [], {}
    for step in steps:
        if step.name not in results:
            continue
        try:
            step.check(results[step.name], results)
            for key, value in step.units(results[step.name]).items():
                units.setdefault(key, [0, 0.0])
                units[key][0] += value
                units[key][1] += times[step.name]
        except Exception as exc:  # a check that cannot run counts as a mismatch
            mismatches.append(f"{step.name}: {exc!r}")

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    numpy = sys.modules.get("numpy")
    out = {
        "cli_import_s": [CLI_IMPORT_S] + (
            [float(x) for x in import_log.read_text().split()] if import_log.exists() else []),
        "wall_s": sum(times.values()),
        "steps": times,
        "cli_times": cli_times,
        "units": units,
        "attempted": len(steps) or 1,
        "failed": len(errors),
        "errors": errors,
        "mismatches": mismatches,
        "notes": ctx.notes,
        "peak_rss_mb": peak_kb / 1024,
        "numpy": getattr(numpy, "__version__", None),
        "package": sl2tilings.__file__,
    }
    if tracer is not None:
        snap = tracer.snapshot()
        for part in sorted(trace_dir.glob("*.json")):
            tracing.merge(snap, json.loads(part.read_text()))
        out["trace"] = snap
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
