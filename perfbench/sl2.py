"""Run the `sl2` command line as its console script does: `sl2tilings.cli:run`.

The `sl2` script exists only once the package is installed, and
`python -m sl2tilings.cli` runs nothing because cli.py has no main guard,
so the benchmark starts every CLI step as `python perfbench/sl2.py ARGS`.
With PERFBENCH_IMPORT_LOG set, it appends the time `import sl2tilings.cli`
took to that file.  With PERFBENCH_TRACE_DIR set, the process instead counts
per-layer calls and writes them to that directory when the command ends.
"""

import os
import sys

trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
if trace_dir:
    import json

    import sl2tilings.cli
    import tracer

    layers = tracer.Tracer()
    layers.install()
    try:
        sl2tilings.cli.run()
    finally:
        with open(os.path.join(trace_dir, f"cli-{os.getpid()}.json"), "w", encoding="utf-8") as fh:
            json.dump(layers.snapshot(), fh)
else:
    import time

    start = time.perf_counter()
    from sl2tilings.cli import run

    import_log = os.environ.get("PERFBENCH_IMPORT_LOG")
    if import_log:
        with open(import_log, "a", encoding="utf-8") as fh:
            fh.write(f"{time.perf_counter() - start}\n")
    run()
