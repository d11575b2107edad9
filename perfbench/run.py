"""Benchmark for sl2tilings: one workload, whole rounds, for a fixed time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  Each round starts a fresh interpreter
(round.py) that imports the package from ./src, builds the workload's inputs
from the seed, runs every step once and checks every output against
independent.py.  Rounds repeat until S seconds have passed.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
medians over the rounds.  With --trace 1 the run makes one untraced round
and then traced rounds, and reports the per-layer metrics.  --out appends a
full record of the run (per-round figures, machine, source digest) to FILE,
which compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("numeric-scan", "formal-rank", "search", "cli-session")
DEADLINE_S = 170  # every run must end within 180 s


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # so that per-layer counts repeat exactly
    # The package makes no BLAS call, but importing numpy starts an OpenBLAS
    # thread per core in every process; on two cores those threads compete
    # with the process that is being timed.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sl2tilings").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform()}


def import_times(stderr: str) -> dict[str, tuple[float, float]]:
    """module -> (self s, cumulative s) from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            out[fields[2].strip()] = (int(fields[0]) / 1e6, int(fields[1]) / 1e6)
        except (IndexError, ValueError):
            continue  # the header line
    return out


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # the group has already ended


def one_round(args, rundir: Path, index: int, traced: bool, env: dict, budget: float) -> dict:
    workdir = rundir / f"round-{index}"
    workdir.mkdir()
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(HERE / "round.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--workdir", str(workdir)]
    stderr_path = workdir / "stderr.txt"
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        # A session of its own, so that killing it also ends the CLI
        # subprocesses and DFS workers the round started.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        watchdog = threading.Timer(max(budget, 1.0), kill_group, (proc,))
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            kill_group(proc)  # ends anything the round left behind, also on an exception
            proc.wait()
            proc.stdout.close()
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        tail = "\n".join(ln for ln in stderr.splitlines() if not ln.startswith("import time:"))[-2000:]
        raise RunError(f"round {index} of {args.workload} exited {code}:\n{tail}")
    record = json.loads(lines[-1])
    record["setup_s"] = setup_s
    record["traced"] = traced
    if traced:
        record["imports"] = import_times(stderr)
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def rate(record: dict, unit: str) -> float:
    work, seconds = record["units"].get(unit, (0, 0.0))
    return work / seconds if seconds else 0.0


def end_to_end(rounds: list[dict]) -> dict:
    # One pass is the sum of each step's median over the rounds: a slow spell
    # of the machine that hits one step in one round does not move it.
    return {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "wall_s": sum(median([r["steps"][name] for r in rounds]) for name in rounds[0]["steps"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def process_figures(rounds: list[dict]) -> dict:
    """Start-up figures of fresh processes, from untraced rounds."""
    return {
        "cli.fresh_import_s": median([t for r in rounds for t in r["cli_import_s"]]),
        # The median over CLI steps of each step's median: commands of very
        # different cost would otherwise leave the median in a gap between them.
        "cli.process_s": median([median([r["cli_times"][name] for r in rounds])
                                 for name in rounds[0]["cli_times"]]),
    }


def layer_figures(record: dict) -> dict:
    """Per-layer figures of one traced round."""
    trace = record["trace"]
    calls: dict[tuple[str, str], int] = {(layer, name): c for layer, name, c in trace["calls"]}
    inclusive = {(layer, name): s for layer, name, s in trace["inclusive"]}
    imports = record["imports"]

    def layer_calls(layer, names=None):
        return sum(c for (lay, name), c in calls.items() if lay == layer and (names is None or name in names))

    figures = {
        "rings.calls": layer_calls("rings"),
        "matrices.det2_calls": layer_calls("matrices", {"det2"}),
        "matrices.det3_calls": layer_calls("matrices", {"det3"}),
        "matrices.bareiss_calls": layer_calls("matrices", {"bareiss_rank"}),
        "matrices.congruence_calls": layer_calls("matrices", {"solve_linear_congruence"}),
        "tiling.entry_calls": layer_calls("tiling", {"RuleBased.entry", "PeriodicBlock.entry", "Patched.entry"}),
        "tiling.parameter_index_calls": layer_calls("tiling", {"parameter_index"}),
        "tiling.cells_classified": trace["work"].get("cells_classified", 0),
        "blocks.canonical_calls": layer_calls("blocks", {"canonical_block_form"}),
        "search.dfs_nodes": trace["work"].get("dfs_nodes", 0),
        "search.oracle_states": trace["work"].get("oracle_states", 0),
        "catalog.calls": layer_calls("catalog"),
        "gridio.calls": layer_calls("gridio"),
        "svg.calls": layer_calls("svg"),
        "cli.commands": sum(c for (layer, name), c in calls.items() if layer == "cli" and name.startswith("_cmd_")),
    }
    for layer in LAYERS:
        # Module import is the layer's own code running too, and it keeps a
        # layer that a workload never calls from reading exactly 0.
        figures[f"{layer}.self_s"] = trace["self_s"].get(layer, 0.0) + imports.get(f"sl2tilings.{layer}", (0, 0))[0]
    figures["cli.import_s"] = imports.get("sl2tilings", (0, 0))[1] + imports.get("sl2tilings.cli", (0, 0))[1]
    figures["cli.import_numpy_s"] = imports.get("numpy", (0, 0))[1]
    figures["cli.command_s"] = sum(s for (layer, name), s in inclusive.items()
                                   if layer == "cli" and name.startswith("_cmd_"))
    return figures


def per_layer(reference: dict, traced: list[dict]) -> tuple[dict, bool]:
    figures = [layer_figures(r) for r in traced]
    out = {}
    counts_repeat = True
    for name in figures[0]:
        values = [f[name] for f in figures]
        if isinstance(values[0], int):
            out[name] = values[0]
            counts_repeat = counts_repeat and len(set(values)) == 1
        else:
            out[name] = median(values)
    out["tiling.cells_per_s"] = rate(reference, "cells")
    out["search.dfs_nodes_per_s"] = rate(reference, "dfs_nodes")
    out["search.oracle_states_per_s"] = rate(reference, "oracle_states")
    out.update(process_figures([reference]))
    overhead = median([r["wall_s"] for r in traced]) - reference["wall_s"]
    out["trace.overhead_s"] = overhead
    out["trace.overhead_pct"] = 100 * overhead / reference["wall_s"]
    return out, counts_repeat


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record of this run to this file")
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally clauses that end the round's
    # processes and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sl2tilings" / "__init__.py").is_file():
        print(f"error: no sl2tilings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    env = child_env()
    # Compile the package and the benchmark once, untimed, even where
    # PYTHONDONTWRITEBYTECODE is set: an installed package ships its bytecode.
    warm_env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    warm = subprocess.run([sys.executable, "-c", "import compileall, sys, sl2tilings.cli; "
                           "compileall.compile_dir(sys.argv[1], quiet=1)", str(HERE)],
                          cwd=ROOT, env=warm_env, capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"error: cannot import sl2tilings.cli:\n{warm.stderr[-2000:]}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    rounds: list[dict] = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            last = rounds[-1]["setup_s"] + rounds[-1]["wall_s"] if rounds else 0.0
            # Start no round whose set-up and pass, if as long as the last
            # one's, would end after --seconds: a run then takes about
            # --seconds however long a round is.
            enough = len(rounds) >= (2 if args.trace else 1) and elapsed + last >= args.seconds
            if enough or (rounds and elapsed + 1.5 * last > DEADLINE_S):
                break
            traced = bool(args.trace) and len(rounds) > 0
            rounds.append(one_round(args, rundir, len(rounds), traced, env, DEADLINE_S - elapsed))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    untraced = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics, counts_repeat = per_layer(untraced[0], [r for r in rounds if r["traced"]])
    else:
        metrics, counts_repeat = end_to_end(untraced), True
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    mismatches = [m for r in rounds for m in r["mismatches"]]
    errors = [e for r in rounds for e in r["errors"]]
    correct = not mismatches and counts_repeat
    env_info = machine() | {"numpy": rounds[0]["numpy"], "package": rounds[0]["package"]}
    for line in sorted(set(mismatches)):
        print(f"# mismatch: {line}", file=sys.stderr)
    for line in sorted(set(errors)):
        print(f"# failed: {line}", file=sys.stderr)
    if not counts_repeat:
        print("# per-layer counts differ between traced rounds of one seed", file=sys.stderr)
    for note in sorted({n for r in rounds for n in r["notes"]}):
        print(f"# {note}", file=sys.stderr)
    steps = {name: median([r["steps"][name] for r in untraced]) for name in untraced[0]["steps"]}
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} env={json.dumps(env_info)}", file=sys.stderr)
    print("# step medians (s): " + ", ".join(f"{k}={v:.4f}" for k, v in steps.items()), file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                  "env": env_info, "step_medians": steps, "rounds": rounds} | result
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
