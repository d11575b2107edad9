"""Compare two sets of benchmark runs written by `run.py --out FILE`.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

End-to-end metrics (from --trace 0 runs), per workload: median and
quartiles on each side, the change, and a verdict against the metric's
bound in BENCHMARK.json:

  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, and the runs do not separate completely
  worse       the AFTER median is worse than BEFORE by more than the bound
  better      AFTER wins at least 9 of 10 seed pairs and the medians differ
              by more than BEFORE's own quartile spread
  same        anything else

Step times (the per-step medians of each --trace 0 run) are listed as the
median over runs on each side, without a verdict.  Per-layer counts (from
--trace 1 runs) must repeat exactly for every workload and seed seen on both
sides; any difference is flagged as DRIFT.  Per-layer times are listed as
medians.  Exits 1 when a count drifts or an end-to-end metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    return out


def compare_end_to_end(before: list[dict], after: list[dict]) -> bool:
    worse_any = False
    b_runs, a_runs = by_workload(before, 0), by_workload(after, 0)
    print(f"{'workload':13s} {'metric':14s} {'before median [q1, q3]':>34s} {'after median [q1, q3]':>34s}"
          f" {'change':>8s}  verdict")
    for workload in sorted(set(b_runs) & set(a_runs)):
        for metric in SPEC["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            bq, aq = quartiles(b), quartiles(a)
            change = (aq[1] - bq[1]) / bq[1]
            worse_by = change if lower else -change
            b_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs[workload]}
            pairs = [(b_seed[r["seed"]], r["metrics"][name]["value"]) for r in a_runs[workload] if r["seed"] in b_seed]
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            separated = (max(a) < min(b)) if lower else (min(a) > max(b))
            spread = max((bq[2] - bq[0]) / bq[1], (aq[2] - aq[0]) / aq[1])
            if spread > bound and not separated:
                verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            elif worse_by > bound:
                verdict = f"WORSE (bound {bound:.0%})"
                worse_any = True
            elif pairs and wins >= 0.9 * len(pairs) and abs(aq[1] - bq[1]) > bq[2] - bq[0]:
                verdict = f"better ({wins}/{len(pairs)} seed pairs)"
            else:
                verdict = "same"
            print(f"{workload:13s} {name:14s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(62)
                  + f" {aq[1]:12.5g} [{aq[0]:.5g}, {aq[2]:.5g}]".ljust(35) + f" {change:+8.1%}  {verdict}")
    return worse_any


def compare_steps(before: list[dict], after: list[dict]) -> None:
    b_runs, a_runs = by_workload(before, 0), by_workload(after, 0)
    print()
    print(f"{'workload':13s} {'step':32s} {'before s':>10s} {'after s':>10s} {'change':>8s}")
    for workload in sorted(set(b_runs) & set(a_runs)):
        for step in b_runs[workload][0]["step_medians"]:
            b = [r["step_medians"][step] for r in b_runs[workload] if step in r["step_medians"]]
            a = [r["step_medians"][step] for r in a_runs[workload] if step in r["step_medians"]]
            if b and a:
                mb, ma = statistics.median(b), statistics.median(a)
                print(f"{workload:13s} {step:32s} {mb:10.4f} {ma:10.4f} {(ma - mb) / mb:+8.1%}")


def compare_layers(before: list[dict], after: list[dict]) -> bool:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values: dict = defaultdict(lambda: defaultdict(list))  # (workload, metric) -> side -> [(seed, value)]
    for side, records in (("before", before), ("after", after)):
        for r in records:
            if r["trace"] == 1:
                for name, m in r["metrics"].items():
                    values[(r["workload"], name)][side].append((r["seed"], m["value"]))
    drift = False
    print()
    print(f"{'workload':13s} {'per-layer metric':28s} {'before':>14s} {'after':>14s}")
    for (workload, name), sides in sorted(values.items()):
        if not sides["before"] or not sides["after"]:
            continue
        b = statistics.median(v for _, v in sides["before"])
        a = statistics.median(v for _, v in sides["after"])
        note = ""
        if units.get(name) == "count":
            seen: dict = defaultdict(set)
            for seed, v in sides["before"] + sides["after"]:
                seen[seed].add(v)
            common = {s for s, _ in sides["before"]} & {s for s, _ in sides["after"]}
            bad = sorted(s for s, vs in seen.items() if len(vs) > 1)
            if bad:
                note = f"DRIFT at seeds {bad}"
                drift = True
            elif not common:
                note = "(no common seed)"
        print(f"{workload:13s} {name:28s} {b:14.6g} {a:14.6g}  {note}")
    return drift


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(sys.argv[1]), load(sys.argv[2])
    worse = compare_end_to_end(before, after)
    compare_steps(before, after)
    drift = compare_layers(before, after)
    return 1 if worse or drift else 0


if __name__ == "__main__":
    sys.exit(main())
