"""The four benchmark workloads.

Each workload function builds its inputs from the seed (the set-up that
``setup_s`` times) and returns its steps.  A step is one call into the
package or one ``sl2`` subprocess; its check compares the output with the
reference computations in ``independent.py`` and runs after every step of
the pass has been timed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sl2tilings as sl2
import sl2tilings.cli as cli

import independent as ind

LAUNCHER = str(Path(__file__).resolve().parent / "sl2.py")

# Colors of the SVG legend in the README, by the cell's meaning.
HEX = {"plus-one": "#cfe8ff", "minus-one": "#ffd6d6", "zero-tame": "#ffffff",
       "zero-wild": "#000000", "parameter": "#ffe066", "other-nonzero": "#d9d9d9"}
# Rank checks evaluate parameters at random integers in [1, SPAN].
SPAN = 1 << 24
RANK_POINTS = 2


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]
    units: Callable[[object], dict] = lambda result: {}


@dataclass
class Cli:
    code: int
    out: str
    err: str


@dataclass
class Context:
    seed: int
    workdir: Path
    env: dict
    rng: object
    cli_times: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    _ranks: dict = field(default_factory=dict)

    def doc(self, name: str, *generate_args: str):
        """Write a catalog model with in-process `sl2 generate` and load it."""
        path = self.workdir / name
        code = cli.main(["generate", *generate_args, "--out", str(path)])
        expect(code == 0, f"generate {generate_args} exited {code}")
        return sl2.parse_grid(path.read_text(encoding="utf-8"))

    def sl2(self, *args: str) -> Cli:
        """One `sl2` command as a fresh process, as a user would run it."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, LAUNCHER, *args], cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=150)
        self.cli_times.append(time.perf_counter() - start)
        return Cli(proc.returncode, proc.stdout, proc.stderr)

    def generic_rank(self, grid) -> int:
        """Largest rank over Q at RANK_POINTS random points (cached per grid)."""
        rank = self._ranks.get(grid)
        if rank is None:
            ranks = ind.ranks_at_points(grid, self.rng, RANK_POINTS, SPAN)
            rank = self._ranks[grid] = max(ranks)
        return rank


# --- shared checks -----------------------------------------------------------

def own_color(wild: bool, on_lattice: bool, value) -> str:
    if wild:
        return "zero-wild"
    if on_lattice:
        return "parameter"
    return {1: "plus-one", -1: "minus-one", 0: "zero-tame"}.get(value, "other-nonzero")


def check_report(report, entry, i0, j0, h, w, modulus=None, formal=False, point=None):
    value = (lambda i, j: ind.wildest_entry(i, j, point)) if formal else entry
    wild = ind.wild_grid(value, i0, j0, h, w, modulus)
    expect(report.wild == wild, "wild cells differ from the plain-int det3")
    expect(not report.violations, f"{len(report.violations)} violations in an SL2 tiling")
    lattice = formal or entry is ind.wildest_entry
    for r in range(h):
        for c in range(w):
            i, j = i0 + r, j0 + c
            on = lattice and ind.on_lattice(i, j)
            v = None if on else entry(i, j) if modulus is None else entry(i, j) % modulus
            if modulus is None and wild[r][c]:
                expect(not on and v == 0, f"wild cell ({i}, {j}) does not hold 0")
            expect(report.colors[r][c].value == own_color(wild[r][c], on, v),
                   f"color of ({i}, {j})")


def check_render(svg: str, expected_hex: list, expected_labels: list | None = None):
    fills = re.findall(r'<rect x="\d+" y="\d+" width="\d+" height="\d+" fill="(#[0-9a-f]{6})"', svg)
    expect(fills == expected_hex, "SVG cell colors differ from the independent classification")
    if expected_labels is not None:
        labels = re.findall(r"<text [^>]*>([^<]*)</text>", svg)
        expect(labels == expected_labels, "SVG labels differ from the entries")


def wrapped_sl2(block, modulus) -> bool:
    h, w = len(block), len(block[0])
    return ind.first_bad_2x2(ind.periodic_entry(block), 0, 0, h + 1, w + 1, modulus) is None


def translates(block):
    h, w = len(block), len(block[0])
    return [tuple(tuple(block[(i + di) % h][(j + dj) % w] for j in range(w)) for i in range(h))
            for di in range(h) for dj in range(w)]


def check_classes(classes, n):
    own = ind.block_classes(n)
    expect(len(classes) == len(own), f"n={n}: {len(classes)} classes, expected {len(own)}")
    for c in classes:
        key = ind.class_key(ind.parse_encoding(c.encoding, n))
        expect(key in own and own[key][1] == c.orbit_size, f"n={n}: class {c.encoding!r}")


def check_rank_entries(ctx, n, entries):
    """entries: (encoding, deficiency, method) triples from one report."""
    own = ind.block_classes(n)
    symbolic = {}
    for encoding, deficiency, method in entries:
        key = ind.class_key(ind.parse_encoding(encoding, n))
        expect(key in own, f"n={n}: unknown class {encoding!r}")
        generic = n - ctx.generic_rank(own[key][0])
        if method == "symbolic":
            symbolic[key] = deficiency
            expect(deficiency == generic,
                   f"n={n}: symbolic deficiency {deficiency}, rank at random points gives {generic}")
        else:
            expect(deficiency >= generic,
                   f"n={n}: probe deficiency {deficiency} below the generic {generic}")
            expect(deficiency >= symbolic.get(key, 0), f"n={n}: probe below symbolic")
    for method in {m for _, _, m in entries}:
        covered = sum(m == method for _, _, m in entries)
        expect(covered == len(own), f"n={n}: {covered} {method} entries for {len(own)} classes")
    if n == 5 and symbolic:
        expect(sorted(symbolic.values()) == [0, 0, 1, 2], "n=5 deficiencies are not [0, 0, 1, 2]")


def cli_ok(res: Cli, what: str):
    expect(res.code == 0, f"{what} exited {res.code}: {res.err.strip()[-200:]}")


# --- numeric-scan ------------------------------------------------------------

def numeric_scan(ctx: Context) -> list[Step]:
    rng = ctx.rng
    wildest = ctx.doc("wildest.grid", "wildest")
    z36 = ctx.doc("z36.grid", "z36")
    pqrs = ctx.doc("pqrs.grid", "pqrs", "--p", "3", "--q", "2", "--r", "4", "--s", "3")
    z36_entry = ind.periodic_entry(ind.Z36)
    pqrs_entry = ind.periodic_entry(ind.pqrs_block(3, 2, 4, 3))

    def origin():
        return rng.randrange(-1000, 1000), rng.randrange(-1000, 1000)

    steps = []

    def report(name, model, entry, h, w, modulus=None):
        i0, j0 = origin()

        def check(rep, _):
            check_report(rep, entry, i0, j0, h, w, modulus)
            if modulus is None and w % 10 == 0:
                expect(rep.wild_count * 5 == 2 * h * w, f"{rep.wild_count} wild cells, not 2/5 of {h}x{w}")
            if modulus is not None:
                expect(rep.wild_count == h * w, "a fully-wild block has a tame cell")

        steps.append(Step(name, lambda: sl2.wildness_report(model, i0, j0, h, w), check,
                          lambda rep: {"cells": rep.rows * rep.cols}))

    report("report_wildest_160x200", wildest, ind.wildest_entry, 160, 200)
    report("report_z36_100x100", z36, z36_entry, 100, 100, 36)
    report("report_pqrs_100x100", pqrs, pqrs_entry, 100, 100, 72)

    def verify(name, model, entry, size, modulus=None):
        i0, j0 = origin()

        def check(fault, _):
            expect(ind.first_bad_2x2(entry, i0, j0, size, size, modulus) is None, "reference found a fault")
            expect(fault is None, f"violation reported in an SL2 window: {fault}")

        steps.append(Step(name, lambda: sl2.verify_window(sl2.extract_window(model, i0, j0, size, size)), check))

    verify("verify_wildest_200", wildest, ind.wildest_entry, 200)
    verify("verify_z36_200", z36, z36_entry, 200, 36)

    # One cell of a wildest window moved by +1, at a seeded cell where that
    # breaks some 2x2 window (a cell with zero diagonal neighbours would not).
    pi, pj = origin()
    while True:
        pr, pc = rng.randrange(1, 39), rng.randrange(1, 39)

        def broken_entry(i, j, at=(pi + pr, pj + pc)):
            return ind.wildest_entry(i, j) + ((i, j) == at)

        where = ind.first_bad_2x2(broken_entry, pi, pj, 40, 40)
        if where is not None:
            break
    clean = sl2.extract_window(wildest, pi, pj, 40, 40)
    rows = [[clean.at(r, c) for c in range(40)] for r in range(40)]
    rows[pr][pc] = rows[pr][pc] + sl2.INTEGERS.one()
    broken = sl2.Window(sl2.Matrix.from_rows(sl2.INTEGERS, rows), (pi, pj))

    def check_broken(fault, _):
        expect(fault is not None and (fault.i, fault.j) == where, f"violation {fault}, expected at {where}")
        i, j = where
        det = broken_entry(i, j) * broken_entry(i + 1, j + 1) - broken_entry(i, j + 1) * broken_entry(i + 1, j)
        expect(fault.value.constant_value() == det, "violation value")

    steps.append(Step("verify_perturbed_40", lambda: sl2.verify_window(broken), check_broken))

    def audit(name, fn, model, entry, size, modulus=None, cross=False):
        i0, j0 = origin()

        def check(finding, _):
            if cross:
                where = ind.first_cross_fault(entry, i0, j0, size, size)
            else:
                where = ind.first_identity_fault(entry, i0, j0, size, size, modulus)
            expect(where is None, f"reference finds an identity failing at {where}")
            expect(finding is None, f"audit reports {finding}")

        steps.append(Step(name, lambda: fn(sl2.extract_window(model, i0, j0, size, size)), check))

    audit("dodgson_wildest_60", sl2.dodgson_audit, wildest, ind.wildest_entry, 60)
    audit("corner_wildest_60", sl2.corner_audit, wildest, ind.wildest_entry, 60)
    audit("cross_wildest_60", sl2.zero_cross_audit, wildest, ind.wildest_entry, 60, cross=True)
    audit("dodgson_z36_40", sl2.dodgson_audit, z36, z36_entry, 40, 36)
    audit("corner_pqrs_40", sl2.corner_audit, pqrs, pqrs_entry, 40, 72)

    radii = [rng.randrange(15, 30), rng.randrange(200, 300), rng.randrange(500, 700)]

    def check_density(samples, _):
        classes = ind.wildest_row_classes()
        for k, (s, r) in enumerate(zip(samples, radii)):
            own = ind.disc_counts_direct(r) if k == 0 else ind.disc_counts_by_rows(r, classes)
            expect((s.radius, s.wild, s.total) == (r, *own), f"disc r={r}: {s.wild}/{s.total}, expected {own}")

    steps.append(Step("density_discs", lambda: sl2.wild_density_windows(wildest, radii), check_density))

    def check_spectrum(spectrum, _):
        p, q, r, s = 3, 2, 4, 3
        n = p * q * r * s
        allowed = {x % n for x in (p * q * r, p * q * s, p * r * s, q * r * s)}
        own = {ind.centered_det3(pqrs_entry, i, j) % n for i in range(4) for j in range(4)}
        expect(spectrum == own and own <= allowed and 0 not in own, f"spectrum {spectrum}, expected {own}")

    steps.append(Step("pqrs_spectrum", lambda: sl2.pqrs_det3_spectrum(sl2.PqrsParams(3, 2, 4, 3)),
                      check_spectrum))

    ri, rj = origin()

    def check_svg(svg, _):
        wild = ind.wild_grid(ind.wildest_entry, ri, rj, 50, 50)
        hexes = [HEX[own_color(wild[r][c], ind.on_lattice(ri + r, rj + c), ind.wildest_entry(ri + r, rj + c))]
                 for r in range(50) for c in range(50)]
        check_render(svg, hexes)
        expect(svg.count('fill="#000000"') == sum(map(sum, wild)), "black cells differ from the wild count")

    steps.append(Step("render_wildest_50", lambda: sl2.render_svg(wildest, (ri, rj, 50, 50)), check_svg))
    steps.append(Step("render_z36", lambda: sl2.render_svg(z36, options=sl2.RenderOptions(labels=True)),
                      lambda svg, _: check_render(svg, [HEX["zero-wild"]] * 16,
                                                  [str(x) for row in ind.Z36 for x in row])))

    vi, vj = origin()

    def check_cli_verify(res, _):
        cli_ok(res, "verify")
        doc = json.loads(res.out)
        expect(doc["ok"] is True and doc["violations"] == [], "sl2 verify did not report ok")
        expect(ind.first_bad_2x2(ind.wildest_entry, vi, vj, 200, 200) is None, "reference found a fault")

    steps.append(Step("cli_verify_window_200",
                      lambda: ctx.sl2("verify", "wildest.grid", "--window", str(vi), str(vj), "200", "200", "--json"),
                      check_cli_verify))

    ai, aj = origin()

    def check_cli_audit(res, _):
        cli_ok(res, "audit")
        doc = json.loads(res.out)
        expect(doc["ok"] is True and doc["violations"] == [], "sl2 audit did not report ok")
        # `audit --window I J H W` checks the cells of that window, inside a frame one wider.
        expect(ind.first_identity_fault(z36_entry, ai - 1, aj - 1, 42, 42, 36) is None, "reference found a fault")

    steps.append(Step("cli_audit_z36_40",
                      lambda: ctx.sl2("audit", "z36.grid", "--window", str(ai), str(aj), "40", "40", "--json"),
                      check_cli_audit))

    def check_cli_verify_pqrs(res, _):
        cli_ok(res, "verify")
        expect(json.loads(res.out)["ok"] is wrapped_sl2(ind.pqrs_block(3, 2, 4, 3), 72), "sl2 verify on pqrs")

    steps.append(Step("cli_verify_pqrs", lambda: ctx.sl2("verify", "pqrs.grid", "--json"), check_cli_verify_pqrs))
    radius = rng.randrange(300, 400)

    def check_cli_density(res, _):
        cli_ok(res, "density")
        (sample,) = json.loads(res.out)["density"]["samples"]
        own = ind.disc_counts_by_rows(radius, ind.wildest_row_classes())
        expect((sample["radius"], sample["wild"], sample["total"]) == (radius, *own), f"disc r={radius}")

    steps.append(Step("cli_density_radius",
                      lambda: ctx.sl2("density", "wildest.grid", "--radii", str(radius), "--json"), check_cli_density))
    return steps


# --- formal-rank -------------------------------------------------------------

LADDER = range(5, 16)
PROBES = (6, 8, 10, 12, 14, 16)


def formal_rank(ctx: Context) -> list[Step]:
    rng = ctx.rng
    formal = ctx.doc("formal.grid", "wildest", "--formal")
    # Origins in [-10, -1] keep the parameter numbering inside the same box
    # for every seed, so the work does not depend on the seed.
    i0, j0 = rng.randrange(-10, 0), rng.randrange(-10, 0)
    point = ind.param_point(rng)
    steps = []

    def check_formal(rep, _):
        check_report(rep, ind.wildest_entry, i0, j0, 100, 100, formal=True, point=point)
        expect(rep.wild_count == 4000, f"{rep.wild_count} wild cells, not 2/5 of 100x100")

    steps.append(Step("report_formal_100x100", lambda: sl2.wildness_report(formal, i0, j0, 100, 100),
                      check_formal, lambda rep: {"cells": rep.rows * rep.cols}))

    for n in range(1, 13):
        steps.append(Step(f"classes_n{n}", lambda n=n: sl2.enumerate_block_classes(formal, n),
                          lambda classes, _, n=n: check_classes(classes, n)))

    def rank_entries(report):
        return [(e.block_class.encoding, e.deficiency, e.method) for e in report.entries]

    for n in LADDER:
        steps.append(Step(
            f"rank_symbolic_n{n}",
            lambda n=n: sl2.rank_deficiency_report(formal, n, mode="symbolic", allow_large=True),
            lambda report, _, n=n: check_rank_entries(ctx, n, rank_entries(report))))
    for n in PROBES:
        steps.append(Step(
            f"rank_probe_n{n}",
            lambda n=n: sl2.rank_deficiency_report(formal, n, mode="probe", seed=ctx.seed),
            lambda report, _, n=n: check_rank_entries(ctx, n, rank_entries(report))))

    for n, mode in ((9, "both"), (7, "symbolic"), (11, "probe")):
        def check_cli_rank(res, _, n=n):
            cli_ok(res, "rank")
            doc = json.loads(res.out)
            check_rank_entries(ctx, n, [(c["encoding"], c["deficiency"], c["method"]) for c in doc["classes"]])

        steps.append(Step(f"cli_rank_n{n}_{mode}",
                          lambda n=n, mode=mode: ctx.sl2("rank", "formal.grid", "--n", str(n), "--mode", mode,
                                                         "--seed", str(ctx.seed), "--json"),
                          check_cli_rank))

    def check_cli_classes(res, _):
        cli_ok(res, "classes")
        check_classes([sl2.BlockClass(c["encoding"], None, c["orbit_size"]) for c in json.loads(res.out)["classes"]], 12)

    steps.append(Step("cli_classes_n12", lambda: ctx.sl2("classes", "formal.grid", "--n", "12", "--json"),
                      check_cli_classes))
    r = max(max(LADDER), max(PROBES))
    ctx.notes.append(
        f"rank check: {RANK_POINTS} points per class, parameters uniform in [1, 2^24]; a nonzero "
        f"r x r minor (degree <= r <= {r}) vanishes at one point with probability <= r/2^24 "
        f"= {Fraction(r, SPAN)} (Schwartz-Zippel)")
    return steps


# --- search ------------------------------------------------------------------

DFS_CONFIGS = ((4, 4, 4, 1), (5, 4, 4, 1), (8, 3, 4, 1), (5, 4, 4, 2), (3, 3, 4, 1), (6, 3, 3, 1))
ORACLE_CONFIGS = ((3, 3, 4), (6, 3, 3))
BUDGET = (36, 4, 4, 200_000)


def search(ctx: Context) -> list[Step]:
    rng = ctx.rng
    z36_doc = ctx.doc("z36.grid", "z36")
    pqrs_doc = ctx.doc("pqrs.grid", "pqrs", "--p", "3", "--q", "2", "--r", "4", "--s", "3")
    z36, pqrs = ind.Z36, ind.pqrs_block(3, 2, 4, 3)
    steps = [Step("catalog_blocks",
                  lambda: [tuple(map(tuple, d.block.to_int_rows())) for d in (z36_doc, pqrs_doc)],
                  lambda got, _: expect(got == [z36, pqrs], "catalog blocks differ from the paper's"))]
    own_cache: dict = {}

    def own(modulus, h, w):
        key = (modulus, h, w)
        if key not in own_cache:
            own_cache[key] = ind.fully_wild_blocks(modulus, h, w)
        return own_cache[key]

    for modulus, h, w, jobs in DFS_CONFIGS:
        name = f"dfs_{h}x{w}_mod{modulus}" + (f"_jobs{jobs}" if jobs > 1 else "")

        def check(result, results, modulus=modulus, h=h, w=w, jobs=jobs):
            expect(result.solutions == own(modulus, h, w), "DFS solutions differ from the row-transfer enumeration")
            expect(result.stats.solutions == len(result.solutions) and not result.stats.budget_exhausted,
                   "DFS stats")
            if jobs > 1:
                single = results.get(f"dfs_{h}x{w}_mod{modulus}")
                expect(single is not None and single.stats.nodes == result.stats.nodes,
                       "the 2-worker DFS visits a different number of nodes")

        steps.append(Step(name, lambda c=sl2.SearchConfig(modulus, h, w, worker_count=jobs): sl2.search_fully_wild(c),
                          check, lambda result: {"dfs_nodes": result.stats.nodes}))

    modulus, h, w, budget = BUDGET

    def check_budget(result, _):
        expect(result.stats.nodes == budget and result.stats.budget_exhausted, f"budgeted run stats {result.stats}")
        for block in result.solutions:
            expect(wrapped_sl2(block, modulus) and ind.wrapped_fully_wild(block, modulus)
                   and ind.torus_min(block) == block, f"bad solution {block}")

    steps.append(Step(f"dfs_4x4_mod36_budget{budget}",
                      lambda: sl2.search_fully_wild(sl2.SearchConfig(modulus, h, w, node_budget=budget)),
                      check_budget, lambda result: {"dfs_nodes": result.stats.nodes}))

    for modulus, h, w in ORACLE_CONFIGS:
        def check_oracle(result, results, modulus=modulus, h=h, w=w):
            expect(result.solutions == own(modulus, h, w), "oracle solutions differ from the row-transfer enumeration")
            expect(result.stats.nodes == modulus ** (h * w), "oracle state count")
            dfs = results.get(f"dfs_{h}x{w}_mod{modulus}")
            expect(dfs is not None and dfs.solutions == result.solutions, "DFS and oracle disagree")

        steps.append(Step(f"oracle_{h}x{w}_mod{modulus}", lambda m=modulus, h=h, w=w: sl2.brute_force_oracle(m, h, w),
                          check_oracle, lambda result: {"oracle_states": result.stats.nodes}))

    # The known fully-wild blocks, all their torus translates, seeded one-cell
    # perturbations, and near misses: one row or column doubled, which turns
    # exactly two windows' determinant into 2.
    cases = [(b, 36) for b in translates(z36)] + [(b, 72) for b in translates(pqrs)]
    for _ in range(16):
        block, modulus = cases[rng.randrange(32)]
        r, c, d = rng.randrange(4), rng.randrange(4), rng.randrange(1, modulus)
        cases.append((tuple(tuple((x + d) % modulus if (i, j) == (r, c) else x for j, x in enumerate(row))
                            for i, row in enumerate(block)), modulus))
    for _ in range(8):
        block, modulus = cases[rng.randrange(32)]
        k = rng.randrange(4)
        doubled = tuple(tuple(2 * x % modulus if i == k else x for x in row) for i, row in enumerate(block))
        cases.append((doubled, modulus))
        cases.append((tuple(zip(*(tuple(2 * x % modulus if i == k else x for x in row)
                                  for i, row in enumerate(zip(*block))))), modulus))

    def predicates():
        return [(sl2.block_is_sl2(b, m), sl2.block_is_fully_wild(b, m), sl2.canonical_block(b)) for b, m in cases]

    def check_predicates(result, _):
        for (block, modulus), got in zip(cases, result):
            want = (wrapped_sl2(block, modulus), ind.wrapped_fully_wild(block, modulus), ind.torus_min(block))
            expect(got == want, f"predicates on {block} mod {modulus}: {got[:2]}, expected {want[:2]}")
        expect(all(got[0] and got[1] for got in result[:32]), "a known fully-wild block was rejected")

    steps.append(Step("block_predicates", predicates, check_predicates))

    def check_cli_search(res, results):
        cli_ok(res, "search")
        doc = json.loads(res.out)
        expect(doc["solutions"] == [list(map(list, b)) for b in own(4, 4, 4)], "sl2 search solutions")
        dfs = results.get("dfs_4x4_mod4")
        expect(dfs is not None and doc["stats"]["nodes"] == dfs.stats.nodes, "sl2 search node count")

    steps.append(Step("cli_search_4x4_mod4", lambda: ctx.sl2("search", "--modulus", "4", "--json"),
                      check_cli_search))

    def check_cli_oracle(res, _):
        cli_ok(res, "search --oracle")
        doc = json.loads(res.out)
        expect(doc["solutions"] == [list(map(list, b)) for b in own(3, 3, 4)] and doc["stats"]["nodes"] == 3 ** 12,
               "sl2 search --oracle on 3x4 mod 3")

    steps.append(Step("cli_oracle_3x4_mod3",
                      lambda: ctx.sl2("search", "--modulus", "3", "--rows", "3", "--cols", "4", "--oracle", "--json"),
                      check_cli_oracle))

    def check_cli_budget(res, _):
        cli_ok(res, "search --budget")
        stats = json.loads(res.out)["stats"]
        expect(stats["nodes"] == 20_000 and stats["budget_exhausted"] is True, f"budgeted sl2 search: {stats}")

    steps.append(Step("cli_search_mod36_budget20000",
                      lambda: ctx.sl2("search", "--modulus", "36", "--budget", "20000", "--json"), check_cli_budget))

    def check_cli_mod5(res, _):
        cli_ok(res, "search")
        expect(json.loads(res.out)["solutions"] == [list(map(list, b)) for b in own(5, 3, 3)], "sl2 search 3x3 mod 5")

    steps.append(Step("cli_search_3x3_mod5",
                      lambda: ctx.sl2("search", "--modulus", "5", "--rows", "3", "--cols", "3", "--json"),
                      check_cli_mod5))
    return steps


# --- cli-session -------------------------------------------------------------

FAR_ROW = 600


def cli_session(ctx: Context) -> list[Step]:
    rng = ctx.rng
    ref = ctx.workdir / "ref"
    ref.mkdir()
    cli.main(["generate", "wildest", "--out", str(ref / "wildest.grid")])
    cli.main(["generate", "wildest", "--formal", "--out", str(ref / "formal.grid")])
    r_small, r_large = rng.randrange(40, 60), rng.randrange(450, 550)
    far_j = rng.randrange(0, 10)
    steps = []

    def step(name, args, check):
        steps.append(Step(name, lambda: ctx.sl2(*args), check))

    def same_as_reference(name):
        def check(res, _):
            cli_ok(res, "generate")
            text = (ctx.workdir / name).read_text(encoding="utf-8")
            expect(text == (ref / name).read_text(encoding="utf-8"), f"{name} differs from in-process generate")
            lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            expect(lines[0] == "sl2tiling v1" and "kind: patched" in lines and "lattice: 3 1 10 6" in lines
                   and lines[-1].split() == ["0", "1", "0", "-1"], f"{name} header")
        return check

    step("generate_wildest", ["generate", "wildest", "--out", "wildest.grid"], same_as_reference("wildest.grid"))

    def check_verify(res, _):
        cli_ok(res, "verify")
        doc = json.loads(res.out)
        expect(doc["command"] == "verify" and doc["ok"] is True and doc["violations"] == [], "verify json")

    step("verify_json", ["verify", "wildest.grid", "--json"], check_verify)

    def check_exact(res, _):
        cli_ok(res, "density")
        wild = ind.wild_grid(ind.wildest_entry, 0, 0, 20, 20)
        own = Fraction(sum(map(sum, wild)), 400)
        expect(res.out.strip() == f"exact wild density: {own}", f"density output {res.out.strip()!r}")

    step("density_exact", ["density", "wildest.grid", "--exact"], check_exact)

    def check_radii(res, _):
        cli_ok(res, "density")
        rows = re.findall(r"r=(\d+) wild=(\d+) total=(\d+)", res.out)
        own = [(r_small, *ind.disc_counts_direct(r_small)),
               (r_large, *ind.disc_counts_by_rows(r_large, ind.wildest_row_classes()))]
        expect([tuple(map(int, row)) for row in rows] == own, f"disc counts {rows}, expected {own}")

    step("density_radii", ["density", "wildest.grid", "--radii", f"{r_small},{r_large}"], check_radii)
    step("generate_formal", ["generate", "wildest", "--formal", "--out", "formal.grid"],
         same_as_reference("formal.grid"))

    def check_classes_out(res, _):
        cli_ok(res, "classes")
        own = ind.block_classes(5)
        found = re.findall(r"class \d+ \(orbit (\d+)\): (.*)", res.out)
        expect(res.out.startswith(f"n=5: {len(own)} classes") and len(found) == len(own), "class count")
        for orbit, encoding in found:
            key = ind.class_key(ind.parse_encoding(encoding, 5))
            expect(key in own and own[key][1] == int(orbit), f"class {encoding!r}")

    step("classes_n5", ["classes", "formal.grid", "--n", "5"], check_classes_out)

    def check_rank_out(res, _):
        cli_ok(res, "rank")
        found = re.findall(r"class (\d+) \[(symbolic|evaluation-bound)\]: deficiency (\d+)", res.out)
        symbolic = {k: int(d) for k, m, d in found if m == "symbolic"}
        probe = {k: int(d) for k, m, d in found if m != "symbolic"}
        expect(sorted(symbolic.values()) == [0, 0, 1, 2], f"n=5 deficiencies {sorted(symbolic.values())}")
        expect(probe.keys() == symbolic.keys() and all(probe[k] >= symbolic[k] for k in probe),
               "probe deficiency below symbolic")

    step("rank_n5_both", ["rank", "formal.grid", "--n", "5", "--mode", "both"], check_rank_out)

    def check_pqrs(res, _):
        cli_ok(res, "generate")
        lines = [ln.split() for ln in res.out.strip().splitlines()[-4:]]
        values = [[int(x) for x in row] for row in lines]
        own = ind.pqrs_block(3, 2, 4, 3)
        expect(all(v % 72 == o and -36 < v <= 36 for row, orow in zip(values, own) for v, o in zip(row, orow)),
               f"signed pqrs block {values}")
        expect("ring: Z/72" in res.out, "pqrs ring")

    step("generate_pqrs_signed", ["generate", "pqrs", "--p", "3", "--q", "2", "--r", "4", "--s", "3", "--signed"],
         check_pqrs)

    def check_cross(res, _):
        cli_ok(res, "audit")
        expect(ind.first_cross_fault(ind.wildest_entry, -1, -1, 42, 42) is None, "reference finds a cross fault")
        expect(res.out.strip() == "ok: cross", f"audit output {res.out.strip()!r}")

    step("audit_cross", ["audit", "wildest.grid", "--cross"], check_cross)

    def check_search(res, _):
        cli_ok(res, "search")
        own = ind.fully_wild_blocks(3, 4, 4)
        expect(re.search(rf"# solutions={len(own)} nodes=\d+ budget_exhausted=false\s*$", res.out),
               f"search summary {res.out.strip()[-80:]!r}")

    step("search_mod3_4x4", ["search", "--modulus", "3", "--rows", "4", "--cols", "4"], check_search)

    def check_render_default(res, _):
        cli_ok(res, "render")
        svg = (ctx.workdir / "wildest.svg").read_text(encoding="utf-8")
        wild = ind.wild_grid(ind.wildest_entry, 0, 0, 20, 20)
        cells = [(r, c) for r in range(20) for c in range(20)]
        check_render(svg, [HEX[own_color(wild[r][c], ind.on_lattice(r, c), ind.wildest_entry(r, c))]
                           for r, c in cells],
                     [str(ind.wildest_entry(r, c)) for r, c in cells])

    step("render_labels", ["render", "wildest.grid", "--out", "wildest.svg", "--labels"], check_render_default)

    def check_far(res, _):
        cli_ok(res, "render")
        svg = (ctx.workdir / "far.svg").read_text(encoding="utf-8")
        cells = [(FAR_ROW + r, far_j + c) for r in range(4) for c in range(4)]
        labels = [f"a{ind.box_scan_index(i, j)}" if ind.on_lattice(i, j) else str(ind.wildest_entry(i, j))
                  for i, j in cells]
        point = ind.param_point(rng)
        wild = ind.wild_grid(lambda i, j: ind.wildest_entry(i, j, point), FAR_ROW, far_j, 4, 4)
        hexes = [HEX[own_color(wild[i - FAR_ROW][j - far_j], ind.on_lattice(i, j), ind.wildest_entry(i, j))]
                 for i, j in cells]
        check_render(svg, hexes, labels)

    step("render_far_window", ["render", "formal.grid", "--out", "far.svg", "--window", str(FAR_ROW), str(far_j),
                               "4", "4", "--labels"], check_far)
    return steps


WORKLOADS = {
    "numeric-scan": numeric_scan,
    "formal-rank": formal_rank,
    "search": search,
    "cli-session": cli_session,
}
