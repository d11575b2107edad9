"""Command line interface.

Exit codes: 0 success, 1 verification failure / audit counterexample /
render refusal, 2 usage, parse, or unsupported-operation errors, and files
that cannot be read or written.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .blocks import enumerate_block_classes, rank_deficiency_report
from .catalog import (
    WILDEST_LATTICE,
    PqrsParams,
    pqrs_tiling,
    unit_tiling,
    wildest_integer_tiling,
    z36_tiling,
)
from .errors import (
    StructuralError,
    UnsupportedOperationError,
    ValidationError,
)
from .gridio import _WINDOW_CELLS, GridParseError, parse_grid, write_grid
from .matrices import Matrix
from .rings import ModularRing
from .search import SearchConfig, brute_force_oracle, search_fully_wild
from .svg import RenderOptions, UnverifiedModelError, render_svg
from .tiling import (
    FormalParameters,
    NumericParameters,
    Patched,
    PeriodicBlock,
    Window,
    audit_window,
    extract_window,
    parameter_position,
    verify_sl2,
    verify_window,
    wild_density_exact,
    wild_density_windows,
)


def _describe(obj) -> str:
    if isinstance(obj, PeriodicBlock):
        return f"periodic {obj.h}x{obj.w} over {obj.ring}"
    if isinstance(obj, Patched):
        lat = obj.lattice
        return (
            f"patched {lat.u}i+{lat.v}j={lat.t} (mod {lat.m}) over {obj.ring}"
        )
    i, j = obj.origin
    return f"window {obj.rows}x{obj.cols} at ({i}, {j}) over {obj.matrix.spec}"


def _bound_cells(what: str, h: int, w: int) -> None:
    if h * w > _WINDOW_CELLS:
        raise UnsupportedOperationError(
            f"{what} {h}x{w} has {h * w} cells, over the bound of {_WINDOW_CELLS}"
        )


def _window(args, obj) -> tuple[int, int, int, int] | None:
    """--window of a model document, refused when empty or above the cell
    bound before any cell is built."""
    if args.window is None:
        return None
    if isinstance(obj, Window):
        raise ValidationError("--window applies to model documents only")
    h, w = args.window[2:]
    if h < 1 or w < 1:
        raise ValidationError(f"window shape must be positive, got {h}x{w}")
    _bound_cells("window", h, w)
    return tuple(args.window)


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_grid(text)


def _write(path: str, doc: str) -> None:
    try:
        Path(path).write_text(doc, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _print_json(payload: dict) -> None:
    import json  # here, so that text output skips its import

    print(json.dumps(payload, indent=2))


def _report(args, lines, **fields) -> int:
    """Print a command's result, stated once: its frozen JSON fields under
    --json, else its text lines, which are only formatted when printed.
    The exit code is 0 when the result is ok, else 1."""
    if args.json:
        _print_json({"command": args.command, **fields})
    else:
        for line in lines:
            print(line)
    return 0 if fields["ok"] else 1


def _class_row(block_class, deficiency=None, method=None) -> dict:
    return {
        "encoding": block_class.encoding,
        "deficiency": deficiency,
        "method": method,
        "orbit_size": block_class.orbit_size,
    }


def _parse_param_list(text: str) -> tuple[dict[int, int], int]:
    """--params entries `k=v` keyed by parameter index, plus `default=v`."""
    explicit: dict[int, int] = {}
    default = None
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValidationError(f"bad parameter entry {item!r}, expected k=v")
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(f"bad parameter value {raw!r}") from None
        if key == "default":
            if default is not None:
                raise ValidationError("duplicate default parameter value")
            default = value
        else:
            try:
                index = int(key)
            except ValueError:
                raise ValidationError(f"bad parameter index {key!r}") from None
            if index in explicit:
                raise ValidationError(f"duplicate parameter index {key!r}")
            explicit[index] = value
    return explicit, 1 if default is None else default


def _cmd_generate(args) -> int:
    if args.family == "unit":
        model = unit_tiling()
    elif args.family == "z36":
        model = z36_tiling()
    elif args.family == "pqrs":
        missing = [k for k in ("p", "q", "r", "s") if getattr(args, k) is None]
        if missing:
            raise ValidationError(
                "pqrs needs --p --q --r --s, missing " + ", ".join(missing)
            )
        model = pqrs_tiling(PqrsParams(args.p, args.q, args.r, args.s))
    else:
        if args.formal and args.params:
            raise ValidationError("--formal and --params are mutually exclusive")
        if args.formal:
            model = wildest_integer_tiling(FormalParameters())
        elif args.params:
            by_index, default = _parse_param_list(args.params)
            positions = {
                parameter_position(WILDEST_LATTICE, k): v for k, v in by_index.items()
            }
            model = wildest_integer_tiling(
                NumericParameters.from_mapping(positions, default)
            )
        else:
            model = wildest_integer_tiling()
    doc = write_grid(model, signed=args.signed)
    if args.out:
        _write(args.out, doc)
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_verify(args) -> int:
    obj = _load(args.file)
    window = _window(args, obj)
    target = obj if window is None else extract_window(obj, *window)
    fault = verify_window(target) if isinstance(target, Window) else verify_sl2(target)
    if fault is None:
        violations, lines = [], ("ok: every 2x2 determinant is 1",)
    else:
        violations = [{"i": fault.i, "j": fault.j, "value": str(fault.value)}]
        lines = (f"violation at ({fault.i}, {fault.j}): determinant {fault.value}",)
    return _report(args, lines, model=_describe(obj), ok=fault is None, violations=violations)


def _cmd_density(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, Window):
        raise ValidationError("density applies to model documents, not windows")
    if args.radii is not None:
        try:
            radii = [int(r) for r in args.radii.split(",") if r.strip()]
        except ValueError:
            raise ValidationError(f"bad radii list {args.radii!r}") from None
        samples = [
            {"radius": s.radius, "wild": s.wild, "total": s.total, "ratio": float(s.ratio)}
            for s in wild_density_windows(obj, radii)
        ]
        density = {"samples": samples}
        lines = (
            f"r={s['radius']} wild={s['wild']} total={s['total']} ratio={s['ratio']:.6f}"
            for s in samples
        )
    else:
        exact = wild_density_exact(obj)
        density = {"exact_num": exact.numerator, "exact_den": exact.denominator}
        lines = (f"exact wild density: {exact}",)
    return _report(args, lines, model=_describe(obj), ok=True, density=density)


def _cmd_classes(args) -> int:
    obj = _load(args.file)
    classes = enumerate_block_classes(obj, args.n)

    def lines():
        yield f"n={args.n}: {len(classes)} classes"
        for idx, c in enumerate(classes, 1):
            yield f"class {idx} (orbit {c.orbit_size}): {c.encoding}"

    return _report(
        args, lines(), model=_describe(obj), ok=True,
        classes=[_class_row(c) for c in classes], stats={"n": args.n, "count": len(classes)},
    )


def _cmd_rank(args) -> int:
    obj = _load(args.file)
    report = rank_deficiency_report(obj, args.n, mode=args.mode, seed=args.seed)

    def lines():
        yield f"n={report.n}: {len(report.entries)} rank entries"
        by_class: dict[str, int] = {}
        for e in report.entries:
            idx = by_class.setdefault(e.block_class.encoding, len(by_class) + 1)
            yield f"class {idx} [{e.method}]: deficiency {e.deficiency}"

    rows = [_class_row(e.block_class, e.deficiency, e.method) for e in report.entries]
    return _report(
        args, lines(), model=_describe(obj), ok=True,
        classes=rows, stats={"n": report.n, "count": len(rows)},
    )


def _cmd_audit(args) -> int:
    obj = _load(args.file)
    checks = [name for name in ("dodgson", "corner", "cross") if getattr(args, name)]
    checks = checks or ["dodgson", "corner"]
    i0, j0, h, w = _window(args, obj) or (0, 0, 40, 40)
    win = obj if isinstance(obj, Window) else extract_window(obj, i0 - 1, j0 - 1, h + 2, w + 2)
    findings = [f for f in audit_window(win, checks) if f is not None]
    lines = (
        (f"{f.check} violation at ({f.i}, {f.j}): {f.detail}" for f in findings)
        if findings else ("ok: " + ", ".join(checks),)
    )
    violations = [{"i": f.i, "j": f.j, "check": f.check, "detail": f.detail} for f in findings]
    return _report(args, lines, model=_describe(obj), ok=not findings, violations=violations)


def _cmd_search(args) -> int:
    if args.oracle and (args.budget is not None or args.jobs != 1 or args.prune_nonunits):
        raise ValidationError("--oracle does not combine with pruning, budgets, or jobs")
    if args.oracle:
        result = brute_force_oracle(args.modulus, args.rows, args.cols)
    else:
        config = SearchConfig(args.modulus, args.rows, args.cols, prune_nonunits=args.prune_nonunits,
                              node_budget=args.budget, worker_count=args.jobs)
        _bound_cells("block", config.rows, config.cols)
        result = search_fully_wild(config)
    stats = {
        "nodes": result.stats.nodes,
        "solutions": result.stats.solutions,
        "budget_exhausted": result.stats.budget_exhausted,
    }

    def lines():
        ring = ModularRing(args.modulus)
        for block in result.solutions:
            yield write_grid(PeriodicBlock(ring, Matrix.from_ints(ring, block)))
        yield (
            f"# solutions={stats['solutions']} nodes={stats['nodes']} "
            f"budget_exhausted={str(stats['budget_exhausted']).lower()}"
        )

    solutions = [[list(row) for row in block] for block in result.solutions]
    return _report(args, lines(), ok=True, stats=stats, solutions=solutions)


def _cmd_render(args) -> int:
    obj = _load(args.file)
    svg = render_svg(
        obj,
        region=_window(args, obj),
        options=RenderOptions(cell_size=args.cell_size, labels=args.labels),
        force=args.force,
    )
    _write(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2", description="SL2-tiling construction, analysis, and search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, file: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        if file:
            cmd.add_argument("file")
        return cmd

    gen = command("generate", _cmd_generate, "write a catalog model as a grid document", file=False)
    gen.add_argument("family", choices=["unit", "wildest", "pqrs", "z36"])
    for name in ("--p", "--q", "--r", "--s"):
        gen.add_argument(name, type=int, default=None)
    gen.add_argument("--params", default=None, metavar="K=V,...",
                     help="numeric parameters by index, e.g. 1=5,3=-2,default=1")
    gen.add_argument("--formal", action="store_true")
    gen.add_argument("--signed", action="store_true",
                     help="render residues above N/2 as negatives")
    gen.add_argument("--out", default=None, metavar="FILE")

    ver = command("verify", _cmd_verify, "check every 2x2 determinant is 1")

    den = command("density", _cmd_density, "wild density, exact or sampled over discs")
    group = den.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--radii", default=None, metavar="R1,R2,...")

    cls = command("classes", _cmd_classes, "equivalence classes of n x n blocks")
    rnk = command("rank", _cmd_rank, "rank deficiencies of block class representatives")
    for cmd in (cls, rnk):
        cmd.add_argument("--n", type=int, required=True)
    rnk.add_argument("--mode", choices=["symbolic", "probe", "both"], default="symbolic")
    rnk.add_argument("--seed", type=int, default=0)

    aud = command("audit", _cmd_audit, "structural identity checks over a window")
    for name in ("--dodgson", "--corner", "--cross"):
        aud.add_argument(name, action="store_true")

    srch = command("search", _cmd_search, "search for fully-wild periodic blocks", file=False)
    srch.add_argument("--modulus", type=int, required=True)
    srch.add_argument("--rows", type=int, default=4)
    srch.add_argument("--cols", type=int, default=4)
    srch.add_argument("--prune-nonunits", action="store_true")
    srch.add_argument("--oracle", action="store_true",
                      help="brute-force enumeration instead of the DFS")
    srch.add_argument("--budget", type=int, default=None)
    srch.add_argument("--jobs", type=int, default=1)

    ren = command("render", _cmd_render, "render a window to SVG")
    ren.add_argument("--out", required=True, metavar="FILE.svg")
    ren.add_argument("--cell-size", type=int, default=24, metavar="PX")
    ren.add_argument("--labels", action="store_true")
    ren.add_argument("--force", action="store_true")

    # Added last: --help lists each command's options in the order they are added.
    for cmd in (ver, aud, ren):
        cmd.add_argument("--window", nargs=4, type=int, metavar=("I0", "J0", "H", "W"))
    for cmd in (ver, den, cls, rnk, aud, srch):
        cmd.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GridParseError, ValidationError, UnsupportedOperationError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnverifiedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    # Move the start-up heap to the permanent generation: exit skips freeing it.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing reads stdout: send the flush at exit to devnull, quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
