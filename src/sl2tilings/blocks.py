"""Equivalence classes of n x n blocks of the wildest tiling and their ranks.

Two blocks are equivalent when one maps to the other by a square symmetry
(rotation or reflection), a sign change of the +-1 background entries, and a
relabeling of the parameters.  Because the tiling's own translations realize
sign changes along alternating rows or columns (shifting the 4-periodic
background by two negates it), the sign-change part of the group is the 8
alternating patterns (-1)^(alpha*i + beta*j + gamma), not just the global
flip.  Parameters are never negated: they stand for arbitrary nonzero values.

Canonical encodings serialize a block row-major with tokens 0 / + / - / pK,
renaming parameters in first-occurrence order, and take the minimum over the
64 transforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import StructuralError, UnsupportedOperationError, ValidationError
from .matrices import Matrix, bareiss_rank
from .rings import INTEGERS, RingSpec, RingValue, poly_eval
from .tiling import Patched, TilingModel, Window, extract_window

MAX_CLASS_DIM = 12
MAX_SYMBOLIC_DIM = 9
_PROBE_TRIALS = 5
# Probe rank at n = 48 takes a few seconds; it grows about as n^3.
_MAX_PROBE_DIM = 48
# Certified rank: the prime of the modular lower bound, the seed of its
# evaluation point, and the largest kernel support expanded into minors.
_P = (1 << 61) - 1
_POINT_SEED = "sl2tilings certified rank"
_MAX_SUPPORT = 12

_ZERO = "0"
_PLUS = "+"
_MINUS = "-"


def _cell_token(v: RingValue) -> object:
    var = v.single_variable()
    if var is not None:
        return ("p", var)
    c = v.constant_value()
    if c == 0:
        return _ZERO
    if c == 1:
        return _PLUS
    if c == -1:
        return _MINUS
    raise StructuralError(f"entry {v} is outside the 0 / +1 / -1 / parameter alphabet")


def _dihedral_images(grid: list[list[object]]) -> list[list[list[object]]]:
    n = len(grid)
    idx = range(n)

    def build(f):
        return [[grid[f(r, c)[0]][f(r, c)[1]] for c in idx] for r in idx]

    return [
        build(lambda r, c: (r, c)),
        build(lambda r, c: (n - 1 - c, r)),
        build(lambda r, c: (n - 1 - r, n - 1 - c)),
        build(lambda r, c: (c, n - 1 - r)),
        build(lambda r, c: (c, r)),
        build(lambda r, c: (n - 1 - c, n - 1 - r)),
        build(lambda r, c: (r, n - 1 - c)),
        build(lambda r, c: (n - 1 - r, c)),
    ]


def _serialize(grid: list[list[object]], alpha: int, beta: int, gamma: int) -> str:
    rename: dict[int, int] = {}
    out = []
    for r, row in enumerate(grid):
        for c, tok in enumerate(row):
            if isinstance(tok, tuple):
                var = tok[1]
                if var not in rename:
                    rename[var] = len(rename) + 1
                out.append(f"p{rename[var]}")
            elif tok is _ZERO:
                out.append(_ZERO)
            elif (alpha * r + beta * c + gamma) % 2:
                out.append(_MINUS if tok is _PLUS else _PLUS)
            else:
                out.append(tok)
    return " ".join(out)


def canonical_block_form(win: Window) -> str:
    """Minimal serialization of a square block over its symmetry group."""
    if win.rows != win.cols:
        raise StructuralError(f"block must be square, got {win.rows}x{win.cols}")
    grid = [[_cell_token(win.at(r, c)) for c in range(win.cols)] for r in range(win.rows)]
    best = None
    for image in _dihedral_images(grid):
        for alpha in (0, 1):
            for beta in (0, 1):
                for gamma in (0, 1):
                    s = _serialize(image, alpha, beta, gamma)
                    if best is None or s < best:
                        best = s
    return best


@dataclass(frozen=True)
class BlockClass:
    """An equivalence class of n x n blocks.

    ``orbit_size`` counts how many of the m corner translates fall in the
    class, so orbit sizes over all classes sum to m.
    """

    encoding: str
    representative: Window
    orbit_size: int


def enumerate_block_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    """Classes of all n x n blocks, sorted by encoding.

    The corner windows at (0, k) for k = 0..m-1 exhaust every block up to
    translation: translating by (1, -3) preserves the pattern exactly and
    translating by (0, m) composes it with a background sign flip, both of
    which the encoding quotients out.
    """
    if not 1 <= n <= MAX_CLASS_DIM:
        raise ValidationError(f"block size must be in 1..{MAX_CLASS_DIM}, got {n}")
    return _corner_classes(t, n)


def _corner_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    if not isinstance(t, Patched) or not t.is_formal():
        raise StructuralError("block classes are defined for formal patched tilings")
    if n < 1:
        raise ValidationError(f"block size must be positive, got {n}")
    by_encoding: dict[str, tuple[Window, int]] = {}
    for k in range(t.lattice.m):
        win = extract_window(t, 0, k, n, n)
        enc = canonical_block_form(win)
        if enc in by_encoding:
            rep, count = by_encoding[enc]
            by_encoding[enc] = (rep, count + 1)
        else:
            by_encoding[enc] = (win, 1)
    classes = [
        BlockClass(enc, rep, count) for enc, (rep, count) in by_encoding.items()
    ]
    classes.sort(key=lambda c: c.encoding)
    return tuple(classes)


@dataclass(frozen=True)
class RankEntry:
    block_class: BlockClass
    deficiency: int
    method: str


@dataclass(frozen=True)
class RankReport:
    n: int
    entries: tuple[RankEntry, ...]


def _evaluation_point(variables: list[int]) -> dict[str, int]:
    rng = random.Random(_POINT_SEED)
    return {f"a{k}": rng.randrange(1, _P) for k in variables}


def _rref_mod_p(rows: list[list[int]]) -> list[int]:
    """Reduce rows (residues mod _P) to reduced row echelon form in place;
    return the pivot columns, the first of each nonzero row."""
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        inv = pow(rows[k][c], -1, _P)
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x * inv % _P for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % _P for x, y in zip(row, rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def _cramer_vector(rows: list[list[RingValue]], spec: RingSpec) -> list[RingValue]:
    """The kernel vector of an (s-1) x s matrix whose j-th entry is (-1)^j
    times the minor without column j: each row's product with it is the
    Laplace expansion of a determinant with a repeated row, hence 0."""
    s = len(rows) + 1
    # minors[cols]: determinant of the bottom len(cols) rows on columns cols.
    minors = {(): spec.one()}
    for size, row in enumerate(reversed(rows), 1):
        grown = {}
        for cols in combinations(range(s), size):
            total = spec.zero()
            for t, j in enumerate(cols):
                sub = minors[cols[:t] + cols[t + 1:]]
                if not (row[j].is_zero() or sub.is_zero()):
                    total = total - row[j] * sub if t % 2 else total + row[j] * sub
            grown[cols] = total
        minors = grown
    full = tuple(range(s))
    vector = [minors[full[:j] + full[j + 1:]] for j in full]
    return [-v if j % 2 else v for j, v in enumerate(vector)]


def _symbolic_deficiency(win: Window) -> int:
    """rows - rank over Q(a), certified by two bounds that meet.

    The rank r of the entries evaluated at one point mod _P is a lower bound:
    evaluation and reduction can only lower rank.  Each kernel basis vector
    of that reduction has a support S of one free column and the pivot
    columns it touches; s - 1 rows independent on S mod _P give an exact
    vector over Z[a] by Cramer's rule, and M * v = 0 is checked exactly.
    Vectors that evaluate to a kernel basis are independent, so the rank is
    at most r.  Any failed check, or a support above _MAX_SUPPORT, falls
    back to Bareiss elimination.
    """
    cells = [[win.at(r, c) for c in range(win.cols)] for r in range(win.rows)]
    point = _evaluation_point(sorted({k for row in cells for v in row for k in v.variables()}))
    values = [[poly_eval(v, point).payload % _P for v in row] for row in cells]
    echelon = [row[:] for row in values]
    pivots = _rref_mod_p(echelon)
    spec = win.matrix.spec
    for f in sorted(set(range(win.cols)) - set(pivots)):
        support = sorted([f] + [c for k, c in enumerate(pivots) if echelon[k][f]])
        if len(support) > _MAX_SUPPORT:
            return win.rows - bareiss_rank(win.matrix)
        chosen = _rref_mod_p([[row[j] for row in values] for j in support])
        vector = _cramer_vector([[cells[i][j] for j in support] for i in chosen], spec)
        for row in cells:
            total = spec.zero()
            for j, x in zip(support, vector):
                total = total + row[j] * x
            if not total.is_zero():
                return win.rows - bareiss_rank(win.matrix)
    return win.rows - len(pivots)


def _probe_deficiency(win: Window, seed: int) -> int:
    variables = sorted({v for r in range(win.rows) for c in range(win.cols)
                        for v in win.at(r, c).variables()})
    best = win.rows
    for trial in range(_PROBE_TRIALS):
        rng = random.Random(f"{seed}:{trial}")
        values = rng.sample(range(2, 1 << 16), len(variables))
        assignment = {f"a{k}": x for k, x in zip(variables, values)}
        rows = []
        for r in range(win.rows):
            rows.append(
                [poly_eval(win.at(r, c), assignment).payload for c in range(win.cols)]
            )
        rank = bareiss_rank(Matrix.from_ints(INTEGERS, rows))
        best = min(best, win.rows - rank)
    return best


def rank_deficiency_report(
    t: TilingModel,
    n: int,
    mode: str = "symbolic",
    seed: int = 0,
    allow_large: bool = False,
) -> RankReport:
    """Rank deficiencies (n - rank) of the class representatives.

    Symbolic mode is exact over Q(a) and guarded at n <= 9 unless
    ``allow_large`` is set.  It certifies each deficiency with two bounds:
    the rank mod 2^61 - 1 at one fixed point is a lower bound on the rank,
    and exact kernel vectors over Z[a], built by Cramer's rule on the
    supports of the modular kernel and checked by multiplication, give the
    upper bound.  A class whose certificate fails falls back to Bareiss
    elimination over Z[a], so the result never depends on the point.

    Probe mode (n <= 48) evaluates the parameters at distinct random
    integers in [2, 2^16) and reports the best deficiency over
    ``_PROBE_TRIALS`` independent assignments; evaluation can only lower
    rank, so the result is an upper bound on the symbolic deficiency.
    """
    if mode not in ("symbolic", "probe", "both"):
        raise ValidationError(f"unknown rank mode {mode!r}")
    if mode in ("symbolic", "both") and n > MAX_SYMBOLIC_DIM and not allow_large:
        raise UnsupportedOperationError(
            f"symbolic rank is guarded at n <= {MAX_SYMBOLIC_DIM}; "
            "pass allow_large to override"
        )
    if mode in ("probe", "both") and n > _MAX_PROBE_DIM:
        raise UnsupportedOperationError(f"probe rank is guarded at n <= {_MAX_PROBE_DIM}")
    classes = _corner_classes(t, n)
    entries = []
    for cls in classes:
        if mode in ("symbolic", "both"):
            entries.append(RankEntry(cls, _symbolic_deficiency(cls.representative), "symbolic"))
        if mode in ("probe", "both"):
            entries.append(
                RankEntry(cls, _probe_deficiency(cls.representative, seed), "evaluation-bound")
            )
    return RankReport(n, tuple(entries))
