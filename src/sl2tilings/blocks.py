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
64 transforms.  Renaming does not depend on signs, so each of the 8 dihedral
images is serialized once, with every +-1 written as one of 8 marks for its
sign and the parities of its row and column; each sign change is then one
``str.translate`` table from marks to + and -.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import StructuralError, UnsupportedOperationError, ValidationError
from .matrices import Matrix, bareiss_rank
from .rings import INTEGERS, RingSpec, RingValue, poly_eval
from .tiling import Patched, TilingModel, Window, _torus_basis, extract_window

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

_TOKENS = {0: "0", 1: "+", -1: "-"}
# A +-1 entry serializes as the mark 4*[it is -1] + 2*(r % 2) + (c % 2); each
# sign change (-1)^(alpha*r + beta*c + gamma) is a table from marks to signs.
_MARKS = "ABCDEFGH"
_SIGN_CHANGES = tuple(
    str.maketrans(_MARKS, "".join(
        "+-"[(neg + alpha * r + beta * c + gamma) % 2]
        for neg in (0, 1) for r in (0, 1) for c in (0, 1)))
    for alpha in (0, 1) for beta in (0, 1) for gamma in (0, 1)
)


def _cell_token(v: RingValue) -> int | str:
    """The parameter's index, or 0 / + / - for a constant entry."""
    var = v.single_variable()
    tok = var if var is not None else _TOKENS.get(v.constant_value())
    if tok is None:
        raise StructuralError(f"entry {v} is outside the 0 / +1 / -1 / parameter alphabet")
    return tok


def _images(grid: list[list[int | str]]):
    """The 8 dihedral images: each of the 4 rotations and its transpose."""
    for _ in range(4):
        grid = list(zip(*grid[::-1]))
        yield grid
        yield list(zip(*grid))


def _serialize(grid: list[list[int | str]]) -> str:
    rename: dict[int, int] = {}
    out = []
    for r, row in enumerate(grid):
        for c, tok in enumerate(row):
            if isinstance(tok, int):
                out.append(f"p{rename.setdefault(tok, len(rename) + 1)}")
            elif tok == "0":
                out.append(tok)
            else:
                out.append(_MARKS[4 * (tok == "-") + 2 * (r % 2) + c % 2])
    return " ".join(out)


def canonical_block_form(win: Window) -> str:
    """Minimal serialization of a square block over its symmetry group."""
    if win.rows != win.cols:
        raise StructuralError(f"block must be square, got {win.rows}x{win.cols}")
    grid = [[_cell_token(win.at(r, c)) for c in range(win.cols)] for r in range(win.rows)]
    return min(s.translate(table) for s in map(_serialize, _images(grid)) for table in _SIGN_CHANGES)


@dataclass(frozen=True)
class BlockClass:
    """An equivalence class of n x n blocks.

    ``orbit_size`` counts how many of the p*q torus windows of
    ``enumerate_block_classes`` fall in the class, so orbit sizes over all
    classes sum to p*q.
    """

    encoding: str
    representative: Window
    orbit_size: int


def enumerate_block_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    """Classes of all n x n blocks, sorted by encoding.

    The windows at (i, j) for i < p and j < q, with (p, c) and (0, q) the
    Hermite basis of the wild torus (``tiling._torus_basis``), exhaust every
    block up to translation.  A translation of that lattice maps the parameter
    lattice onto itself, which relabels the parameters, and keeps or negates
    the whole background; the encoding quotients out both.  Windows are taken
    row by row, and each class keeps the first as its representative.
    """
    if not 1 <= n <= MAX_CLASS_DIM:
        raise ValidationError(f"block size must be in 1..{MAX_CLASS_DIM}, got {n}")
    return _corner_classes(t, n)


def _corner_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    if not isinstance(t, Patched) or not t.is_formal():
        raise StructuralError("block classes are defined for formal patched tilings")
    if n < 1:
        raise ValidationError(f"block size must be positive, got {n}")
    p, q, _ = _torus_basis(t)
    by_encoding: dict[str, tuple[Window, int]] = {}
    for i in range(p):
        for j in range(q):
            win = extract_window(t, i, j, n, n)
            enc = canonical_block_form(win)
            rep, count = by_encoding.get(enc, (win, 0))
            by_encoding[enc] = (rep, count + 1)
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
