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
64 transforms.  A block is held as one string per row, one character per
cell: every +-1 one of 8 marks for its sign and the parities of its row and
column in the model, and every parameter P, as none repeats in a window of a
formal model.  Each sign change is then one ``str.translate`` table from marks
to + and -; only the least of the 64 strings is serialized, the k-th P as pk.
Block classes slice the blocks of up to ``_STRIP`` origins of a row, and the
representative of each class, from one window.

The same tokens give both ranks.  A block is a mixed matrix, whose rank over
Q(a) is the size of a matroid union (``_symbolic_deficiency``); the probe
puts integers in place of its parameters (``_probe_deficiency``).
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain

from .errors import StructuralError, ValidationError, _Frozen
from .matrices import Matrix, bareiss_rank
from .rings import INTEGERS, _Poly
from .tiling import Patched, TilingModel, Window, _torus_basis, extract_window

# The largest block side for classes and both rank modes.  At n = 48 the
# probe ranks of all classes take about 0.3 s; they grow about as n^3.
MAX_BLOCK_DIM = 48
_PROBE_TRIALS = 5

# Block origins per window that _corner_classes extracts and slices.
_STRIP = 64

_TOKENS = {0: "0", 1: "+", -1: "-"}
_SIGNS = {"+": 1, "-": -1}
# A +-1 entry at row i and column j of the model is the mark
# 4*[it is -1] + 2*(i % 2) + (j % 2); each sign change
# (-1)^(alpha*i + beta*j + gamma) is a table from marks to signs.
_MARKS = "ABCDEFGH"
_SIGN_CHANGES = tuple(
    str.maketrans(_MARKS, "".join(
        "+-"[(neg + alpha * r + beta * c + gamma) % 2]
        for neg in (0, 1) for r in (0, 1) for c in (0, 1)))
    for alpha in (0, 1) for beta in (0, 1) for gamma in (0, 1)
)


def _cell_token(p: _Poly) -> int | str:
    """The parameter's index, or 0 / + / - for a constant entry, of a payload."""
    var = p.single_variable()
    tok = var if var is not None else _TOKENS.get(p.constant())
    if tok is None:
        raise StructuralError(f"entry {p} is outside the 0 / +1 / -1 / parameter alphabet")
    return tok


def _token_grid(win: Window) -> list[list[int | str]]:
    """The tokens of a window's cells: one _cell_token per distinct payload."""
    rows = win.matrix.payload_rows()
    tokens = {p: _cell_token(p) for p in set(chain.from_iterable(rows))}
    return [list(map(tokens.__getitem__, row)) for row in rows]


def _cell_rows(win: Window) -> list[str]:
    """The window's rows as strings of cells: 0, the mark of each +-1 entry
    by its sign and the parities of its row and column in the model, and P
    for each parameter."""
    i0, j0 = win.origin
    return ["".join(_MARKS[4 * (tok == "-") + 2 * (i % 2) + j % 2] if tok in _SIGNS else "0" if tok == "0" else "P"
                    for j, tok in enumerate(row, j0)) for i, row in enumerate(_token_grid(win), i0)]


def _least_form(rows: list[str]) -> str:
    """The least serialization of a square block of ``_cell_rows`` over its
    64 transforms; only the winner is serialized.

    The sign changes are closed under moving the block by a row or a column
    and under the transpose, so marks by model parity give every dihedral
    image the same 8 tables.  The separator sorts below every cell character
    and + < - < 0 < P, so cell strings compare as their serializations do,
    and the k-th P of every image is pk.
    """
    # The block, its rows upside down, their transposes (the block's columns
    # as rows), and each of those four read backwards.
    n, block, flipped = len(rows), "".join(rows), "".join(rows[::-1])
    images = [block, flipped, "".join([block[c::n] for c in range(n)]), "".join([flipped[c::n] for c in range(n)])]
    images += [s[::-1] for s in images]
    # One translate per sign change, of the 8 images joined by spaces.
    joined = " ".join(images)
    best = min(chain.from_iterable(joined.translate(table).split(" ") for table in _SIGN_CHANGES))
    parts = " ".join(best).split("P")
    return "".join(f"{part}p{k}" for k, part in enumerate(parts[:-1], 1)) + parts[-1]


class BlockClass(_Frozen):
    """An equivalence class of n x n blocks.

    ``orbit_size`` counts how many of the p*q torus windows of
    ``enumerate_block_classes`` fall in the class, so orbit sizes over all
    classes sum to p*q.
    """

    __slots__ = ("encoding", "representative", "orbit_size")


def enumerate_block_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    """Classes of all n x n blocks, sorted by encoding.

    The windows at (i, j) for i < p and j < q, with (p, c) and (0, q) the
    Hermite basis of the wild torus (``tiling._torus_basis``), exhaust every
    block up to translation.  A translation of that lattice maps the parameter
    lattice onto itself, which relabels the parameters, and keeps or negates
    the whole background; the encoding quotients out both.  Windows are taken
    row by row, and each class keeps the first as its representative.
    """
    _check_size(n)
    return _corner_classes(t, n)


def _check_size(n: int, allow_large: bool = False) -> None:
    if n < 1 or (n > MAX_BLOCK_DIM and not allow_large):
        raise ValidationError(f"block size must be in 1..{MAX_BLOCK_DIM}, got {n}")


def _corner_classes(t: TilingModel, n: int) -> tuple[BlockClass, ...]:
    if not isinstance(t, Patched) or not t.is_formal():
        raise StructuralError("block classes are defined for formal patched tilings")
    p, q, _ = _torus_basis(t)
    reps: dict[str, Window] = {}
    counts: Counter[str] = Counter()
    for i in range(p):
        for j0 in range(0, q, _STRIP):
            width = min(_STRIP, q - j0)
            win = extract_window(t, i, j0, n, n + width - 1)
            payloads, strip = win.matrix.payload_rows(), _cell_rows(win)
            for c in range(width):
                enc = _least_form([row[c:c + n] for row in strip])
                if enc not in reps:
                    cells = tuple(chain.from_iterable(row[c:c + n] for row in payloads))
                    reps[enc] = Window(Matrix(t.ring, n, n, cells), (i, j0 + c))
                counts[enc] += 1
    return tuple(BlockClass(enc, reps[enc], counts[enc]) for enc in sorted(reps))


class RankEntry(_Frozen):
    __slots__ = ("block_class", "deficiency", "method")


class RankReport(_Frozen):
    __slots__ = ("n", "entries")


def _symbolic_deficiency(grid: list[list[int | str]]) -> int:
    """rows - rank over Q(a), exactly, as the rank of a mixed matrix.

    The block is A = Q + T with Q its 0 / +-1 entries and T its parameters.
    No parameter repeats in a block, so the entries of T are algebraically
    independent, and rank A = rank [[I, Q], [-D, T]] - rows for a diagonal D
    of fresh variables (Murota and Iri).  That layered rank is the largest
    union of a set independent in the linear matroid of [I | Q] and a disjoint
    set independent in the transversal matroid of [-D | T].  Edmonds' matroid
    partition finds it: the linear side starts as the identity basis, kept as
    an exact ``Fraction`` tableau, and stays a basis; the transversal side
    grows by one column per shortest exchange path, so its size is the rank.
    """
    from fractions import Fraction  # here, so that importing the package skips it

    m = len(grid)
    # Column e < m is the identity column e, over -t_e in row e; column m + c
    # is block column c.  tableau[k] is the row of the basis column basis[k].
    tableau = [[int(r == e) for e in range(m)] + [_SIGNS.get(tok, 0) for tok in row]
               for r, row in enumerate(grid)]
    basis = list(range(m))
    rows_of = [[e] for e in range(m)] + [
        [r for r in range(m) if isinstance(grid[r][c], int)] for c in range(m)]
    matched: dict[int, int] = {}  # row -> transversal column
    row_of: dict[int, int] = {}  # transversal column -> row

    def match(col: int, seen: set[int]) -> bool:
        """Augment the matching to cover col; on failure, seen holds every
        row an alternating path from col reaches."""
        for r in rows_of[col]:
            if r not in seen:
                seen.add(r)
                if r not in matched or match(matched[r], seen):
                    matched[r], row_of[col] = col, r
                    return True
        return False

    for x in range(m, 2 * m):
        # Breadth-first search for a shortest path from x to a column that
        # can join the transversal side as it is, where match puts it; each
        # step z -> y means that z takes y's place on y's side.
        parent, todo = {x: x}, [x]
        for z in todo:
            steps = []
            if z not in row_of:
                seen: set[int] = set()
                if match(z, seen):
                    break
                steps = [matched[r] for r in seen]
            if z not in basis:
                steps += [basis[k] for k, row in enumerate(tableau) if row[z]]
            for y in steps:
                if y not in parent:
                    parent[y] = z
                    todo.append(y)
        else:
            continue
        path = [z]
        while path[0] != x:
            path.insert(0, parent[path[0]])
        # Pivots taken in path order stay nonzero: a shortest path has no
        # shortcut, so the rows of the later pivots are still untouched.
        for new, old in zip(path, path[1:]):
            if old not in basis:
                matched.pop(row_of.pop(old))
                continue
            k = basis.index(old)
            inv = 1 / Fraction(tableau[k][new])
            pivot = tableau[k] = [v * inv for v in tableau[k]]
            support = [j for j, v in enumerate(pivot) if v]
            for other in tableau:
                f = other[new]
                if other is not pivot and f:
                    for j in support:
                        other[j] -= f * pivot[j]
            basis[k] = new
        # Every path column off the basis is now on the transversal side.
        for col in set(path) - set(basis) - set(row_of):
            match(col, set())
    return m - len(row_of)


def _probe_deficiency(grid: list[list[int | str]], seed: int) -> int:
    variables = sorted({tok for row in grid for tok in row if isinstance(tok, int)})
    best = len(grid)
    for trial in range(_PROBE_TRIALS):
        rng = random.Random(f"{seed}:{trial}")
        point = dict(zip(variables, rng.sample(range(2, 1 << 16), len(variables))))
        rows = [[point[tok] if isinstance(tok, int) else _SIGNS.get(tok, 0) for tok in row]
                for row in grid]
        best = min(best, len(grid) - bareiss_rank(Matrix.from_ints(INTEGERS, rows)))
    return best


def rank_deficiency_report(
    t: TilingModel,
    n: int,
    mode: str = "symbolic",
    seed: int = 0,
    allow_large: bool = False,
) -> RankReport:
    """Rank deficiencies (n - rank) of the class representatives.

    Block sides run over 1..MAX_BLOCK_DIM; ``allow_large`` lifts the upper
    bound in symbolic mode only.  Symbolic mode is exact over Q(a): each
    block is a mixed matrix, a constant 0 / +-1 part plus parameters that
    never repeat, so its rank is combinatorial and is found by matroid
    partition with a ``Fraction`` tableau and bipartite matchings, without
    polynomial arithmetic or a random point.

    Probe mode evaluates the parameters at distinct random integers in
    [2, 2^16) and reports the best deficiency over ``_PROBE_TRIALS``
    independent assignments; evaluation can only lower rank, so the result
    is an upper bound on the symbolic deficiency.
    """
    if mode not in ("symbolic", "probe", "both"):
        raise ValidationError(f"unknown rank mode {mode!r}")
    _check_size(n, allow_large and mode == "symbolic")
    entries = []
    for cls in _corner_classes(t, n):
        grid = _token_grid(cls.representative)
        if mode in ("symbolic", "both"):
            entries.append(RankEntry(cls, _symbolic_deficiency(grid), "symbolic"))
        if mode in ("probe", "both"):
            entries.append(RankEntry(cls, _probe_deficiency(grid, seed), "evaluation-bound"))
    return RankReport(n, tuple(entries))
