"""Exhaustive search for fully-wild periodic blocks over Z/NZ.

A candidate h x w block is read as a doubly periodic tiling (indices wrapped
mod h and mod w).  It is accepted when every wrapped 2x2 determinant is 1
and every wrapped centered 3x3 determinant is nonzero.

The DFS fills the block row-major.  It chooses row 0 and column 0 freely and
derives each interior cell from the determinant constraint of the 2x2 window
above-left of it, a linear congruence whose gcd-many solutions come as a
``range``.  It runs as one flat loop over an explicit stack of candidate
iterators, one per placed cell, so its depth is bounded by the block's
cells, not by the interpreter's recursion limit.  Every candidate tried
counts as a node; the wrapped windows are checked on plain ints as soon as
their last cell is placed.  A complete block's det3s are read from the
corner formula ``corner_det3``, valid as its every wrapped det2 is 1.
Solutions are canonicalized by torus translation and reported in
lexicographic order.

Without a node budget the search is quotiented by unit scaling.  For a unit
u mod N, multiplying the even columns of a block by u and the odd ones by
u^-1 keeps every wrapped det2 when the width is even, and multiplies every
det3 by u or u^-1, so it keeps both constraints.  For an odd width and even
height the rows are scaled instead; when both sides are odd only the units
with u^2 = 1 work, and they scale every cell.  The scaling sends the first
cell x to u*x and maps every candidate set onto the scaled one (all
residues, the non-units, the solutions of a congruence), so the subtree
under u*x is the scaled subtree under x, node for node.  The DFS therefore
runs once per orbit of first-cell values, from its least member; its node
count is multiplied by the orbit's size, so ``nodes`` still counts the whole
tree, and its solutions are mapped through one scaling to each other value
of the orbit and canonicalized again.  Under all units, x and y share an
orbit exactly when gcd(x, N) = gcd(y, N).  Workers take the orbits one at a
time.  A budget cuts the traversal in candidate order, which scaling does
not keep, so a budgeted search runs the plain traversal, worker k taking
every workers-th first-cell value from the k-th with its share of the
budget; its cost is the budget times the widest gap between candidates.
Under pruning, a modulus over 2^20 + 1 with no prime factor up to 2^20 has
a gap over 2^20 residues, so its budgeted search is refused.  Each DFS part
is plain data, (modulus, rows, cols, prune, first, budget), ``first`` being
a slice of the candidate order: one index for an orbit, every workers-th
for a worker.  Candidate values are never listed, and each DFS keeps at
most 2^16 congruence ranges, so a budgeted search at any modulus needs no
more memory than its block and that cache.

The exhaustive oracle for cross-checking shares only ``canonical_block``
with the DFS: it keeps the pairs of rows whose wrapped 2x2 windows all have
determinant 1, built column by column from a table of every 2x2 window, and
walks every cyclic chain of them, so each of the modulus^(rows*cols) blocks
is either produced or ruled out by a failing row pair.
"""

from __future__ import annotations

import os
from itertools import compress, islice, product, repeat
from math import gcd, isqrt

from .errors import UnsupportedOperationError, ValidationError, _Frozen
from .matrices import corner_det3, det2, det2_scan, det3_scan, solve_linear_congruence

ORACLE_STATE_GUARD = 1 << 28
# A budgeted search builds one part per worker, min(worker count, budget) of them.
_MAX_PARTS = 10_000
_MAX_STEPS = 1 << 20
# The congruence ranges one DFS keeps, the first it meets; emptying a full cache thrashes.
_MAX_RANGES = 1 << 16

Block = tuple[tuple[int, ...], ...]


class SearchConfig(_Frozen):
    __slots__ = ("modulus", "rows", "cols", "prune_nonunits", "node_budget", "worker_count")

    def __init__(
        self,
        modulus: int,
        rows: int = 4,
        cols: int = 4,
        prune_nonunits: bool = False,
        node_budget: int | None = None,
        worker_count: int = 1,
    ) -> None:
        if modulus < 2:
            raise ValidationError(f"modulus must be at least 2, got {modulus}")
        if rows < 2 or cols < 2:
            raise ValidationError("block shape must be at least 2x2")
        if node_budget is not None and node_budget < 1:
            raise ValidationError("node budget must be positive")
        if worker_count < 1:
            raise ValidationError("worker count must be positive")
        self._assign(modulus, rows, cols, prune_nonunits, node_budget, worker_count)


class SearchStats(_Frozen):
    __slots__ = ("nodes", "solutions", "budget_exhausted")

    def __init__(self, nodes: int, solutions: int, budget_exhausted: bool) -> None:
        self._assign(nodes, solutions, budget_exhausted)


class SearchResult(_Frozen):
    __slots__ = ("solutions", "stats")

    def __init__(self, solutions: tuple[Block, ...], stats: SearchStats) -> None:
        self._assign(solutions, stats)


def block_is_sl2(block: Block, modulus: int) -> bool:
    """Every wrapped 2x2 determinant equals 1."""
    frame = [[*row, row[0]] for row in (*block, block[0])]
    return all(d % modulus == 1 for d in det2_scan(frame))


def block_is_fully_wild(block: Block, modulus: int) -> bool:
    """Every wrapped centered 3x3 determinant is nonzero."""
    frame = [[row[-1], *row, row[0]] for row in (block[-1], *block, block[0])]
    return all(d % modulus for d in det3_scan(frame))


def canonical_block(block: Block) -> Block:
    """Minimum of the block over all torus translations."""
    h = len(block)
    w = len(block[0])
    best = None
    for di in range(h):
        for dj in range(w):
            shifted = tuple(
                tuple(block[(i + di) % h][(j + dj) % w] for j in range(w))
                for i in range(h)
            )
            if best is None or shifted < best:
                best = shifted
    return best


def _candidates(n: int, prune: bool):
    """A fresh iterator over the residues mod n in ascending order, or over
    the non-units alone, found by one gcd each; never listed."""
    cells = range(n)
    if not prune:
        return iter(cells)
    return compress(cells, map((1).__lt__, map(gcd, cells, repeat(n))))


def _scaled(block: Block, u: int, n: int, by_rows: bool) -> Block:
    """The block with its even columns (rows when ``by_rows``) times u and its
    odd ones times u^-1, mod n."""
    v = pow(u, -1, n)
    if by_rows:
        return tuple(tuple(x * (v if i % 2 else u) % n for x in row) for i, row in enumerate(block))
    return tuple(tuple(x * (v if j % 2 else u) % n for j, x in enumerate(row)) for row in block)


def _leaf_is_wild(b: list[list[int]], n: int, centers) -> bool:
    """Every wrapped det3 of the list block b is nonzero mod n, each by its
    corner formula, which holds because every wrapped det2 of b is 1 mod n.
    ``centers`` holds (row above, row, row below, column left, column,
    column right) of every cell, wrapped."""
    for up, i, down, left, j, right in centers:
        above, below = b[up], b[down]
        if not corner_det3(b[i][j], (above[left], above[right], below[left], below[right])) % n:
            return False
    return True


def _dfs(part) -> tuple[tuple[Block, ...], int, bool]:
    """Fill the block row-major from an explicit stack of candidate iterators.

    The part is plain data, (modulus, rows, cols, prune, first, budget): the
    first cell takes the ``first`` slice of the candidate order, every other
    free cell all candidates, the non-units alone when ``prune``.  The top
    iterator yields the candidates of the cell at (i, j).  The budget
    is checked before each candidate, which then counts as a node and is
    kept only if the wrapped windows it closes have determinant 1.  A kept
    candidate on the last cell completes a block; elsewhere it pushes the
    candidates of the next cell.  An exhausted iterator is popped to resume
    the cell before it.  Interior candidates come from a cache of ranges
    keyed by their congruence nw*x = c.  Returns the sorted canonical
    solutions, the node count and whether the budget ran out.
    """
    n, h, w, prune, first, budget = part
    east, south = w - 1, h - 1
    centers = [((i - 1) % h, i, (i + 1) % h, (j - 1) % w, j, (j + 1) % w) for i in range(h) for j in range(w)]
    ranges: dict[tuple[int, int], range] = {}
    b = [[0] * w for _ in range(h)]
    top = b[0]
    solutions: set[Block] = set()
    nodes = 0
    i = j = 0
    stack = [islice(_candidates(n, prune), first.start, first.stop, first.step)]
    while stack:
        row = b[i]
        for x in stack[-1]:
            if nodes == budget:
                return tuple(sorted(solutions)), nodes, True
            nodes += 1
            row[j] = x
            # The windows that wrap east (rows i-1, i), south (rows h-1, 0)
            # and at the corner close on this cell.
            if j == east and i and (b[i - 1][east] * row[0] - b[i - 1][0] * x) % n != 1:
                continue
            if i == south and j:
                if (row[j - 1] * top[j] - x * top[j - 1]) % n != 1:
                    continue
                if j == east and (x * top[0] - row[0] * top[east]) % n != 1:
                    continue
            if j < east:
                j += 1
            elif i < south:
                i, j = i + 1, 0
            else:
                if _leaf_is_wild(b, n, centers):
                    solutions.add(canonical_block(tuple(map(tuple, b))))
                continue
            if i and j:
                key = b[i - 1][j - 1], (1 + b[i - 1][j] * b[i][j - 1]) % n
                candidates = ranges.get(key)
                if candidates is None:
                    candidates = solve_linear_congruence(*key, n)
                    if len(ranges) < _MAX_RANGES:
                        ranges[key] = candidates
                stack.append(iter(candidates))
            else:
                stack.append(_candidates(n, prune))
            break
        else:
            stack.pop()
            if j:
                j -= 1
            else:
                i, j = i - 1, east
    return tuple(sorted(solutions)), nodes, False


def _run(parts: list, workers: int) -> list:
    """``_dfs`` of every part, in a pool of up to ``workers`` processes."""
    if workers == 1:
        return list(map(_dfs, parts))
    # Imported here: a single-worker search, and every other command,
    # skips its start-up cost.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        return list(pool.map(_dfs, parts))


def _orbit_dfs(config: SearchConfig) -> list:
    """``_dfs`` outcomes of every first-cell candidate: one run per unit
    orbit, from its least member, expanded to the whole orbit."""
    n, h, w, prune = config.modulus, config.rows, config.cols, config.prune_nonunits
    # A lower bound on the steps: n - 1 residues walked, and from any first
    # cell every filling of the rest of row 0 and of cell (1, 0), never
    # pruned: |D|^w nodes, |D| taken as 1 under pruning so that n is never
    # factored.  Powers past 2^64, over the bound already, are not built.
    d = 1 if prune else n
    if max(n - 1, d ** min(w, 64)) > _MAX_STEPS:
        raise UnsupportedOperationError(
            f"an unbudgeted search walks {n - 1} residues and at least {d}^{w} DFS nodes, "
            f"over the bound of {_MAX_STEPS} steps; pass --budget to cap the nodes"
        )
    indexed = enumerate(_candidates(n, prune))
    if h % 2 and w % 2:
        # Every cell times u, which keeps det2 only when u^2 = 1.
        units = [u for u in range(1, n) if u * u % n == 1]
        reps = [(k, x) for k, x in indexed if x == min(u * x % n for u in units)]
    else:
        # Under all units, x and y share an orbit iff gcd(x, n) = gcd(y, n);
        # its least member is that gcd, or 0 when it is n.
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        reps = [(k, x) for k, x in indexed if gcd(x, n) in (x, n)]
    parts = [(n, h, w, prune, slice(k, k + 1), None) for k, _ in reps]
    by_rows = w % 2 == 1
    outcomes = []
    for (_, x), (sols, nodes, _) in zip(reps, _run(parts, min(config.worker_count, len(parts)))):
        # One scaling to each other value u*x of the orbit; the subtree under
        # it is the scaled subtree under x.
        scalings = {u * x % n: u for u in units}
        del scalings[x]
        found = {canonical_block(_scaled(block, u, n, by_rows)) for block in sols for u in scalings.values()}
        outcomes.append((found.union(sols), nodes * (1 + len(scalings)), False))
    return outcomes


def search_fully_wild(config: SearchConfig) -> SearchResult:
    n, prune, budget = config.modulus, config.prune_nonunits, config.node_budget
    if budget is None:
        outcomes = _orbit_dfs(config)
    else:
        # More workers than first-cell values or budgeted nodes would get no
        # work; counting the values only up to that cap keeps it lazy.
        cap = min(config.worker_count, budget)
        if cap > _MAX_PARTS:
            raise UnsupportedOperationError(
                f"a budgeted search splits into min(workers, budget) = {cap} parts, "
                f"over the bound of {_MAX_PARTS}"
            )
        # Trial division past sqrt(n) is not needed: an n with no factor up
        # to sqrt(n) is prime, and n - 1 > 2^20 then puts it past 2^20.
        if prune and n - 1 > _MAX_STEPS and all(map(n.__mod__, range(2, min(isqrt(n), _MAX_STEPS) + 1))):
            raise UnsupportedOperationError(
                f"a pruned search walks over {_MAX_STEPS} residues from one non-unit to the next, "
                f"as {n} has no prime factor up to {_MAX_STEPS}; search without --prune-nonunits"
            )
        workers = sum(1 for _ in islice(_candidates(n, prune), cap))
        # Worker k gets budget // workers nodes, one more while k < budget % workers.
        parts = [
            (n, config.rows, config.cols, prune, slice(k, None, workers),
             budget // workers + (k < budget % workers))
            for k in range(workers)
        ]
        outcomes = _run(parts, workers)
    merged: set[Block] = set()
    nodes = 0
    exhausted = False
    for sols, count, ex in outcomes:
        merged.update(sols)
        nodes += count
        exhausted = exhausted or ex
    solutions = tuple(sorted(merged))
    return SearchResult(solutions, SearchStats(nodes, len(solutions), exhausted))


def brute_force_oracle(
    modulus: int, rows: int = 4, cols: int = 4, allow_large: bool = False
) -> SearchResult:
    """Enumerate all modulus^(rows*cols) blocks by row transfer and filter.

    Guarded at 2^28 states; pass ``allow_large`` to override.
    """
    if modulus < 2 or rows < 2 or cols < 2:
        raise ValidationError("need modulus >= 2 and a block of at least 2x2")
    cells = rows * cols
    # Past 28 cells even 2^cells is over the guard, so the power is not built.
    if not allow_large and (cells > 28 or modulus ** cells > ORACLE_STATE_GUARD):
        count = f"{modulus}^{cells}" if cells > 28 else f"{modulus}^{cells} = {modulus ** cells}"
        raise UnsupportedOperationError(
            f"{count} states exceeds the 2^28 oracle guard; pass allow_large to override"
        )
    total = modulus ** cells
    # The cells x that complete a 2x2 window to det2 = 1, keyed by its other
    # three cells (nw, ne, sw): a row's successors grow column by column.
    complete: dict[tuple[int, int, int], list[int]] = {}
    for nw, ne, sw, x in product(range(modulus), repeat=4):
        if det2(nw, ne, sw, x) % modulus == 1:
            complete.setdefault((nw, ne, sw), []).append(x)
    row_values = list(product(range(modulus), repeat=cols))
    below = {}
    for a in row_values:
        partial = [(x,) for x in range(modulus)]
        for j in range(cols - 1):
            partial = [b + (x,) for b in partial for x in complete.get((a[j], a[j + 1], b[-1]), ())]
        below[a] = {b for b in partial if det2(a[-1], a[0], b[-1], b[0]) % modulus == 1}
    merged: set[Block] = set()
    stack: list[Block] = [(a,) for a in row_values]
    while stack:
        block = stack.pop()
        if len(block) < rows:
            stack.extend(block + (b,) for b in below[block[-1]])
        elif block[0] in below[block[-1]] and block_is_fully_wild(block, modulus):
            merged.add(canonical_block(block))
    solutions = tuple(sorted(merged))
    return SearchResult(solutions, SearchStats(total, len(solutions), False))
