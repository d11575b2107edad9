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
their last cell is placed.  Below a complete row whose first two cells
share a factor with the modulus no window closes, so the next cell's
candidates are counted as nodes, not walked.  A complete block's det3s are
read from the corner formula ``corner_det3``, valid as its every wrapped
det2 is 1.
Solutions are canonicalized by torus translation and reported in
lexicographic order.

Without a node budget the search is quotiented by scaling.  Row i times r_i
and column j times c_j multiplies the wrapped 2x2 window at (i, j) by
r_i*r_(i+1)*c_j*c_(j+1) and every det3 by a unit, so units that make that
product 1 keep both constraints.  With both sides even, row 0's even and odd
columns take any two units alpha and beta (odd rows times (alpha*beta)^-1);
an even width alone scales the columns by u and u^-1, an even height alone
the rows, and odd sides every cell by a u with u^2 = 1.  A scaling maps
every candidate set onto the scaled one (all residues, the non-units, the
solutions of a congruence), so the subtree under a scaled row 0 is the
scaled subtree, node for node.  The DFS fills rows 1 on under the least
row 0 of each orbit, from ``_row_orbits``.  ``nodes`` still counts the whole
tree: the |D|^k row-0 prefixes of each length k, D the candidates, plus each
subtree's count times its orbit's size; solutions are mapped through one
scaling onto each member of the orbit and canonicalized again.  A budget
cuts the traversal in candidate order, which scaling does not keep, so a
budgeted search runs the plain traversal, worker k taking every workers-th
first-cell value from the k-th with its share of the budget; its cost is the
budget times the widest gap between candidates.  Under pruning, a modulus
over 2^20 + 1 with no prime factor up to 2^20 has a gap over 2^20 residues,
so its budgeted search is refused.  Each DFS part is plain data, (modulus,
rows, cols, prune, first, budget), ``first`` a slice of the row-0 orbits or
of the first cell's candidates.  The parts run in P = min(parts, CPUs)
processes counting the caller, each taking every P-th part: the caller runs
its share while P - 1 workers forked with ``os.fork`` run theirs and send
the results back marshalled over a pipe; a worker that raises sends the
exception's repr instead, which the caller's ``RuntimeError`` quotes.
Candidate values are never listed, and each DFS keeps at most 2^16
congruence ranges, so a budgeted search at any modulus needs no more
memory than its block and that cache.

The exhaustive oracle for cross-checking shares only ``canonical_block``
with the DFS: it keeps the pairs of rows whose wrapped 2x2 windows all have
determinant 1, built column by column from a table of every 2x2 window, and
walks every cyclic chain of them, so each of the modulus^(rows*cols) blocks
is either produced or ruled out by a failing row pair.
"""

from __future__ import annotations

import marshal
import os
from itertools import compress, islice, product, repeat
from math import gcd, isqrt, prod

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
    """Minimum of the block over all torus translations.  The least rotated
    row picks the translations whose first row it is, and only those are
    built in full."""
    w = len(block[0])
    firsts = {(di, dj): row[dj:] + row[:dj] for di, row in enumerate(block) for dj in range(w)}
    least = min(firsts.values())
    return min(tuple(row[dj:] + row[:dj] for row in block[di:] + block[:di])
               for (di, dj), first in firsts.items() if first == least)


def _candidates(n: int, prune: bool):
    """A fresh iterator over the residues mod n in ascending order, or over
    the non-units alone, found by one gcd each; never listed."""
    cells = range(n)
    if not prune:
        return iter(cells)
    return compress(cells, map((1).__lt__, map(gcd, cells, repeat(n))))


def _scaled(block: Block, alpha: int, beta: int, n: int) -> Block:
    """The block with cell (i, j) times alpha or beta on even rows and beta^-1
    or alpha^-1 on odd ones, by the parity of j, mod n."""
    factors = ((alpha, beta), (pow(beta, -1, n), pow(alpha, -1, n)))
    return tuple(tuple(x * factors[i % 2][j % 2] % n for j, x in enumerate(row)) for i, row in enumerate(block))


def _row_orbits(n: int, h: int, w: int, prune: bool):
    """Stream the least row 0 of each orbit under scaling, with the orbit's
    size and a lazy iterator of (alpha, beta), one scaling onto each member.
    Each cell is the least of its orbit under the units that fix the earlier
    cells scaled with it: those of its parity if both sides are even."""
    parts = 2 if h % 2 == 0 and w % 2 == 0 else 1
    # Listed on first use: a row of zeros is fixed by every unit and needs no list.
    group: list[int] = []

    def listed(stab):
        if stab is None and not group:
            group.extend(u for u in range(1, n) if (u * u % n if h % 2 and w % 2 else gcd(u, n)) == 1)
        return group if stab is None else stab

    def reps(stab):
        return (x for x in _candidates(n, prune) if not x or all(x <= u * x % n for u in listed(stab)))

    def fixing(stab, x):
        kept = [u for u in listed(stab) if u * x % n == x] if x else []
        return kept if 0 < len(kept) < len(listed(stab)) else stab

    def scalings(row, finals):
        cosets = [[1] if s is None else {tuple(u * x % n for x in row[p::parts]): u for u in group}.values()
                  for p, s in enumerate(finals)]
        for us in product(*cosets):
            yield (us[0], us[-1] if parts == 2 or w % 2 else pow(us[0], -1, n))

    row = [0] * w
    # stabs[j]: the units fixing the earlier cells of j's part, None for all of them.
    stabs = [None] * (w + parts)
    stack = [reps(None)]
    j = 0
    while stack:
        for x in stack[-1]:
            row[j] = x
            stabs[j + parts] = fixing(stabs[j], x)
            if j < w - 1:
                j += 1
                stack.append(reps(stabs[j]))
                break
            finals = stabs[w:]
            size = prod(1 if s is None else len(group) // len(s) for s in finals)
            yield tuple(row), size, scalings(tuple(row), finals)
        else:
            stack.pop()
            j -= 1


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

    The part is plain data, (modulus, rows, cols, prune, first, budget).  With
    a budget the first cell takes the ``first`` slice of the candidate order;
    without one the fill starts at (1, 0) under each row 0 of the ``first``
    slice of ``_row_orbits``, counted and mapped over its orbit.  Other free
    cells take all candidates, the non-units alone when ``prune``.  The
    budget is checked before each candidate, which then counts as a node and
    is kept only if the wrapped windows it closes have determinant 1.  A kept
    candidate on the last cell completes a block; elsewhere it pushes the
    candidates of the next cell unless they are an empty range, solved from
    one cache keyed by the congruence nw*x = c, or the candidates below a
    row with no successor, which are counted instead.  An exhausted iterator
    is popped to resume the cell before it.  Returns the sorted canonical
    solutions, the node count (below row 0 if unbudgeted) and whether the
    budget ran out.
    """
    n, h, w, prune, first, budget = part
    east, south = w - 1, h - 1
    centers = [((i - 1) % h, i, (i + 1) % h, (j - 1) % w, j, (j + 1) % w) for i in range(h) for j in range(w)]
    ranges: dict[tuple[int, int], range] = {}
    b = [[0] * w for _ in range(h)]
    top = b[0]
    solutions: set[Block] = set()
    total = 0
    # |D|, under pruning counted at the first row with no successor.
    dead = None if prune else n
    if budget is None:
        roots = islice(_row_orbits(n, h, w, prune), first.start, first.stop, first.step)
        start, first = 1, slice(None)
    else:
        roots, start = [(top, 1, [(1, 1)])], 0
    for row0, size, scalings in roots:
        top[:] = row0
        i, j, nodes, leaves = start, 0, 0, []
        stack = [islice(_candidates(n, prune), first.start, first.stop, first.step)]
        if budget is None and gcd(top[0], top[1], n) > 1:
            # Row 0 has no successor, as below: |D| nodes and no leaf.
            dead = dead or sum(1 for _ in _candidates(n, prune))
            stack, nodes = [], dead
        while stack:
            row = b[i]
            for x in stack[-1]:
                if nodes == budget:
                    return tuple(sorted({*map(canonical_block, leaves)})), nodes, True
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
                if j == east:
                    if i == south:
                        if _leaf_is_wild(b, n, centers):
                            leaves.append(tuple(map(tuple, b)))
                        continue
                    if gcd(row[0], row[1], n) > 1:
                        # The gcd divides the window's determinant at (i, 0):
                        # each of the |D| candidates at (i + 1, 0) is a dead
                        # node, counted up to one past the budget's end.
                        dead = dead or sum(1 for _ in islice(_candidates(n, prune),
                                                             None if budget is None else budget - nodes + 1))
                        nodes += dead
                        if budget is not None and nodes > budget:
                            return tuple(sorted({*map(canonical_block, leaves)})), budget, True
                        continue
                    i, j = i + 1, 0
                    stack.append(_candidates(n, prune))
                elif i:
                    key = b[i - 1][j], (1 + b[i - 1][j + 1] * x) % n
                    candidates = ranges.get(key)
                    if candidates is None:
                        candidates = solve_linear_congruence(*key, n)
                        if len(ranges) < _MAX_RANGES:
                            ranges[key] = candidates
                    if not candidates:
                        continue
                    j += 1
                    stack.append(iter(candidates))
                else:
                    j += 1
                    stack.append(_candidates(n, prune))
                break
            else:
                stack.pop()
                if j:
                    j -= 1
                else:
                    i, j = i - 1, east
        total += nodes * size
        if leaves:
            solutions.update(canonical_block(_scaled(leaf, *pair, n)) for pair in scalings for leaf in leaves)
    return tuple(sorted(solutions)), total, False


def _start(shares: list):
    """Fork a worker that runs ``_dfs`` on each part of ``shares`` and sends
    the results marshalled over a pipe.  Returns ``collect``, which reads
    them and reaps the worker, raising if it failed, or kills it first."""
    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        # Only os._exit: any other exit would flush the caller's buffered
        # output once more, or go on running the caller's code.  A worker
        # that raises sends the exception's repr instead of results.
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                try:
                    pipe.write(marshal.dumps([_dfs(part) for part in shares]))
                    code = 0
                except BaseException as exc:
                    pipe.write(repr(exc).encode())
        finally:
            os._exit(code)
    os.close(write)

    def collect(kill: bool = False) -> list:
        payload = None
        with open(read, "rb") as pipe:
            try:
                payload = None if kill else pipe.read()
            finally:
                # Reaped on every way out, killed unless read in full.  The
                # signal module is imported here: every CLI process would
                # pay about 1 ms for it.
                if payload is None:
                    from signal import SIGKILL

                    os.kill(pid, SIGKILL)
                status = os.waitpid(pid, 0)[1]
        if status and not kill:
            code = os.waitstatus_to_exitcode(status)
            error = f": {payload.decode(errors='replace')}" if code == 1 and payload else ""
            raise RuntimeError(f"search worker {pid} failed with exit code {code}{error}")
        return [] if kill else marshal.loads(payload)

    return collect


def _run(parts: list) -> list:
    """``_dfs`` of every part in P = min(parts, CPUs) processes counting this
    one, process k taking every P-th part from the k-th, or in turn here
    without ``os.fork``.  Every worker is reaped before this returns or
    raises, and killed first if this process's own share raised."""
    procs = min(len(parts), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    pending = []
    try:
        for k in range(1, procs):
            pending.append(_start(parts[k::procs]))
        results = [_dfs(part) for part in parts[::procs]]
        while pending:
            results += pending.pop(0)()
        return results
    finally:
        for collect in pending:
            collect(kill=True)


def search_fully_wild(config: SearchConfig) -> SearchResult:
    n, h, w, prune, budget = config.modulus, config.rows, config.cols, config.prune_nonunits, config.node_budget
    if budget is None:
        # A closed-form cap: n - 1 residues scanned for the unit list, and the
        # |D|^w full rows 0 that ``nodes`` counts, though the quotient walks
        # fewer; |D| taken as 1 under pruning so that n is never factored.
        # Powers past 2^64, over the bound already, are not built.
        d = 1 if prune else n
        if max(n - 1, d ** min(w, 64)) > _MAX_STEPS:
            raise UnsupportedOperationError(
                f"an unbudgeted search walks {n - 1} residues and at least {d}^{w} DFS nodes, "
                f"over the bound of {_MAX_STEPS} steps; pass --budget to cap the nodes"
            )
        # One part per process, or per row 0 when there are fewer.
        cap, roots = min(config.worker_count, os.cpu_count() or 1), _row_orbits(n, h, w, prune)
        # Row 0 has no window to check: its |D|^k prefixes of each length k are nodes.
        d = sum(1 for _ in _candidates(n, prune))
        nodes = sum(d**k for k in range(1, w + 1))
    else:
        # More workers than first-cell values or budgeted nodes would get no
        # work; counting the values only up to that cap keeps it lazy.
        cap, roots, nodes = min(config.worker_count, budget), _candidates(n, prune), 0
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
    workers = sum(1 for _ in islice(roots, cap))
    # With a budget, part k gets budget // workers nodes, one more while k < budget % workers.
    parts = [(n, h, w, prune, slice(k, None, workers), budget and budget // workers + (k < budget % workers))
             for k in range(workers)]
    merged: set[Block] = set()
    exhausted = False
    for sols, count, ex in _run(parts):
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
