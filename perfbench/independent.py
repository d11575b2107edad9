"""Reference computations written apart from the sl2tilings code.

Everything here works on plain Python ints (and ``Fraction`` for rank), from
the entry formulas of the catalog models as the paper states them.  Nothing
imports the package, so a fault in the program cannot repeat itself here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

BACKGROUND = (0, 1, 0, -1)  # entry(i, j) = BACKGROUND[(j - i) mod 4]
LATTICE = (3, 1, 10, 6)     # parameters sit on 3i + j = 6 (mod 10)

Z36 = (
    (3, 2, 33, 34),
    (4, 3, 32, 33),
    (9, 16, 3, 2),
    (14, 9, 4, 3),
)


def on_lattice(i: int, j: int) -> bool:
    u, v, m, t = LATTICE
    return (u * i + v * j - t) % m == 0


def wildest_entry(i: int, j: int, param=1):
    """The wildest tiling: unit background, ``param`` on the lattice.

    ``param`` is a number or a function of the position (for the formal
    model evaluated at a point)."""
    if on_lattice(i, j):
        return param(i, j) if callable(param) else param
    return BACKGROUND[(j - i) % 4]


def pqrs_block(p: int, q: int, r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The paper's fully-wild 4x4 block over Z/pqrs, reduced into [0, pqrs)."""
    n = p * q * r * s
    a, b = q * r - 1, p * s - 1
    rows = ((p, q, -p, -q), (r, s, -r, -s), (a * p, b * q, p, q), (b * r, a * s, r, s))
    return tuple(tuple(x % n for x in row) for row in rows)


def periodic_entry(block):
    h, w = len(block), len(block[0])
    return lambda i, j: block[i % h][j % w]


def det3(a, b, c, d, e, f, g, h, k) -> int:
    """Rule of Sarrus for the rows (a b c), (d e f), (g h k)."""
    return a * e * k + b * f * g + c * d * h - c * e * g - b * d * k - a * f * h


def centered_det3(entry, i: int, j: int) -> int:
    return det3(*(entry(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)))


def frame(entry, i0: int, j0: int, h: int, w: int) -> list[list[int]]:
    """Entries of rows i0-1 .. i0+h and columns j0-1 .. j0+w."""
    return [[entry(i, j) for j in range(j0 - 1, j0 + w + 1)] for i in range(i0 - 1, i0 + h + 1)]


def wild_grid(entry, i0: int, j0: int, h: int, w: int, modulus: int | None = None):
    """wild[r][c] for the h x w window at (i0, j0): det3 != 0 (mod modulus)."""
    f = frame(entry, i0, j0, h, w)
    out = []
    for r in range(1, h + 1):
        up, mid, down = f[r - 1], f[r], f[r + 1]
        row = []
        for c in range(1, w + 1):
            d = det3(up[c - 1], up[c], up[c + 1], mid[c - 1], mid[c], mid[c + 1],
                     down[c - 1], down[c], down[c + 1])
            row.append((d % modulus if modulus else d) != 0)
        out.append(tuple(row))
    return tuple(out)


def first_bad_2x2(entry, i0: int, j0: int, h: int, w: int, modulus: int | None = None):
    """Top-left cell of the first (row-major) 2x2 window inside the h x w
    region whose determinant is not 1, or None."""
    for i in range(i0, i0 + h - 1):
        for j in range(j0, j0 + w - 1):
            d = entry(i, j) * entry(i + 1, j + 1) - entry(i, j + 1) * entry(i + 1, j)
            if (d % modulus if modulus else d) != 1:
                return (i, j)
    return None


def first_identity_fault(entry, i0: int, j0: int, h: int, w: int, modulus: int | None = None):
    """First interior cell (row-major) of an h x w window where e*det3 = 0 or
    det3 = (a+c+g+i) + (cg - ai)e fails; over Z also that a wild cell is 0."""
    def red(x):
        return x % modulus if modulus else x

    for i in range(i0 + 1, i0 + h - 1):
        for j in range(j0 + 1, j0 + w - 1):
            e = entry(i, j)
            d3 = centered_det3(entry, i, j)
            a, c = entry(i - 1, j - 1), entry(i - 1, j + 1)
            g, k = entry(i + 1, j - 1), entry(i + 1, j + 1)
            if red(e * d3) != 0 or red(d3 - (a + c + g + k) - (c * g - a * k) * e) != 0:
                return (i, j)
            if modulus is None and d3 != 0 and e != 0:
                return (i, j)
    return None


def first_cross_fault(entry, i0: int, j0: int, h: int, w: int):
    """First interior zero whose side neighbours are not a +-1 cross, or a
    wild zero with four zero diagonal neighbours (integers only)."""
    for i in range(i0 + 1, i0 + h - 1):
        for j in range(j0 + 1, j0 + w - 1):
            if entry(i, j) != 0:
                continue
            sides = (entry(i - 1, j), entry(i, j - 1), entry(i, j + 1), entry(i + 1, j))
            if sides not in ((1, -1, 1, -1), (-1, 1, -1, 1)):
                return (i, j)
            diagonals = (entry(i - 1, j - 1), entry(i - 1, j + 1), entry(i + 1, j - 1), entry(i + 1, j + 1))
            if centered_det3(entry, i, j) != 0 and not any(diagonals):
                return (i, j)
    return None


# --- wild density over discs -------------------------------------------------

def wildest_row_classes() -> dict[int, list[int]]:
    """For each row class i mod 20, the wild column classes j mod 20, found
    by classifying one 20 x 20 period of the wildest tiling directly."""
    wild = wild_grid(wildest_entry, 0, 0, 20, 20)
    return {i: [j for j in range(20) if wild[i][j]] for i in range(20)}


def disc_counts_direct(r: int) -> tuple[int, int]:
    """(wild, total) over i^2 + j^2 <= r^2, cell by cell."""
    wild = total = 0
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            if i * i + j * j <= r * r:
                total += 1
                wild += centered_det3(wildest_entry, i, j) != 0
    return wild, total


def disc_counts_by_rows(r: int, classes: dict[int, list[int]]) -> tuple[int, int]:
    """(wild, total) over the disc, counting each row's wild classes."""
    wild = total = 0
    for i in range(-r, r + 1):
        half = isqrt(r * r - i * i)
        total += 2 * half + 1
        for c in classes[i % 20]:
            # columns j in [-half, half] with j = c (mod 20)
            wild += (half - c) // 20 - (-half - 1 - c) // 20
    return wild, total


# --- formal model ------------------------------------------------------------

def param_point(rng):
    """A random point for the formal model: one value per lattice position."""
    values: dict[tuple[int, int], int] = {}

    def value(i: int, j: int) -> int:
        key = (i, j)
        if key not in values:
            values[key] = rng.randrange(1, 1 << 61)
        return values[key]

    return value


def box_scan_index(i: int, j: int) -> int:
    """Parameter number of lattice position (i, j) under the box scan that
    ``tiling.py`` documents: box 0 is [0, m+2)^2, box t grows it by m on every
    side, and each new shell is numbered row-major.  Counts lattice points
    row by row with congruence arithmetic instead of scanning cells."""
    u, v, m, t = LATTICE
    vinv = pow(v, -1, m)

    def in_row(row: int, lo: int, hi: int) -> int:
        """Lattice points (row, x) with lo <= x < hi."""
        if hi <= lo:
            return 0
        c = ((t - u * row) * vinv) % m
        return (hi - 1 - c) // m - (lo - 1 - c) // m

    def box(k: int) -> tuple[int, int]:
        return -m * k, m + 2 + m * k

    def shell_row(k: int, row: int, upto: int) -> int:
        """Lattice points of shell k in `row` with column < upto."""
        lo, hi = box(k)
        upto = min(upto, hi)
        if k == 0:
            return in_row(row, lo, upto)
        plo, phi = box(k - 1)
        if plo <= row < phi:
            return in_row(row, lo, min(upto, plo)) + in_row(row, phi, upto)
        return in_row(row, lo, upto)

    k = 0
    while not (box(k)[0] <= min(i, j) and max(i, j) < box(k)[1]):
        k += 1
    before = 0
    if k > 0:
        plo, phi = box(k - 1)
        before = sum(in_row(row, plo, phi) for row in range(plo, phi))
    lo, _ = box(k)
    before += sum(shell_row(k, row, box(k)[1]) for row in range(lo, i))
    return before + shell_row(k, i, j) + 1


# --- block classes and rank --------------------------------------------------

def _token_grid(entry, i0, j0, n):
    return tuple(tuple(entry(i, j) for j in range(j0, j0 + n)) for i in range(i0, i0 + n))


def class_key(grid) -> tuple:
    """Canonical key of an n x n grid of 0 / 1 / -1 / ('p', label) tokens
    under the 8 square symmetries, the 8 sign patterns (-1)^(ar+bc+g) on the
    +-1 entries, and relabelling of parameters."""
    images = []
    g = tuple(tuple(row) for row in grid)
    for _ in range(4):
        images.append(g)
        images.append(tuple(zip(*g)))
        g = tuple(zip(*g[::-1]))
    best = None
    for image in images:
        for a, b, gamma in itertools.product((0, 1), repeat=3):
            labels: dict = {}
            key = []
            for r, row in enumerate(image):
                for c, tok in enumerate(row):
                    if isinstance(tok, tuple):
                        key.append(2 + labels.setdefault(tok[1], len(labels) + 1))
                    elif tok == 0:
                        key.append(0)
                    else:
                        flip = (a * r + b * c + gamma) % 2
                        key.append(1 if (tok == 1) != bool(flip) else 2)
            key = tuple(key)
            if best is None or key < best:
                best = key
    return best


def formal_token(i: int, j: int):
    return ("p", (i, j)) if on_lattice(i, j) else BACKGROUND[(j - i) % 4]


def block_classes(n: int) -> dict[tuple, tuple[tuple, int]]:
    """key -> (corner window as a token grid, orbit size) over the m corner
    windows at (0, k) of the formal wildest tiling."""
    out: dict[tuple, tuple[tuple, int]] = {}
    for k in range(LATTICE[2]):
        grid = _token_grid(formal_token, 0, k, n)
        key = class_key(grid)
        rep, count = out.get(key, (grid, 0))
        out[key] = (rep, count + 1)
    return out


def parse_encoding(encoding: str, n: int):
    """An `sl2 classes` encoding (0 / + / - / pK tokens) as a token grid."""
    toks = encoding.split()
    cells = [0 if t == "0" else 1 if t == "+" else -1 if t == "-" else ("p", t) for t in toks]
    return tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))


def rank_q(rows) -> int:
    """Rank over Q by Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def ranks_at_points(grid, rng, points: int, span: int) -> list[int]:
    """Rank of a token grid with every parameter set to independent random
    values in [1, span], at `points` seeded points."""
    out = []
    for _ in range(points):
        values: dict = {}
        rows = [[values.setdefault(t[1], rng.randint(1, span)) if isinstance(t, tuple) else t
                 for t in row] for row in grid]
        out.append(rank_q(rows))
    return out


# --- periodic search ---------------------------------------------------------

def wrapped_fully_wild(block, modulus: int) -> bool:
    return all(all(row) for row in wild_grid(periodic_entry(block), 0, 0, len(block), len(block[0]), modulus))


def torus_min(block) -> tuple:
    h, w = len(block), len(block[0])
    shifts = []
    for di in range(h):
        rows = block[di:] + block[:di]
        for dj in range(w):
            shifts.append(tuple(row[dj:] + row[:dj] for row in rows))
    return min(shifts)


def fully_wild_blocks(modulus: int, h: int, w: int) -> tuple:
    """Sorted torus-canonical fully-wild h x w blocks mod N, by a
    row-transfer enumeration: a row b may follow row a when all w
    wrapped 2x2 windows between them have determinant 1; blocks are the
    closed h-cycles of that relation."""
    n = modulus
    # solve[c][rhs] = all x with c * x = rhs (mod n), by trying every x
    solve = [[[] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for x in range(n):
            solve[c][(c * x) % n].append(x)
    rows = list(itertools.product(range(n), repeat=w))
    follow: dict[tuple, list[tuple]] = {}
    for a in rows:
        partial = [(b0,) for b0 in range(n)]
        for j in range(w - 1):
            partial = [b + (x,) for b in partial for x in solve[a[j]][(1 + a[j + 1] * b[j]) % n]]
        follow[a] = [b for b in partial if (a[w - 1] * b[0] - a[0] * b[w - 1]) % n == 1]

    triple_ok: dict[tuple, bool] = {}

    def rows_wild(up, mid, down) -> bool:
        key = (up, mid, down)
        ok = triple_ok.get(key)
        if ok is None:
            ok = all(
                det3(up[j - 1], up[j], up[(j + 1) % w], mid[j - 1], mid[j], mid[(j + 1) % w],
                     down[j - 1], down[j], down[(j + 1) % w]) % n != 0
                for j in range(w)
            )
            triple_ok[key] = ok
        return ok

    found = set()
    path: list[tuple] = []

    def extend():
        if len(path) == h:
            if path[0] in follow[path[-1]]:
                block = tuple(path)
                if all(rows_wild(block[i - 1], block[i], block[(i + 1) % h]) for i in range(h)):
                    found.add(torus_min(block))
            return
        for b in follow[path[-1]]:
            path.append(b)
            extend()
            path.pop()

    for a in rows:
        path.append(a)
        extend()
        path.pop()
    return tuple(sorted(found))
