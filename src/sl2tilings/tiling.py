"""Finite descriptions of bi-infinite SL2-tilings.

A tiling assigns a ring element to every cell of Z x Z (row index i grows
downward, column index j rightward) such that every adjacent 2x2 minor is 1.
Three finite model kinds are supported:

* ``RuleBased``: entry(i, j) = table[(j - i) mod 4].
* ``PeriodicBlock``: entry(i, j) = block[i mod h][j mod w].
* ``Patched``: a rule-based background whose zeros along a congruence
  sublattice are replaced by parameters, either formal variables or nonzero
  integers.

An entry is wild when the 3x3 determinant centered on it is nonzero in the
ring; everything else here (reports, densities, audits) is built on that
classification.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import cache, partial
from itertools import accumulate, chain, compress, count
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Mapping, Sequence, Union

from .errors import StructuralError, UnsupportedOperationError, ValidationError, _Frozen
from .matrices import Matrix, corner_det3, det2_scan, det3, det3_scan
from .rings import (
    POLYNOMIALS,
    IntegerRing,
    ModularRing,
    PolynomialRing,
    RingSpec,
    RingValue,
    _Poly,
)


class SublatticeSpec(_Frozen):
    """The position set {(i, j) : u*i + v*j = t (mod m)}."""

    __slots__ = ("u", "v", "m", "t")

    def __init__(self, u: int, v: int, m: int, t: int) -> None:
        if m < 1:
            raise ValidationError(f"lattice modulus must be positive, got {m}")
        self._assign(u % m, v % m, m, t % m)

    def contains(self, i: int, j: int) -> bool:
        return (self.u * i + self.v * j - self.t) % self.m == 0


class FormalParameters(_Frozen):
    """Each lattice position holds a fresh variable a_k (see parameter_index)."""

    __slots__ = ()


class NumericParameters(_Frozen):
    """Explicit nonzero integers at listed positions, a default elsewhere."""

    __slots__ = ("values", "default", "_map")

    def __init__(self, values: tuple[tuple[tuple[int, int], int], ...], default: int) -> None:
        if default == 0:
            raise ValidationError("default parameter value must be nonzero")
        for pos, v in values:
            if v == 0:
                raise ValidationError(f"parameter at {pos} must be nonzero")
        self._assign(values, default, dict(values))

    @staticmethod
    def from_mapping(values: Mapping[tuple[int, int], int], default: int) -> "NumericParameters":
        return NumericParameters(tuple(sorted(values.items())), default)

    def value_at(self, i: int, j: int) -> int:
        return self._map.get((i, j), self.default)


ParameterAssignment = Union[FormalParameters, NumericParameters]


# Parameter numbering scans expanding square boxes around the display origin:
# box 0 is [0, m+2)^2 and box t extends it by m cells on every side.  Within
# box 0, and within each further shell, lattice positions are numbered
# row-major.  Box 0 matches an (m+2) x (m+2) display window, so the numbering
# printed for such a window is 1, 2, 3, ... reading across rows.  Numbers are
# counted row by row in closed form, so no cell is visited and nothing is kept.


def _count_congruent(lo: int, hi: int, a: int, q: int) -> int:
    """|{j in [lo, hi] : j = a (mod q)}|."""
    if hi < lo:
        return 0
    return (hi - a) // q - (lo - 1 - a) // q


def _lattice_row(lattice: SublatticeSpec, i: int) -> tuple[int, int] | None:
    """(a, q) with (i, j) on the lattice iff j = a (mod q), 0 <= a < q, or None."""
    g = gcd(lattice.v, lattice.m)
    rhs, q = lattice.t - lattice.u * i, lattice.m // g
    return None if rhs % g else (rhs // g * pow(lattice.v // g, -1, q) % q, q)


def _lattice_row_count(lattice: SublatticeSpec, i: int, lo: int, hi: int) -> int:
    """|{j in [lo, hi) : (i, j) on the lattice}|."""
    row = _lattice_row(lattice, i)
    return _count_congruent(lo, hi - 1, *row) if row else 0


def _box_bounds(lattice: SublatticeSpec, t: int) -> tuple[int, int]:
    return -lattice.m * t, lattice.m + 2 + lattice.m * t


def _box_prefix(lattice: SublatticeSpec, t: int) -> Callable[[int, int], int]:
    """f(i, j) = lattice positions of box t before (i, j) in row-major order.

    Rows r and r + m meet the lattice alike, so box t's m row classes are
    counted once here, and f costs O(1) a call.
    """
    if t < 0:
        return lambda i, j: 0
    m = lattice.m
    lo, hi = _box_bounds(lattice, t)
    counts = (_lattice_row_count(lattice, lo + k, lo, hi) for k in range(m))
    sums = list(accumulate(counts, initial=0))

    def prefix(i: int, j: int) -> int:
        rows = min(max(i, lo), hi) - lo
        partial = _lattice_row_count(lattice, i, lo, min(j, hi)) if lo <= i < hi else 0
        return rows // m * sums[m] + sums[rows % m] + partial

    return prefix


def _box_count(lattice: SublatticeSpec, t: int) -> int:
    return _box_prefix(lattice, t)(_box_bounds(lattice, t)[1], 0)


def _numbered_before(lattice: SublatticeSpec, t: int) -> Callable[[int, int], int]:
    """f(i, j) = parameter numbers taken before (i, j), for (i, j) in shell t
    (box t less box t - 1)."""
    inner, outer = _box_prefix(lattice, t - 1), _box_prefix(lattice, t)
    before = inner(_box_bounds(lattice, t - 1)[1], 0)
    return lambda i, j: before + outer(i, j) - inner(i, j)


def _shell(lattice: SublatticeSpec, i: int, j: int) -> int:
    """The t with (i, j) in box t but not in box t - 1."""
    return max(0, -(min(i, j) // lattice.m), (max(i, j) - 2) // lattice.m)


def parameter_index(lattice: SublatticeSpec, i: int, j: int) -> int:
    """1-based parameter number of a lattice position under the box scan."""
    if not lattice.contains(i, j):
        raise StructuralError(f"({i}, {j}) is not on the sublattice")
    return _numbered_before(lattice, _shell(lattice, i, j))(i, j) + 1


def parameter_position(lattice: SublatticeSpec, index: int) -> tuple[int, int]:
    """Inverse of parameter_index."""
    if index < 1:
        raise ValidationError(f"parameter index must be positive, got {index}")
    if lattice.t % gcd(lattice.u, lattice.v, lattice.m):
        raise StructuralError(f"{lattice} has no positions")
    # Box s holds (2s + 1)^2 disjoint m x m squares, each with a position: t <= isqrt(index).
    t = bisect_left(range(isqrt(index) + 1), index, key=lambda s: _box_count(lattice, s))
    before = _numbered_before(lattice, t)
    cells = range(*_box_bounds(lattice, t))
    i = cells[bisect_left(cells, index, key=lambda r: before(r + 1, cells[0]))]
    j = cells[bisect_left(cells, index, key=lambda c: before(i, c + 1))]
    return i, j


def _turn(period: Sequence, k: int, w: int) -> list:
    """w entries of the repeated period, from its entry k mod len(period)."""
    k %= len(period)
    return list((period * ((k + w) // len(period) + 1))[k:k + w])


class RuleBased(_Frozen):
    """entry(i, j) = table[(j - i) mod 4]."""

    __slots__ = ("ring", "table")

    def __init__(self, ring: RingSpec, table: tuple[RingValue, RingValue, RingValue, RingValue]) -> None:
        if len(table) != 4:
            raise ValidationError("rule table must have exactly 4 entries")
        for v in table:
            if not isinstance(v, RingValue) or v.spec != ring:
                raise ValidationError("rule table entry outside the model ring")
        self._assign(ring, table)

    def entry(self, i: int, j: int) -> RingValue:
        return self.table[(j - i) % 4]

    def _rows(self, i0: int, j0: int, h: int, w: int) -> list[list]:
        """The payload rows of the h x w window at (i0, j0)."""
        table = [v.payload for v in self.table]
        return [_turn(table, j0 - i, w) for i in range(i0, i0 + h)]


class PeriodicBlock(_Frozen):
    """entry(i, j) = block[i mod h][j mod w]."""

    __slots__ = ("ring", "block")

    def __init__(self, ring: RingSpec, block: Matrix) -> None:
        if block.spec != ring:
            raise ValidationError("block entries outside the model ring")
        self._assign(ring, block)

    @property
    def h(self) -> int:
        return self.block.rows

    @property
    def w(self) -> int:
        return self.block.cols

    def entry(self, i: int, j: int) -> RingValue:
        return self.block.at(i % self.h, j % self.w)

    def _rows(self, i0: int, j0: int, h: int, w: int) -> list[list]:
        block = self.block.payload_rows()
        return [_turn(block[i % self.h], j0, w) for i in range(i0, i0 + h)]


class Patched(_Frozen):
    """A rule background with its sublattice zeros replaced by parameters.

    Construction requires the background to vanish on every lattice position,
    checked over one full period; parameters are nonzero by type invariant,
    so every 2x2 determinant that touches a parameter multiplies it by a
    background zero and the verification below stays assignment-independent.
    """

    __slots__ = ("ring", "base", "lattice", "parameters")

    def __init__(
        self, ring: RingSpec, base: RuleBased, lattice: SublatticeSpec, parameters: ParameterAssignment
    ) -> None:
        if isinstance(parameters, FormalParameters):
            if not isinstance(ring, PolynomialRing):
                raise ValidationError("formal parameters need the polynomial ring")
        else:
            if not isinstance(ring, IntegerRing):
                raise ValidationError("numeric parameters need the integer ring")
            for pos, _ in parameters.values:
                if not lattice.contains(*pos):
                    raise ValidationError(f"parameter position {pos} is off the sublattice")
        if base.ring != ring:
            raise ValidationError("background ring differs from the model ring")
        # The background repeats mod 4 in j - i, so the first 4 lattice
        # columns of a row show every background value the row meets.
        for i in range(lcm(lattice.m, 4)):
            row = _lattice_row(lattice, i)
            for j in range(row[0], row[0] + 4 * row[1], row[1]) if row else ():
                if not base.entry(i, j).is_zero():
                    raise ValidationError(
                        f"background is nonzero at lattice position ({i}, {j})"
                    )
        self._assign(ring, base, lattice, parameters)

    def is_formal(self) -> bool:
        return isinstance(self.parameters, FormalParameters)

    def entry(self, i: int, j: int) -> RingValue:
        if self.lattice.contains(i, j):
            if isinstance(self.parameters, FormalParameters):
                return self.ring.variable(parameter_index(self.lattice, i, j))
            return self.ring.value(self.parameters.value_at(i, j))
        return self.base.entry(i, j)

    def _rows(self, i0: int, j0: int, h: int, w: int) -> list[list]:
        """The background rows with each row's lattice progression written
        over: variables, numbered by one _numbered_before per shell met in
        this call, or the parameter values."""
        rows, lattice = self.base._rows(i0, j0, h, w), self.lattice
        numbered_before = cache(partial(_numbered_before, lattice))
        value_at = None if self.is_formal() else self.parameters.value_at
        for i, row in zip(count(i0), rows):
            if progression := _lattice_row(lattice, i):
                a, q = progression
                cols = range(j0 + (a - j0) % q, j0 + w, q)
                row[cols.start - j0::q] = [value_at(i, j) for j in cols] if value_at else [
                    _Poly.of_variable(numbered_before(_shell(lattice, i, j))(i, j) + 1) for j in cols]
        return rows


TilingModel = Union[RuleBased, PeriodicBlock, Patched]


class Window(_Frozen):
    """A finite rectangle of entries with its top-left cell's coordinates."""

    __slots__ = ("matrix", "origin")

    def __init__(self, matrix: Matrix, origin: tuple[int, int]) -> None:
        self._assign(matrix, origin)

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    def at(self, r: int, c: int) -> RingValue:
        """Entry at window-relative position (r, c)."""
        return self.matrix.at(r, c)


def extract_window(t: TilingModel, i0: int, j0: int, h: int, w: int) -> Window:
    """The h x w window at (i0, j0), of entry(i, j), filled row by row."""
    if h < 1 or w < 1:
        raise ValidationError(f"window shape must be positive, got {h}x{w}")
    return Window(Matrix(t.ring, h, w, tuple(chain.from_iterable(t._rows(i0, j0, h, w)))), (i0, j0))


class Violation(_Frozen):
    """A 2x2 window whose determinant is not 1; (i, j) is its top-left cell."""

    __slots__ = ("i", "j", "value")

    def __init__(self, i: int, j: int, value: RingValue) -> None:
        self._assign(i, j, value)


# Analyses compute on payload rows with the minors of matrices.py.  The ring's
# ``reduce`` takes a computed payload to its value's payload, which is truthy
# exactly when the value is nonzero; two are equal exactly when the values are.


def _det2_faults(spec: RingSpec, origin: tuple[int, int], rows: Sequence[Sequence]) -> Iterator[Violation]:
    """A Violation for every adjacent 2x2 window of the payload rows whose
    determinant is not 1, row-major; ``origin`` is the cell of rows[0][0]."""
    one, (oi, oj), w = spec.one().payload, origin, len(rows[0]) - 1
    for k, v in enumerate(map(spec.reduce, det2_scan(rows))):
        if v != one:
            yield Violation(oi + k // w, oj + k % w, RingValue(spec, v))


def _formal_twin(t: Patched) -> Patched:
    if t.is_formal():
        return t
    base = RuleBased(POLYNOMIALS, tuple(POLYNOMIALS.value(v.payload) for v in t.base.table))
    return Patched(POLYNOMIALS, base, t.lattice, FormalParameters())


def verify_sl2(t: TilingModel) -> Violation | None:
    """First adjacent 2x2 window whose determinant differs from 1, if any.

    Finite sufficiency: a translation in the lattice of _torus_basis multiplies
    entries by +-(-1)^(i+j) at most and renames parameters, which keeps every
    det2, so one (p+1) x (q+1) window at the origin decides: 2x5 for a rule,
    (h+1) x (w+1) for a periodic block.  A patched model is checked with its
    parameters kept formal, after its background rule, whose fault comes first.
    """
    if isinstance(t, Patched):
        t = _formal_twin(t)
        if fault := verify_sl2(t.base):
            return fault
    p, q, _ = _torus_basis(t)
    return verify_window(extract_window(t, 0, 0, p + 1, q + 1))


def verify_window(win: Window) -> Violation | None:
    """First 2x2 window lying fully inside a finite grid, row-major, whose
    determinant differs from 1."""
    return next(_det2_faults(win.matrix.spec, win.origin, win.matrix.payload_rows()), None)


def centered_det3(t: TilingModel, i: int, j: int) -> RingValue:
    rows = [[t.entry(i + di, j + dj) for dj in (-1, 0, 1)] for di in (-1, 0, 1)]
    return det3(rows)


def classify_entry(t: TilingModel, i: int, j: int) -> tuple[bool, RingValue]:
    """(wild?, centered 3x3 determinant).  Wild means the determinant is
    nonzero in the ring; for polynomial entries, nonzero as a polynomial."""
    d3 = centered_det3(t, i, j)
    return (not d3.is_zero(), d3)


class CellColor(enum.Enum):
    PLUS_ONE = "plus-one"
    MINUS_ONE = "minus-one"
    ZERO_TAME = "zero-tame"
    ZERO_WILD = "zero-wild"
    PARAMETER = "parameter"
    OTHER_NONZERO = "other-nonzero"


def _value_color(value: RingValue) -> CellColor:
    if value.constant_value() is None:
        return CellColor.PARAMETER
    if value.is_one():
        return CellColor.PLUS_ONE
    if (-value).is_one():
        return CellColor.MINUS_ONE
    if value.is_zero():
        return CellColor.ZERO_TAME
    return CellColor.OTHER_NONZERO


def _value_colors(spec: RingSpec, rows: Sequence[Sequence]) -> list[list[CellColor]]:
    """The colors of rows of payloads by value alone: PARAMETER for a
    non-constant polynomial, else one _value_color per distinct payload."""
    palette = {p: CellColor.PARAMETER if isinstance(p, _Poly) and p.constant() is None
               else _value_color(RingValue(spec, p)) for p in set(chain.from_iterable(rows))}
    return [list(map(palette.__getitem__, row)) for row in rows]


class WildnessReport(_Frozen):
    __slots__ = ("origin", "rows", "cols", "wild", "colors", "violations")

    def __init__(
        self,
        origin: tuple[int, int],
        rows: int,
        cols: int,
        wild: tuple[tuple[bool, ...], ...],
        colors: tuple[tuple[CellColor, ...], ...],
        violations: tuple[Violation, ...],
    ) -> None:
        self._assign(origin, rows, cols, wild, colors, violations)

    @property
    def wild_count(self) -> int:
        return sum(sum(row) for row in self.wild)


def wildness_report(t: TilingModel, i0: int, j0: int, h: int, w: int) -> WildnessReport:
    """Per-cell wildness and display colors for the h x w window at (i0, j0).

    All of it comes from one frame of payloads, the region grown by a cell
    on each side.  Wildness is read off the wild torus, and from the frame's
    det3 at the few cells whose 3x3 window meets an explicit numeric value.
    Colors are the region's values, and violations list every 2x2 window
    whose top-left cell lies in the region.
    """
    if h < 1 or w < 1:
        raise ValidationError(f"window shape must be positive, got {h}x{w}")
    torus, s = _wild_torus(t)
    p, q = len(torus), len(torus[0])
    # Row i of the region is torus row i mod p, turned by (j0 - s*(i // p)) mod q.
    wild = [list((torus[i % p] * (w // q + 2))[(j0 - s * (i // p)) % q:][:w]) for i in range(i0, i0 + h)]
    frame = t._rows(i0 - 1, j0 - 1, h + 2, w + 2)
    for r, c in ((i - i0, j - j0) for i, j in _explicit_cells(t)):
        if 0 <= r < h and 0 <= c < w:
            wild[r][c] = bool(t.ring.reduce(det3([row[c:c + 3] for row in frame[r:r + 3]])))
    colors = _value_colors(t.ring, [row[1:w + 1] for row in frame[1:h + 1]])
    for i, line, flags in zip(count(i0), colors, wild):
        # A row's lattice positions are an arithmetic progression.
        if isinstance(t, Patched) and (lattice := _lattice_row(t.lattice, i)):
            for c in range((lattice[0] - j0) % lattice[1], w, lattice[1]):
                line[c] = CellColor.PARAMETER
        for c in compress(count(), flags):
            line[c] = CellColor.ZERO_WILD
    violations = tuple(_det2_faults(t.ring, (i0, j0), [row[1:] for row in frame[1:]]))
    return WildnessReport((i0, j0), h, w, tuple(map(tuple, wild)), tuple(map(tuple, colors)), violations)


class DensitySample(_Frozen):
    __slots__ = ("radius", "wild", "total")

    def __init__(self, radius: int, wild: int, total: int) -> None:
        self._assign(radius, wild, total)

    @property
    def ratio(self) -> Fraction:
        from fractions import Fraction  # here, so that importing the package skips it

        return Fraction(self.wild, self.total) if self.total else Fraction(0)


def _torus_basis(t: TilingModel) -> tuple[int, int, int]:
    """(p, q, c) for the Hermite basis (p, c) and (0, q) of translations that
    keep wildness: (1, 1) and (0, 4) for a rule model, (h, 0) and (0, w) for a
    periodic block.

    A patched model has L = {(a, b) : u*a + v*b = 0 (mod m), a = b (mod k)},
    of index at most k*m.  With k = 2, a translation in L maps the lattice onto
    itself and shifts j - i by an even amount, which only flips the sign of a
    background with table[n + 2] = -table[n], as every SL2 rule has.  The
    parameters sit on its zeros, all of one parity of i + j, so the sign
    +-(-1)^(i+j) that is +1 there undoes the flip and changes each det2 and
    det3 by a sign at most.  Other backgrounds take k = 4.
    """
    if isinstance(t, RuleBased):
        p, q, c = 1, 4, 1
    elif isinstance(t, PeriodicBlock):
        p, q, c = t.h, t.w, 0
    else:
        u, v, m = t.lattice.u, t.lattice.v, t.lattice.m
        k = 2 if all(t.base.table[n] == -t.base.table[n - 2] for n in range(4)) else 4
        q = lcm(m // gcd(v, m), k)
        p, c = next((a, b) for a in count(1) for b in range(q)
                    if (u * a + v * b) % m == 0 and (a - b) % k == 0)
    return p, q, c


def _wild_torus(t: TilingModel) -> tuple[tuple[tuple[bool, ...], ...], int]:
    """(rows, c) with wild(i, j) = rows[i mod p][(j - c*(i // p)) mod q] on the
    basis of _torus_basis, from the p*q det3s of one (p+2) x (q+2) window.
    Explicit numeric values are left out: they can cancel in a det3, the
    default cannot, so the cells of _explicit_cells need their own det3."""
    p, q, c = _torus_basis(t)
    if isinstance(t, Patched) and not t.is_formal():
        t = Patched(t.ring, t.base, t.lattice, NumericParameters((), t.parameters.default))
    wild = [bool(t.ring.reduce(d3)) for d3 in det3_scan(t._rows(-1, -1, p + 2, q + 2))]
    return tuple(tuple(wild[r * q:(r + 1) * q]) for r in range(p)), c


def _explicit_cells(t: TilingModel) -> set[tuple[int, int]]:
    """The cells whose 3x3 window meets an explicit numeric value."""
    if not isinstance(t, Patched) or t.is_formal():
        return set()
    return {(i + di, j + dj) for (i, j), _ in t.parameters.values
            for di in (-1, 0, 1) for dj in (-1, 0, 1)}


def wild_density_exact(t: TilingModel) -> Fraction:
    """Wild cells per fundamental domain of the wild torus."""
    from fractions import Fraction  # here, as in DensitySample.ratio

    rows, _ = _wild_torus(t)
    return Fraction(sum(map(sum, rows)), len(rows) * len(rows[0]))


_DENSITY_BUDGET = 5_000_000


def wild_density_windows(t: TilingModel, radii: Sequence[int]) -> tuple[DensitySample, ...]:
    """Wild-cell counts over discs i^2 + j^2 <= r^2 centered at the origin."""
    for r in radii:
        if r < 0:
            raise ValidationError(f"radius must be nonnegative, got {r}")
    cost = sum(2 * r + 1 for r in radii)
    if cost > _DENSITY_BUDGET:
        raise UnsupportedOperationError(
            f"density would scan {cost} disc rows, over the bound of {_DENSITY_BUDGET}"
        )
    rows, c = _wild_torus(t)
    p, q = len(rows), len(rows[0])
    residues = [[k for k, wild in enumerate(row) if wild] for row in rows]
    # The torus leaves out explicit numeric values: recount the cells they
    # reach, each from the det3 of its 3x3 window.
    fixes = {(i, j): bool(t.ring.reduce(det3(t._rows(i - 1, j - 1, 3, 3))))
             - rows[i % p][(j - c * (i // p)) % q] for i, j in _explicit_cells(t)}
    samples = []
    for r in radii:
        wild = sum(d for (i, j), d in fixes.items() if i * i + j * j <= r * r)
        total = 0
        for i in range(-r, r + 1):
            half = isqrt(r * r - i * i)
            total += 2 * half + 1
            wild += sum(_count_congruent(-half, half, k + c * (i // p), q) for k in residues[i % p])
        samples.append(DensitySample(r, wild, total))
    return tuple(samples)


class AuditFinding(_Frozen):
    """A cell where one of the structural identities failed."""

    __slots__ = ("i", "j", "check", "detail")

    def __init__(self, i: int, j: int, check: str, detail: str) -> None:
        self._assign(i, j, check, detail)


def window_colors(win: Window) -> list[list[CellColor]]:
    """Display colors of a bare window; boundary cells have no visible 3x3
    neighborhood, so only interior cells can show as wild."""
    rows = win.matrix.payload_rows()
    colors = _value_colors(win.matrix.spec, rows)
    inner = win.cols - 2
    for k in compress(count(), map(win.matrix.spec.reduce, det3_scan(rows))):
        colors[1 + k // inner][1 + k % inner] = CellColor.ZERO_WILD
    return colors


def audit_window(win: Window, checks: Sequence[str]) -> list[AuditFinding | None]:
    """Row-major first finding of each named check, in the order named, from
    one det3 scan of the interior cells.  The checks "dodgson", "corner" and
    "cross" are those of dodgson_audit, corner_audit and zero_cross_audit;
    each stops at its first finding."""
    for name in checks:
        if name not in ("dodgson", "corner", "cross"):
            raise ValidationError(f"unknown audit check {name!r}")
    if "cross" in checks and isinstance(win.matrix.spec, ModularRing):
        raise UnsupportedOperationError("zero-cross conditions hold over integral domains")
    spec = win.matrix.spec
    rows, reduce = win.matrix.payload_rows(), spec.reduce
    one, minus_one = spec.one().payload, (-spec.one()).payload
    crosses = ((one, minus_one, one, minus_one), (minus_one, one, minus_one, one))

    def value(x) -> RingValue:
        return RingValue(spec, reduce(x))

    oi, oj = win.origin
    found: dict[str, AuditFinding] = {}
    pending = list(dict.fromkeys(checks))
    cells = ((r, c) for r in range(1, win.rows - 1) for c in range(1, win.cols - 1))
    for (r, c), d3 in zip(cells, det3_scan(rows)):
        above, row, below = rows[r - 1], rows[r], rows[r + 1]
        e = row[c]
        for name in tuple(pending):
            hit = None
            if name == "dodgson":
                if reduce(e * d3):
                    hit = "dodgson", f"entry {value(e)} times det3 {value(d3)} is nonzero"
            elif name == "corner":
                predicted = corner_det3(e, (above[c - 1], above[c + 1], below[c - 1], below[c + 1]))
                if reduce(d3) != reduce(predicted):
                    hit = "corner", f"det3 {value(d3)} but corner formula gives {value(predicted)}"
            elif not reduce(e):
                sides = above[c], row[c - 1], row[c + 1], below[c]
                if tuple(map(reduce, sides)) not in crosses:
                    named = ", ".join(str(value(v)) for v in sides)
                    hit = "cross-pattern", f"zero with side neighbors ({named})"
            if hit:
                found[name] = AuditFinding(oi + r, oj + c, *hit)
                pending.remove(name)
        if not pending:
            break
    return [found.get(name) for name in checks]


def dodgson_audit(win: Window) -> AuditFinding | None:
    """Check e * det3 = 0 at every interior cell.  Over an integral domain
    this already implies that wild cells hold 0."""
    return audit_window(win, ["dodgson"])[0]


def corner_audit(win: Window) -> AuditFinding | None:
    """Check det3 = (a+c+g+i) + (cg - ai)*e at every interior cell."""
    return audit_window(win, ["corner"])[0]


def zero_cross_audit(win: Window) -> AuditFinding | None:
    """Check the local condition forced at zeros: the four side neighbors
    of any zero form a +1/-1 cross in one of the two orientations.  Integral
    domains only.  That a wild zero has a nonzero diagonal neighbor is
    implied: every term of det3 holds the center or a corner."""
    return audit_window(win, ["cross"])[0]
