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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Mapping, Sequence, Union

from .errors import StructuralError, UnsupportedOperationError, ValidationError
from .matrices import Matrix, corner_det3, det2_scan, det3, det3_scan
from .rings import (
    INTEGERS,
    POLYNOMIALS,
    IntegerRing,
    ModularRing,
    PolynomialRing,
    RingSpec,
    RingValue,
)


@dataclass(frozen=True)
class SublatticeSpec:
    """The position set {(i, j) : u*i + v*j = t (mod m)}."""

    u: int
    v: int
    m: int
    t: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValidationError(f"lattice modulus must be positive, got {self.m}")
        object.__setattr__(self, "u", self.u % self.m)
        object.__setattr__(self, "v", self.v % self.m)
        object.__setattr__(self, "t", self.t % self.m)

    def contains(self, i: int, j: int) -> bool:
        return (self.u * i + self.v * j - self.t) % self.m == 0


@dataclass(frozen=True)
class FormalParameters:
    """Each lattice position holds a fresh variable a_k (see parameter_index)."""


@dataclass(frozen=True)
class NumericParameters:
    """Explicit nonzero integers at listed positions, a default elsewhere."""

    values: tuple[tuple[tuple[int, int], int], ...]
    default: int
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.default == 0:
            raise ValidationError("default parameter value must be nonzero")
        for pos, v in self.values:
            if v == 0:
                raise ValidationError(f"parameter at {pos} must be nonzero")
        object.__setattr__(self, "_map", dict(self.values))

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


def _lattice_row_count(lattice: SublatticeSpec, c: int, i: int, lo: int, hi: int) -> int:
    """|{j in [lo, hi) : u*i + v*j = c (mod m)}|."""
    g = gcd(lattice.v, lattice.m)
    rhs = c - lattice.u * i
    if rhs % g:
        return 0
    q = lattice.m // g
    return _count_congruent(lo, hi - 1, rhs // g * pow(lattice.v // g, -1, q), q)


def _box_bounds(lattice: SublatticeSpec, t: int) -> tuple[int, int]:
    return -lattice.m * t, lattice.m + 2 + lattice.m * t


def _box_prefix(lattice: SublatticeSpec, t: int, i: int, j: int) -> int:
    """Lattice positions of box t before (i, j) in row-major order."""
    if t < 0:
        return 0
    lo, hi = _box_bounds(lattice, t)
    rows = range(lo, min(i, hi))
    # Rows r and r + m meet the lattice alike: count one row of each class.
    count = sum(
        len(rows[k :: lattice.m]) * _lattice_row_count(lattice, lattice.t, lo + k, lo, hi)
        for k in range(min(lattice.m, len(rows)))
    )
    if lo <= i < hi:
        count += _lattice_row_count(lattice, lattice.t, i, lo, min(j, hi))
    return count


def _box_count(lattice: SublatticeSpec, t: int) -> int:
    return _box_prefix(lattice, t, _box_bounds(lattice, t)[1], 0)


def _shell_prefix(lattice: SublatticeSpec, t: int, i: int, j: int) -> int:
    """Lattice positions of shell t (box t less box t - 1) before (i, j)."""
    return _box_prefix(lattice, t, i, j) - _box_prefix(lattice, t - 1, i, j)


def parameter_index(lattice: SublatticeSpec, i: int, j: int) -> int:
    """1-based parameter number of a lattice position under the box scan."""
    if not lattice.contains(i, j):
        raise StructuralError(f"({i}, {j}) is not on the sublattice")
    t = max(0, -(min(i, j) // lattice.m), (max(i, j) - 2) // lattice.m)
    return _box_count(lattice, t - 1) + _shell_prefix(lattice, t, i, j) + 1


def parameter_position(lattice: SublatticeSpec, index: int) -> tuple[int, int]:
    """Inverse of parameter_index."""
    if index < 1:
        raise ValidationError(f"parameter index must be positive, got {index}")
    if lattice.t % gcd(lattice.u, lattice.v, lattice.m):
        raise StructuralError(f"{lattice} has no positions")
    # Box s holds (2s + 1)^2 disjoint m x m squares, each with a position: t <= isqrt(index).
    t = bisect_left(range(isqrt(index) + 1), index, key=lambda s: _box_count(lattice, s))
    rank = index - _box_count(lattice, t - 1)
    cells = range(*_box_bounds(lattice, t))
    i = cells[bisect_left(cells, rank, key=lambda r: _shell_prefix(lattice, t, r + 1, cells[0]))]
    j = cells[bisect_left(cells, rank, key=lambda c: _shell_prefix(lattice, t, i, c + 1))]
    return i, j


@dataclass(frozen=True)
class RuleBased:
    """entry(i, j) = table[(j - i) mod 4]."""

    ring: RingSpec
    table: tuple[RingValue, RingValue, RingValue, RingValue]

    def __post_init__(self) -> None:
        if len(self.table) != 4:
            raise ValidationError("rule table must have exactly 4 entries")
        for v in self.table:
            if not isinstance(v, RingValue) or v.spec != self.ring:
                raise ValidationError("rule table entry outside the model ring")

    def entry(self, i: int, j: int) -> RingValue:
        return self.table[(j - i) % 4]


@dataclass(frozen=True)
class PeriodicBlock:
    """entry(i, j) = block[i mod h][j mod w]."""

    ring: RingSpec
    block: Matrix

    def __post_init__(self) -> None:
        if self.block.spec != self.ring:
            raise ValidationError("block entries outside the model ring")

    @property
    def h(self) -> int:
        return self.block.rows

    @property
    def w(self) -> int:
        return self.block.cols

    def entry(self, i: int, j: int) -> RingValue:
        return self.block.at(i % self.h, j % self.w)


@dataclass(frozen=True)
class Patched:
    """A rule background with its sublattice zeros replaced by parameters.

    Construction requires the background to vanish on every lattice position,
    checked over one full period; parameters are nonzero by type invariant,
    so every 2x2 determinant that touches a parameter multiplies it by a
    background zero and the verification below stays assignment-independent.
    """

    ring: RingSpec
    base: RuleBased
    lattice: SublatticeSpec
    parameters: ParameterAssignment

    def __post_init__(self) -> None:
        if isinstance(self.parameters, FormalParameters):
            if not isinstance(self.ring, PolynomialRing):
                raise ValidationError("formal parameters need the polynomial ring")
        else:
            if not isinstance(self.ring, IntegerRing):
                raise ValidationError("numeric parameters need the integer ring")
            for pos, _ in self.parameters.values:
                if not self.lattice.contains(*pos):
                    raise ValidationError(f"parameter position {pos} is off the sublattice")
        if self.base.ring != self.ring:
            raise ValidationError("background ring differs from the model ring")
        period = lcm(self.lattice.m, 4)
        for i in range(period):
            for j in range(period):
                if self.lattice.contains(i, j) and not self.base.entry(i, j).is_zero():
                    raise ValidationError(
                        f"background is nonzero at lattice position ({i}, {j})"
                    )

    def is_formal(self) -> bool:
        return isinstance(self.parameters, FormalParameters)

    def entry(self, i: int, j: int) -> RingValue:
        if self.lattice.contains(i, j):
            if isinstance(self.parameters, FormalParameters):
                return self.ring.variable(parameter_index(self.lattice, i, j))
            return self.ring.value(self.parameters.value_at(i, j))
        return self.base.entry(i, j)


TilingModel = Union[RuleBased, PeriodicBlock, Patched]


@dataclass(frozen=True)
class Window:
    """A finite rectangle of entries with its top-left cell's coordinates."""

    matrix: Matrix
    origin: tuple[int, int]

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
    if h < 1 or w < 1:
        raise ValidationError(f"window shape must be positive, got {h}x{w}")
    rows = [[t.entry(i0 + r, j0 + c) for c in range(w)] for r in range(h)]
    return Window(Matrix.from_rows(t.ring, rows), (i0, j0))


@dataclass(frozen=True)
class Violation:
    """A 2x2 window whose determinant is not 1; (i, j) is its top-left cell."""

    i: int
    j: int
    value: RingValue


def _minors(scan: Callable[[list], Iterator], m: Matrix) -> Iterator[RingValue]:
    """A minor scan of matrices.py over the rows of ``m``, as ring values.

    Over Z and Z/N the scan runs on plain ints and each minor is reduced
    once; over Z[a] it runs on the values themselves.
    """
    rows = [m.row(r) for r in range(m.rows)]
    if isinstance(m.spec, PolynomialRing):
        return scan(rows)
    return map(m.spec.value, scan([[v.payload for v in row] for row in rows]))


def _formal_twin(t: Patched) -> Patched:
    if t.is_formal():
        return t
    table = []
    for v in t.base.table:
        c = v.constant_value()
        if c is None:
            raise StructuralError("background table entry is not constant")
        table.append(POLYNOMIALS.value(c))
    base = RuleBased(POLYNOMIALS, tuple(table))
    return Patched(POLYNOMIALS, base, t.lattice, FormalParameters())


def verify_sl2(t: TilingModel) -> Violation | None:
    """First adjacent 2x2 window whose determinant differs from 1, if any.

    Finite sufficiency: rule models have 4 window classes; periodic models
    are scanned over one wrapped period; patched models are checked with
    parameters kept formal on the background's 4 classes plus the m windows
    whose top-left cell is (0, k), which together with the constructor's
    background-zero invariant cover every translate.
    """
    if isinstance(t, RuleBased):
        return verify_window(extract_window(t, 0, 0, 2, 5))
    if isinstance(t, PeriodicBlock):
        return verify_window(extract_window(t, 0, 0, t.h + 1, t.w + 1))
    twin = _formal_twin(t)
    return verify_sl2(twin.base) or verify_window(extract_window(twin, 0, 0, 2, twin.lattice.m + 1))


def verify_window(win: Window) -> Violation | None:
    """First 2x2 window lying fully inside a finite grid, row-major, whose
    determinant differs from 1."""
    one = win.matrix.spec.one()
    oi, oj = win.origin
    for k, v in enumerate(_minors(det2_scan, win.matrix)):
        if v != one:
            r, c = divmod(k, win.cols - 1)
            return Violation(oi + r, oj + c, v)
    return None


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


def _value_color(value: RingValue, wild: bool, is_parameter: bool) -> CellColor:
    if wild:
        return CellColor.ZERO_WILD
    if is_parameter or value.constant_value() is None:
        return CellColor.PARAMETER
    if value.is_one():
        return CellColor.PLUS_ONE
    if (-value).is_one():
        return CellColor.MINUS_ONE
    if value.is_zero():
        return CellColor.ZERO_TAME
    return CellColor.OTHER_NONZERO


@dataclass(frozen=True)
class WildnessReport:
    origin: tuple[int, int]
    rows: int
    cols: int
    wild: tuple[tuple[bool, ...], ...]
    colors: tuple[tuple[CellColor, ...], ...]
    violations: tuple[Violation, ...]

    @property
    def wild_count(self) -> int:
        return sum(sum(row) for row in self.wild)


def wildness_report(t: TilingModel, i0: int, j0: int, h: int, w: int) -> WildnessReport:
    """Per-cell wildness and display colors for the h x w window at (i0, j0).

    Violations list every 2x2 window whose top-left cell lies in the region.
    """
    if h < 1 or w < 1:
        raise ValidationError(f"window shape must be positive, got {h}x{w}")
    frame = extract_window(t, i0 - 1, j0 - 1, h + 2, w + 2)
    d3s = _minors(det3_scan, frame.matrix)
    # One det2 per frame window, (h + 1) x (w + 1); the region's windows
    # are those past row 0 and column 0.
    d2s = list(_minors(det2_scan, frame.matrix))
    lattice = t.lattice if isinstance(t, Patched) else None
    one = t.ring.one()
    wild_rows = []
    color_rows = []
    violations = []
    for r in range(h):
        wr = []
        cr = []
        for c in range(w):
            wild = not next(d3s).is_zero()
            is_param = lattice is not None and lattice.contains(i0 + r, j0 + c)
            wr.append(wild)
            cr.append(_value_color(frame.at(r + 1, c + 1), wild, is_param))
            v = d2s[(r + 1) * (w + 1) + c + 1]
            if v != one:
                violations.append(Violation(i0 + r, j0 + c, v))
        wild_rows.append(tuple(wr))
        color_rows.append(tuple(cr))
    return WildnessReport((i0, j0), h, w, tuple(wild_rows), tuple(color_rows), tuple(violations))


@dataclass(frozen=True)
class DensitySample:
    radius: int
    wild: int
    total: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.wild, self.total) if self.total else Fraction(0)


def _patched_class_structure(t: Patched) -> set[int] | None:
    """The set of wild classes when wildness only depends on the lattice
    class u*i + v*j mod m, else None.

    Sufficient conditions: row 0 meets every class (gcd(v, m) = 1) and every
    class-preserving translation shifts j - i by an even amount, so cells of
    one class differ by a background sign flip at most, which preserves
    wildness.
    """
    u, v, m = t.lattice.u, t.lattice.v, t.lattice.m
    if gcd(v, m) != 1:
        return None
    for x in range(2 * m):
        for y in range(2 * m):
            if (u * x + v * y) % m == 0 and (x + y) % 2 == 1:
                return None
    wild_classes = set()
    for k in range(m):
        if classify_entry(t, 0, k)[0]:
            wild_classes.add((v * k) % m)
    return wild_classes


def wild_density_exact(t: TilingModel) -> Fraction:
    """Wild cells per fundamental domain of a pattern-invariance lattice."""
    if isinstance(t, RuleBased):
        wild = sum(1 for d in range(4) if classify_entry(t, 0, d)[0])
        return Fraction(wild, 4)
    if isinstance(t, PeriodicBlock):
        wild = sum(
            1 for i in range(t.h) for j in range(t.w) if classify_entry(t, i, j)[0]
        )
        return Fraction(wild, t.h * t.w)
    wild_classes = _patched_class_structure(t)
    if wild_classes is None:
        raise UnsupportedOperationError(
            "no invariance lattice detected for this patched model"
        )
    return Fraction(len(wild_classes), t.lattice.m)


def wild_density_windows(t: TilingModel, radii: Sequence[int]) -> tuple[DensitySample, ...]:
    """Wild-cell counts over discs i^2 + j^2 <= r^2 centered at the origin."""
    counters = _row_wild_counter(t)
    samples = []
    for r in radii:
        if r < 0:
            raise ValidationError(f"radius must be nonnegative, got {r}")
        wild = 0
        total = 0
        for i in range(-r, r + 1):
            half = isqrt(r * r - i * i)
            lo, hi = -half, half
            total += hi - lo + 1
            wild += counters(i, lo, hi)
        samples.append(DensitySample(r, wild, total))
    return tuple(samples)


def _row_wild_counter(t: TilingModel):
    """Returns f(i, lo, hi) = number of wild cells in row i, columns [lo, hi]."""
    if isinstance(t, RuleBased):
        wild_d = [d for d in range(4) if classify_entry(t, 0, d)[0]]

        def count_rule(i: int, lo: int, hi: int) -> int:
            return sum(_count_congruent(lo, hi, (d + i) % 4, 4) for d in wild_d)

        return count_rule
    if isinstance(t, PeriodicBlock):
        h, w = t.h, t.w
        wild_cols = {
            bi: [bj for bj in range(w) if classify_entry(t, bi, bj)[0]] for bi in range(h)
        }

        def count_block(i: int, lo: int, hi: int) -> int:
            return sum(_count_congruent(lo, hi, bj, w) for bj in wild_cols[i % h])

        return count_block
    wild_classes = _patched_class_structure(t)
    if wild_classes is not None:

        def count_lattice(i: int, lo: int, hi: int) -> int:
            return sum(_lattice_row_count(t.lattice, c, i, lo, hi + 1) for c in wild_classes)

        return count_lattice

    def count_direct(i: int, lo: int, hi: int) -> int:
        return sum(1 for j in range(lo, hi + 1) if classify_entry(t, i, j)[0])

    return count_direct


@dataclass(frozen=True)
class AuditFinding:
    """A cell where one of the structural identities failed."""

    i: int
    j: int
    check: str
    detail: str


def _interior_cells(win: Window):
    for r in range(1, win.rows - 1):
        for c in range(1, win.cols - 1):
            yield r, c


def _interior_det3s(win: Window):
    """((r, c), det3 centered there) for every interior cell, row-major."""
    return zip(_interior_cells(win), _minors(det3_scan, win.matrix))


def window_colors(win: Window) -> list[list[CellColor]]:
    """Display colors of a bare window; boundary cells have no visible 3x3
    neighborhood, so only interior cells can show as wild."""
    wild = {cell: not d3.is_zero() for cell, d3 in _interior_det3s(win)}
    return [
        [_value_color(win.at(r, c), wild.get((r, c), False), False) for c in range(win.cols)]
        for r in range(win.rows)
    ]


def dodgson_audit(win: Window) -> AuditFinding | None:
    """Check e * det3 = 0 at every interior cell; over an integral domain
    additionally check that wild cells hold 0."""
    domain = not isinstance(win.matrix.spec, ModularRing)
    oi, oj = win.origin
    for (r, c), d3 in _interior_det3s(win):
        e = win.at(r, c)
        if not (e * d3).is_zero():
            return AuditFinding(
                oi + r, oj + c, "dodgson", f"entry {e} times det3 {d3} is nonzero"
            )
        if domain and not d3.is_zero() and not e.is_zero():
            return AuditFinding(
                oi + r, oj + c, "wild-entry-nonzero", f"wild cell holds {e}"
            )
    return None


def corner_audit(win: Window) -> AuditFinding | None:
    """Check det3 = (a+c+g+i) + (cg - ai)*e at every interior cell."""
    oi, oj = win.origin
    for (r, c), d3 in _interior_det3s(win):
        predicted = corner_det3(
            win.at(r, c),
            (win.at(r - 1, c - 1), win.at(r - 1, c + 1), win.at(r + 1, c - 1), win.at(r + 1, c + 1)),
        )
        if d3 != predicted:
            return AuditFinding(
                oi + r, oj + c, "corner", f"det3 {d3} but corner formula gives {predicted}"
            )
    return None


def zero_cross_audit(win: Window) -> AuditFinding | None:
    """Check the local conditions forced at zeros: the four side neighbors
    of any zero form a +1/-1 cross in one of the two orientations, and a wild
    zero has at least one nonzero diagonal neighbor.  Integral domains only."""
    if isinstance(win.matrix.spec, ModularRing):
        raise UnsupportedOperationError("zero-cross conditions hold over integral domains")
    oi, oj = win.origin
    for (r, c), d3 in _interior_det3s(win):
        if not win.at(r, c).is_zero():
            continue
        n = win.at(r - 1, c)
        w = win.at(r, c - 1)
        e = win.at(r, c + 1)
        s = win.at(r + 1, c)
        plus_cross = n.is_one() and (-w).is_one() and e.is_one() and (-s).is_one()
        minus_cross = (-n).is_one() and w.is_one() and (-e).is_one() and s.is_one()
        if not (plus_cross or minus_cross):
            return AuditFinding(
                oi + r, oj + c, "cross-pattern",
                f"zero with side neighbors ({n}, {w}, {e}, {s})",
            )
        if not d3.is_zero():
            diagonals = [
                win.at(r - 1, c - 1), win.at(r - 1, c + 1),
                win.at(r + 1, c - 1), win.at(r + 1, c + 1),
            ]
            if all(d.is_zero() for d in diagonals):
                return AuditFinding(
                    oi + r, oj + c, "wild-isolated", "wild zero with all diagonals zero"
                )
    return None
