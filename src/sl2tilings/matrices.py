"""Small exact matrices and the linear algebra the tilings need.

Determinants of order 2 and 3 are expanded directly and work over any of
the entry rings, and on bare payloads.  The two neighbourhood scans, every
adjacent 2x2 minor and every centered 3x3 minor of a rectangular frame, are
built on them.  Ranks use fraction-free Bareiss elimination, which stays
inside the ring but requires exact division and is therefore restricted to
the integral domains (integers and polynomials).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import StructuralError, UnsupportedOperationError, ValidationError, _Frozen
from .rings import ModularRing, PolynomialRing, RingSpec, RingValue

# Minors take ring values, or bare payloads of any ring (ints, or _Poly term
# tuples), reduced by the caller with the ring's ``reduce``, once per minor,
# when it needs the value.
Scalar = TypeVar("Scalar")


class Matrix(_Frozen):
    """An immutable rows x cols matrix with entries from a single ring.

    ``entries`` holds the entries' payloads, row-major.  ``at`` and ``row``
    give ring values; computation reads ``payload_rows``.
    """

    __slots__ = ("spec", "rows", "cols", "entries")

    @staticmethod
    def from_rows(spec: RingSpec, rows: Sequence[Sequence[RingValue]]) -> "Matrix":
        if not rows or not rows[0]:
            raise StructuralError("matrix needs at least one row and one column")
        width = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != width:
                raise StructuralError("ragged rows")
            for v in row:
                if not isinstance(v, RingValue) or (v.spec is not spec and v.spec != spec):
                    raise StructuralError("entry does not belong to the matrix ring")
                flat.append(v.payload)
        return Matrix(spec, len(rows), width, tuple(flat))

    @staticmethod
    def from_ints(spec: RingSpec, rows: Sequence[Sequence[int]]) -> "Matrix":
        return Matrix.from_rows(spec, [[spec.value(v) for v in row] for row in rows])

    def at(self, i: int, j: int) -> RingValue:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise StructuralError(f"index ({i}, {j}) outside {self.rows}x{self.cols}")
        return RingValue(self.spec, self.entries[i * self.cols + j])

    def row(self, i: int) -> tuple[RingValue, ...]:
        w = self.cols
        return tuple(RingValue(self.spec, p) for p in self.entries[i * w:(i + 1) * w])

    def payload_rows(self) -> list[tuple]:
        """The rows of payloads, for the minors below."""
        w = self.cols
        return [self.entries[k:k + w] for k in range(0, self.rows * w, w)]

    def to_int_rows(self) -> list[list[int]]:
        rows = [[v.constant_value() for v in self.row(i)] for i in range(self.rows)]
        if any(None in row for row in rows):
            raise StructuralError("matrix has non-constant entries")
        return rows


def det2(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> Scalar:
    return a * d - b * c


def det3(r: Sequence[Sequence[Scalar]]) -> Scalar:
    """Direct expansion of a 3x3 determinant given as three rows."""
    (a, b, c), (d, e, f), (g, h, i) = r
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det2_scan(frame: Sequence[Sequence[Scalar]]) -> Iterator[Scalar]:
    """det2 of every adjacent 2x2 window of a rectangular frame, row-major by
    top-left cell: (rows - 1) x (cols - 1) values."""
    for upper, lower in zip(frame, frame[1:]):
        for c in range(len(upper) - 1):
            yield det2(upper[c], upper[c + 1], lower[c], lower[c + 1])


def det3_scan(frame: Sequence[Sequence[Scalar]]) -> Iterator[Scalar]:
    """det3 centered on every interior cell of a rectangular frame, row-major:
    (rows - 2) x (cols - 2) values."""
    for above, row, below in zip(frame, frame[1:], frame[2:]):
        for c in range(len(row) - 2):
            yield det3((above[c : c + 3], row[c : c + 3], below[c : c + 3]))


def bareiss_rank(m: Matrix) -> int:
    """Rank over the fraction field of an integral domain.

    Full pivoting: each step picks the first not-yet-used row/column position
    holding a nonzero entry with the fewest terms, scanning row-major.  The
    tie-break keeps pivots small (constants beat polynomials) and makes the
    elimination deterministic.  The elimination runs on the payloads, whose
    ``//`` divides exactly; a nonzero integer counts as one term.
    """
    if isinstance(m.spec, ModularRing):
        raise UnsupportedOperationError("rank over residue rings is not supported")
    poly = isinstance(m.spec, PolynomialRing)
    a = [list(row) for row in m.payload_rows()]
    prev = m.spec.one().payload
    live_rows = list(range(m.rows))
    live_cols = list(range(m.cols))
    rank = 0
    while live_rows and live_cols:
        best = None
        best_cost = None
        for ri, i in enumerate(live_rows):
            for ci, j in enumerate(live_cols):
                if not a[i][j]:
                    continue
                cost = len(a[i][j]) if poly else 1
                if best_cost is None or cost < best_cost:
                    best, best_cost = (ri, ci), cost
            if best_cost == 1:
                break
        if best is None:
            break
        ri, ci = best
        pi = live_rows.pop(ri)
        pj = live_cols.pop(ci)
        pivot_row = a[pi]
        pivot = pivot_row[pj]
        for i in live_rows:
            row = a[i]
            f = row[pj]
            for j in live_cols:
                num = pivot * row[j] - f * pivot_row[j]
                row[j] = num // prev
        prev = pivot
        rank += 1
    return rank


def corner_det3(center: Scalar, corners: Iterable[Scalar]) -> Scalar:
    """The 3x3 determinant of an adjacent window in terms of its center.

    Valid only when every edge-adjacent 2x2 minor inside the window equals 1;
    ``corners`` is the (NW, NE, SW, SE) quadruple.
    """
    a, c, g, i = corners
    return (a + c + g + i) + (c * g - a * i) * center


def _progression(a: int, c: int, modulus: int) -> tuple[int, int] | None:
    """(x0, step) with a*x = c (mod modulus) exactly when x = x0 (mod step),
    0 <= x0 < step, or None when no x solves it."""
    g = gcd(a, modulus)
    step = modulus // g
    return None if c % g else (c // g * pow(a // g, -1, step) % step, step)


def solve_linear_congruence(a: int, c: int, modulus: int) -> range:
    """All x in [0, modulus) with a*x = c (mod modulus), ascending: the
    ``_progression`` x0 + step*k as ``range(x0, modulus, step)``, empty when
    no x solves it."""
    if modulus < 2:
        raise ValidationError(f"modulus must be at least 2, got {modulus}")
    solutions = _progression(a, c, modulus)
    return range(solutions[0], modulus, solutions[1]) if solutions else range(0)
