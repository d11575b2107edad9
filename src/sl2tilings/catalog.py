"""The four reference tiling families.

* the unit tiling: the anti-periodic rule (0, 1, 0, -1) over the integers;
* the wildest integer tiling: the unit background with parameters on the
  index-10 sublattice 3i + j = 6 (mod 10), reaching wild density 2/5;
* the pqrs family: 4x4 periodic blocks over Z/pqrs with every entry wild;
* the z36 block: a modified instance over Z/36, also fully wild.
"""

from __future__ import annotations

from typing import Iterator

from .errors import ValidationError, _Frozen
from .matrices import Matrix, det3_scan
from .rings import INTEGERS, POLYNOMIALS, ModularRing, RingSpec
from .tiling import (
    FormalParameters,
    NumericParameters,
    ParameterAssignment,
    Patched,
    PeriodicBlock,
    RuleBased,
    SublatticeSpec,
    extract_window,
)

WILDEST_LATTICE = SublatticeSpec(u=3, v=1, m=10, t=6)


def _unit_rule(ring: RingSpec) -> RuleBased:
    return RuleBased(ring, (ring.value(0), ring.value(1), ring.value(0), ring.value(-1)))


def unit_tiling() -> RuleBased:
    """The tame tiling with entry(i, j) = (0, 1, 0, -1)[(j - i) mod 4]."""
    return _unit_rule(INTEGERS)


def wildest_integer_tiling(assignment: ParameterAssignment | None = None) -> Patched:
    """The density-2/5 integer tiling.

    ``assignment`` defaults to every parameter equal to 1.  Pass
    ``FormalParameters()`` for the symbolic model, or ``NumericParameters``
    for explicit nonzero values.
    """
    if assignment is None:
        assignment = NumericParameters((), 1)
    ring = POLYNOMIALS if isinstance(assignment, FormalParameters) else INTEGERS
    return Patched(ring, _unit_rule(ring), WILDEST_LATTICE, assignment)


class PqrsParams(_Frozen):
    """Integers p, q, r, s > 1 with ps - qr = 1."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: int, q: int, r: int, s: int) -> None:
        for name, value in zip(self.__slots__, (p, q, r, s)):
            if value < 2:
                raise ValidationError(f"{name} must be an integer greater than 1")
        if p * s - q * r != 1:
            raise ValidationError(f"ps - qr must equal 1, got {p * s - q * r}")
        self._assign(p, q, r, s)

    @property
    def modulus(self) -> int:
        return self.p * self.q * self.r * self.s

    @property
    def alpha(self) -> int:
        return self.q * self.r - 1

    @property
    def beta(self) -> int:
        return self.p * self.s - 1


def pqrs_tiling(params: PqrsParams) -> PeriodicBlock:
    """The 4x4 fully-wild block over Z/pqrs."""
    p, q, r, s = params.p, params.q, params.r, params.s
    a, b = params.alpha, params.beta
    ring = ModularRing(params.modulus)
    rows = [
        (p, q, -p, -q),
        (r, s, -r, -s),
        (a * p, b * q, p, q),
        (b * r, a * s, r, s),
    ]
    return PeriodicBlock(ring, Matrix.from_ints(ring, rows))


def z36_tiling() -> PeriodicBlock:
    """The fully-wild 4x4 block over Z/36."""
    ring = ModularRing(36)
    rows = [
        (3, 2, 33, 34),
        (4, 3, 32, 33),
        (9, 16, 3, 2),
        (14, 9, 4, 3),
    ]
    return PeriodicBlock(ring, Matrix.from_ints(ring, rows))


def pqrs_det3_spectrum(params: PqrsParams) -> set[int]:
    """The 3x3 determinant values over one wrapped period.

    Asserts the set lies inside {pqr, pqs, prs, qrs} mod N with 0 excluded;
    a failure indicates an implementation bug, not bad input.
    """
    frame = extract_window(pqrs_tiling(params), -1, -1, 6, 6).matrix.to_int_rows()
    n = params.modulus
    p, q, r, s = params.p, params.q, params.r, params.s
    allowed = {x % n for x in (p * q * r, p * q * s, p * r * s, q * r * s)}
    spectrum = {d % n for d in det3_scan(frame)}
    if not spectrum <= allowed:
        raise AssertionError(f"det3 spectrum {spectrum} escapes {allowed}")
    if 0 in spectrum:
        raise AssertionError("det3 spectrum contains 0")
    return spectrum


def iter_pqrs_params(max_modulus: int) -> Iterator[PqrsParams]:
    """All valid parameter quadruples with pqrs <= max_modulus, ordered by
    (modulus, p, q, r, s)."""
    # ps = qr + 1 forces the modulus to be qr * (qr + 1), so the sweep is
    # bounded by qr alone.
    found = []
    for q in range(2, max_modulus):
        if 2 * q * (2 * q + 1) > max_modulus:
            break
        for r in range(2, max_modulus):
            qr = q * r
            if qr * (qr + 1) > max_modulus:
                break
            target = qr + 1
            for p in range(2, target):
                s, rem = divmod(target, p)
                if rem == 0 and s >= 2:
                    found.append(PqrsParams(p, q, r, s))
    found.sort(key=lambda x: (x.modulus, x.p, x.q, x.r, x.s))
    return iter(found)
