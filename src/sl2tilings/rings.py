"""Exact arithmetic over the three entry rings used by the toolkit.

* ``IntegerRing`` wraps arbitrary-precision integers.
* ``ModularRing(n)`` stores residues reduced into ``[0, n)``.
* ``PolynomialRing()`` is the ring of integer polynomials in the variable
  family ``a1, a2, a3, ...``.

A value's payload computes with ``+``, ``-`` and ``*`` on its own: an int
over Z and Z/N, a ``_Poly`` term tuple over Z[a].  Each ring's ``reduce``
takes the result of such an operation to the canonical payload, ``int`` over
Z, ``x % n`` over Z/n and the identity over Z[a], so an analysis can compute
on bare payloads and reduce once per result.

Polynomial payloads are kept canonical at all times: coefficients are
arbitrary-precision integers, zero coefficients are never stored, and terms
are sorted in graded-lexicographic order with ``a1 > a2 > ...``.  Structural
equality therefore coincides with mathematical equality, and values are
hashable.
"""

from __future__ import annotations

from typing import Union

from .errors import (
    RingMismatchError,
    StructuralError,
    ValidationError,
    _Frozen,
    _set,
)

# A monomial is a tuple of (variable index, exponent) pairs, index ascending,
# every exponent >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]

_CONST: Monomial = ()


def _grlex_key(mono: Monomial):
    degree = sum(e for _, e in mono)
    return (degree, tuple((-i, e) for i, e in mono))


def _canonical_terms(acc: dict[Monomial, int]) -> "_Poly":
    items = [(m, c) for m, c in acc.items() if c != 0]
    items.sort(key=lambda t: _grlex_key(t[0]), reverse=True)
    return _Poly(items)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _mono_divide(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for i, e in b:
        have = exps.get(i, 0)
        if have < e:
            return None
        if have == e:
            del exps[i]
        else:
            exps[i] = have - e
    return tuple(sorted(exps.items()))


class _Poly(tuple):
    """A canonical term tuple that computes: ``+``, ``-``, ``*`` and exact
    ``//`` act on it as on the polynomial it stands for, so a Z[a] payload
    computes like an int.  It equals, hashes and prints with ``repr`` as the
    plain term tuple."""

    __slots__ = ()

    def __add__(x, y: "_Poly") -> "_Poly":
        if not x or not y:
            return x or y
        acc = dict(x)
        for m, c in y:
            acc[m] = acc.get(m, 0) + c
        return _canonical_terms(acc)

    def __neg__(x) -> "_Poly":
        return _Poly((m, -c) for m, c in x)

    def __sub__(x, y: "_Poly") -> "_Poly":
        return x + -y

    def __mul__(x, y: "_Poly") -> "_Poly":
        # A zero or constant factor scales the other's terms, which keeps
        # them canonical: no coefficient vanishes over Z, no order changes.
        if len(y) == 1 and not y[0][0]:
            x, y = y, x
        if not x or not y:
            return _Poly()
        if len(x) == 1 and not x[0][0]:
            c = x[0][1]
            return y if c == 1 else _Poly((m, c * k) for m, k in y)
        acc: dict[Monomial, int] = {}
        for mx, cx in x:
            for my, cy in y:
                m = _mono_mul(mx, my)
                acc[m] = acc.get(m, 0) + cx * cy
        return _canonical_terms(acc)

    def __floordiv__(num, den: "_Poly") -> "_Poly":
        """Exact division, as fraction-free elimination needs it.  Raises
        ArithmeticError when the division is not exact, which signals a
        broken invariant upstream."""
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        den_mono, den_coeff = den[0]
        rest: dict[Monomial, int] = dict(num)
        quotient: dict[Monomial, int] = {}
        while rest:
            lead = max(rest, key=_grlex_key)
            q_mono = _mono_divide(lead, den_mono)
            q_coeff, rem = divmod(rest[lead], den_coeff)
            if q_mono is None or rem != 0:
                raise ArithmeticError("inexact polynomial division")
            quotient[q_mono] = quotient.get(q_mono, 0) + q_coeff
            for m, c in den:
                key = _mono_mul(q_mono, m)
                val = rest.get(key, 0) - q_coeff * c
                if val:
                    rest[key] = val
                elif key in rest:
                    del rest[key]
        return _canonical_terms(quotient)

    def constant(self) -> int | None:
        """The integer this polynomial equals, or None if it is not constant."""
        if not self:
            return 0
        return self[0][1] if len(self) == 1 and self[0][0] == _CONST else None

    def single_variable(self) -> int | None:
        """k if this polynomial is exactly the variable a_k, else None."""
        if len(self) == 1 and self[0][1] == 1 and len(self[0][0]) == 1 and self[0][0][0][1] == 1:
            return self[0][0][0][0]
        return None

    @staticmethod
    def of_variable(index: int) -> "_Poly":
        return _Poly((((((index, 1),)), 1),))

    def __str__(self) -> str:
        out = ""
        for mono, coeff in self:
            factors = "*".join(f"a{i}" if e == 1 else f"a{i}^{e}" for i, e in mono)
            size = str(abs(coeff)) if not mono else factors if abs(coeff) == 1 else f"{abs(coeff)}*{factors}"
            sign = "-" if coeff < 0 else ""
            out += f" {sign or '+'} {size}" if out else sign + size
        return out or "0"


class IntegerRing(_Frozen):
    """The ring of arbitrary-precision integers."""

    __slots__ = ()
    reduce = staticmethod(int)

    def value(self, n: int) -> "RingValue":
        return RingValue(self, int(n))

    def one(self) -> "RingValue":
        return self.value(1)

    def __str__(self) -> str:
        return "Z"


class ModularRing(_Frozen):
    """The residue ring Z/nZ with canonical representatives in [0, n)."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int) -> None:
        if modulus < 2:
            raise ValidationError(f"modulus must be at least 2, got {modulus}")
        _set(self, "modulus", modulus)

    def value(self, n: int) -> "RingValue":
        return RingValue(self, int(n) % self.modulus)

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def one(self) -> "RingValue":
        return self.value(1)

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


class PolynomialRing(_Frozen):
    """Integer polynomials in the countable variable family a1, a2, ...

    Variable names are ``a`` followed by a positive decimal index; the
    family is ordered by index, a1 being the greatest in the term order.
    """

    __slots__ = ()

    def value(self, n: int) -> "RingValue":
        n = int(n)
        return RingValue(self, _Poly(((_CONST, n),) if n else ()))

    def reduce(self, x: "_Poly") -> "_Poly":
        return x

    def one(self) -> "RingValue":
        return self.value(1)

    def variable(self, index: int) -> "RingValue":
        if index < 1:
            raise ValidationError(f"variable index must be positive, got {index}")
        return RingValue(self, _Poly.of_variable(index))

    def __str__(self) -> str:
        return "Z[a]"


RingSpec = Union[IntegerRing, ModularRing, PolynomialRing]

INTEGERS = IntegerRing()
POLYNOMIALS = PolynomialRing()


class RingValue(_Frozen):
    """An immutable element of one of the three rings.

    The payload is an ``int`` for integer and residue values, and a
    canonical term tuple (a ``_Poly``) for polynomials; either computes with
    the operators, and the ring's ``reduce`` brings a result back to its
    canonical payload.  Construct values through the ring objects rather
    than directly.
    """

    __slots__ = ("spec", "payload")

    def __init__(self, spec: RingSpec, payload: int | _Poly) -> None:
        _set(self, "spec", spec)
        _set(self, "payload", payload)

    def _require_same(self, other: "RingValue") -> None:
        if not isinstance(other, RingValue):
            raise StructuralError(f"expected a ring value, got {type(other).__name__}")
        if self.spec != other.spec:
            raise RingMismatchError(f"mixed rings: {self.spec} and {other.spec}")

    def is_zero(self) -> bool:
        return not self.payload

    def is_one(self) -> bool:
        return self == self.spec.one()

    def __add__(self, other: "RingValue") -> "RingValue":
        self._require_same(other)
        return RingValue(self.spec, self.spec.reduce(self.payload + other.payload))

    def __sub__(self, other: "RingValue") -> "RingValue":
        self._require_same(other)
        return RingValue(self.spec, self.spec.reduce(self.payload - other.payload))

    def __neg__(self) -> "RingValue":
        return RingValue(self.spec, self.spec.reduce(-self.payload))

    def __mul__(self, other: "RingValue") -> "RingValue":
        self._require_same(other)
        return RingValue(self.spec, self.spec.reduce(self.payload * other.payload))

    def constant_value(self) -> int | None:
        """The integer this value equals, or None for a non-constant polynomial."""
        return self.payload.constant() if isinstance(self.spec, PolynomialRing) else self.payload

    def __str__(self) -> str:
        return str(self.payload)
