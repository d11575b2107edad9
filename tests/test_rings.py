import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2tilings import (
    INTEGERS,
    POLYNOMIALS,
    FormalParameters,
    ModularRing,
    RingMismatchError,
    ValidationError,
    parse_grid,
    wildest_integer_tiling,
)
from sl2tilings import rings
from sl2tilings.rings import _Poly


def var(k):
    return POLYNOMIALS.variable(k)


def const(c):
    return POLYNOMIALS.value(c)


class TestIntegers:
    def test_basic_arithmetic(self):
        five = INTEGERS.value(5)
        three = INTEGERS.value(3)
        assert (five + three).payload == 8
        assert (five - three).payload == 2
        assert (five * three).payload == 15
        assert (-five).payload == -5

    def test_predicates(self):
        assert INTEGERS.value(0).is_zero()
        assert INTEGERS.one().is_one()
        assert not INTEGERS.value(2).is_one()
        assert INTEGERS.value(7).constant_value() == 7

    def test_bigint(self):
        big = INTEGERS.value(10**40)
        assert (big * big).payload == 10**80

    def test_cross_ring_mix_rejected(self):
        with pytest.raises(RingMismatchError):
            INTEGERS.value(1) + ModularRing(5).value(1)


class TestModular:
    def test_canonical_residues(self):
        r = ModularRing(7)
        assert r.value(-3).payload == 4
        assert r.value(10).payload == 3
        assert (r.value(5) + r.value(4)).payload == 2
        assert (r.value(3) * r.value(5)).payload == 1
        assert (-r.value(2)).payload == 5

    def test_modulus_validation(self):
        with pytest.raises(ValidationError):
            ModularRing(1)
        with pytest.raises(ValidationError):
            ModularRing(0)

    def test_str(self):
        assert str(ModularRing(36)) == "Z/36"
        assert str(INTEGERS) == "Z"
        assert str(POLYNOMIALS) == "Z[a]"

    @given(st.integers(2, 50), st.integers(-100, 100), st.integers(-100, 100))
    def test_matches_python_mod(self, n, x, y):
        r = ModularRing(n)
        assert (r.value(x) + r.value(y)).payload == (x + y) % n
        assert (r.value(x) * r.value(y)).payload == (x * y) % n
        assert (r.value(x) - r.value(y)).payload == (x - y) % n


class TestPolynomials:
    def test_structural_equality(self):
        a1, a2 = var(1), var(2)
        assert a1 + a2 == a2 + a1
        assert a1 * a2 == a2 * a1
        assert (a1 + a2) * (a1 - a2) == a1 * a1 - a2 * a2

    def test_string_form(self):
        a1, a2 = var(1), var(2)
        assert str((a1 + a2) * (a1 - a2)) == "a1^2 - a2^2"
        assert str(a1 * a2) == "a1*a2"
        assert str(const(-3) * a1 * a1 * a2) == "-3*a1^2*a2"
        assert str(POLYNOMIALS.value(0)) == "0"

    def test_grlex_leading_term(self):
        # degree first, then a1 > a2 > ... on ties
        a1, a2 = var(1), var(2)
        p = a2 * a2 + a1 + const(5)
        assert p.payload == ((((2, 2),), 1), (((1, 1),), 1), ((), 5))
        q = a1 * a2 + a2 * a2
        assert [mono for mono, _ in q.payload] == [((1, 1), (2, 1)), ((2, 2),)]
        assert (const(-3) * a1 * a1 * a2).payload == ((((1, 2), (2, 1)), -3),)

    def test_helpers(self):
        a3 = var(3)
        assert a3.payload.single_variable() == 3
        assert (a3 + const(1)).payload.single_variable() is None
        assert (a3 * a3).payload.single_variable() is None
        assert const(9).constant_value() == 9
        assert a3.constant_value() is None

    def test_variable_index_validation(self):
        with pytest.raises(ValidationError):
            POLYNOMIALS.variable(0)

    def test_exact_division(self):
        a1, a2 = var(1).payload, var(2).payload
        six, three, two, one = (const(c).payload for c in (6, 3, 2, 1))
        assert (a1 * a1 - a2 * a2) // (a1 - a2) == a1 + a2
        assert (a1 * a2 * six) // (a2 * three) == a1 * two
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            (a1 + one) // a2
        with pytest.raises(ZeroDivisionError):
            a1 // const(0).payload

    def test_payloads_compute(self):
        # Every polynomial payload computes: a plain term tuple would
        # concatenate under +, not add.
        a1, a3 = var(1), var(3)
        grid = parse_grid("sl2tiling v1\nring: Z[a]\nkind: periodic\nrows: 1\ncols: 4\n\n0 a3 -2*a1 7\n")
        formal = wildest_integer_tiling(FormalParameters())
        values = [const(0), const(-5), POLYNOMIALS.one(), a1, a1 + a3, a1 - a1, -a3, a1 * a3,
                  *grid.block.row(0), *(formal.entry(i, j) for i in range(-3, 12) for j in range(-3, 12))]
        assert {type(v.payload) for v in values} == {_Poly}
        assert a1.payload + a3.payload == (a1 + a3).payload

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-5, 5)), max_size=5),
           st.lists(st.tuples(st.integers(1, 4), st.integers(-5, 5)), max_size=5))
    def test_product_evaluates_correctly(self, left, right):
        def build(spec):
            p = POLYNOMIALS.value(0)
            for idx, c in spec:
                p = p + POLYNOMIALS.variable(idx) * const(c)
            return p

        def at_point(p):
            # a_k = k + 2, summed term by term.
            total = 0
            for mono, coeff in p.payload:
                for k, e in mono:
                    coeff *= (k + 2) ** e
                total += coeff
            return total

        x, y = build(left), build(right)
        assert at_point(x * y) == at_point(x) * at_point(y)
        assert at_point(x + y) == at_point(x) + at_point(y)

    def test_fast_paths_match_the_dict_path(self):
        # Products with a zero or constant factor scale terms and sums with
        # a zero operand return the other; both must equal the general
        # dict-and-sort path and stay canonical.
        def dict_mul(x, y):
            acc = {}
            for mx, cx in x:
                for my, cy in y:
                    m = rings._mono_mul(mx, my)
                    acc[m] = acc.get(m, 0) + cx * cy
            return rings._canonical_terms(acc)

        def dict_add(x, y):
            acc = dict(x)
            for m, c in y:
                acc[m] = acc.get(m, 0) + c
            return rings._canonical_terms(acc)

        def canonical(p):
            keys = [rings._grlex_key(m) for m, _ in p]
            return (type(p) is _Poly and all(c for _, c in p)
                    and all(a > b for a, b in zip(keys, keys[1:])))

        rng = random.Random(7)

        def poly():
            # Up to 4 terms of degree up to 3 in a1..a4, some constant.
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = {}
                for _ in range(rng.randint(0, 3)):
                    k = rng.randint(1, 4)
                    exps[k] = exps.get(k, 0) + 1
                terms[tuple(sorted(exps.items()))] = rng.randint(-4, 4)
            return rings._canonical_terms(terms)

        operands = [const(c).payload for c in (0, 1, -1, 3, -7)] + [var(2).payload]
        operands += [poly() for _ in range(40)]
        assert all(map(canonical, operands))
        for x in operands:
            for y in operands:
                for got, want in ((x * y, dict_mul(x, y)), (x + y, dict_add(x, y))):
                    assert got == want and canonical(got), (x, y)

    def test_constant_factor_multiplies_no_monomials(self, monkeypatch):
        # A constant times a multi-term polynomial, in either order, scales
        # the coefficients: no monomial product, and the general product's value.
        def general(x, y):
            acc = {}
            for mx, cx in x:
                for my, cy in y:
                    m = rings._mono_mul(mx, my)
                    acc[m] = acc.get(m, 0) + cx * cy
            return rings._canonical_terms(acc)

        x = (var(1) * var(2) + const(3) * var(3) - var(1)).payload
        products = {c.payload: general(c.payload, x) for c in (const(1), const(-1), const(5))}
        calls = []
        mono_mul = rings._mono_mul
        monkeypatch.setattr(rings, "_mono_mul", lambda a, b: calls.append(1) or mono_mul(a, b))
        for c, want in products.items():
            assert c * x == x * c == want
        assert len(x) == 3 and not calls

    def test_cancellation_to_zero(self):
        a1 = var(1)
        assert (a1 - a1).is_zero()
        assert (a1 * const(0)).is_zero()
