import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2tilings import (
    INTEGERS,
    POLYNOMIALS,
    Matrix,
    ModularRing,
    UnsupportedOperationError,
    bareiss_rank,
    corner_det3,
    det2,
    det3,
    solve_linear_congruence,
)
from sl2tilings.matrices import det2_scan, det3_scan


def fraction_det(rows):
    """Reference determinant via rational Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    sign = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    assert out.denominator == 1
    return out.numerator


def fraction_rank(rows, cols_n=None):
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    rank = 0
    n_cols = len(m[0])
    row = 0
    for c in range(n_cols):
        pivot = next((r for r in range(row, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][c] != 0:
                f = m[r][c] / m[row][c]
                for k in range(n_cols):
                    m[r][k] -= f * m[row][k]
        row += 1
        rank += 1
    return rank


class TestDeterminant:
    def test_det2_det3_known(self):
        one = INTEGERS.value
        assert det2(one(1), one(2), one(3), one(4)).payload == -2
        rows = [[one(1), one(2), one(3)], [one(4), one(5), one(6)], [one(7), one(8), one(10)]]
        assert det3(rows).payload == -3

    def test_small_sizes_match_reference(self):
        rng = random.Random(11)
        for n in (2, 3):
            for _ in range(20):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert small_det(INTEGERS, rows).payload == fraction_det(rows)

    def test_singular(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert small_det(INTEGERS, rows).is_zero()

    def test_large_entries(self):
        rng = random.Random(5)
        rows = [[rng.randint(-(10**12), 10**12) for _ in range(3)] for _ in range(3)]
        assert small_det(INTEGERS, rows).payload == fraction_det(rows)

    def test_modular_small_matches_integer_det(self):
        rng = random.Random(3)
        ring = ModularRing(97)
        for n in (2, 3):
            rows = [[rng.randint(0, 96) for _ in range(n)] for _ in range(n)]
            assert small_det(ring, rows).payload == fraction_det(rows) % 97

    def test_symbolic_det(self):
        a = [POLYNOMIALS.variable(k) for k in range(1, 5)]
        assert det2(*a) == a[0] * a[3] - a[1] * a[2]

    @settings(max_examples=40)
    @given(st.integers(2, 3), st.data())
    def test_det_property(self, n, data):
        rows = data.draw(
            st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                     min_size=n, max_size=n))
        assert small_det(INTEGERS, rows).payload == fraction_det(rows)


def small_det(ring, rows):
    """det2 or det3 of a 2x2 or 3x3 integer matrix, as a value of ``ring``."""
    values = [[ring.value(v) for v in row] for row in rows]
    return det2(*values[0], *values[1]) if len(rows) == 2 else det3(values)


def sub_blocks(frame, k):
    """Every k x k sub-block of a frame, row-major by top-left cell."""
    return [
        [row[c : c + k] for row in frame[r : r + k]]
        for r in range(len(frame) - k + 1)
        for c in range(len(frame[0]) - k + 1)
    ]


int_frames = st.integers(1, 6).flatmap(
    lambda w: st.lists(st.lists(st.integers(-9, 9), min_size=w, max_size=w),
                       min_size=1, max_size=6))


class TestScans:
    @settings(max_examples=60)
    @given(int_frames)
    def test_int_frames_match_reference(self, frame):
        assert list(det2_scan(frame)) == [fraction_det(b) for b in sub_blocks(frame, 2)]
        assert list(det3_scan(frame)) == [fraction_det(b) for b in sub_blocks(frame, 3)]

    @settings(max_examples=60)
    @given(st.integers(2, 40), int_frames)
    def test_residue_frames_match_reference(self, n, frame):
        ring = ModularRing(n)
        values = [[ring.value(v) for v in row] for row in frame]
        residues = [[v.payload for v in row] for row in values]
        for scan, k in ((det2_scan, 2), (det3_scan, 3)):
            want = [fraction_det(b) % n for b in sub_blocks(frame, k)]
            assert [d.payload for d in scan(values)] == want
            assert [ring.value(d).payload for d in scan(residues)] == want

    def test_polynomial_frames_match_det2_det3(self):
        rng = random.Random(7)
        for rows, cols in ((3, 3), (4, 5), (5, 3), (2, 6)):
            frame = [
                [POLYNOMIALS.variable(rng.randint(1, 4)) if rng.random() < 0.5
                 else POLYNOMIALS.value(rng.randint(-2, 2)) for _ in range(cols)]
                for _ in range(rows)
            ]
            assert list(det2_scan(frame)) == [
                det2(*b[0], *b[1]) for b in sub_blocks(frame, 2)
            ]
            assert list(det3_scan(frame)) == [det3(b) for b in sub_blocks(frame, 3)]

    def test_empty_scans(self):
        assert list(det2_scan([[1, 2, 3]])) == []
        assert list(det3_scan([[1, 2], [3, 4], [5, 6]])) == []


class TestRank:
    def test_full_rank(self):
        m = Matrix.from_ints(INTEGERS, [[2, 0], [1, 3]])
        assert bareiss_rank(m) == 2

    def test_deficient_rows(self):
        rows = [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
        assert bareiss_rank(Matrix.from_ints(INTEGERS, rows)) == 1

    def test_zero_matrix(self):
        assert bareiss_rank(Matrix.from_ints(INTEGERS, [[0, 0], [0, 0]])) == 0

    def test_random_matches_reference(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 6)
            base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(max(1, n - 1))]
            # add a dependent row so deficient cases show up often
            extra = [sum(r[k] for r in base) for k in range(n)]
            rows = base + [extra]
            rng.shuffle(rows)
            m = Matrix.from_ints(INTEGERS, rows)
            assert bareiss_rank(m) == fraction_rank(rows)

    def test_symbolic_rank(self):
        a1, a2 = POLYNOMIALS.variable(1), POLYNOMIALS.variable(2)
        rows = [[a1, a2], [a1 + a1, a2 + a2]]
        m = Matrix.from_rows(POLYNOMIALS, rows)
        assert bareiss_rank(m) == 1

    def test_symbolic_rank_divides_by_polynomial_pivots(self):
        # No entry is a single term, so every step after the first divides
        # by a polynomial pivot.  Rows x^2, x and x^3 at x = a1 + 1, a2 + 1,
        # a3 + 1 have full rank, and the sum of the rows is dependent.
        a = [POLYNOMIALS.variable(k) + POLYNOMIALS.one() for k in (1, 2, 3)]
        rows = [[x * x for x in a], a, [x * x * x for x in a]]
        assert bareiss_rank(Matrix.from_rows(POLYNOMIALS, rows)) == 3
        total = [x + y + z for x, y, z in zip(*rows)]
        assert bareiss_rank(Matrix.from_rows(POLYNOMIALS, rows + [total])) == 3
        assert bareiss_rank(Matrix.from_rows(POLYNOMIALS, [rows[0], total, rows[2]])) == 3
        assert bareiss_rank(Matrix.from_rows(POLYNOMIALS, [rows[0], [x + x for x in rows[0]]])) == 1

    def test_residue_rings_refused(self):
        with pytest.raises(UnsupportedOperationError, match="rank over residue rings is not supported"):
            bareiss_rank(Matrix.from_ints(ModularRing(6), [[4, 2], [2, 4]]))


class TestCornerDet3:
    def test_matches_direct_formula(self):
        one = INTEGERS.value
        e = one(5)
        a, c, g, i = one(2), one(-1), one(4), one(3)
        got = corner_det3(e, (a, c, g, i))
        want = (a + c + g + i) + (c * g - a * i) * e
        assert got == want


class TestCongruence:
    def test_known_solutions(self):
        assert list(solve_linear_congruence(2, 2, 4)) == [1, 3]
        assert list(solve_linear_congruence(3, 1, 7)) == [5]
        assert list(solve_linear_congruence(6, 3, 9)) == [2, 5, 8]
        assert not solve_linear_congruence(4, 2, 8)
        assert list(solve_linear_congruence(0, 0, 5)) == [0, 1, 2, 3, 4]
        assert not solve_linear_congruence(0, 3, 5)

    def test_count_is_gcd_when_solvable(self):
        import math
        sols = solve_linear_congruence(6, 3, 9)
        assert len(sols) == math.gcd(6, 9)

    def test_membership(self):
        sols = solve_linear_congruence(2, 2, 4)
        assert 1 in sols and 3 in sols and 0 not in sols

    @given(st.integers(2, 40), st.integers(-80, 80), st.integers(-80, 80))
    def test_matches_brute_force(self, n, a, c):
        want = [x for x in range(n) if (a * x - c) % n == 0]
        got = list(solve_linear_congruence(a, c, n))
        assert got == want
