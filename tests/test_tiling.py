import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from sl2tilings import matrices, tiling
from sl2tilings import (
    INTEGERS,
    POLYNOMIALS,
    WILDEST_LATTICE,
    CellColor,
    FormalParameters,
    Matrix,
    ModularRing,
    NumericParameters,
    Patched,
    PeriodicBlock,
    RingValue,
    RuleBased,
    StructuralError,
    SublatticeSpec,
    UnsupportedOperationError,
    ValidationError,
    Violation,
    Window,
    audit_window,
    centered_det3,
    classify_entry,
    corner_audit,
    corner_det3,
    dodgson_audit,
    enumerate_block_classes,
    extract_window,
    parameter_index,
    parameter_position,
    unit_tiling,
    verify_sl2,
    verify_window,
    wild_density_exact,
    wild_density_windows,
    wildest_integer_tiling,
    wildness_report,
    zero_cross_audit,
)


def int_window(rows, origin=(0, 0)):
    return Window(Matrix.from_ints(INTEGERS, rows), origin)


def patched_model(spec, formal):
    """The wildest background (0, 1, 0, -1) patched along lattice ``spec``."""
    ring = POLYNOMIALS if formal else INTEGERS
    base = RuleBased(ring, tuple(ring.value(v) for v in (0, 1, 0, -1)))
    lat = SublatticeSpec(*spec)
    if formal:
        return Patched(ring, base, lat, FormalParameters())
    near = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if lat.contains(i, j)]
    return Patched(ring, base, lat, NumericParameters.from_mapping(
        {pos: v for pos, v in zip(near, (3, -1, 7, 2))}, -2))


# Windows with a negative and with a far origin, for the sweeps below.
SWEEP_WINDOWS = ((-4, -3, 3, 3), (600, 1234, 2, 3))


def lattice_sweep(tables, m_max=8):
    """Every lattice with m <= m_max over each background table, each formal,
    default-only (-2), and with explicit values 5, -5, 3, -1 at the lattice
    positions in and around the SWEEP_WINDOWS."""
    for table in tables:
        for m in range(1, m_max + 1):
            for spec in itertools.product(range(m), range(m), [m], range(m)):
                lat = SublatticeSpec(*spec)
                near = [(i, j) for i0, j0, h, w in SWEEP_WINDOWS
                        for i in range(i0 - 1, i0 + h + 1) for j in range(j0 - 1, j0 + w + 1)
                        if lat.contains(i, j)]
                explicit = {pos: (5, -5, 3, -1)[k % 4] for k, pos in enumerate(near)}
                for ring, params in ((POLYNOMIALS, FormalParameters()),
                                     (INTEGERS, NumericParameters((), -2)),
                                     (INTEGERS, NumericParameters.from_mapping(explicit, -2))):
                    base = RuleBased(ring, tuple(ring.value(v) for v in table))
                    try:
                        yield Patched(ring, base, lat, params)
                    except ValidationError:
                        continue


# Oracles for the lattice arithmetic of tiling.py, by mechanisms whose cost
# grows with m: each row's progression by its own arithmetic, the
# construction check as a walk over one period of lcm(m, 4) rows, the torus
# basis by a search over translations, and the numbering from a table of box
# t's m row classes.


def oracle_row(lattice, i):
    """(a, q) with (i, j) on the lattice iff j = a (mod q), or None."""
    g = gcd(lattice.v, lattice.m)
    rhs, q = lattice.t - lattice.u * i, lattice.m // g
    return None if rhs % g else (rhs // g * pow(lattice.v // g, -1, q) % q, q)


def walked_background_fault(base, lattice):
    """The message of the first background nonzero on the lattice, row-major
    over the first 4 lattice columns of each row of one period, or None."""
    for i in range(lcm(lattice.m, 4)):
        row = oracle_row(lattice, i)
        for j in range(row[0], row[0] + 4 * row[1], row[1]) if row else ():
            if base.entry(i, j).payload:
                return f"background is nonzero at lattice position ({i}, {j})"
    return None


def searched_torus_basis(t):
    """(p, q, c): the least p > 0 of a translation (p, c) in the torus lattice,
    its least c >= 0, and the least q > 0 of a translation (0, q)."""
    u, v, m = t.lattice.u, t.lattice.v, t.lattice.m
    k = 2 if all(t.base.table[n] == -t.base.table[n - 2] for n in range(4)) else 4
    q = lcm(m // gcd(v, m), k)
    p, c = next((a, b) for a in itertools.count(1) for b in range(q)
                if (u * a + v * b) % m == 0 and (a - b) % k == 0)
    return p, q, c


def tabled_numbered_before(lattice, t):
    """f(i, j) = parameter numbers taken before (i, j) in shell t, from the
    prefix sums of box t's m row classes: rows r and r + m meet alike."""
    m = lattice.m

    def row_count(i, lo, hi):
        row = oracle_row(lattice, i)
        return max(0, (hi - 1 - row[0]) // row[1] - (lo - 1 - row[0]) // row[1]) if row else 0

    def box_prefix(s):
        if s < 0:
            return lambda i, j: 0
        lo, hi = -m * s, m + 2 + m * s
        sums = list(itertools.accumulate((row_count(lo + k, lo, hi) for k in range(m)), initial=0))

        def prefix(i, j):
            rows = min(max(i, lo), hi) - lo
            return rows // m * sums[m] + sums[rows % m] + (row_count(i, lo, min(j, hi)) if lo <= i < hi else 0)

        return prefix

    inner, outer = box_prefix(t - 1), box_prefix(t)
    before = inner(m * t + 2, 0)
    return lambda i, j: before + outer(i, j) - inner(i, j)


class TestSublattice:
    def test_normalization(self):
        lat = SublatticeSpec(13, -9, 10, 26)
        assert (lat.u, lat.v, lat.t) == (3, 1, 6)

    def test_contains(self):
        lat = SublatticeSpec(3, 1, 10, 6)
        assert lat.contains(0, 6)
        assert lat.contains(1, 3)
        assert lat.contains(2, 0)
        assert not lat.contains(0, 0)

    def test_modulus_validation(self):
        with pytest.raises(ValidationError):
            SublatticeSpec(1, 1, 0, 0)


class TestParameterNumbering:
    def test_frozen_positions(self):
        lat = WILDEST_LATTICE
        assert parameter_position(lat, 1) == (0, 6)
        assert parameter_position(lat, 2) == (1, 3)
        assert parameter_position(lat, 3) == (2, 0)
        assert parameter_position(lat, 4) == (2, 10)
        assert parameter_position(lat, 14) == (11, 3)

    def test_round_trip(self):
        lat = WILDEST_LATTICE
        for k in range(1, 80):
            i, j = parameter_position(lat, k)
            assert parameter_index(lat, i, j) == k

    def test_off_lattice_rejected(self):
        with pytest.raises(StructuralError):
            parameter_index(WILDEST_LATTICE, 0, 0)


def scanned_positions(lattice, reach, count):
    """Lattice positions in numbering order, found by visiting cells: box 0 is
    [0, m+2)^2, box t adds m cells on every side, and each new shell is read
    row-major.  Stops once a box covers [-reach, reach]^2 and holds `count`
    positions."""
    m = lattice.m
    positions = []
    for t in itertools.count():
        lo, hi = -m * t, m + 2 + m * t
        for i in range(lo, hi):
            for j in range(lo, hi):
                inner = t > 0 and lo + m <= min(i, j) and max(i, j) < hi - m
                if not inner and lattice.contains(i, j):
                    positions.append((i, j))
        if lo <= -reach and reach < hi and len(positions) >= count:
            return positions


class TestParameterCounting:
    @pytest.mark.parametrize("spec", [
        (3, 1, 10, 6), (2, 4, 6, 2), (0, 2, 4, 2), (5, 0, 5, 0),
        (1, 0, 4, 3), (7, 3, 12, 5), (0, 0, 1, 0),
    ])
    def test_matches_box_scan(self, spec):
        lat = SublatticeSpec(*spec)
        scanned = scanned_positions(lat, 60, 3000)
        number = {pos: k for k, pos in enumerate(scanned, 1)}
        near = [(i, j) for i in range(-60, 61) for j in range(-60, 61) if lat.contains(i, j)]
        indices = [parameter_index(lat, i, j) for i, j in near]
        assert indices == [number[pos] for pos in near]
        positions = [parameter_position(lat, k) for k in range(1, 3001)]
        assert positions == scanned[:3000]
        assert [parameter_index(lat, i, j) for i, j in positions] == list(range(1, 3001))
        # and position(index(p)) == p on a sample of the near positions
        rng = random.Random(31)
        for pos, k in rng.sample(list(zip(near, indices)), 100):
            assert parameter_position(lat, k) == pos

    def test_far_wildest_positions(self):
        lat = WILDEST_LATTICE
        assert parameter_index(lat, 100001, 3) == 3_999_670_007
        assert parameter_position(lat, 3_999_670_007) == (100001, 3)
        assert parameter_position(lat, 10**9) == (-20000, 50006)
        assert parameter_index(lat, -20000, 50006) == 10**9

    def test_empty_lattice(self):
        # gcd(u, v, m) = 2 divides neither t = 1 nor t = 3: no cell is on them
        for lat in (SublatticeSpec(0, 0, 2, 1), SublatticeSpec(2, 4, 6, 3)):
            with pytest.raises(StructuralError):
                parameter_position(lat, 1)
            with pytest.raises(StructuralError):
                parameter_index(lat, 0, 0)


class TestClosedForms:
    # Every lattice with m <= 12: the closed forms against the oracles above.
    # The four SL2 tables, and two without table[n + 2] = -table[n], one of
    # them (0, 0, 0, 1), whose one nonzero can first be met at the 4th
    # position of a row or on the 4th row that meets the lattice.
    TABLES = ((0, 1, 0, -1), (1, 0, -1, 0), (0, -1, 0, 1), (-1, 0, 1, 0), (0, 0, 1, -1), (0, 0, 0, 1))

    def test_construction_and_basis_match_the_walk_and_the_search(self):
        built = 0
        for table in self.TABLES:
            base = RuleBased(INTEGERS, tuple(INTEGERS.value(v) for v in table))
            for m in range(1, 13):
                for u, v, t in itertools.product(range(m), repeat=3):
                    lat = SublatticeSpec(u, v, m, t)
                    fault = walked_background_fault(base, lat)
                    if fault:
                        with pytest.raises(ValidationError) as err:
                            Patched(INTEGERS, base, lat, NumericParameters((), 1))
                        assert str(err.value) == fault
                        continue
                    model = Patched(INTEGERS, base, lat, NumericParameters((), 1))
                    assert tiling._torus_basis(model) == searched_torus_basis(model), (table, lat)
                    built += 1
        assert built == 6_728

    def test_numbering_matches_the_row_class_table(self):
        # Indices 1..200 on every lattice with m <= 4, and a seeded sample of
        # them, first and last included, on every lattice with m <= 12.  The
        # table's number of the position found proves it the right one.
        rng = random.Random(12)
        for m in range(1, 13):
            for spec in itertools.product(range(m), range(m), [m], range(m)):
                lat = SublatticeSpec(*spec)
                if lat.t % gcd(lat.u, lat.v, m):
                    continue
                shells = {}
                indices = range(1, 201) if m <= 4 else [1, 200, *rng.sample(range(2, 200), 6)]
                for k in indices:
                    i, j = parameter_position(lat, k)
                    t = tiling._shell(lat, i, j)
                    before = shells.get(t) or shells.setdefault(t, tabled_numbered_before(lat, t))
                    assert lat.contains(i, j) and before(i, j) + 1 == k, (lat, k)
                    assert parameter_index(lat, i, j) == k

    def test_lattice_of_modulus_10_to_the_12(self):
        m = 10**12
        lat = SublatticeSpec(3, 1, m, 6)
        t = Patched(POLYNOMIALS, wildest_integer_tiling(FormalParameters()).base, lat, FormalParameters())
        # (1, m - 3) and (0, m) are translations of the torus lattice: 3a + b = 0
        # (mod m) and a = b (mod 2).
        assert tiling._torus_basis(t) == (1, m, m - 3)
        # A position near row 10**7, its number, and a 4x4 window holding it.
        i, j = 10**7, 6 - 3 * 10**7
        k = parameter_index(lat, i, j)
        assert parameter_position(lat, k) == (i, j)
        win = extract_window(t, i - 1, j - 2, 4, 4)
        assert win.at(1, 2).payload.single_variable() == k
        assert sum(lat.contains(r, s) for r in range(i - 1, i + 3) for s in range(j - 2, j + 2)) == 1


class TestModels:
    def test_rule_table_lookup(self):
        t = unit_tiling()
        rng = random.Random(23)
        for _ in range(200):
            i = rng.randint(-1000, 1000)
            j = rng.randint(-1000, 1000)
            assert t.entry(i, j) == t.table[(j - i) % 4]

    def test_rule_table_validation(self):
        with pytest.raises(ValidationError):
            RuleBased(INTEGERS, tuple(INTEGERS.value(v) for v in (0, 1, 0)))

    def test_periodic_wraparound(self, z36):
        rng = random.Random(29)
        for _ in range(200):
            i = rng.randint(-1000, 1000)
            j = rng.randint(-1000, 1000)
            assert z36.entry(i, j) == z36.block.at(i % 4, j % 4)

    def test_patched_entries(self, wildest_formal):
        # on the sublattice entries are the numbered formal parameters
        assert wildest_formal.entry(0, 6).payload.single_variable() == 1
        assert wildest_formal.entry(1, 3).payload.single_variable() == 2
        assert wildest_formal.entry(11, 3).payload.single_variable() == 14
        # off the sublattice the rule background shows through
        assert wildest_formal.entry(0, 0).is_zero()
        assert wildest_formal.entry(0, 1).is_one()

    def test_patched_numeric_assignment(self):
        params = NumericParameters.from_mapping({(0, 6): 5, (1, 3): -2}, 7)
        t = wildest_integer_tiling(params)
        assert t.entry(0, 6).payload == 5
        assert t.entry(1, 3).payload == -2
        assert t.entry(2, 0).payload == 7

    def test_numeric_zero_rejected(self):
        with pytest.raises(ValidationError):
            NumericParameters.from_mapping({(0, 6): 0}, 1)
        with pytest.raises(ValidationError):
            NumericParameters.from_mapping({}, 0)

    def test_patched_base_must_vanish_on_lattice(self):
        table = tuple(POLYNOMIALS.value(v) for v in (1, 1, 1, 1))
        base = RuleBased(POLYNOMIALS, table)
        with pytest.raises(ValidationError):
            Patched(POLYNOMIALS, base, WILDEST_LATTICE, FormalParameters())

    def test_background_check_names_first_position(self):
        # Against every cell of [0, lcm(m, 4))^2, read row-major.
        for table in ((0, 1, 0, -1), (1, 0, -1, 0), (0, 0, 1, -1)):
            base = RuleBased(INTEGERS, tuple(INTEGERS.value(v) for v in table))
            for m in range(1, 9):
                period = range(m * 4 // gcd(m, 4))
                for u, v, t in itertools.product(range(m), repeat=3):
                    lat = SublatticeSpec(u, v, m, t)
                    first = next(((i, j) for i in period for j in period
                                  if lat.contains(i, j) and base.entry(i, j).payload), None)
                    if first is None:
                        Patched(INTEGERS, base, lat, NumericParameters((), 1))
                        continue
                    with pytest.raises(ValidationError) as err:
                        Patched(INTEGERS, base, lat, NumericParameters((), 1))
                    assert str(err.value) == f"background is nonzero at lattice position {first}"

    def test_background_check_is_constant_in_m(self, monkeypatch):
        # At most 4 background entries on each of 4 rows, and no cell scan.
        entries, scans = [], []
        entry, contains = RuleBased.entry, SublatticeSpec.contains
        monkeypatch.setattr(RuleBased, "entry", lambda *a: entries.append(1) or entry(*a))
        monkeypatch.setattr(SublatticeSpec, "contains", lambda *a: scans.append(1) or contains(*a))
        base = wildest_integer_tiling().base
        for m in (2000, 10**12):
            for lat in (SublatticeSpec(3, 1, m, 6), SublatticeSpec(2, 2, m, 0)):
                entries.clear()
                Patched(INTEGERS, base, lat, NumericParameters((), 1))
                assert len(entries) <= 16 and not scans

    def test_patched_parameter_ring_pairing(self):
        t = wildest_integer_tiling()
        base = t.base
        with pytest.raises(ValidationError):
            Patched(INTEGERS, base, WILDEST_LATTICE, FormalParameters())


class TestExtractWindow:
    def test_unit_corner(self, unit):
        win = extract_window(unit, 0, 0, 2, 2)
        assert win.matrix.to_int_rows() == [[0, 1], [-1, 0]]

    def test_z36_block(self, z36):
        win = extract_window(z36, 0, 0, 4, 4)
        assert win.matrix.to_int_rows() == [
            [3, 2, 33, 34],
            [4, 3, 32, 33],
            [9, 16, 3, 2],
            [14, 9, 4, 3],
        ]

    def test_single_cell(self, wildest):
        win = extract_window(wildest, 5, -3, 1, 1)
        assert win.at(0, 0) == wildest.entry(5, -3)
        assert win.origin == (5, -3)

    def test_empty_shape_refused(self, wildest):
        with pytest.raises(ValidationError, match="^window shape must be positive, got 0x5$"):
            extract_window(wildest, 0, 0, 0, 5)

    def test_equals_entry_grid(self, catalog, wildest_formal):
        # The row fill against entry(i, j) cell by cell, on seeded random
        # windows of every model kind, 1-row and 1-column ones included.
        rng = random.Random(20)
        z7 = ModularRing(7)
        block = PeriodicBlock(z7, Matrix.from_ints(z7, [[1, 2, 3], [4, 5, 6]]))
        # The corners and one inner cell of the 5 x 13 window at (-3, -1),
        # all on i + j = 0 (mod 4).
        edges = {(-3, -1): 3, (-3, 11): -1, (1, -1): 7, (1, 11): 2, (-1, 5): 5}
        explicit = Patched(INTEGERS, catalog["wildest"].base, SublatticeSpec(1, 1, 4, 0),
                           NumericParameters.from_mapping(edges, -2))
        far = [(rng.randrange(600, 5000), rng.randrange(-5000, 5000)) for _ in range(4)]
        cases = [(catalog["unit"], (rng.randrange(-99, 99), rng.randrange(-99, 99)), []),
                 (block, (-4, -5), [(3, 1), (3, 2), (3, 3), (5, 7), (4, 11)]),
                 (block, (7, 2), [(2, 2), (7, 4)]),
                 (explicit, (-3, -1), [(5, 13), (1, 13), (5, 1)]),
                 (explicit, (1, 11), [(1, 1)]),
                 (catalog["wildest"], (-7, -3), []),
                 (wildest_formal, (-17, -9), []), (wildest_formal, (-3, -20), [(40, 3)])]
        cases += [(wildest_formal, origin, [(3, 30)]) for origin in far]
        cases += [(t, (rng.randrange(-50, 50), rng.randrange(-50, 50)), [])
                  for t in (patched_model((2, 2, 4, 0), True), patched_model((3, 1, 10, 6), False))]
        for t, (i0, j0), extra in cases:
            shapes = [(1, 1), (1, 12), (12, 1), (6, 12), *extra]
            shapes += [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(4)]
            for h, w in shapes:
                win = extract_window(t, i0, j0, h, w)
                cells = [[t.entry(i, j) for j in range(j0, j0 + w)] for i in range(i0, i0 + h)]
                assert [list(win.matrix.row(r)) for r in range(h)] == cells, (t, i0, j0, h, w)
                assert win.origin == (i0, j0)

    def test_formal_window_numbers_once_per_shell(self, wildest_formal, monkeypatch):
        calls, shells = [], []
        for kind in (RuleBased, PeriodicBlock, Patched):
            monkeypatch.setattr(kind, "entry", lambda *a: calls.append(a))
        numbered_before = tiling._numbered_before
        monkeypatch.setattr(tiling, "_numbered_before",
                            lambda lat, t: shells.append(t) or numbered_before(lat, t))
        lat = wildest_formal.lattice
        for i0, j0 in ((-15, -25), (600, 1234)):
            shells.clear()
            win = extract_window(wildest_formal, i0, j0, 100, 100)
            met = {tiling._shell(lat, i, j) for i in range(i0, i0 + 100)
                   for j in range(j0, j0 + 100) if lat.contains(i, j)}
            assert not calls
            assert sorted(shells) == sorted(met) and len(met) > 1
            assert win.at(0, (6 - 3 * i0 - j0) % 10).payload.single_variable() is not None


class TestVerify:
    def test_catalog_models_pass(self, catalog):
        for t in catalog.values():
            assert verify_sl2(t) is None

    def test_formal_wildest_passes(self, wildest_formal):
        assert verify_sl2(wildest_formal) is None

    def test_modified_z36_fails_at_origin(self, z36):
        rows = z36.block.to_int_rows()
        rows[0][0] = 4
        broken = PeriodicBlock(z36.ring, Matrix.from_ints(z36.ring, rows))
        fault = verify_sl2(broken)
        assert fault is not None
        assert (fault.i, fault.j) == (0, 0)
        assert fault.value.payload == 4

    def test_bad_rule_table_fails(self):
        t = RuleBased(INTEGERS, tuple(INTEGERS.value(v) for v in (1, 1, 1, 1)))
        assert verify_sl2(t) is not None

    def test_patched_fault_in_last_lattice_window(self):
        # Every parameter has another one diagonally below-right of it, so the
        # first faulty window of row 0 is at (0, 3): the last of the m = 4
        # windows that the check visits past the background.
        table = tuple(POLYNOMIALS.value(v) for v in (1, 0, -1, 0))
        lat = SublatticeSpec(3, 1, 4, 3)
        t = Patched(POLYNOMIALS, RuleBased(POLYNOMIALS, table), lat, FormalParameters())
        fault = verify_sl2(t)
        assert (fault.i, fault.j) == (0, 3)
        assert fault.value == t.entry(0, 3) * t.entry(1, 4) + POLYNOMIALS.one()

    def test_verify_window(self, z36):
        win = extract_window(z36, 0, 0, 4, 4)
        assert verify_window(win) is None
        bad = int_window([[1, 1], [1, 1]])
        fault = verify_window(bad)
        assert fault is not None and (fault.i, fault.j) == (0, 0)

    def test_verify_window_reports_first_fault_row_major(self, wildest):
        rows = extract_window(wildest, 0, 0, 6, 7).matrix.to_int_rows()
        rows[1][4] += 2  # breaks windows in rows 0 and 1
        rows[4][1] += 2  # breaks windows in rows 3 and 4, more to the left
        faults = [
            (r, c)
            for r in range(5)
            for c in range(6)
            if rows[r][c] * rows[r + 1][c + 1] - rows[r][c + 1] * rows[r + 1][c] != 1
        ]
        assert {r for r, _ in faults} == {0, 1, 3, 4}
        fault = verify_window(int_window(rows, origin=(10, -20)))
        r, c = faults[0]
        assert (fault.i, fault.j) == (10 + r, -20 + c)
        assert min(faults, key=lambda rc: (rc[1], rc[0]))[0] > r  # column-major differs
        assert fault.value.payload == (
            rows[r][c] * rows[r + 1][c + 1] - rows[r][c + 1] * rows[r + 1][c]
        )

    def test_random_numeric_assignments_pass(self):
        rng = random.Random(41)
        for _ in range(3):
            values = {}
            for k in range(1, 8):
                v = 0
                while v == 0:
                    v = rng.randint(-9, 9)
                values[parameter_position(WILDEST_LATTICE, k)] = v
            t = wildest_integer_tiling(NumericParameters.from_mapping(values, 1))
            assert verify_sl2(t) is None


    def test_matches_per_kind_windows(self, catalog, wildest_formal):
        # The argument verify_sl2 replaced: 4 window classes for a rule, one
        # wrapped period for a block, and for a patched model its background
        # and then the m windows of row 0 with parameters kept formal.
        def per_kind(t):
            if isinstance(t, RuleBased):
                return verify_window(extract_window(t, 0, 0, 2, 5))
            if isinstance(t, PeriodicBlock):
                return verify_window(extract_window(t, 0, 0, t.h + 1, t.w + 1))
            twin = tiling._formal_twin(t)
            return per_kind(twin.base) or verify_window(extract_window(twin, 0, 0, 2, twin.lattice.m + 1))

        rows = catalog["z36"].block.to_int_rows()
        rows[0][0] = 4
        broken = PeriodicBlock(catalog["z36"].ring, Matrix.from_ints(catalog["z36"].ring, rows))
        models = [*catalog.values(), wildest_formal, broken]
        models += lattice_sweep([(0, 1, 0, -1), (1, 0, -1, 0), (0, 0, 0, 1), (0, 2, 0, 3), (0, 1, 0, 1)])
        faults = 0
        for t in models:
            fault = verify_sl2(t)
            assert fault == per_kind(t), t
            faults += fault is not None
        assert 0 < faults < len(models)


class TestClassification:
    def test_z36_all_wild(self, z36):
        for i in range(4):
            for j in range(4):
                wild, _ = classify_entry(z36, i, j)
                assert wild

    def test_unit_all_tame(self, unit):
        for i in range(-4, 4):
            for j in range(-4, 4):
                wild, d3 = classify_entry(unit, i, j)
                assert not wild and d3.is_zero()

    def test_wildest_origin_determinant_one(self, wildest):
        wild, d3 = classify_entry(wildest, 0, 0)
        assert wild and d3.payload == 1

    def test_z36_center_dodgson_values(self, z36):
        # e = 3, det3 = 12, product 36 = 0 in Z/36
        assert z36.entry(1, 1).payload == 3
        d3 = centered_det3(z36, 1, 1)
        assert d3.payload == 12
        assert (z36.entry(1, 1) * d3).is_zero()

    def test_wildest_wild_set_characterization(self, wildest):
        lat = WILDEST_LATTICE
        for i in range(20):
            for j in range(20):
                wild, _ = classify_entry(wildest, i, j)
                expected = (j - i) % 2 == 0 and not lat.contains(i, j)
                assert wild == expected

    def test_wild_entries_are_zero_over_domains(self, wildest, wildest_formal):
        for t in (wildest, wildest_formal):
            for i in range(12):
                for j in range(12):
                    wild, _ = classify_entry(t, i, j)
                    if wild:
                        assert t.entry(i, j).is_zero()


class TestWildnessReport:
    def test_wildest_10x10_counts(self, wildest):
        rep = wildness_report(wildest, 0, 0, 10, 10)
        assert rep.wild_count == 40
        flat = [c for row in rep.colors for c in row]
        assert flat.count(CellColor.ZERO_WILD) == 40
        assert flat.count(CellColor.PARAMETER) == 10
        assert rep.violations == ()

    def test_fundamental_domain_split(self, wildest):
        # any 10 cells covering the residues: 4 wild zeros, 1 parameter, 5 ones
        rep = wildness_report(wildest, 3, 7, 10, 1)
        flat = [c for row in rep.colors for c in row]
        assert flat.count(CellColor.ZERO_WILD) == 4
        assert flat.count(CellColor.PARAMETER) == 1
        assert flat.count(CellColor.PLUS_ONE) + flat.count(CellColor.MINUS_ONE) == 5

    def test_z36_all_wild(self, z36):
        rep = wildness_report(z36, 0, 0, 4, 4)
        assert rep.wild_count == 16

    def test_unit_no_wild(self, unit):
        rep = wildness_report(unit, -3, 5, 8, 8)
        assert rep.wild_count == 0
        flat = [c for row in rep.colors for c in row]
        assert flat.count(CellColor.ZERO_TAME) == 32

    def test_matches_cell_by_cell_reference(self):
        def reference(t, i0, j0, h, w):
            one = t.ring.one()
            e = t.entry
            wild = tuple(tuple(classify_entry(t, i, j)[0] for j in range(j0, j0 + w))
                         for i in range(i0, i0 + h))

            def color(i, j):
                v = e(i, j)
                if wild[i - i0][j - j0]:
                    return CellColor.ZERO_WILD
                if t.lattice.contains(i, j) or v.constant_value() is None:
                    return CellColor.PARAMETER
                return {one: CellColor.PLUS_ONE, -one: CellColor.MINUS_ONE,
                        t.ring.value(0): CellColor.ZERO_TAME}.get(v, CellColor.OTHER_NONZERO)

            colors = tuple(tuple(color(i, j) for j in range(j0, j0 + w)) for i in range(i0, i0 + h))
            d2 = {(i, j): e(i, j) * e(i + 1, j + 1) - e(i, j + 1) * e(i + 1, j)
                  for i in range(i0, i0 + h) for j in range(j0, j0 + w)}
            violations = tuple(tiling.Violation(i, j, v) for (i, j), v in d2.items() if v != one)
            return wild, colors, violations

        seen = set()
        for t in lattice_sweep([(0, 1, 0, -1), (1, 0, -1, 0), (0, 0, 0, 1)]):
            for window in SWEEP_WINDOWS:
                rep = wildness_report(t, *window)
                assert (rep.wild, rep.colors, rep.violations) == reference(t, *window), (t, window)
                seen.update(c for row in rep.colors for c in row)
                if rep.violations:
                    seen.add("violation")
                if not t.is_formal() and t.parameters.values:
                    default = Patched(t.ring, t.base, t.lattice, NumericParameters((), -2))
                    if rep.wild != wildness_report(default, *window).wild:
                        seen.add("explicit values cancel")
        assert seen == {*CellColor, "violation", "explicit values cancel"} - {CellColor.OTHER_NONZERO}

    def test_det3_calls_are_the_torus(self, wildest_formal, monkeypatch):
        # A formal 100 x 100 report computes the p*q = 10 det3s of its torus.
        calls = []
        det3 = matrices.det3
        monkeypatch.setattr(matrices, "det3", lambda rows: calls.append(1) or det3(rows))
        rep = wildness_report(wildest_formal, -37, 1234, 100, 100)
        assert len(calls) == 10
        assert rep.wild_count == 4000

    def test_violations_located(self, z36):
        rows = z36.block.to_int_rows()
        rows[0][0] = 4
        broken = PeriodicBlock(z36.ring, Matrix.from_ints(z36.ring, rows))
        rep = wildness_report(broken, 0, 0, 4, 4)
        assert any((v.i, v.j) == (0, 0) for v in rep.violations)


class TestDensity:
    def test_exact_values(self, catalog):
        assert wild_density_exact(catalog["unit"]) == 0
        assert wild_density_exact(catalog["z36"]) == 1
        assert wild_density_exact(catalog["pqrs"]) == 1
        assert wild_density_exact(catalog["wildest"]) == Fraction(2, 5)

    def test_exact_formal(self, wildest_formal):
        assert wild_density_exact(wildest_formal) == Fraction(2, 5)

    def test_window_samples_match_direct_count(self, wildest, wildest_formal, z36, unit):
        explicit = wildest_integer_tiling(NumericParameters.from_mapping(
            {parameter_position(WILDEST_LATTICE, k): v for k, v in ((1, 5), (3, -2), (7, 4))}, 2))
        models = [wildest, wildest_formal, explicit, z36, unit]
        for spec in ((2, 2, 4, 0), (1, 3, 6, 0), (0, 2, 4, 1), (1, 3, 8, 0), (5, 1, 12, 0),
                     (3, 5, 16, 2)):
            models += [patched_model(spec, formal=True), patched_model(spec, formal=False)]
        for t in models:
            for r in (5, 9):
                sample = wild_density_windows(t, [r])[0]
                wild = total = 0
                for i in range(-r, r + 1):
                    for j in range(-r, r + 1):
                        if i * i + j * j <= r * r:
                            total += 1
                            if classify_entry(t, i, j)[0]:
                                wild += 1
                assert (sample.wild, sample.total) == (wild, total)

    def test_explicit_values_cancel_off_the_torus(self):
        # (0, 4) is a zero between the parameters at (-1, 3) and (1, 5): with
        # values 5 and -5 its det3 cancels, though its class is wild.
        base = patched_model((1, 3, 8, 0), formal=False)
        values = NumericParameters.from_mapping({(-1, 3): 5, (1, 5): -5}, 1)
        t = Patched(base.ring, base.base, base.lattice, values)
        assert verify_sl2(t) is None
        assert not classify_entry(t, 0, 4)[0]
        assert wild_density_exact(t) == wild_density_exact(patched_model((1, 3, 8, 0), formal=True))
        disc = [(i, j) for i in range(-6, 7) for j in range(-6, 7) if i * i + j * j <= 36]
        assert wild_density_windows(t, [6])[0].wild == sum(classify_entry(t, *c)[0] for c in disc)

    def test_no_analysis_calls_the_oracle(self, monkeypatch):
        # The model of the test above, with the per-cell definition refused:
        # every analysis reads payload windows, and agrees with the
        # definition cell by cell once it is back.
        base = patched_model((1, 3, 8, 0), formal=False)
        t = Patched(base.ring, base.base, base.lattice, NumericParameters.from_mapping({(-1, 3): 5, (1, 5): -5}, 1))

        def refuse(*args):
            raise AssertionError("the per-cell oracle was called")

        radii = [0, 2, 6]
        with monkeypatch.context() as patch:
            for owner, name in ((tiling, "classify_entry"), (tiling, "centered_det3"), (Patched, "entry")):
                patch.setattr(owner, name, refuse)
            report = wildness_report(t, -4, -2, 9, 11)
            samples = wild_density_windows(t, radii)
            exact = wild_density_exact(t)
            fault = verify_sl2(t)
        assert report.wild == tuple(tuple(classify_entry(t, i, j)[0] for j in range(-2, 9)) for i in range(-4, 5))
        assert not report.wild[4][6]
        for r, sample in zip(radii, samples):
            disc = [(i, j) for i in range(-r, r + 1) for j in range(-r, r + 1) if i * i + j * j <= r * r]
            assert sample.wild == sum(classify_entry(t, *c)[0] for c in disc)
        # A p x q rectangle is a fundamental domain of the torus lattice; this
        # one lies away from the explicit values.
        p, q, _ = tiling._torus_basis(t)
        domain = [(i, j) for i in range(100, 100 + p) for j in range(q)]
        assert exact == Fraction(sum(classify_entry(t, *c)[0] for c in domain), p * q)
        assert fault is None

    def test_det3_evaluations_per_call(self, catalog, wildest_formal, monkeypatch):
        calls = []
        det3 = matrices.det3
        monkeypatch.setattr(matrices, "det3", lambda rows: calls.append(1) or det3(rows))
        cases = [(catalog["unit"], 4), (catalog["z36"], 16), (catalog["pqrs"], 16),
                 (catalog["wildest"], 10), (wildest_formal, 10),
                 (patched_model((3, 5, 16, 2), formal=True), 16),
                 (patched_model((2, 2, 4, 0), formal=True), 2),
                 (patched_model((1, 3, 6, 0), formal=True), 6),
                 (patched_model((0, 2, 4, 1), formal=True), 4)]
        for t, cost in cases:
            for density in (wild_density_exact, lambda t: wild_density_windows(t, [0, 7, 40])):
                calls.clear()
                density(t)
                assert len(calls) == cost

    def test_unit_ratio_zero(self, unit):
        for s in wild_density_windows(unit, [3, 10, 25]):
            assert s.ratio == 0

    def test_z36_ratio_one(self, z36):
        for s in wild_density_windows(z36, [3, 10, 25]):
            assert s.ratio == 1

    def test_wildest_boundary_convergence(self, wildest):
        for s in wild_density_windows(wildest, [50, 120, 500]):
            assert abs(s.ratio - Fraction(2, 5)) <= Fraction(10, s.radius)

    def test_every_zero_a_parameter(self):
        # 2i + 2j = 0 (mod 4) puts a parameter on every zero of the background,
        # so no cell is a tame zero: the 1x2 torus is all wild.
        for formal in (True, False):
            t = patched_model((2, 2, 4, 0), formal)
            assert wild_density_exact(t) == 1
            if not formal:
                t = Patched(t.ring, t.base, t.lattice, NumericParameters((), -2))
            assert all(classify_entry(t, i, j)[0] for i in range(-4, 5) for j in range(-4, 5))

    def test_torus_matches_classify_entry(self, catalog, wildest_formal):
        # Every lattice with m <= 8 over two SL2 backgrounds (zeros at even and
        # at odd j - i) and one without table[n + 2] = -table[n], formal and
        # with a default value; the catalog; and a rule whose wild mask a shear
        # of the wrong sign would move.  Each on a window of two periods each way.
        def torus_shape(t):
            rows, c, _ = tiling._wild_torus(t)
            p, q = len(rows), len(rows[0])
            for i in range(-p, p):
                for j in range(-q, q):
                    assert rows[i % p][(j - c * (i // p)) % q] == classify_entry(t, i, j)[0], (t, i, j)
            return p, q

        rule = RuleBased(INTEGERS, tuple(INTEGERS.value(v) for v in (-1, -1, -1, 2)))
        assert torus_shape(rule) == (1, 4)
        for t in (*catalog.values(), wildest_formal):
            torus_shape(t)
        for table, k in (((0, 1, 0, -1), 2), ((1, 0, -1, 0), 2), ((0, 0, 0, 1), 4)):
            for m in range(1, 9):
                for spec in itertools.product(range(m), range(m), [m], range(m)):
                    for ring, params in ((POLYNOMIALS, FormalParameters()),
                                         (INTEGERS, NumericParameters((), -2))):
                        base = RuleBased(ring, tuple(ring.value(v) for v in table))
                        try:
                            t = Patched(ring, base, SublatticeSpec(*spec), params)
                        except ValidationError:
                            continue
                        p, q = torus_shape(t)
                        assert p * q <= k * m


class TestAudits:
    def test_catalog_clean(self, catalog):
        for t in catalog.values():
            win = extract_window(t, -1, -1, 14, 14)
            assert dodgson_audit(win) is None
            assert corner_audit(win) is None

    def test_identity_checks_all_rings(self, catalog, wildest_formal):
        models = list(catalog.values()) + [wildest_formal]
        for t in models:
            win = extract_window(t, 0, 0, 8, 8)
            for r in range(1, 7):
                for c in range(1, 7):
                    e = win.at(r, c)
                    d3 = centered_det3(t, r, c)
                    assert (e * d3).is_zero()
                    corners = (
                        win.at(r - 1, c - 1), win.at(r - 1, c + 1),
                        win.at(r + 1, c - 1), win.at(r + 1, c + 1),
                    )
                    assert d3 == corner_det3(e, corners)

    def test_zero_cross_wildest(self, wildest):
        win = extract_window(wildest, -15, -15, 30, 30)
        assert zero_cross_audit(win) is None
        # every wild zero has exactly one nonzero diagonal neighbor
        for r in range(1, 29):
            for c in range(1, 29):
                if win.at(r, c).is_zero() and classify_entry(wildest, -15 + r, -15 + c)[0]:
                    diagonals = [win.at(r + dr, c + dc) for dr in (-1, 1) for dc in (-1, 1)]
                    assert sum(not d.is_zero() for d in diagonals) == 1

    def test_zero_cross_unit(self, unit):
        win = extract_window(unit, -15, -15, 30, 30)
        assert zero_cross_audit(win) is None

    def test_zero_cross_counterexample(self):
        win = int_window([[1, 1, 1], [1, 0, 1], [1, -1, 1]])
        finding = zero_cross_audit(win)
        assert finding is not None
        assert finding.check == "cross-pattern"

    def test_zero_cross_needs_domain(self, z36):
        win = extract_window(z36, 0, 0, 6, 6)
        with pytest.raises(UnsupportedOperationError):
            zero_cross_audit(win)

    def test_dodgson_counterexample(self):
        win = int_window([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        finding = dodgson_audit(win)
        assert finding is not None
        assert finding.check in ("dodgson", "wild-entry-nonzero")

    def test_corner_counterexample(self):
        win = int_window([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        finding = corner_audit(win)
        assert finding is not None
        assert finding.check == "corner"


def first_failures(win):
    """(i, j, check, detail) of each check's row-major first failing cell,
    worked out cell by cell with RingValue arithmetic: centered_det3,
    corner_det3 and the str of values."""
    grid = SimpleNamespace(entry=win.at)
    domain = not isinstance(win.matrix.spec, ModularRing)
    first = {}
    for r in range(1, win.rows - 1):
        for c in range(1, win.cols - 1):
            e, d3 = win.at(r, c), centered_det3(grid, r, c)
            corners = [win.at(r + dr, c + dc) for dr in (-1, 1) for dc in (-1, 1)]
            sides = [win.at(r - 1, c), win.at(r, c - 1), win.at(r, c + 1), win.at(r + 1, c)]
            predicted = corner_det3(e, corners)
            failed = {"corner": ("corner", f"det3 {d3} but corner formula gives {predicted}")
                      if d3 != predicted else None}
            if not (e * d3).is_zero():
                failed["dodgson"] = "dodgson", f"entry {e} times det3 {d3} is nonzero"
            elif domain and not d3.is_zero() and not e.is_zero():
                failed["dodgson"] = "wild-entry-nonzero", None
            if domain and e.is_zero():
                if [v.constant_value() for v in sides] not in ([1, -1, 1, -1], [-1, 1, -1, 1]):
                    failed["cross"] = "cross-pattern", "zero with side neighbors ({}, {}, {}, {})".format(*sides)
                elif not d3.is_zero() and all(v.is_zero() for v in corners):
                    failed["cross"] = "wild-isolated", None
            for name, check in failed.items():
                if check and name not in first:
                    first[name] = (win.origin[0] + r, win.origin[1] + c, *check)
    return first


def first_violation(win):
    """verify_window's answer, cell by cell with RingValue arithmetic."""
    one = win.matrix.spec.one()
    for r, c in itertools.product(range(win.rows - 1), range(win.cols - 1)):
        d2 = win.at(r, c) * win.at(r + 1, c + 1) - win.at(r, c + 1) * win.at(r + 1, c)
        if d2 != one:
            return Violation(win.origin[0] + r, win.origin[1] + c, d2)
    return None


def cell_colors(win):
    """window_colors, cell by cell from _value_color and centered_det3."""
    grid = SimpleNamespace(entry=win.at)
    return [[CellColor.ZERO_WILD if 0 < r < win.rows - 1 and 0 < c < win.cols - 1
             and not centered_det3(grid, r, c).is_zero() else tiling._value_color(win.at(r, c))
             for c in range(win.cols)] for r in range(win.rows)]


class TestAuditWindow:
    def test_first_failure_of_each_check(self, catalog, wildest_formal):
        seen = set()
        for t in [*catalog.values(), wildest_formal]:
            clean = extract_window(t, -2, 3, 5, 6)
            one, zero = t.ring.one(), t.ring.value(0)
            names = ("dodgson", "corner") if isinstance(t.ring, ModularRing) else ("dodgson", "corner", "cross")
            for r, c in itertools.product(range(5), range(6)):
                for bumped in (clean.at(r, c) + one, zero):
                    rows = [list(clean.matrix.row(k)) for k in range(5)]
                    rows[r][c] = bumped
                    win = Window(Matrix.from_rows(t.ring, rows), clean.origin)
                    first = first_failures(win)
                    seen.update(check for _, _, check, _ in first.values())
                    for k in range(1, len(names) + 1):
                        for checks in itertools.permutations(names, k):
                            got = audit_window(win, checks)
                            assert [f and (f.i, f.j, f.check, f.detail) for f in got] == [first.get(n) for n in checks]
                    # The same windows through the payload kernels of verify and colors.
                    fault = verify_window(win)
                    assert fault == first_violation(win)
                    assert fault is None or fault.value.spec is t.ring
                    assert tiling.window_colors(win) == cell_colors(win)
        # "wild-entry-nonzero" and "wild-isolated" cannot occur: e * det3 = 0
        # in a domain makes e or det3 zero, and det3 vanishes at a zero whose
        # diagonals are all zero.
        assert seen == {"dodgson", "corner", "cross-pattern"}

    def test_no_ring_arithmetic_per_cell(self, wildest, z36, wildest_formal, monkeypatch):
        # Over Z, Z/N and Z[a] verify, the report and every audit check
        # compute on payloads: RingValue arithmetic runs as often on 60x60 as
        # on 20x20.
        calls = []
        for name in ("__add__", "__sub__", "__mul__", "__neg__"):
            op = getattr(RingValue, name)
            monkeypatch.setattr(RingValue, name, lambda *args, op=op: calls.append(op) or op(*args))

        def ring_ops(t, size):
            calls.clear()
            win = extract_window(t, -7, 5, size, size)
            assert verify_window(win) is None
            assert not wildness_report(t, -7, 5, size, size).violations
            checks = ("dodgson", "corner") if isinstance(t.ring, ModularRing) else ("dodgson", "corner", "cross")
            assert audit_window(win, checks) == [None] * len(checks)
            return len(calls)

        for t in (wildest, z36, wildest_formal):
            assert ring_ops(t, 20) == ring_ops(t, 60)

    def test_no_value_built_per_cell(self, wildest, z36, wildest_formal, monkeypatch):
        # Models fill payload rows and analyses read them: the ring values
        # built are as many on 24x24 as on 12x12, blocks of 6 as of 3.
        built = []
        init = RingValue.__init__
        monkeypatch.setattr(RingValue, "__init__", lambda self, *args: built.append(1) or init(self, *args))

        def values_built(t, size):
            built.clear()
            win = extract_window(t, -7, 5, size, size)
            assert verify_window(win) is None
            assert not wildness_report(t, -7, 5, size, size).violations
            checks = ("dodgson", "corner") if isinstance(t.ring, ModularRing) else ("dodgson", "corner", "cross")
            assert audit_window(win, checks) == [None] * len(checks)
            if t is wildest_formal:
                assert enumerate_block_classes(t, size // 4)
            return len(built)

        for t in (wildest, z36, wildest_formal):
            assert values_built(t, 12) == values_built(t, 24)

    def test_stops_when_every_check_has_a_finding(self, monkeypatch):
        calls = []
        det3 = matrices.det3
        monkeypatch.setattr(matrices, "det3", lambda rows: calls.append(rows) or det3(rows))
        win = int_window([[1, 2, 3, 4], [4, 5, 6, 7], [7, 8, 10, 11], [1, 1, 1, 1]])
        found = audit_window(win, ["corner", "dodgson"])
        assert [(f.i, f.j, f.check) for f in found] == [(1, 1, "corner"), (1, 1, "dodgson")]
        assert len(calls) == 1

    def test_refusals_before_the_scan(self, z36, monkeypatch):
        win = extract_window(z36, 0, 0, 6, 6)
        monkeypatch.setattr(tiling, "det3_scan", None)
        with pytest.raises(UnsupportedOperationError, match="zero-cross conditions hold over integral domains"):
            audit_window(win, ["dodgson", "cross"])
        with pytest.raises(ValidationError, match="unknown audit check 'corners'"):
            audit_window(win, ["corners"])
