from math import gcd

import pytest

from sl2tilings import (
    PqrsParams,
    ValidationError,
    WILDEST_LATTICE,
    classify_entry,
    iter_pqrs_params,
    pqrs_det3_spectrum,
    pqrs_tiling,
    verify_sl2,
    wild_density_exact,
)


class TestUnit:
    def test_table(self, unit):
        assert [v.payload for v in unit.table] == [0, 1, 0, -1]
        assert str(unit.ring) == "Z"


class TestWildest:
    def test_lattice(self):
        assert (WILDEST_LATTICE.u, WILDEST_LATTICE.v,
                WILDEST_LATTICE.m, WILDEST_LATTICE.t) == (3, 1, 10, 6)

    def test_default_assignment_is_all_ones(self, wildest):
        assert wildest.entry(0, 6).payload == 1
        assert wildest.entry(11, 3).payload == 1

    def test_formal_mode(self, wildest_formal):
        assert wildest_formal.is_formal()
        assert str(wildest_formal.ring) == "Z[a]"


class TestPqrs:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            PqrsParams(1, 2, 4, 3)
        with pytest.raises(ValidationError):
            PqrsParams(3, 2, 4, 4)

    def test_derived_quantities(self):
        params = PqrsParams(3, 2, 4, 3)
        assert params.modulus == 72
        assert params.alpha == 7
        assert params.beta == 8

    def test_block_values(self, pqrs3243):
        assert str(pqrs3243.ring) == "Z/72"
        assert pqrs3243.block.to_int_rows() == [
            [3, 2, 69, 70],
            [4, 3, 68, 69],
            [21, 16, 3, 2],
            [32, 21, 4, 3],
        ]

    def test_det3_spectrum_containment(self):
        params = PqrsParams(3, 2, 4, 3)
        spectrum = pqrs_det3_spectrum(params)
        # pqr = 24, pqs = 18, prs = 36, qrs = 24 (mod 72)
        assert spectrum <= {18, 24, 36}
        assert 0 not in spectrum

    def test_all_cells_wild(self, pqrs3243):
        for i in range(4):
            for j in range(4):
                assert classify_entry(pqrs3243, i, j)[0]


class TestZ36:
    def test_block_values(self, z36):
        assert str(z36.ring) == "Z/36"
        assert z36.block.to_int_rows() == [
            [3, 2, 33, 34],
            [4, 3, 32, 33],
            [9, 16, 3, 2],
            [14, 9, 4, 3],
        ]

    def test_density_one(self, z36):
        assert wild_density_exact(z36) == 1

    def test_not_a_pqrs_instance(self):
        # no valid quadruple has modulus 36, so z36 is its own construction
        assert all(p.modulus != 36 for p in iter_pqrs_params(100))


class TestSweep:
    def test_small_sweep_frozen(self):
        got = [(p.p, p.q, p.r, p.s) for p in iter_pqrs_params(100)]
        assert got == [(3, 2, 4, 3), (3, 4, 2, 3), (2, 3, 3, 5), (5, 3, 3, 2)]

    def test_sweep_members_valid(self):
        for params in iter_pqrs_params(600):
            assert params.p * params.s - params.q * params.r == 1
            assert min(params.p, params.q, params.r, params.s) >= 2
            assert params.modulus <= 600

    def test_minimum_modulus_is_72(self):
        moduli = [p.modulus for p in iter_pqrs_params(3000)]
        assert min(moduli) == 72

    def test_sweep_size(self):
        found = list(iter_pqrs_params(3000))
        assert len(found) == 156
        assert len({p.modulus for p in found}) == 23

    def test_n72_members(self):
        at72 = [(p.p, p.q, p.r, p.s) for p in iter_pqrs_params(3000) if p.modulus == 72]
        assert at72 == [(3, 2, 4, 3), (3, 4, 2, 3)]

    def test_fully_wild_entries_are_nonunits(self, z36):
        # e * det3 = 0 in every SL2 tiling, and a fully wild cell has det3 != 0,
        # so no entry of a fully wild block is a unit mod N.
        blocks = [z36] + [pqrs_tiling(params) for params in iter_pqrs_params(3000)]
        for t in blocks:
            n = t.ring.modulus
            assert all(gcd(e, n) > 1 for row in t.block.to_int_rows() for e in row), t

    def test_sweep_instances_verify(self):
        for params in iter_pqrs_params(300):
            t = pqrs_tiling(params)
            assert verify_sl2(t) is None
            assert wild_density_exact(t) == 1
