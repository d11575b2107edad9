import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2tilings import blocks
from sl2tilings import (
    INTEGERS,
    Matrix,
    POLYNOMIALS,
    StructuralError,
    ValidationError,
    Window,
    bareiss_rank,
    enumerate_block_classes,
    extract_window,
    parse_grid,
    rank_deficiency_report,
    unit_tiling,
)

EXPECTED_CLASS_COUNTS = {1: 3, 2: 2, 3: 4, 4: 3, 5: 4, 6: 3, 7: 4, 8: 3, 9: 4, 10: 3}

EXPECTED_DEFICIENCIES = {
    3: [0, 1, 1, 1],
    4: [0, 0, 1],
    5: [0, 0, 1, 2],
    6: [0, 0, 1],
    7: [0, 1, 1, 1],
    8: [0, 0, 0],
    9: [0, 0, 0, 0],
}


# The n = 5 classes with their orbit sizes, as printed by `sl2 classes --n 5`.
N5_CLASSES = [
    ("+ 0 - 0 + 0 + 0 - 0 - 0 + p1 - p2 - 0 + 0 + 0 - 0 +", 4),
    ("+ 0 - p1 + p2 + 0 - 0 - 0 + 0 - 0 - 0 + p3 + p4 - 0 +", 1),
    ("0 + 0 - 0 + 0 - 0 + 0 - p1 + 0 - 0 + 0 - 0 + 0 - 0", 1),
    ("0 + 0 - 0 + 0 - p1 + p2 - 0 + 0 - 0 + 0 - 0 + 0 - p3", 4),
]

# Formal patched lattices (u, v, m, t) on the 0 1 0 -1 background, with p*q,
# the index of the translations that keep wildness.  On the first two, where
# (1, -3) does not keep the lattice (u != 3v mod m), the m windows at (0, k)
# miss classes.
TORUS_INDEX = {(1, 3, 6, 0): 6, (5, 3, 6, 2): 6, (2, 2, 4, 0): 2, (1, 1, 4, 0): 4, (3, 1, 10, 6): 10}


# Sorted symbolic deficiencies of the wildest classes by n mod 10, for
# 3 <= n <= 48: a measured pattern, not a theorem.
PERIOD_TEN = {0: [0, 0, 0], 1: [0, 0, 0, 0], 2: [0, 0, 0], 3: [0, 1, 1, 1], 4: [0, 0, 1],
              5: [0, 0, 1, 2], 6: [0, 0, 1], 7: [0, 1, 1, 1], 8: [0, 0, 0], 9: [0, 0, 0, 0]}


def formal_patched(u, v, m, t, background="0 1 0 -1"):
    return parse_grid(f"sl2tiling v1\nring: Z[a]\nkind: patched\nrows: 1\ncols: 4\n"
                      f"lattice: {u} {v} {m} {t}\nparams: formal\n\n{background}\n")


def reference_form(win):
    """Canonical form by the 64-transform definition: every dihedral image
    serialized under every alternating sign change."""
    n = win.rows
    grid = [[win.at(r, c) for c in range(n)] for r in range(n)]
    maps = [lambda r, c: (r, c), lambda r, c: (n - 1 - c, r),
            lambda r, c: (n - 1 - r, n - 1 - c), lambda r, c: (c, n - 1 - r),
            lambda r, c: (c, r), lambda r, c: (n - 1 - c, n - 1 - r),
            lambda r, c: (r, n - 1 - c), lambda r, c: (n - 1 - r, c)]
    forms = []
    for f in maps:
        image = [[grid[f(r, c)[0]][f(r, c)[1]] for c in range(n)] for r in range(n)]
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
            rename, out = {}, []
            for r, row in enumerate(image):
                for c, v in enumerate(row):
                    var = v.payload.single_variable()
                    if var is not None:
                        rename.setdefault(var, len(rename) + 1)
                        out.append(f"p{rename[var]}")
                    elif v.constant_value() == 0:
                        out.append("0")
                    else:
                        flip = (alpha * r + beta * c + gamma) % 2
                        out.append("+" if (v.constant_value() == 1) != flip else "-")
            forms.append(" ".join(out))
    return min(forms)


# "a" is a parameter cell, drawn as a fresh variable.
TOKENS = st.sampled_from([0, 1, -1, "a"])


def least_form(win):
    return blocks._least_form(blocks._cell_rows(win))


def poly_window(rows):
    def cell(v):
        if isinstance(v, str):
            return POLYNOMIALS.variable(int(v[1:]))
        return POLYNOMIALS.value(v)

    grid = [[cell(v) for v in row] for row in rows]
    return Window(Matrix.from_rows(POLYNOMIALS, grid), (0, 0))


class TestCanonicalForm:
    def test_dihedral_invariance(self, wildest_formal):
        win = extract_window(wildest_formal, 0, 0, 4, 4)
        base = least_form(win)
        rows = [[win.at(r, c) for c in range(4)] for r in range(4)]
        transforms = [
            [[rows[c][r] for c in range(4)] for r in range(4)],  # transpose
            [list(reversed(row)) for row in rows],  # mirror
            [row[:] for row in reversed(rows)],  # flip
            [[rows[3 - c][r] for c in range(4)] for r in range(4)],  # rotate
        ]
        for t_rows in transforms:
            other = Window(Matrix.from_rows(POLYNOMIALS, t_rows), (0, 0))
            assert least_form(other) == base

    def test_alternating_sign_invariance(self, wildest_formal):
        win = extract_window(wildest_formal, 0, 0, 5, 5)
        base = least_form(win)
        for alpha, beta, gamma in [(0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1)]:
            rows = []
            for r in range(5):
                row = []
                for c in range(5):
                    v = win.at(r, c)
                    if v.constant_value() in (1, -1) and (alpha * r + beta * c + gamma) % 2:
                        v = -v
                    row.append(v)
                rows.append(row)
            other = Window(Matrix.from_rows(POLYNOMIALS, rows), (0, 0))
            assert least_form(other) == base

    def test_parameter_relabel_invariance(self, wildest_formal):
        win = extract_window(wildest_formal, 0, 0, 5, 5)
        base = least_form(win)
        rows = []
        for r in range(5):
            row = []
            for c in range(5):
                v = win.at(r, c)
                k = v.payload.single_variable()
                row.append(POLYNOMIALS.variable(k + 40) if k else v)
            rows.append(row)
        other = Window(Matrix.from_rows(POLYNOMIALS, rows), (0, 0))
        assert least_form(other) == base

    def test_distinct_blocks_differ(self):
        a = poly_window([[0, 1], [1, 0]])
        b = poly_window([[0, 1], [0, 1]])
        assert least_form(a) != least_form(b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(TOKENS, min_size=n, max_size=n), min_size=n, max_size=n)),
        st.permutations(range(1, 41)))
    def test_matches_reference_on_token_grids(self, rows, labels):
        # No parameter repeats, as in every window of a formal model.
        fresh = iter(labels)
        win = poly_window([[f"a{next(fresh)}" if v == "a" else v for v in row] for row in rows])
        assert least_form(win) == reference_form(win)

    def test_matches_reference_on_corner_windows(self, wildest_formal):
        for n in range(1, 17):
            for i0, j0 in [(0, k) for k in range(10)] + [(1, 1), (-3, 5), (7, -9)]:
                win = extract_window(wildest_formal, i0, j0, n, n)
                assert least_form(win) == reference_form(win), (n, i0, j0)
        for lattice in TORUS_INDEX:
            t = formal_patched(*lattice)
            for n in range(1, 9):
                for i0, j0 in [(0, 0), (1, 3), (-1, 2), (5, -7)]:
                    win = extract_window(t, i0, j0, n, n)
                    assert least_form(win) == reference_form(win), (lattice, n, i0, j0)

    def test_one_window_per_strip(self, monkeypatch):
        # One extract_window per _STRIP origins of a row, no wider than its
        # blocks need; the representatives are sliced from it.
        t, n = formal_patched(1, 1, 2500, 0), 5
        p, q, _ = blocks._torus_basis(t)
        calls = []
        monkeypatch.setattr(blocks, "extract_window", lambda t, i, j, h, w: calls.append(w) or extract_window(t, i, j, h, w))
        classes = enumerate_block_classes(t, n)
        assert sum(c.orbit_size for c in classes) == p * q
        assert len(calls) == p * -(-q // blocks._STRIP)
        assert max(calls) == n + blocks._STRIP - 1


class TestEnumeration:
    def test_class_counts(self, wildest_formal):
        for n, count in EXPECTED_CLASS_COUNTS.items():
            classes = enumerate_block_classes(wildest_formal, n)
            assert len(classes) == count, f"n={n}"
            assert sum(c.orbit_size for c in classes) == 10
            encodings = [c.encoding for c in classes]
            assert encodings == sorted(encodings)

    def test_n5_encodings(self, wildest_formal):
        classes = enumerate_block_classes(wildest_formal, 5)
        assert [(c.encoding, c.orbit_size) for c in classes] == N5_CLASSES

    @pytest.mark.parametrize("lattice", sorted(TORUS_INDEX), ids=lambda lattice: "-".join(map(str, lattice)))
    def test_complete_on_every_lattice(self, lattice):
        t = formal_patched(*lattice)
        m = t.lattice.m
        for n in range(1, 4):
            classes = enumerate_block_classes(t, n)
            every = {reference_form(extract_window(t, i, j, n, n))
                     for i in range(-2 * m, 2 * m) for j in range(-2 * m, 2 * m)}
            assert {c.encoding for c in classes} == every, n
            assert sum(c.orbit_size for c in classes) == TORUS_INDEX[lattice]

    def test_representatives_match_encoding(self, wildest_formal):
        for c in enumerate_block_classes(wildest_formal, 4):
            assert reference_form(c.representative) == c.encoding
            assert c.representative == extract_window(wildest_formal, *c.representative.origin, 4, 4)

    def test_deterministic(self, wildest_formal):
        a = enumerate_block_classes(wildest_formal, 5)
        b = enumerate_block_classes(wildest_formal, 5)
        assert [c.encoding for c in a] == [c.encoding for c in b]

    def test_size_validation(self, wildest_formal):
        for n in (0, 49):
            with pytest.raises(ValidationError, match=f"block size must be in 1..48, got {n}$"):
                enumerate_block_classes(wildest_formal, n)

    def test_requires_formal_patched(self, wildest, unit):
        with pytest.raises(StructuralError):
            enumerate_block_classes(wildest, 3)
        with pytest.raises(StructuralError):
            enumerate_block_classes(unit, 3)


class TestRankDeficiency:
    def test_symbolic_values(self, wildest_formal):
        for n, expected in EXPECTED_DEFICIENCIES.items():
            report = rank_deficiency_report(wildest_formal, n, mode="symbolic")
            got = sorted(e.deficiency for e in report.entries)
            assert got == expected, f"n={n}"
            assert all(e.method == "symbolic" for e in report.entries)

    def test_sharpness_witness(self, wildest_formal):
        report = rank_deficiency_report(wildest_formal, 5, mode="symbolic")
        assert max(e.deficiency for e in report.entries) == 2

    def test_probe_bounds_symbolic(self, wildest_formal):
        sym = rank_deficiency_report(wildest_formal, 5, mode="both", seed=3)
        by_class = {}
        for e in sym.entries:
            by_class.setdefault(e.block_class.encoding, {})[e.method] = e.deficiency
        for methods in by_class.values():
            assert methods["evaluation-bound"] >= methods["symbolic"]

    def test_probe_seed_determinism(self, wildest_formal):
        a = rank_deficiency_report(wildest_formal, 6, mode="probe", seed=9)
        b = rank_deficiency_report(wildest_formal, 6, mode="probe", seed=9)
        assert [e.deficiency for e in a.entries] == [e.deficiency for e in b.entries]

    def test_probe_large_block(self, wildest_formal):
        report = rank_deficiency_report(wildest_formal, 20, mode="probe", seed=0)
        assert report.entries
        assert all(e.deficiency <= 2 for e in report.entries)

    def test_symbolic_guard(self, wildest_formal):
        report = rank_deficiency_report(wildest_formal, 10, mode="symbolic")
        assert sorted(e.deficiency for e in report.entries) == [0, 0, 0]
        for n in (0, 49):
            with pytest.raises(ValidationError, match=f"block size must be in 1..48, got {n}$"):
                rank_deficiency_report(wildest_formal, n, mode="symbolic")
        with pytest.raises(ValidationError):
            rank_deficiency_report(wildest_formal, 0, mode="symbolic", allow_large=True)
        report = rank_deficiency_report(wildest_formal, 49, mode="symbolic", allow_large=True)
        assert sorted(e.deficiency for e in report.entries) == [0, 0, 0, 0]

    def test_probe_guard(self, wildest_formal, monkeypatch):
        # The guard alone: no class is built on either side of the bound.
        monkeypatch.setattr(blocks, "_corner_classes", lambda t, n: ())
        assert rank_deficiency_report(wildest_formal, 48, mode="probe").entries == ()
        for mode in ("probe", "both"):
            with pytest.raises(ValidationError, match="block size must be in 1..48, got 49$"):
                rank_deficiency_report(wildest_formal, 49, mode=mode, allow_large=True)

    def test_certified_matches_bareiss(self, wildest_formal):
        for n in range(1, 15):
            report = rank_deficiency_report(wildest_formal, n, mode="symbolic", allow_large=True)
            for e in report.entries:
                assert e.deficiency == n - bareiss_rank(e.block_class.representative.matrix), f"n={n}"

    @pytest.mark.parametrize("lattice", [(1, 3, 6, 0), (5, 3, 6, 2), (2, 2, 4, 0), (0, 2, 4, 1), (1, 1, 4, 0)],
                             ids=lambda lattice: "-".join(map(str, lattice)))
    def test_mixed_rank_matches_bareiss(self, lattice):
        # A background must vanish on the lattice; 1 0 -1 0 does not on the
        # other four, so only the empty lattice 2j = 1 (mod 4) takes it.
        backgrounds = ["0 1 0 -1", "0 0 0 1"] + ["1 0 -1 0"] * (lattice == (0, 2, 4, 1))
        for background in backgrounds:
            t = formal_patched(*lattice, background)
            for n in range(1, 7):
                for e in rank_deficiency_report(t, n, mode="symbolic").entries:
                    win = e.block_class.representative
                    assert e.deficiency == n - bareiss_rank(win.matrix), (background, n, e.block_class.encoding)

    def test_certificates_close_without_bareiss(self, wildest_formal, monkeypatch):
        calls = []
        monkeypatch.setattr(blocks, "bareiss_rank", lambda m: calls.append(m) or bareiss_rank(m))
        for n in range(1, 49):
            report = rank_deficiency_report(wildest_formal, n, mode="symbolic")
            expected = {1: [0, 0, 1], 2: [0, 0]}.get(n, PERIOD_TEN[n % 10])
            assert sorted(e.deficiency for e in report.entries) == expected, f"n={n}"
        assert calls == []

    def test_n13_deficiencies(self, wildest_formal):
        report = rank_deficiency_report(wildest_formal, 13, mode="symbolic", allow_large=True)
        assert sorted(e.deficiency for e in report.entries) == [0, 1, 1, 1]

    def test_mode_validation(self, wildest_formal):
        with pytest.raises(ValidationError):
            rank_deficiency_report(wildest_formal, 4, mode="guess")
