import random

import pytest

from sl2tilings import (
    FormalParameters,
    GridParseError,
    INTEGERS,
    Matrix,
    ModularRing,
    NumericParameters,
    POLYNOMIALS,
    Patched,
    PeriodicBlock,
    StructuralError,
    Window,
    extract_window,
    parse_grid,
    wildest_integer_tiling,
    write_grid,
)


class TestRoundTrip:
    def test_periodic_structural(self, z36, pqrs3243):
        for t in (z36, pqrs3243):
            assert parse_grid(write_grid(t)) == t

    def test_periodic_signed_tokens(self, pqrs3243):
        doc = write_grid(pqrs3243, signed=True)
        assert "-4 -3" in doc
        assert parse_grid(doc) == pqrs3243

    def test_rule_based_as_periodic(self, unit):
        rt = parse_grid(write_grid(unit))
        assert isinstance(rt, PeriodicBlock)
        for i in range(-5, 5):
            for j in range(-5, 5):
                assert rt.entry(i, j) == unit.entry(i, j)

    def test_patched_formal(self, wildest_formal):
        assert parse_grid(write_grid(wildest_formal)) == wildest_formal

    def test_patched_numeric(self):
        t = wildest_integer_tiling(
            NumericParameters.from_mapping({(0, 6): 5, (1, 3): -2}, 7))
        doc = write_grid(t)
        assert "params: default=7,0:6=5,1:3=-2" in doc
        assert parse_grid(doc) == t

    def test_window_with_variables(self, wildest_formal):
        win = extract_window(wildest_formal, 0, 3, 5, 5)
        assert parse_grid(write_grid(win)) == win

    def test_polynomial_tokens(self):
        a1, a2, c = POLYNOMIALS.variable(1), POLYNOMIALS.variable(2), POLYNOMIALS.value
        win = Window(Matrix.from_rows(POLYNOMIALS, [[c(0), c(5), c(-3), a2, -a2, c(7) * a1, c(-4) * a1]]), (0, 0))
        doc = write_grid(win)
        assert doc.endswith("\n\n0 5 -3 a2 -a2 7*a1 -4*a1\n")
        assert parse_grid(doc) == win
        for value, message in ((a1 - a2, "multi-term polynomial a1 - a2"),
                               (c(2) * a1 * a2, "nonlinear term 2\\*a1\\*a2"), (a1 * a1, "nonlinear term a1\\^2")):
            with pytest.raises(StructuralError, match=f"^no token form for the {message}$"):
                write_grid(Window(Matrix.from_rows(POLYNOMIALS, [[value]]), (0, 0)))

    def test_integer_window(self, wildest):
        win = extract_window(wildest, -2, -2, 4, 6)
        rt = parse_grid(write_grid(win))
        assert rt == win
        assert rt.origin == (-2, -2)


class TestParsing:
    def test_comments_and_header_order(self):
        doc = (
            "# generated for a regression test\n"
            "sl2tiling v1\n"
            "cols: 2\n"
            "ring: Z/5\n"
            "# still fine here\n"
            "rows: 2\n"
            "kind: periodic\n"
            "\n"
            "1 2\n"
            "# grid comments too\n"
            "3 1\n"
        )
        t = parse_grid(doc)
        assert isinstance(t, PeriodicBlock)
        assert t.block.to_int_rows() == [[1, 2], [3, 1]]

    def test_residues_canonicalized(self):
        doc = "sl2tiling v1\nring: Z/7\nkind: periodic\nrows: 1\ncols: 2\n\n-3 6\n"
        t = parse_grid(doc)
        assert t.block.to_int_rows() == [[4, 6]]

    def test_default_window_origin(self):
        doc = "sl2tiling v1\nring: Z\nkind: window\nrows: 1\ncols: 1\n\n7\n"
        win = parse_grid(doc)
        assert isinstance(win, Window)
        assert win.origin == (0, 0)

    def test_blank_lines_around_the_document(self):
        doc = "sl2tiling v1\nring: Z/7\nkind: periodic\nrows: 1\ncols: 2\n\n-3 6\n"
        assert parse_grid("\n  \n" + doc + "\n\n") == parse_grid(doc)

    def test_variable_tokens(self):
        doc = "sl2tiling v1\nring: Z[a]\nkind: window\nrows: 1\ncols: 3\n\na3 -a1 2*a2\n"
        win = parse_grid(doc)
        assert win.at(0, 0) == POLYNOMIALS.variable(3)
        assert win.at(0, 1) == -POLYNOMIALS.variable(1)
        assert win.at(0, 2) == POLYNOMIALS.variable(2) * POLYNOMIALS.value(2)


class TestParseErrors:
    def expect_error(self, doc, line=None):
        with pytest.raises(GridParseError) as exc:
            parse_grid(doc)
        err = exc.value
        assert err.line >= 1 and err.col >= 1
        if line is not None:
            assert err.line == line
        assert "line" in str(err) and "col" in str(err)
        return err

    def test_bad_format_line(self):
        self.expect_error("sl2tiling v2\nring: Z\n", line=1)

    def test_unknown_ring(self):
        self.expect_error("sl2tiling v1\nring: Q\nkind: window\nrows: 1\ncols: 1\n\n1\n", line=2)

    def test_bad_token(self):
        doc = "sl2tiling v1\nring: Z\nkind: window\nrows: 1\ncols: 2\n\n1 x7\n"
        err = self.expect_error(doc, line=7)
        assert err.col == 3

    def test_residue_out_of_range(self):
        err = self.expect_error(
            "sl2tiling v1\nring: Z/7\nkind: periodic\nrows: 1\ncols: 2\n\n-3 10\n", line=7)
        assert err.col == 4

    def test_variable_needs_polynomial_ring(self):
        self.expect_error("sl2tiling v1\nring: Z\nkind: window\nrows: 1\ncols: 1\n\na1\n", line=7)

    def test_row_length_mismatch(self):
        self.expect_error(
            "sl2tiling v1\nring: Z\nkind: periodic\nrows: 2\ncols: 2\n\n1 2\n3\n", line=8)

    def test_missing_header(self):
        self.expect_error("sl2tiling v1\nring: Z\nkind: periodic\nrows: 2\n\n1 2\n3 4\n")

    def test_unexpected_header(self):
        self.expect_error(
            "sl2tiling v1\nring: Z\nkind: window\nrows: 1\ncols: 1\nlattice: 3 1 10 6\n\n1\n")

    def test_missing_grid_rows(self):
        self.expect_error("sl2tiling v1\nring: Z\nkind: periodic\nrows: 2\ncols: 2\n\n1 2\n")

    def test_trailing_garbage(self):
        self.expect_error(
            "sl2tiling v1\nring: Z\nkind: periodic\nrows: 1\ncols: 1\n\n1\n2\n")

    def test_lattice_modulus_bound(self):
        # Refused on the lattice line before any Patched is built, so even
        # m = 10^12 returns at once; 62,500 = 250,000 / 4 is still accepted.
        doc = ("sl2tiling v1\nring: Z\nkind: patched\nrows: 1\ncols: 4\n"
               "lattice: 1 1 {} 0\nparams: default=1\n\n0 1 0 -1\n")
        for m in (10**12, 62_501):
            err = self.expect_error(doc.format(m), line=6)
            assert str(err) == f"line 6, col 1: lattice modulus {m} is over the bound of 62500"
        assert parse_grid(doc.format(62_500)).lattice.m == 62_500

    def test_patched_grid_must_be_rule_table(self):
        self.expect_error(
            "sl2tiling v1\nring: Z[a]\nkind: patched\nrows: 2\ncols: 2\n"
            "lattice: 3 1 10 6\nparams: formal\n\n0 1\n0 -1\n")


class TestWriter:
    def test_deterministic(self, z36, wildest_formal):
        for t in (z36, wildest_formal):
            assert write_grid(t) == write_grid(t)

    def test_trailing_newline(self, z36):
        assert write_grid(z36).endswith("\n")

    def test_multi_term_polynomial_rejected(self):
        a1 = POLYNOMIALS.variable(1)
        win = Window(Matrix.from_rows(POLYNOMIALS, [[a1 + POLYNOMIALS.one()]]), (0, 0))
        with pytest.raises(StructuralError):
            write_grid(win)

    def test_signed_range(self):
        ring = ModularRing(10)
        t = PeriodicBlock(ring, Matrix.from_ints(ring, [[6, 5], [9, 1]]))
        doc = write_grid(t, signed=True)
        grid_line = doc.strip().splitlines()[-2:]
        assert grid_line == ["-4 5", "-1 1"]


class TestRandomizedRoundTrip:
    def test_many_documents(self, wildest_formal, z36):
        rng = random.Random(7)
        for _ in range(30):
            choice = rng.randrange(3)
            if choice == 0:
                n = rng.randint(2, 9)
                ring = ModularRing(n)
                rows = [[rng.randrange(n) for _ in range(rng.randint(1, 5))]
                        for _ in range(rng.randint(1, 5))]
                rows = [r[: len(rows[0])] for r in rows]
                width = len(rows[0])
                rows = [(r + [0] * width)[:width] for r in rows]
                obj = PeriodicBlock(ring, Matrix.from_ints(ring, rows))
            elif choice == 1:
                i0, j0 = rng.randint(-20, 20), rng.randint(-20, 20)
                obj = extract_window(wildest_formal, i0, j0,
                                     rng.randint(1, 6), rng.randint(1, 6))
            else:
                i0, j0 = rng.randint(-8, 8), rng.randint(-8, 8)
                obj = extract_window(z36, i0, j0, rng.randint(1, 5), rng.randint(1, 5))
            assert parse_grid(write_grid(obj)) == obj
            assert parse_grid(write_grid(obj, signed=True)) == obj
