import re

import pytest

from sl2tilings import (
    INTEGERS,
    Matrix,
    PeriodicBlock,
    RenderOptions,
    RingValue,
    UnverifiedModelError,
    ValidationError,
    Window,
    default_region,
    extract_window,
    render_svg,
    z36_tiling,
)

BLACK = "#000000"
YELLOW = "#ffe066"
BLUE = "#cfe8ff"
RED = "#ffd6d6"
WHITE = "#ffffff"


def rect_count(svg, color):
    return len(re.findall(rf'<rect[^>]*fill="{color}"', svg))


class TestRendering:
    def test_byte_determinism(self, wildest, z36):
        for t in (wildest, z36):
            assert render_svg(t) == render_svg(t)

    def test_unit_render(self, unit):
        svg = render_svg(unit)
        # default 8x8 region: half zeros, quarter ones, quarter minus ones
        assert rect_count(svg, BLACK) == 0
        assert rect_count(svg, BLUE) == 16
        assert rect_count(svg, RED) == 16
        assert rect_count(svg, WHITE) == 32

    def test_wildest_render_counts(self, wildest):
        svg = render_svg(wildest)
        assert rect_count(svg, BLACK) == 160
        assert rect_count(svg, YELLOW) == 40

    def test_z36_all_black(self, z36):
        svg = render_svg(z36)
        assert rect_count(svg, BLACK) == 16

    def test_document_shape(self, z36):
        svg = render_svg(z36, options=RenderOptions(cell_size=10))
        assert svg.startswith("<svg xmlns=")
        assert 'width="40"' in svg and 'height="40"' in svg
        assert 'viewBox="0 0 40 40"' in svg
        assert svg.endswith("\n")

    def test_region_override(self, wildest):
        svg = render_svg(wildest, region=(0, 0, 10, 10))
        assert rect_count(svg, BLACK) == 40

    def test_labels(self, z36):
        plain = render_svg(z36)
        labeled = render_svg(z36, options=RenderOptions(labels=True))
        assert "<text" not in plain
        assert labeled.count("<text") == 16
        # black cells carry white label text
        assert re.search(rf'<text[^>]*fill="{WHITE}"', labeled)

    def test_formal_parameters_render(self, wildest_formal):
        svg = render_svg(wildest_formal, region=(0, 0, 10, 10),
                         options=RenderOptions(labels=True))
        assert rect_count(svg, YELLOW) == 10
        assert ">a1<" in svg

    def test_labels_built_only_when_drawn(self, wildest_formal, monkeypatch):
        def refuse(value):
            raise AssertionError("label text built")

        monkeypatch.setattr(RingValue, "__str__", refuse)
        win = extract_window(wildest_formal, 0, 0, 6, 6)
        for obj in (wildest_formal, win):
            assert render_svg(obj, region=(0, 0, 10, 10)).endswith("</svg>\n")
            with pytest.raises(AssertionError, match="label text built"):
                render_svg(obj, region=(0, 0, 10, 10), options=RenderOptions(labels=True))

    def test_model_labels_from_one_window(self, catalog, wildest_formal, monkeypatch):
        # Labels come from one extracted window, cell for cell the entries.
        regions = {"unit": (-3, 5, 4, 7), "z36": (2, -5, 6, 9), "wildest": (-7, 3, 9, 12)}
        cases = [(catalog[name], region) for name, region in regions.items()]
        cases += [(wildest_formal, (-12, -4, 8, 11)), (wildest_formal, (700, -900, 5, 13))]
        expected = [[str(t.entry(i, j)) for i in range(i0, i0 + h) for j in range(j0, j0 + w)]
                    for t, (i0, j0, h, w) in cases]
        for (t, region), labels in zip(cases, expected):
            with monkeypatch.context() as patch:
                # A patched model's constructor reads its background's entry.
                patch.setattr(type(t), "entry", None)
                svg = render_svg(t, region=region, options=RenderOptions(labels=True), force=True)
            assert re.findall(r">([^<>]*)</text>", svg) == labels

    def test_cell_size_validation(self):
        with pytest.raises(ValidationError):
            RenderOptions(cell_size=3)


class TestVerificationGate:
    def broken_model(self):
        ring = z36_tiling().ring
        rows = z36_tiling().block.to_int_rows()
        rows[0][0] = 4
        return PeriodicBlock(ring, Matrix.from_ints(ring, rows))

    def test_refusal(self):
        with pytest.raises(UnverifiedModelError) as exc:
            render_svg(self.broken_model())
        assert "refusing to render" in str(exc.value)
        assert exc.value.violation.i == 0
        # Verification comes before any region work: an empty region is not
        # looked at until force skips the check.
        with pytest.raises(UnverifiedModelError):
            render_svg(self.broken_model(), region=(0, 0, 0, 5))
        with pytest.raises(ValidationError):
            render_svg(self.broken_model(), region=(0, 0, 0, 5), force=True)

    def test_force_override(self):
        svg = render_svg(self.broken_model(), force=True)
        assert svg.startswith("<svg")


class TestWindowRender:
    def test_window_boundary_never_wild(self, wildest):
        from sl2tilings import extract_window

        win = extract_window(wildest, 0, 0, 6, 6)
        svg = render_svg(win)
        # interior cells can be classified; the 20 boundary cells cannot
        interior_black = rect_count(svg, BLACK)
        assert 0 < interior_black <= 16

    def test_default_regions(self, unit, wildest, z36):
        assert default_region(unit) == (0, 0, 8, 8)
        assert default_region(wildest) == (0, 0, 20, 20)
        assert default_region(z36) == (0, 0, 4, 4)
        win = Window(Matrix.from_ints(INTEGERS, [[1, 2], [3, 4]]), (5, 6))
        assert default_region(win) == (5, 6, 2, 2)
