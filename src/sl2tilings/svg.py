"""Deterministic SVG rendering of tiling windows.

One square per cell, colored by the wildness legend: wild cells are black,
parameters yellow, background +1 / -1 pale blue / pale red, tame zeros
white, any other nonzero grey.  Output is byte-identical across runs.
"""

from __future__ import annotations

from .errors import ValidationError, _Frozen
from .tiling import (
    CellColor,
    Patched,
    PeriodicBlock,
    TilingModel,
    Violation,
    Window,
    extract_window,
    verify_sl2,
    verify_window,
    wildness_report,
    window_colors,
)


def _escape(text: str) -> str:
    """XML character data: xml.sax.saxutils.escape without the urllib and
    email imports that module pulls in."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


COLOR_HEX = {
    CellColor.PLUS_ONE: "#cfe8ff",
    CellColor.MINUS_ONE: "#ffd6d6",
    CellColor.ZERO_TAME: "#ffffff",
    CellColor.ZERO_WILD: "#000000",
    CellColor.PARAMETER: "#ffe066",
    CellColor.OTHER_NONZERO: "#d9d9d9",
}

GRID_STROKE = "#888888"


class RenderOptions(_Frozen):
    __slots__ = ("cell_size", "labels")

    def __init__(self, cell_size: int = 24, labels: bool = False) -> None:
        if cell_size < 4:
            raise ValidationError(f"cell size must be at least 4, got {cell_size}")
        self._assign(cell_size, labels)


class UnverifiedModelError(ValueError):
    """Refusal to render a model that fails SL2 verification."""

    def __init__(self, violation: Violation):
        super().__init__(
            f"refusing to render: determinant {violation.value} at "
            f"({violation.i}, {violation.j}); use force to override"
        )
        self.violation = violation


def default_region(obj: TilingModel | Window) -> tuple[int, int, int, int]:
    """The window drawn when the caller does not pick one."""
    if isinstance(obj, Window):
        return (*obj.origin, obj.rows, obj.cols)
    if isinstance(obj, PeriodicBlock):
        return (0, 0, obj.h, obj.w)
    if isinstance(obj, Patched):
        return (0, 0, 20, 20)
    return (0, 0, 8, 8)


def render_svg(
    obj: TilingModel | Window,
    region: tuple[int, int, int, int] | None = None,
    options: RenderOptions | None = None,
    force: bool = False,
) -> str:
    opts = options or RenderOptions()
    if not force:
        fault = verify_window(obj) if isinstance(obj, Window) else verify_sl2(obj)
        if fault is not None:
            raise UnverifiedModelError(fault)
    if isinstance(obj, Window):
        h, w = obj.rows, obj.cols
        colors, labels = window_colors(obj), obj
    else:
        i0, j0, h, w = region if region is not None else default_region(obj)
        colors = wildness_report(obj, i0, j0, h, w).colors
        labels = extract_window(obj, i0, j0, h, w) if opts.labels else None
    size = opts.cell_size
    width = w * size
    height = h * size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    font = max(6, (size * 2) // 5)
    for r in range(h):
        for c in range(w):
            color = colors[r][c]
            parts.append(
                f'<rect x="{c * size}" y="{r * size}" width="{size}" height="{size}" '
                f'fill="{COLOR_HEX[color]}" stroke="{GRID_STROKE}" stroke-width="1"/>'
            )
            if opts.labels:
                text_fill = "#ffffff" if color is CellColor.ZERO_WILD else "#000000"
                parts.append(
                    f'<text x="{c * size + size // 2}" y="{r * size + size // 2}" '
                    f'font-family="monospace" font-size="{font}" fill="{text_fill}" '
                    f'text-anchor="middle" dominant-baseline="central">'
                    f"{_escape(str(labels.at(r, c)))}</text>"
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
