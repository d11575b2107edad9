"""The `sl2tiling v1` grid file format.

Layout::

    sl2tiling v1
    ring: Z | Z/<N> | Z[a]
    kind: periodic | window | patched
    rows: <h>
    cols: <w>
    origin: <i0> <j0>          (window kind)
    lattice: <u> <v> <m> <t>   (patched kind)
    params: formal | default=<d>[,<i>:<j>=<v>...]   (patched kind)
    <blank line>
    <h rows of w whitespace-separated tokens>

Lines starting with ``#`` are comments.  A token is SIGN? (INT ('*' VAR)? |
VAR) with VAR = ``a<digits>``; residues may be written with either sign as
long as their magnitude stays below the modulus, and are canonicalized into
[0, N) on parse.  For patched documents the grid holds the 1x4 background
rule table; the parameters live in the header.

Rule-based models are written as their equivalent 4x4 periodic block (the
format has no rule kind), so they reparse as a periodic model with the same
entries everywhere.  Polynomial entries must be single terms in one
variable; anything richer has no token form and is refused on write.
"""

from __future__ import annotations

import re

from .errors import StructuralError, ValidationError
from .matrices import Matrix
from .rings import (
    INTEGERS,
    POLYNOMIALS,
    ModularRing,
    PolynomialRing,
    RingSpec,
    RingValue,
)
from .tiling import (
    FormalParameters,
    NumericParameters,
    Patched,
    PeriodicBlock,
    RuleBased,
    SublatticeSpec,
    TilingModel,
    Window,
)

FORMAT_LINE = "sl2tiling v1"
# verify, audit and render hold every cell of a --window in memory, and the
# search DFS every cell of its block.
_WINDOW_CELLS = 250_000
# A patched model's wild torus, which verify, density and every report read,
# has at most 4m cells: this keeps it within the cells of a --window.
_MAX_LATTICE_MODULUS = _WINDOW_CELLS // 4

_TOKEN_RE = re.compile(r"^([+-]?)(?:(\d+)(?:\*a(\d+))?|a(\d+))$")
_RING_RE = re.compile(r"^(Z)$|^Z/(\d+)$|^(Z\[a\])$")


class GridParseError(ValueError):
    """A malformed grid document, with 1-based position information."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _parse_ring(text: str, line: int) -> RingSpec:
    m = _RING_RE.match(text)
    if not m:
        raise GridParseError(f"unknown ring {text!r}", line)
    if m.group(1):
        return INTEGERS
    if m.group(3):
        return POLYNOMIALS
    n = int(m.group(2))
    if n < 2:
        raise GridParseError(f"modulus must be at least 2, got {n}", line)
    return ModularRing(n)


def _parse_token(ring: RingSpec, token: str, line: int, col: int) -> RingValue:
    m = _TOKEN_RE.match(token)
    if not m:
        raise GridParseError(f"bad token {token!r}", line, col)
    sign = -1 if m.group(1) == "-" else 1
    if m.group(4) is not None or m.group(3) is not None:
        if not isinstance(ring, PolynomialRing):
            raise GridParseError(f"variable token {token!r} outside ring Z[a]", line, col)
        index = int(m.group(4) if m.group(4) is not None else m.group(3))
        if index < 1:
            raise GridParseError(f"variable index must be positive in {token!r}", line, col)
        coeff = sign * (int(m.group(2)) if m.group(2) is not None else 1)
        return ring.value(coeff) * ring.variable(index)
    value = sign * int(m.group(2))
    if isinstance(ring, ModularRing) and abs(value) >= ring.modulus:
        raise GridParseError(
            f"residue {value} out of range for modulus {ring.modulus}", line, col
        )
    return ring.value(value)


def _int_fields(text: str, count: int, label: str, line: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise GridParseError(f"{label} needs {count} integers, got {len(parts)}", line)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise GridParseError(f"{label} needs integers, got {text!r}", line) from None


def _parse_params(text: str, line: int) -> FormalParameters | NumericParameters:
    if text == "formal":
        return FormalParameters()
    default = None
    explicit = {}
    for item in text.split(","):
        item = item.strip()
        if "=" not in item:
            raise GridParseError(f"bad parameter entry {item!r}", line)
        key, _, raw = item.partition("=")
        try:
            value = int(raw)
        except ValueError:
            raise GridParseError(f"bad parameter value {raw!r}", line) from None
        if key == "default":
            if default is not None:
                raise GridParseError("duplicate default parameter value", line)
            default = value
        else:
            if ":" not in key:
                raise GridParseError(f"bad parameter position {key!r}", line)
            si, _, sj = key.partition(":")
            try:
                pos = (int(si), int(sj))
            except ValueError:
                raise GridParseError(f"bad parameter position {key!r}", line) from None
            if pos in explicit:
                raise GridParseError(f"duplicate parameter position {key!r}", line)
            explicit[pos] = value
    if default is None:
        raise GridParseError("numeric parameters need a default=<value> entry", line)
    try:
        return NumericParameters.from_mapping(explicit, default)
    except ValidationError as exc:
        raise GridParseError(str(exc), line) from None


def parse_grid(text: str) -> TilingModel | Window:
    lines = text.splitlines()
    pos = 0

    def next_line(skip_blank: bool):
        nonlocal pos
        while pos < len(lines):
            raw = lines[pos]
            pos += 1
            if raw.lstrip().startswith("#"):
                continue
            if not raw.strip() and skip_blank:
                continue
            return raw, pos
        return None, pos

    first, lineno = next_line(skip_blank=True)
    if first is None or first.strip() != FORMAT_LINE:
        raise GridParseError(f"expected {FORMAT_LINE!r} header", lineno or 1)

    headers: dict[str, tuple[str, int]] = {}
    while True:
        raw, lineno = next_line(skip_blank=False)
        if raw is None:
            raise GridParseError("missing blank line before the grid", lineno)
        if not raw.strip():
            break
        if ":" not in raw:
            raise GridParseError(f"malformed header line {raw!r}", lineno)
        key, _, value = raw.partition(":")
        key = key.strip()
        if key in headers:
            raise GridParseError(f"duplicate header {key!r}", lineno)
        headers[key] = (value.strip(), lineno)

    def take(key: str, required: bool = True) -> tuple[str, int] | None:
        if key not in headers:
            if required:
                raise GridParseError(f"missing header {key!r}", lineno)
            return None
        return headers.pop(key)

    ring_text, ring_line = take("ring")
    ring = _parse_ring(ring_text, ring_line)
    kind_text, kind_line = take("kind")
    if kind_text not in ("periodic", "window", "patched"):
        raise GridParseError(f"unknown kind {kind_text!r}", kind_line)
    rows_text, rows_line = take("rows")
    cols_text, cols_line = take("cols")
    h = _int_fields(rows_text, 1, "rows", rows_line)[0]
    w = _int_fields(cols_text, 1, "cols", cols_line)[0]
    if h < 1 or w < 1:
        raise GridParseError(f"grid shape must be positive, got {h}x{w}", rows_line)

    origin = (0, 0)
    lattice = None
    params = None
    if kind_text == "window":
        got = take("origin", required=False)
        if got is not None:
            i0, j0 = _int_fields(got[0], 2, "origin", got[1])
            origin = (i0, j0)
    elif kind_text == "patched":
        lat_text, lat_line = take("lattice")
        u, v, m, t = _int_fields(lat_text, 4, "lattice", lat_line)
        try:
            lattice = SublatticeSpec(u, v, m, t)
        except ValidationError as exc:
            raise GridParseError(str(exc), lat_line) from None
        if m > _MAX_LATTICE_MODULUS:
            raise GridParseError(
                f"lattice modulus {m} is over the bound of {_MAX_LATTICE_MODULUS}", lat_line
            )
        par_text, par_line = take("params")
        params = _parse_params(par_text, par_line)
        if h != 1 or w != 4:
            raise GridParseError(
                f"patched documents hold the 1x4 background table, got {h}x{w}", rows_line
            )
    if headers:
        stray = sorted(headers)[0]
        raise GridParseError(f"unexpected header {stray!r}", headers[stray][1])

    grid_rows = []
    for r in range(h):
        raw, lineno = next_line(skip_blank=False)
        if raw is None or not raw.strip():
            raise GridParseError(f"expected grid row {r + 1} of {h}", lineno)
        matches = list(re.finditer(r"\S+", raw))
        if len(matches) != w:
            col = matches[w].start() + 1 if len(matches) > w else len(raw) + 1
            raise GridParseError(
                f"row {r + 1} has {len(matches)} tokens, expected {w}", lineno, col
            )
        grid_rows.append(
            [_parse_token(ring, m.group(), lineno, m.start() + 1) for m in matches]
        )
    raw, lineno = next_line(skip_blank=True)
    if raw is not None:
        raise GridParseError(f"unexpected content after the grid: {raw.strip()!r}", lineno)

    matrix = Matrix.from_rows(ring, grid_rows)
    if kind_text == "periodic":
        return PeriodicBlock(ring, matrix)
    if kind_text == "window":
        return Window(matrix, origin)
    base = RuleBased(ring, tuple(grid_rows[0]))
    return Patched(ring, base, lattice, params)


def _format_value(v: RingValue, signed: bool) -> str:
    if isinstance(v.spec, PolynomialRing):
        # A constant or a multiple of one variable prints as its token.
        if len(v.payload) > 1:
            raise StructuralError(f"no token form for the multi-term polynomial {v}")
        if v.payload and sum(e for _, e in v.payload[0][0]) > 1:
            raise StructuralError(f"no token form for the nonlinear term {v}")
        return str(v)
    value = v.payload
    if signed and isinstance(v.spec, ModularRing) and value > v.spec.modulus // 2:
        value -= v.spec.modulus
    return str(value)


def write_grid(obj: TilingModel | Window, signed: bool = False) -> str:
    """Canonical serialization; ``signed`` renders residues above N/2 as
    negatives for visual comparison, at the cost of canonicality."""
    kind, headers = "periodic", []
    if isinstance(obj, RuleBased):
        matrix = Matrix.from_rows(obj.ring, [[obj.entry(i, j) for j in range(4)] for i in range(4)])
    elif isinstance(obj, PeriodicBlock):
        matrix = obj.block
    elif isinstance(obj, Window):
        kind, matrix = "window", obj.matrix
        headers.append(f"origin: {obj.origin[0]} {obj.origin[1]}")
    elif isinstance(obj, Patched):
        kind, matrix = "patched", Matrix.from_rows(obj.ring, [obj.base.table])
        lat = obj.lattice
        headers.append(f"lattice: {lat.u} {lat.v} {lat.m} {lat.t}")
        if isinstance(obj.parameters, FormalParameters):
            headers.append("params: formal")
        else:
            parts = [f"default={obj.parameters.default}"]
            for (i, j), value in sorted(obj.parameters.values):
                parts.append(f"{i}:{j}={value}")
            headers.append("params: " + ",".join(parts))
    else:
        raise StructuralError(f"cannot serialize {type(obj).__name__}")
    lines = [FORMAT_LINE, f"ring: {matrix.spec}", f"kind: {kind}",
             f"rows: {matrix.rows}", f"cols: {matrix.cols}", *headers, ""]
    lines.extend(
        " ".join(_format_value(v, signed) for v in matrix.row(i)) for i in range(matrix.rows)
    )
    return "\n".join(lines) + "\n"
