"""Field serialization: VXF1 binary dumps and plot-ready CSV.

VXF1 layout (little-endian throughout):

    offset  size  field
    0       4     magic "VXF1"
    4       4     version (u32, = 1)
    8       4     n (u32, samples per axis)
    12      8     extent (f64)
    20      8     time (f64)
    28      1     kind (u8: 0 = complex rho12, 1 = real rho22)
    29      ...   payload, row-major f64: (re, im) pairs for kind 0,
                  singles for kind 1; length n*n*(2 or 1)*8 bytes

read(write(f)) is bit-identical.  One writer streams every CSV file, tables
and field dumps (x, y, re, im or x, y, value) alike, a block of rows at a
time, hashed as written: labels verbatim, numbers exactly as '%.17g' % v (a
round-trip), by a numpy kernel that certifies them or falls back to '%'.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

MAGIC = b"VXF1"
VERSION = 1
KIND_COMPLEX = 0
KIND_REAL = 1

_HEADER = struct.Struct("<4sIIddB")


class FieldFormatError(ValueError):
    """Malformed field dump; .code distinguishes the failure."""

    BAD_MAGIC = "bad_magic"
    BAD_VERSION = "bad_version"
    TRUNCATED = "truncated"
    SIZE_MISMATCH = "size_mismatch"
    BAD_HEADER = "bad_header"
    NOT_NUMERIC = "not_numeric"

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


@dataclass
class FieldDump:
    """A deserialized field dump: values plus its grid and time tag."""

    values: np.ndarray
    grid: GridSpec
    time: float
    kind: int


def write_field(path, values: np.ndarray, grid: GridSpec, time: float) -> None:
    """Write a VXF1 dump; kind is inferred from the value dtype.  The payload
    is written from the contiguous little-endian array itself, through a
    byte view: an array already in that layout is not copied."""
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"values shape {values.shape} does not match grid n={grid.n}")
    kind = KIND_COMPLEX if np.iscomplexobj(values) else KIND_REAL
    payload = np.ascontiguousarray(values, dtype="<c16" if kind == KIND_COMPLEX else "<f8")
    header = _HEADER.pack(MAGIC, VERSION, grid.n, grid.extent, time, kind)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def read_field(path) -> FieldDump:
    """Read a VXF1 dump; the inverse of write_field, bit-exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FieldFormatError("file shorter than the VXF header", FieldFormatError.TRUNCATED)
    magic, version, n, extent, time, kind = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FieldFormatError(
            f"not a VXF file (magic {magic!r})", FieldFormatError.BAD_MAGIC
        )
    if version != VERSION:
        raise FieldFormatError(
            f"unsupported VXF version {version}", FieldFormatError.BAD_VERSION
        )
    if kind not in (KIND_COMPLEX, KIND_REAL):
        raise FieldFormatError(f"unknown field kind {kind}", FieldFormatError.BAD_HEADER)
    words = 2 if kind == KIND_COMPLEX else 1
    expected = n * n * words * 8
    payload = blob[_HEADER.size:]
    if len(payload) < expected:
        raise FieldFormatError(
            f"truncated payload: {len(payload)} bytes, expected {expected}",
            FieldFormatError.TRUNCATED,
        )
    if len(payload) > expected:
        raise FieldFormatError(
            f"payload size mismatch: {len(payload)} bytes, expected {expected}",
            FieldFormatError.SIZE_MISMATCH,
        )
    dtype = "<c16" if kind == KIND_COMPLEX else "<f8"
    values = np.frombuffer(payload, dtype=dtype).reshape(n, n).copy()
    try:
        grid = GridSpec(n=int(n), extent=float(extent))
    except ValueError as exc:
        raise FieldFormatError(f"invalid grid in header: {exc}", FieldFormatError.BAD_HEADER)
    if not np.isfinite(time):
        raise FieldFormatError(f"non-finite time in header: {time}", FieldFormatError.BAD_HEADER)
    return FieldDump(values=values, grid=grid, time=float(time), kind=int(kind))


def write_field_csv(path, values: np.ndarray, grid: GridSpec, header_lines=()) -> tuple[str, int]:
    """CSV dump with columns x,y,re,im (complex) or x,y,value (real), row-major;
    each coordinate is formatted once and the values are read in place.
    Returns the SHA-256 hex digest and size of the file."""
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"values shape {values.shape} does not match grid n={grid.n}")
    coords = [format(c, ".17g") for c in grid.coords().tolist()]
    flat = values.reshape(-1)
    names, cols = ((("x", "y", "re", "im"), [flat.real, flat.imag]) if np.iscomplexobj(values)
                   else (("x", "y", "value"), [flat]))
    return _write_rows(path, names, [(coords, grid.n), (coords, 1), *cols], flat.size, header_lines)


def write_table_csv(path, columns: dict, header_lines=()) -> tuple[str, int]:
    """A table of equal-length columns: a label column (its first cell a
    str, such as a model name) is written verbatim, any other column at 17
    significant digits.  Returns the SHA-256 hex digest and size of the file."""
    cols = list(columns.values())
    length = len(cols[0]) if cols else 0
    if any(len(c) != length for c in cols):
        raise ValueError("all columns must have equal length")
    cols = [(list(c), 1) if length and isinstance(c[0], str) else np.asarray(c, dtype=np.float64)
            for c in cols]
    return _write_rows(path, columns, cols, length, header_lines)


_KEXP = 281    # the kernel's tables span decimal exponents -_KEXP .. _KEXP
_SLOT = 25     # a number's cell: the longest '%.17g' text (24 bytes) and its separator
_BLOCK = 2048  # numbers formatted per kernel call


def _write_rows(path, names, columns, rows: int, header_lines) -> tuple[str, int]:
    """The one CSV writer: `# ` header lines, column names, then `rows` rows,
    formatted a block at a time into NUL-padded cells, compacted and streamed.
    A column is numbers (a float array, read in place) or (labels, repeat), row
    i reading labels[i // repeat % len(labels)].  Returns (sha256 hex, size)."""
    seps = [","] * (len(columns) - 1) + ["\n"]
    numbers = [i for i, col in enumerate(columns) if isinstance(col, np.ndarray)]
    cells = {i: _label_cells(col[0], sep) for i, (col, sep) in enumerate(zip(columns, seps))
             if i not in numbers}
    ends = np.cumsum([cells[i].shape[1] if i in cells else _SLOT for i in range(len(columns))])
    step = max(_BLOCK // max(len(numbers), 1), 1)
    buf = np.empty((min(step, rows), ends[-1] if columns else 0), np.uint8)
    head = ("".join(f"# {line}\n" for line in header_lines) + ",".join(names) + "\n").encode()
    digest, size = hashlib.sha256(head), len(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, rows, step):
            block = buf[:min(step, rows - start)]
            index = np.arange(start, start + len(block))
            for i, labels in cells.items():
                block[:, ends[i] - labels.shape[1]:ends[i]] = labels[index // columns[i][1] % len(labels)]
            if numbers:
                text = _format_numbers(np.stack([columns[i][start:start + len(block)] for i in numbers],
                                                axis=1).astype(np.float64, copy=False),
                                       np.array([ord(seps[i]) for i in numbers], np.uint8))
                for j, i in enumerate(numbers):
                    block[:, ends[i] - _SLOT:ends[i]] = text[:, j]
            chunk = block[block != 0]
            fh.write(chunk)
            digest.update(chunk)
            size += chunk.size
    return digest.hexdigest(), size


def _label_cells(labels, sep: str) -> np.ndarray:
    """Each label and its separator, encoded once: NUL-padded rows of uint8."""
    cells = [f"{label}{sep}".encode() for label in labels]
    width = max(map(len, cells))
    return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells), np.uint8).reshape(-1, width)


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _templates() -> np.ndarray:
    """Source byte of each output byte of every layout, by row (neg 23 + kind) 17 + nd - 1,
    from _format_numbers' 28: d1..d16, d0, '.0-e', exponent sign, separator, NUL, |k| in 4
    digits.  kind 0..20 is fixed notation, exponent kind - 4; 21, 22 have 2, 3 exponent
    digits; nd digits shown.  A cell is '-' if neg, the first `shown` bytes of its kind's
    17-digit mantissa, its kind's exponent, the separator, then NUL padding (23)."""
    digits = [16, *range(16)]
    mantissa = np.full((23, 22), 23, np.uint8)
    exponent = np.full((23, 5), 23, np.uint8)
    for kind in range(23):
        if kind < 4:  # 0.000ddd
            cell = [18, 17] + [18] * (3 - kind) + digits
        elif kind < 21:  # ddd.ddd: the integer digits k + 1 = kind - 3 are all written
            cell = digits[:kind - 3] + [17] + digits[kind - 3:]
        else:  # d.ddde+XX
            cell = [16, 17] + digits[1:]
            exponent[kind, :kind - 17] = [20, 21] + [25, 26, 27][22 - kind:]
        mantissa[kind, :len(cell)] = cell
    kind, nd = np.divmod(np.arange(23 * 17), 17)
    nd += 1
    # past 0.000, the digits before the point are all shown, the point only if a digit follows
    before = np.where(kind < 21, kind - 3, 1)
    shown = np.where(kind < 4, 5 - kind + nd, np.where(nd > before, nd + 1, before))
    ends = shown + np.where(kind >= 21, kind - 17, 0)
    j = np.arange(_SLOT - 1)
    cells = np.where(j < shown[:, None], mantissa[kind[:, None], np.minimum(j, 21)],
                     np.where(j < ends[:, None], exponent[kind[:, None], np.clip(j - shown[:, None], 0, 4)],
                              np.where(j == ends[:, None], np.uint8(22), np.uint8(23))))
    # every positive cell leaves its last byte NUL, so a '-' shifts it right
    return np.concatenate([np.pad(cells, ((0, 0), (0, 1)), constant_values=23),
                           np.pad(cells, ((0, 0), (1, 0)), constant_values=19)])


class _Powers:
    """10^(16 - k), |k| <= _KEXP, by row _KEXP - k, as hi + lo, each correctly rounded
    from exact integers, with hi's split: four columns hi, hi_hi, hi_lo, lo.  A row is
    made when a block's exponents first reach it, so a run pays for the decades its
    numbers span."""

    def __init__(self):
        self.columns = np.empty((4, 2 * _KEXP + 1))
        self.built = np.zeros(2 * _KEXP + 1, bool)

    def take(self, rows: np.ndarray) -> list[np.ndarray]:
        first, last = int(rows.min()), int(rows.max()) + 1
        if not self.built[first:last].all():
            for row in range(first, last):
                q = 16 - _KEXP + row
                num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
                hi = num / den
                a, b = hi.as_integer_ratio()
                self.columns[:, row] = hi, *_split(hi), (num * b - a * den) / (den * b)
            self.built[first:last] = True
        return [column[rows] for column in self.columns]


@functools.cache
def _kernel_tables():
    """Built on first use: the powers (_Powers); the ASCII of 0..9999; the place of
    each 4-digit group's last nonzero digit (-12 for 0000); the templates."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16).astype(np.uint32)
    i = np.arange(10000)
    last = np.where(i % 10, 4, np.where(i % 100, 3, np.where(i % 1000, 2, np.where(i, 1, -12))))
    return _Powers(), (pairs[:, None] | pairs << 16).reshape(-1), last, _templates()


def _format_numbers(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """'%.17g' % v and its column's separator seps[j] for each v of the (rows,
    c) float64 block x, in NUL-padded cells: (rows, c, _SLOT) uint8.  |v| in
    [1e-280, 1e280) has 17 digits D = round(|v| 10^(16 - k)), k from log10 and
    the product by the double-double 10^(16 - k) exact (Dekker) to ~1e-14 in
    units of D.  D is certified when the unrounded floor lies in [10^16, 10^17)
    (so k is right) and the fraction is over 1e-9 from 1/2; any other nonzero
    value (NaN, inf, out of range, near tie) is formatted by '%' in its cell."""
    powers, quads, last, templates = _kernel_tables()
    rows, c = x.shape
    x = x.reshape(-1)
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = powers.take(_KEXP - k)
    p = a * hi
    a_hi, a_lo = _split(a)
    r = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    floor = np.floor(r)
    d = p.astype(np.int64) + floor.astype(np.int64)
    r -= floor
    up = r > 0.5  # a D rounding up to 10^17 (log10 puts such |v| at k + 1) goes to '%'
    ok &= (d >= 10**16) & (d + up < 10**17) & (np.abs(r - 0.5) > 1e-9)
    d += up
    d[~ok], k[~ok] = 0, 0  # zero is "0"; the rest is rewritten below
    g = np.empty((5, x.size), np.int64)  # d0, then four groups of 4 digits
    g[0], rest = np.divmod(d, 10**16)
    g[2], g[4] = np.divmod(rest, 10**8)
    g[1], g[2] = np.divmod(g[2], 10**4)
    g[3], g[4] = np.divmod(g[4], 10**4)
    nd = 1 + np.maximum((last[g[1:]] + [[0], [4], [8], [12]]).max(axis=0), 0)
    src = np.empty((x.size, 7), np.uint32)
    src[:, :4] = quads[g[1:]].T
    src[:, 4] = g[0] + int.from_bytes(b"0.0-", "little")
    src[:, 5] = np.where(k < 0, int.from_bytes(b"e-", "little"), int.from_bytes(b"e+", "little"))
    src[:, 6] = quads[np.abs(k)]
    src = src.view(np.uint8).reshape(rows, c, 28)
    src[:, :, 22] = seps
    kind = np.where((k >= -4) & (k < 17), k + 4, 21 + (np.abs(k) >= 100))
    code = (np.signbit(x) * 23 + kind) * 17 + nd - 1
    out = src.reshape(-1).take(np.add(templates[code], 28 * np.arange(x.size)[:, None]))
    for i in np.flatnonzero(~ok & (x != 0)):
        text = b"%.17g%c" % (x[i], seps[i % c])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.reshape(rows, c, _SLOT)


def read_table_csv(path) -> dict[str, np.ndarray]:
    """Read a numeric table written by write_table_csv (comments tolerated); a
    label cell, such as a fit.csv model name, raises FieldFormatError."""
    with open(path, "r") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FieldFormatError("empty CSV table", FieldFormatError.TRUNCATED)
    names = [s.strip() for s in lines[0].split(",")]
    rows = []
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise FieldFormatError(
                f"CSV row has {len(parts)} fields, expected {len(names)}",
                FieldFormatError.SIZE_MISMATCH,
            )
        values = []
        for name, cell in zip(names, parts):
            try:
                values.append(float(cell))
            except ValueError:
                raise FieldFormatError(f"column {name!r}, row {row}: {cell!r} is not a number",
                                       FieldFormatError.NOT_NUMERIC) from None
        rows.append(values)
    data = np.asarray(rows, dtype=np.float64)
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, i] for i, name in enumerate(names)}
