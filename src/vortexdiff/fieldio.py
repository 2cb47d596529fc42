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

read(write(f)) is bit-identical.  One writer streams the rows of every CSV
file, tables and field dumps (x, y, re, im or x, y, value) alike: labels
verbatim, numbers at 17 significant digits, enough to round-trip f64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, cycle, repeat

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


def write_field_csv(path, values: np.ndarray, grid: GridSpec, header_lines=()) -> None:
    """CSV dump with columns x,y,re,im (complex) or x,y,value (real), row-major:
    rows streamed to the one writer, each coordinate formatted once."""
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValueError(f"values shape {values.shape} does not match grid n={grid.n}")
    coords = [format(c, ".17g") for c in grid.coords().tolist()]
    xs = chain.from_iterable(repeat(c, grid.n) for c in coords)
    if np.iscomplexobj(values):  # flat iterators: the values are not copied
        names, cols = ("x", "y", "re", "im"), (values.real.flat, values.imag.flat)
    else:
        names, cols = ("x", "y", "value"), (values.flat,)
    _write_rows(path, names, zip(xs, cycle(coords), *cols), "%s,%s" + ",%.17g" * len(cols),
                header_lines)


def write_table_csv(path, columns: dict, header_lines=()) -> None:
    """A table of equal-length columns: a label column (its first cell a
    str, such as a model name) is written verbatim, any other column at 17
    significant digits."""
    cols = list(columns.values())
    length = len(cols[0]) if cols else 0
    if any(len(c) != length for c in cols):
        raise ValueError("all columns must have equal length")
    template = ",".join("%s" if length and isinstance(c[0], str) else "%.17g" for c in cols)
    _write_rows(path, columns, zip(*cols), template, header_lines)


def _write_rows(path, names, rows, template: str, header_lines) -> None:
    """The one CSV writer: `# ` header lines, column names, then each row
    formatted by template, streamed."""
    template += "\n"
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(template % row)


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
