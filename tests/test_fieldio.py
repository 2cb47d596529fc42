import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vortexdiff as vd
from hypothesis.extra import numpy as hnp

import vortexdiff.fieldio as fieldio
from vortexdiff.fieldio import FieldFormatError, MAGIC, _HEADER


@pytest.fixture
def small_grid():
    return vd.make_grid(16, 2.0)


def random_complex(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestVxfRoundTrip:
    def test_complex_bit_exact(self, tmp_path, small_grid):
        values = random_complex(16, seed=3)
        path = tmp_path / "f.vxf"
        vd.write_field(path, values, small_grid, time=0.625)
        dump = vd.read_field(path)
        assert np.array_equal(dump.values, values)
        assert dump.grid == small_grid
        assert dump.time == 0.625
        assert dump.kind == 0

    def test_real_bit_exact(self, tmp_path, small_grid):
        values = np.abs(random_complex(16, seed=4)) ** 2
        path = tmp_path / "f.vxf"
        vd.write_field(path, values, small_grid, time=0.0)
        dump = vd.read_field(path)
        assert np.array_equal(dump.values, values)
        assert dump.kind == 1

    def test_file_round_trip_is_byte_identical(self, tmp_path, small_grid):
        values = random_complex(16, seed=5)
        p1, p2 = tmp_path / "a.vxf", tmp_path / "b.vxf"
        vd.write_field(p1, values, small_grid, time=0.1)
        dump = vd.read_field(p1)
        vd.write_field(p2, dump.values, dump.grid, dump.time)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("layout", ["transposed", "big_endian"])
    @pytest.mark.parametrize("is_complex", [True, False])
    def test_any_layout_round_trips_bit_exact(self, tmp_path, small_grid, layout, is_complex):
        # the payload is written from a contiguous little-endian view of the
        # values: a strided or big-endian input is converted, never misread
        values = random_complex(16, seed=7)
        values = values if is_complex else values.real.copy()
        given = values.T if layout == "transposed" else values.astype(values.dtype.newbyteorder(">"))
        assert not given.flags.c_contiguous or given.dtype.byteorder == ">"
        path = tmp_path / "f.vxf"
        vd.write_field(path, given, small_grid, time=0.25)
        dump = vd.read_field(path)
        assert np.array_equal(dump.values, given)
        assert dump.kind == (0 if is_complex else 1)
        little = given.astype("<c16" if is_complex else "<f8")
        assert path.read_bytes()[_HEADER.size:] == little.tobytes()

    def test_payload_size_arithmetic(self, tmp_path):
        g = vd.make_grid(256, 8.0)
        path = tmp_path / "big.vxf"
        vd.write_field(path, np.zeros((256, 256), dtype=complex), g, time=0.0)
        assert path.stat().st_size == _HEADER.size + 256 * 256 * 2 * 8
        assert 256 * 256 * 2 * 8 == 1_048_576


class TestVxfErrors:
    def _valid_bytes(self, tmp_path, small_grid):
        path = tmp_path / "ok.vxf"
        vd.write_field(path, random_complex(16, seed=6), small_grid, time=0.5)
        return bytearray(path.read_bytes())

    def test_wrong_magic(self, tmp_path, small_grid):
        blob = self._valid_bytes(tmp_path, small_grid)
        blob[:4] = b"NOPE"
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(blob)
        with pytest.raises(FieldFormatError, match="not a VXF") as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.BAD_MAGIC

    def test_wrong_version(self, tmp_path, small_grid):
        blob = self._valid_bytes(tmp_path, small_grid)
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(blob)
        with pytest.raises(FieldFormatError) as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.BAD_VERSION

    def test_truncated_payload(self, tmp_path, small_grid):
        blob = self._valid_bytes(tmp_path, small_grid)
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(blob[:-16])
        with pytest.raises(FieldFormatError) as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.TRUNCATED

    def test_oversize_payload(self, tmp_path, small_grid):
        blob = self._valid_bytes(tmp_path, small_grid)
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(bytes(blob) + b"\x00" * 8)
        with pytest.raises(FieldFormatError) as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.SIZE_MISMATCH

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(MAGIC + b"\x01")
        with pytest.raises(FieldFormatError) as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.TRUNCATED

    def test_non_finite_header_values_are_bad_header(self, tmp_path, small_grid):
        for offset, name in ((12, "grid"), (20, "time")):
            blob = self._valid_bytes(tmp_path, small_grid)
            blob[offset:offset + 8] = struct.pack("<d", math.inf)
            bad = tmp_path / "bad.vxf"
            bad.write_bytes(blob)
            with pytest.raises(FieldFormatError, match=name) as err:
                vd.read_field(bad)
            assert err.value.code == FieldFormatError.BAD_HEADER

    def test_extent_whose_spacing_overflows_is_bad_header(self, tmp_path, small_grid):
        blob = self._valid_bytes(tmp_path, small_grid)
        blob[12:20] = struct.pack("<d", 1e308)
        bad = tmp_path / "bad.vxf"
        bad.write_bytes(blob)
        with pytest.raises(FieldFormatError, match="invalid grid") as err:
            vd.read_field(bad)
        assert err.value.code == FieldFormatError.BAD_HEADER

    # overwrite header bytes with random bytes, or a header double (extent at
    # 12, time at 20) with a packed double, which reaches the infinities and
    # NaNs that random bytes seldom spell
    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(
        st.sampled_from((12, 20)) | st.integers(0, _HEADER.size - 1),
        st.binary(min_size=1, max_size=8)
        | (st.sampled_from((math.inf, -math.inf, math.nan)) | st.floats()).map(
            lambda f: struct.pack("<d", f)),
    ), min_size=1, max_size=4))
    def test_corrupted_header_fails_cleanly_or_reads_finite(self, tmp_path_factory, edits):
        path = tmp_path_factory.mktemp("vxf") / "f.vxf"
        vd.write_field(path, random_complex(16, seed=7), vd.make_grid(16, 2.0), time=0.5)
        blob = bytearray(path.read_bytes())
        for offset, data in edits:
            data = data[:_HEADER.size - offset]
            blob[offset:offset + len(data)] = data
        path.write_bytes(blob)
        try:
            dump = vd.read_field(path)
        except FieldFormatError:
            return
        assert math.isfinite(dump.grid.extent) and math.isfinite(dump.time)

    def test_distinct_codes(self):
        codes = {
            FieldFormatError.BAD_MAGIC, FieldFormatError.BAD_VERSION,
            FieldFormatError.TRUNCATED, FieldFormatError.SIZE_MISMATCH,
            FieldFormatError.BAD_HEADER, FieldFormatError.NOT_NUMERIC,
        }
        assert len(codes) == 6


class TestCsv:
    def test_field_csv_round_trips_values(self, tmp_path, small_grid):
        values = random_complex(16, seed=8)
        path = tmp_path / "f.csv"
        vd.write_field_csv(path, values, small_grid, header_lines=["demo"])
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "x,y,re,im"
        x, y, re, im = lines[1].split(",")
        assert float(x) == small_grid.coords()[0]
        assert float(re) == values[0, 0].real
        assert float(im) == values[0, 0].imag
        assert len(lines) == 1 + 16 * 16

    @pytest.mark.parametrize("is_complex", [True, False], ids=["complex", "real"])
    def test_field_csv_exact_bytes(self, tmp_path, is_complex):
        grid = vd.make_grid(8, 1.5)
        special = [-0.0, 5e-324, 1e300, 1.0 / 3.0]
        rng = np.random.default_rng(10)
        values = rng.standard_normal((8, 8))
        values.flat[:4] = special
        if is_complex:
            values = values + 1j * rng.standard_normal((8, 8))
            values.imag.flat[-4:] = special
        path = tmp_path / "f.csv"
        vd.write_field_csv(path, values, grid, header_lines=["demo", "time = 0"])
        coords = grid.coords()
        expected = ["# demo", "# time = 0", "x,y,re,im" if is_complex else "x,y,value"]
        for i in range(8):
            for j in range(8):
                v = values[i, j]
                cells = (coords[i], coords[j]) + ((v.real, v.imag) if is_complex else (v,))
                expected.append(",".join(format(float(c), ".17g") for c in cells))
        text = path.read_text()
        assert text == "\n".join(expected) + "\n"
        rows = [row.split(",") for row in text.splitlines()[3:]]
        cells = ["-0", "4.9406564584124654e-324", "1.0000000000000001e+300", "0.33333333333333331"]
        assert [row[2] for row in rows[:4]] == cells
        if is_complex:
            assert [row[3] for row in rows[-4:]] == cells

    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        t = np.array([0.0, 0.1, 0.2])
        v = np.array([1.0, 0.5, 1.0 / 3.0])
        vd.write_table_csv(path, {"t": t, "value": v}, header_lines=["trace"])
        table = vd.read_table_csv(path)
        assert np.array_equal(table["t"], t)
        assert np.array_equal(table["value"], v)

    def test_table_strings_verbatim_numbers_seventeen_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        vd.write_table_csv(
            path,
            {"model": ["power_law", "exponential"], "value": [0.1, np.float64(2.0)],
             "flag": np.array([1, 0])},
            header_lines=["fits"],
        )
        assert path.read_text() == (
            "# fits\n"
            "model,value,flag\n"
            "power_law,0.10000000000000001,1\n"
            "exponential,2,0\n"
        )
        # the reader takes numeric tables only, and names the label cell
        with pytest.raises(FieldFormatError, match="column 'model', row 1") as err:
            vd.read_table_csv(path)
        assert err.value.code == FieldFormatError.NOT_NUMERIC

    def test_seventeen_digits_round_trip_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        v = np.array([np.pi, 1.0 / 3.0, 2.0 ** -52, 1e300])
        vd.write_table_csv(path, {"v": v})
        assert np.array_equal(vd.read_table_csv(path)["v"], v)

    @pytest.mark.parametrize("text,code,fragment", [
        ("", FieldFormatError.TRUNCATED, "empty CSV table"),
        ("# a comment only\n\n", FieldFormatError.TRUNCATED, "empty CSV table"),
        ("t,value\n0,1\n0.1\n", FieldFormatError.SIZE_MISMATCH, "CSV row has 1 fields, expected 2"),
    ])
    def test_malformed_table_is_rejected(self, tmp_path, text, code, fragment):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(FieldFormatError, match=fragment) as err:
            vd.read_table_csv(path)
        assert err.value.code == code

    def test_unequal_columns_are_not_written(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="all columns must have equal length"):
            vd.write_table_csv(path, {"t": [0.0, 0.1], "value": [1.0]})
        assert not path.exists()

    def test_header_only_table_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# trace\nt,value\n")
        table = vd.read_table_csv(path)
        assert list(table) == ["t", "value"]
        assert all(column.shape == (0,) for column in table.values())

    def test_write_is_deterministic(self, tmp_path, small_grid):
        values = random_complex(16, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        vd.write_field_csv(p1, values, small_grid)
        vd.write_field_csv(p2, values, small_grid)
        assert p1.read_bytes() == p2.read_bytes()


def percent_table(columns: dict) -> str:
    """The reference: a table's text with every number as '%.17g' % v."""
    cells = [[c if isinstance(c, str) else "%.17g" % c for c in col] for col in columns.values()]
    return ",".join(columns) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


class TestNumberKernel:
    """Every number the CSV writer formats is byte for byte '%.17g' % v, whether
    the certified kernel or its '%' escape hatch wrote it."""

    def assert_percent_bytes(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        digest, size = vd.write_table_csv(path, columns)
        blob = path.read_bytes()
        assert blob.decode() == percent_table(columns)
        assert (digest, size) == (hashlib.sha256(blob).hexdigest(), len(blob))

    def test_uniform_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(11).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        self.assert_percent_bytes(tmp_path, {"v": bits.view(np.float64)})

    def test_neighbours_of_every_power_of_ten(self, tmp_path):
        # log10 rounds across 10^j here, and 17 digits round up to the next
        # power: 9.9999999999999996e-281 must not print as 1e-280, and the
        # doubles just below 1e-14 or 1e98, say, must print as 1e-14 and 1e+98
        powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
        below = np.nextafter(powers, 0)
        values = np.concatenate([np.nextafter(below, 0), below, powers, np.nextafter(powers, np.inf)])
        self.assert_percent_bytes(tmp_path, {"v": values, "neg": -values})

    def test_special_values(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
                  -np.finfo(float).max, np.nan, np.inf, -np.inf, 1e-4, 9.99999999999999e-5, 1e16,
                  1e17, 123456789012345678.0, 0.5, 1.0 / 3.0]
        self.assert_percent_bytes(tmp_path, {"v": values})
        vd.write_table_csv(tmp_path / "s.csv", {"v": [-0.0, np.nan, -np.inf]})
        assert (tmp_path / "s.csv").read_text() == "v\n-0\nnan\n-inf\n"

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(width=64)))
    def test_any_floats(self, tmp_path_factory, values):
        self.assert_percent_bytes(tmp_path_factory.mktemp("kernel"), {"a": values, "b": values[::-1]})

    def test_column_length_not_a_multiple_of_the_block(self, tmp_path):
        rows = 3 * fieldio._BLOCK // 2 + 7  # two number columns: blocks of _BLOCK // 2 rows
        rng = np.random.default_rng(12)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        self.assert_percent_bytes(tmp_path, {"t": np.arange(rows) / 7, "v": values})

    def test_mixed_label_and_number_table(self, tmp_path):
        # fit.csv's layout: a label column first, numbers and integer flags after
        self.assert_percent_bytes(tmp_path, {
            "model": ["power_law", "exponential", "power_law"],
            "amplitude": [1.0000000000000002, 0.97, 1e-300],
            "parameter": [-2.0, 0.123456789, -1e300],
            "preferred": [1, 0, 0],
        })

    def test_field_dump_writes_percent_bytes_and_returns_its_digest(self, tmp_path):
        grid = vd.make_grid(64, 3.0)
        values = random_complex(64, seed=13) * np.exp(-np.arange(64 * 64).reshape(64, 64) / 50.0)
        path = tmp_path / "f.csv"
        digest, size = vd.write_field_csv(path, values, grid, header_lines=["demo"])
        coords = ["%.17g" % c for c in grid.coords()]
        rows = ["%s,%s,%.17g,%.17g" % (coords[i], coords[j], v.real, v.imag)
                for (i, j), v in np.ndenumerate(values)]
        blob = path.read_bytes()
        assert blob.decode() == "# demo\nx,y,re,im\n" + "\n".join(rows) + "\n"
        assert (digest, size) == (hashlib.sha256(blob).hexdigest(), len(blob))

    def test_tables_match_their_per_row_builds(self):
        # the reference: every template and power built one row at a time
        def template(neg, kind, nd):
            digits = [16, *range(16)]
            if kind < 4:
                body = [18, 17] + [18] * (3 - kind) + digits[:nd]
            elif kind < 21:
                body = digits[:max(nd, kind - 3)]
                body[kind - 3:kind - 3] = [17] * (nd > kind - 3)
            else:
                body = [16] + ([17] + digits[1:nd] if nd > 1 else []) + [20, 21] + [25, 26, 27][22 - kind:]
            cell = [19] * neg + body + [22]
            return cell + [23] * (fieldio._SLOT - len(cell))

        def power(q):
            num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
            hi = num / den
            a, b = hi.as_integer_ratio()
            return [hi, *fieldio._split(hi), (num * b - a * den) / (den * b)]

        templates = fieldio._kernel_tables()[3]
        assert templates.dtype == np.uint8
        assert templates.tolist() == [template(neg, kind, nd) for neg in (0, 1)
                                      for kind in range(23) for nd in range(1, 18)]
        powers = fieldio._Powers()
        rows = np.array([300, 290, 295])
        assert np.array_equal(np.stack(powers.take(rows), axis=1),
                              [power(16 - fieldio._KEXP + row) for row in rows.tolist()])
        assert np.flatnonzero(powers.built).tolist() == list(range(290, 301))  # only the span used
        every = np.arange(2 * fieldio._KEXP + 1)
        assert np.stack(powers.take(every), axis=1).tolist() == [power(16 - fieldio._KEXP + row)
                                                                 for row in every.tolist()]
