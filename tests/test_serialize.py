"""The float-to-text rule and the block table writer of `serialize`."""

import math

import numpy as np
import pytest

from clonebound.serialize import CSV_DIGITS, JSON_DIGITS, Table, csv_lines, dump_json, format_floats

DIGITS = [CSV_DIGITS, JSON_DIGITS]


class TestFormatFloats:
    @pytest.mark.parametrize("digits", DIGITS)
    def test_negative_zero_prints_as_zero(self, digits):
        assert format_floats([-0.0, 0.0], digits) == ["0", "0"]
        assert dump_json(-0.0, digits) == "0\n"

    @pytest.mark.parametrize("digits", DIGITS)
    def test_nan_column_is_refused(self, digits):
        with pytest.raises(ValueError, match="NaN"):
            format_floats(np.array([[0.5, 1.0], [math.nan, 2.0]]), digits)
        with pytest.raises(ValueError, match="NaN"):
            dump_json([1.0, math.nan], digits)

    @pytest.mark.parametrize("digits", DIGITS)
    def test_matches_format_per_value(self, digits):
        values = [5e-324, 1e-300, 1 / 3, -2 / 3, 0.1 + 0.2, 1e16, 1e22]
        expected = [format(v, f".{digits}g") for v in values]
        assert format_floats(values, digits) == expected
        assert format_floats(np.array(values).reshape(1, 7), digits) == expected
        assert [format_floats(v, digits)[0] for v in values] == expected


class TestTable:
    HEADER = ("x", "y", "ok", "label")

    def blocks(self, table):
        # each block spelled word by word, then made a (pool, index) pair:
        # a row opens on its x cell, and a row end leads into the next x
        def block(words):
            return np.unique(np.array(words, dtype=object), return_inverse=True)

        x = table.floats([1 / 3, -0.0, 8])
        first, _ = table.row_frame(x[0], "7")
        _, ends = table.row_frame(x[1], "7")
        y = table.cells([0.1, 2.5])
        yield block([first, y[0], ends[0][True], y[1], ends[1][False]])
        first, ends = table.row_frame(x[2], "9")
        yield block([first, *table.cells([1e22]), ends[1][True]])

    ROWS = [(1 / 3, 0.1, True, 7), (0.0, 2.5, False, 7), (8, 1e22, True, 9)]

    def test_csv_is_csv_lines(self):
        table = Table("csv", self.HEADER, {"command": "demo"})
        text = "".join(table.chunks(self.blocks(table)))
        assert text == "\n".join(csv_lines(self.HEADER, self.ROWS)) + "\n"

    def test_json_is_dump_json(self):
        head = {"command": "demo", "resolution": 2}
        table = Table("json", self.HEADER, head)
        text = "".join(table.chunks(self.blocks(table)))
        whole = {**head, "header": list(self.HEADER), "rows": [list(r) for r in self.ROWS]}
        assert text == dump_json(whole)


class TestLibraryValues:
    """Arrays and missing values reach the emitter as the library returns them."""

    def test_complex_array_is_nested_re_im_pairs(self):
        matrix = np.array([[1 / 3, -0.1j], [0.1j, -0.0 + 2j]])
        expected = [[[1 / 3, 0.0], [0.0, -0.1]], [[0.0, 0.1], [0.0, 2.0]]]
        assert dump_json(matrix) == dump_json(expected)
        assert dump_json(np.complex128(1 + 2j)) == dump_json(1 + 2j) == "[1, 2]\n"

    def test_real_array_is_nested_lists(self):
        matrix = np.array([[1 / 3, -0.0], [2.0, 1e22]])
        assert dump_json(matrix) == dump_json(matrix.tolist())

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="^cannot serialize object to JSON$"):
            dump_json(object())

    def test_missing_value_is_null_in_json_and_an_empty_csv_cell(self):
        assert dump_json({"mc_estimate": None}) == '{"mc_estimate": null}\n'
        assert list(csv_lines(("a", "b", "c"), [(None, 0.5, None)])) == ["a,b,c", ",0.5,"]
