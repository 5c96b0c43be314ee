"""The column-wise CSV writer against the per-cell writer it replaced."""

import math

import numpy as np

from kreisslab.reporting import _fmt_column, write_csv


def _fmt_cell(x) -> str:
    """The per-cell formatter of the row writer, kept as the oracle."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _row_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_writer(tmp_path):
    floats = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5, 1.0]
    table = {
        "flag": np.array([i % 3 == 0 for i in range(len(floats))]),
        "py_int": list(range(-3, len(floats) - 3)),
        "np_int": np.arange(len(floats), dtype=np.int64) * 10**12,
        "x": np.array(floats),
        "py_float": floats[::-1],
    }
    path = tmp_path / "t.csv"
    write_csv(path, table)
    rows = zip(table["flag"], table["py_int"], table["np_int"], table["x"], table["py_float"])
    assert path.read_text(encoding="ascii") == _row_csv(list(table), rows)



def test_float_columns_format_as_repr_of_each_element():
    # nan, both infinities, both zeros, subnormals and the edges of the normal
    # range, in an array, a list and an empty column
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.1, -2.5, 1e16, 123456789.125]
    for col in (np.array(floats), floats, np.array([], dtype=float), np.float32([0.1, -0.0])):
        assert _fmt_column(col) == [repr(float(x)) for x in col]
