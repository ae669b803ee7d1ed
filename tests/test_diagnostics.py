"""The diagnostics table layout: rows in, columns out."""

import numpy as np
import pytest

from plsim.diagnostics import COLUMNS, DiagnosticsSeries


@pytest.mark.parametrize("width", [3, 6])
def test_from_rows_columns_round_trip(width):
    rng = np.random.default_rng(width)
    rows = np.column_stack([np.arange(5.0), rng.uniform(0.0, 1.0, (5, width - 1))])
    d = DiagnosticsSeries.from_rows([tuple(row) for row in rows])
    assert d.has_reservoir == (width == 6)
    columns = d.columns()
    assert len(columns) == width
    for name, column, expected in zip(COLUMNS, columns, rows.T):
        np.testing.assert_array_equal(column, expected, err_msg=name)
    np.testing.assert_array_equal(DiagnosticsSeries.from_rows(np.column_stack(columns)).columns(), columns)


@pytest.mark.parametrize("rows", [[(0.0, 1.0)], [(0.0, 1.0, 1.0, 1.0)], [], [[(0.0, 1.0, 1.0)]]])
def test_from_rows_rejects_other_widths(rows):
    with pytest.raises(ValueError, match="columns"):
        DiagnosticsSeries.from_rows(rows)
