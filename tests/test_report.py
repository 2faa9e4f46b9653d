import numpy as np
import pytest

from photonlink.report import Estimate, SweepReport, format_number, write_frames


class TestFormatNumber:
    def test_small_values_scientific(self):
        assert format_number(1e-4) == "1.000000000000e-04"
        assert format_number(-2.5e-7) == "-2.500000000000e-07"

    def test_regular_values_repr(self):
        assert format_number(0.25) == "0.25"
        assert format_number(1.0) == "1.0"
        assert format_number(0.0) == "0.0"

    def test_ints_and_strings(self):
        assert format_number(42) == "42"
        assert format_number("sub-poisson") == "sub-poisson"
        assert format_number(True) == "1"

    def test_numpy_scalars(self):
        assert format_number(np.float64(0.25)) == "0.25"
        assert format_number(np.int64(3)) == "3"
        assert format_number(np.float64(1e-5)) == "1.000000000000e-05"


class TestSweepReport:
    def test_roundtrip_and_schema(self):
        rep = SweepReport([{"a": 1.5, "b": 2}, {"a": 0.0, "b": 3}])
        assert rep.columns == ("a", "b")
        assert rep.to_csv_text() == "a,b\n1.5,2\n0.0,3\n"

    @pytest.mark.parametrize(
        "rows",
        [[], [{"a": 1, "b": 2}, {"a": 1}], [{"a": 1, "b": 2}, {"a": 1, "b": 2, "c": 3}],
         [{"a": 1, "b": 2}, {"b": 2, "a": 1}]],
        ids=["empty", "missing-key", "extra-key", "reordered"],
    )
    def test_rejects_rows_unlike_the_first(self, rows):
        with pytest.raises(ValueError):
            SweepReport(rows)

    def test_column_access(self):
        # the columns are the first row's keys in their order, not sorted
        rep = SweepReport([{"y": 1.0, "x": 2.0}])
        assert rep.columns == ("y", "x")
        assert rep.rows == [{"y": 1.0, "x": 2.0}]

    def test_write(self, tmp_path):
        rep = SweepReport([{"x": 1e-6}])
        p = rep.write_csv(tmp_path / "sub" / "r.csv")
        assert p.read_text() == "x\n1.000000000000e-06\n"


class TestEstimate:
    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            Estimate(0.0, -1.0)


def test_write_frames(tmp_path):
    path = write_frames(tmp_path / "f.txt", [1, 0], np.array([[1, 1, 0], [0, 0, 1]]))
    assert path.read_text() == "1 110\n0 001\n"
