"""Tests for text-report rendering."""

import pytest

from repro.core.dvf import build_report
from repro.core.report import format_quantity, format_table, render_dvf_report


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [["xxx", "y"]])
        lines = out.splitlines()
        assert lines[0].startswith("a  ")
        assert "---" in lines[1]
        assert lines[2].startswith("xxx")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert len(out.splitlines()) == 2


class TestFormatQuantity:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0"),
            (1.5, "1.5"),
            (123.456, "123.5"),
            (1.23e8, "1.230e+08"),
            (1e-5, "1.000e-05"),
        ],
    )
    def test_formats(self, value, expected):
        assert format_quantity(value) == expected


class TestRenderReport:
    def make(self):
        return build_report(
            application="VM",
            machine="small",
            fit=5000,
            time_seconds=0.25,
            sizes={"A": 800.0, "B": 400.0},
            nha={"A": 100.0, "B": 10.0},
        )

    def test_mentions_application_and_machine(self):
        text = render_dvf_report(self.make())
        assert "VM" in text and "small" in text

    def test_most_vulnerable_row_first(self):
        text = render_dvf_report(self.make())
        body = text.splitlines()[3:]
        assert body[0].startswith("A")

    def test_total_row_present(self):
        assert "(total)" in render_dvf_report(self.make())
