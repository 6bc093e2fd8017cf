"""Tests for the DVF metric (Eq. 1-2) and its report structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dvf import build_report, dvf_data, n_error


class TestNError:
    def test_units(self):
        # 5000 FIT/Mbit, 1 hour, 1 Mbit -> 5000/1e9 errors expected.
        one_mbit_bytes = 2**20 / 8
        assert n_error(5000, 3600, one_mbit_bytes) == pytest.approx(5e-6)

    def test_linear_in_each_factor(self):
        base = n_error(1000, 100, 1000)
        assert n_error(2000, 100, 1000) == pytest.approx(2 * base)
        assert n_error(1000, 200, 1000) == pytest.approx(2 * base)
        assert n_error(1000, 100, 2000) == pytest.approx(2 * base)

    def test_zero_time_zero_errors(self):
        assert n_error(5000, 0, 1000) == 0.0

    @pytest.mark.parametrize("bad", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    def test_negative_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            n_error(*bad)


class TestDVFData:
    def test_is_product_of_nerror_and_nha(self):
        assert dvf_data(5000, 10, 1000, 50) == pytest.approx(
            n_error(5000, 10, 1000) * 50
        )

    def test_zero_nha_zero_dvf(self):
        assert dvf_data(5000, 10, 1000, 0) == 0.0

    def test_negative_nha_rejected(self):
        with pytest.raises(ValueError):
            dvf_data(5000, 10, 1000, -1)

    def test_weighted_refinement(self):
        """alpha/beta exponents implement the §III-A weighting."""
        plain = dvf_data(5000, 10, 1000, 50)
        weighted = dvf_data(5000, 10, 1000, 50, alpha=1.0, beta=2.0)
        assert weighted == pytest.approx(plain * 50)

    @given(
        fit=st.floats(0.01, 1e4),
        t=st.floats(0.001, 1e4),
        size=st.floats(1, 1e9),
        nha=st.floats(0, 1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_every_factor(self, fit, t, size, nha):
        base = dvf_data(fit, t, size, nha)
        assert dvf_data(fit * 2, t, size, nha) >= base
        assert dvf_data(fit, t * 2, size, nha) >= base
        assert dvf_data(fit, t, size * 2, nha) >= base
        assert dvf_data(fit, t, size, nha * 2) >= base


class TestReport:
    def make_report(self):
        return build_report(
            application="VM",
            machine="small",
            fit=5000,
            time_seconds=0.5,
            sizes={"A": 6400.0, "B": 1600.0},
            nha={"A": 250.0, "B": 50.0},
        )

    def test_dvf_application_is_sum(self):
        report = self.make_report()
        assert report.dvf_application == pytest.approx(
            sum(s.dvf for s in report.structures)
        )

    def test_structure_lookup(self):
        report = self.make_report()
        assert report.structure("A").nha == 250.0
        with pytest.raises(KeyError):
            report.structure("Z")

    def test_ranked_most_vulnerable_first(self):
        report = self.make_report()
        ranked = report.ranked()
        assert ranked[0].name == "A"
        assert ranked[0].dvf >= ranked[-1].dvf

    def test_dvf_by_structure(self):
        report = self.make_report()
        mapping = report.dvf_by_structure()
        assert set(mapping) == {"A", "B"}

    def test_nha_without_size_rejected(self):
        with pytest.raises(ValueError, match="without sizes"):
            build_report(
                application="X",
                machine="m",
                fit=1,
                time_seconds=1,
                sizes={},
                nha={"A": 1.0},
            )

    def test_rows_carry_ingredients(self):
        report = self.make_report()
        a = report.structure("A")
        assert a.n_error == pytest.approx(n_error(5000, 0.5, 6400))
        assert a.dvf == pytest.approx(a.n_error * a.nha)
