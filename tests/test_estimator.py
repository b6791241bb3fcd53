import math

import numpy as np
import pytest

from pairsim import (ConfigError, EstimateInput, InferenceError, OpticalPower,
                     Rate, Wavelength, compare_sources, comparison_csv,
                     comparison_text, conversion_efficiency,
                     efficiency_products, estimate, expected_rates,
                     infer_pair_rate, load_source_records, pair_rate,
                     reference_chain, reference_source)


def paper_point(**overrides):
    kwargs = dict(s1_net=Rate(155e3), s2_net=Rate(155e3), rc_net=Rate(1550.0),
                  splitter_correction=True,
                  pump_power_guided=OpticalPower(1.0e-6),
                  pump_wavelength=Wavelength(657.0))
    kwargs.update(overrides)
    return EstimateInput(**kwargs)


class TestInferPairRate:
    def test_headline_point_exact(self):
        assert infer_pair_rate(paper_point()).hz == 7.75e6
        assert abs(7.75e6 - 7.5e6) / 7.5e6 < 0.05

    def test_knbo3_point(self):
        inp = EstimateInput(Rate(250e3), Rate(250e3), Rate(5000.0),
                            splitter_correction=True)
        assert infer_pair_rate(inp).hz == 6.25e6

    def test_unit_efficiency_fixed_point(self):
        for s in (1.0, 123.0, 7.7e6):
            inp = EstimateInput(Rate(s), Rate(s), Rate(s),
                                splitter_correction=False)
            assert infer_pair_rate(inp).hz == s

    def test_zero_rc_is_inference_error(self):
        with pytest.raises(InferenceError, match="positive"):
            infer_pair_rate(paper_point(rc_net=Rate(0.0)))

    def test_underflowed_pair_rate_is_inference_error(self):
        # S1 * S2 underflows to 0, so N would be 0 and S_i / N divide by zero
        inp = EstimateInput(Rate(1e-300), Rate(1e-300), Rate(1e-300))
        with pytest.raises(InferenceError, match="positive finite"):
            infer_pair_rate(inp)
        with pytest.raises(InferenceError, match="positive finite"):
            estimate(inp)

    def test_rc_above_singles_is_invariant_violation(self):
        with pytest.raises(ConfigError, match="exceeds"):
            paper_point(rc_net=Rate(200e3))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            s1, s2 = rng.uniform(1e3, 1e6, 2)
            rc = rng.uniform(1.0, 0.9 * min(s1, s2))
            a, b = rng.uniform(0.05, 1.0, 2)
            base = infer_pair_rate(EstimateInput(Rate(s1), Rate(s2), Rate(rc)))
            scaled = infer_pair_rate(
                EstimateInput(Rate(a * s1), Rate(b * s2), Rate(a * b * rc)))
            assert abs(scaled.hz - base.hz) <= 1e-12 * base.hz


class TestConversionEfficiency:
    def test_headline_value(self):
        eta = conversion_efficiency(Rate(7.75e6), OpticalPower(1.0e-6),
                                    Wavelength(657.0))
        assert eta == pytest.approx(2.343219998919969e-06, rel=1e-12)
        assert 2.0e-6 <= eta <= 2.5e-6

    def test_knbo3_value(self):
        eta = conversion_efficiency(Rate(6.25e6), OpticalPower(10e-3),
                                    Wavelength(655.0))
        assert eta == pytest.approx(1.9e-10, rel=0.01)

    def test_ppsf_value(self):
        eta = conversion_efficiency(Rate(1.296e6), OpticalPower(0.3),
                                    Wavelength(766.0))
        assert eta == pytest.approx(1.1e-12, rel=0.03)

    def test_zero_power_rejected(self):
        with pytest.raises(InferenceError, match="power"):
            conversion_efficiency(Rate(1e6), OpticalPower(0.0),
                                  Wavelength(657.0))

    def test_linear_in_rate_inverse_in_power(self):
        lam = Wavelength(657.0)
        base = conversion_efficiency(Rate(1e6), OpticalPower(1e-6), lam)
        assert conversion_efficiency(Rate(3e6), OpticalPower(1e-6), lam) \
            == pytest.approx(3.0 * base, rel=1e-12)
        assert conversion_efficiency(Rate(1e6), OpticalPower(2e-6), lam) \
            == pytest.approx(0.5 * base, rel=1e-12)


class TestEfficiencyProducts:
    def test_headline_products(self):
        p1, p2 = efficiency_products(paper_point())
        assert p1.value == pytest.approx(0.02, rel=1e-12)
        assert p2.value == pytest.approx(0.02, rel=1e-12)

    def test_unit_case(self):
        inp = EstimateInput(Rate(5e4), Rate(5e4), Rate(5e4),
                            splitter_correction=False)
        p1, p2 = efficiency_products(inp)
        assert (p1.value, p2.value) == (1.0, 1.0)

    def test_asymmetric_case(self):
        inp = EstimateInput(Rate(100e3), Rate(200e3), Rate(1000.0),
                            splitter_correction=False)
        assert infer_pair_rate(inp).hz == 2e7
        p1, p2 = efficiency_products(inp)
        assert p1.value == pytest.approx(0.005, rel=1e-12)
        assert p2.value == pytest.approx(0.01, rel=1e-12)

    def test_impossible_products_rejected(self):
        inp = EstimateInput(Rate(5e4), Rate(5e4), Rate(5e4),
                            splitter_correction=True)
        with pytest.raises(InferenceError, match="exceeds 1"):
            efficiency_products(inp)


class TestEstimate:
    def test_full_result(self):
        res = estimate(paper_point(), duration_s=10.0)
        assert res.pair_rate.hz == 7.75e6
        assert res.conversion_efficiency == pytest.approx(2.343e-6, rel=1e-3)
        assert res.rc_per_watt == pytest.approx(1.55e9, rel=1e-12)
        rel = math.sqrt(1.0 / 1.55e6 + 1.0 / 1.55e6 + 1.0 / 15500.0)
        assert res.pair_rate_sigma_hz == pytest.approx(7.75e6 * rel, rel=1e-9)
        assert res.conversion_efficiency_sigma == pytest.approx(
            res.conversion_efficiency * rel, rel=1e-9)

    def test_duration_below_one_count_rejected(self):
        # Rc = 1550 Hz: 1 ms gives 1.55 coincidences, 0.5 ms gives 0.775
        assert estimate(paper_point(), duration_s=1e-3).pair_rate_sigma_hz > 0
        with pytest.raises(ConfigError, match="fewer than one net count"):
            estimate(paper_point(), duration_s=5e-4)

    def test_without_power_or_duration(self):
        res = estimate(EstimateInput(Rate(1e5), Rate(1e5), Rate(1e3)))
        assert res.conversion_efficiency is None
        assert res.rc_per_watt is None
        assert res.pair_rate_sigma_hz is None

    def test_closed_form_identity_with_expected_rates(self):
        from dataclasses import replace
        src, chain = reference_source(), reference_chain()
        n = pair_rate(src).hz
        for splitter in (True, False):
            chain2 = replace(chain, splitter_present=splitter)
            s1, s2, rc = expected_rates(src, chain2)
            inferred = infer_pair_rate(EstimateInput(
                s1, s2, rc, splitter_correction=splitter))
            assert inferred.hz == pytest.approx(n, rel=1e-12)


class TestSourceComparison:
    def test_bundled_records(self):
        records = load_source_records()
        assert [r.key for r in records] == [
            "ppln_waveguide", "knbo3_bulk", "cascade_bbo_bulk",
            "type2_bbo_bulk", "qpm_ppsf_guided"]
        splitters = {r.key: r.splitter_correction for r in records}
        assert splitters["ppln_waveguide"] and splitters["knbo3_bulk"] \
            and splitters["qpm_ppsf_guided"]
        assert not splitters["cascade_bbo_bulk"] \
            and not splitters["type2_bbo_bulk"]

    def test_four_rows_reproduce_published_eta(self):
        rows = {r.record.key: r for r in compare_sources()}
        for key in ("ppln_waveguide", "knbo3_bulk", "cascade_bbo_bulk",
                    "qpm_ppsf_guided"):
            row = rows[key]
            assert abs(row.eta_relative_deviation) < 0.15, key
            assert abs(row.rc_relative_deviation) < 0.15, key
            assert not row.flagged, key

    def test_type2_bbo_is_flagged_as_discrepant(self):
        rows = {r.record.key: r for r in compare_sources()}
        row = rows["type2_bbo_bulk"]
        assert row.flagged
        assert row.eta_deviation_factor > 2.0
        assert row.rc_deviation_factor > 2.0

    def test_loose_threshold_clears_flags(self):
        assert not any(r.flagged for r in compare_sources(
            max_deviation_factor=10.0))

    def test_reports_carry_identical_numbers(self):
        rows = compare_sources()
        csv = comparison_csv(rows)
        text = comparison_text(rows)
        for row in rows:
            token = f"{row.computed_eta:.8g}"
            assert token in csv and token in text
        header = csv.splitlines()[0].split(",")
        assert "computed_eta" in header and "flagged" in header
        assert len(csv.splitlines()) == 6
