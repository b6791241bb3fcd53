import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import (ConfigError, DetectionChainConfig, Efficiency,
                     MemoryBudgetError, OpticalPower, Rate, RunConfig,
                     SourceConfig, TrueCounts, Wavelength, WindowConfig,
                     config_digest, count_coincidences, expected_rates,
                     net_summary, pair_rate, photon_flux, read_event_file,
                     reference_chain, reference_source, sample_pair_spectrum,
                     simulate_run, write_event_file)
from pairsim import keyvalue, source as source_mod

FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def make_source(n_target_hz: float, pump_nm: float = 657.0) -> SourceConfig:
    """Source with a 1 uW guided pump pinned to produce n_target pairs/s."""
    guided = OpticalPower(1.0e-6)
    pump = Wavelength(pump_nm)
    conv = n_target_hz / photon_flux(guided, pump).hz
    return SourceConfig(pump_power=guided, coupling_efficiency=Efficiency(1.0),
                        pump_wavelength=pump, conversion_efficiency=conv,
                        spectral_center=Wavelength(2.0 * pump_nm),
                        spectral_fwhm_nm=30.0)


def make_chain(mu1=0.2, mu2=0.2, eta1=0.1, eta2=0.1, dark1=0.0, dark2=0.0,
               dead_time_ns=0.0, splitter=True, jitter_ps=0.0):
    return DetectionChainConfig(
        mu1=Efficiency(mu1), mu2=Efficiency(mu2),
        eta1=Efficiency(eta1), eta2=Efficiency(eta2),
        dark1=Rate(dark1), dark2=Rate(dark2),
        dead_time_ns=dead_time_ns, splitter_present=splitter,
        jitter_ps=jitter_ps)


def deadtime_sequential(times_s: np.ndarray, dead_s: float) -> np.ndarray:
    """Oracle: the sequential rule, one searchsorted call per accepted
    event. It searches for the float key t + dead_s, which can differ by one
    ulp from the t - last >= dead_s test of the loop in
    test_dead_time_filter_matches_reference_loop."""
    if dead_s <= 0.0 or times_s.size == 0:
        return times_s
    keep = np.zeros(times_s.size, dtype=bool)
    i = 0
    n = times_s.size
    while i < n:
        keep[i] = True
        i = int(np.searchsorted(times_s, times_s[i] + dead_s, side="left"))
    return times_s[keep]


# each step places the next event relative to one of the last three events
# and the dead time: a tie, exactly on that event's float key t + dead, one
# ulp under it, inside its dead window, or clear of it
_DEAD_STEPS = ("tie", "at_key", "under_key", "inside", "clear")


@st.composite
def dead_time_chains(draw):
    dead = draw(st.sampled_from((1e-9, 5e-8, 3e-7, 1e-6, 1e-5)))
    times = [draw(st.floats(0.0, 1.0))]
    for step, back, frac in draw(st.lists(
            st.tuples(st.sampled_from(_DEAD_STEPS), st.integers(1, 3),
                      st.floats(0.0, 1.0)),
            max_size=60)):
        ref = times[-min(back, len(times))]
        if step == "tie":
            t = ref
        elif step == "at_key":
            t = ref + dead
        elif step == "under_key":
            t = math.nextafter(ref + dead, -math.inf)
        elif step == "inside":
            t = ref + frac * dead
        else:
            t = ref + (1.0 + 3.0 * frac) * dead
        times.append(max(t, times[-1]))
    return np.array(times, dtype=np.float64), dead


# config key -> (lab-scale SI range, largest valid value): the largest keeps
# every internal value (nm, ns, ps) finite and every efficiency <= 1
_SI_CONFIG_RANGES = {
    "pump_power_w": ((1e-9, 1.0), 1e300),
    "coupling_efficiency": ((1e-3, 1.0), 1.0),
    "pump_wavelength_m": ((3e-7, 2e-6), 1e290),
    "conversion_efficiency": ((1e-14, 1e-4), 1.0),
    "spectral_fwhm_m": ((1e-10, 1e-7), 1e290),
    "mu1": ((1e-3, 1.0), 1.0),
    "mu2": ((1e-3, 1.0), 1.0),
    "eta1": ((1e-3, 1.0), 1.0),
    "eta2": ((1e-3, 1.0), 1.0),
    "dark1_hz": ((1.0, 1e6), 1e300),
    "dark2_hz": ((1.0, 1e6), 1e300),
    "dead_time_s": ((1e-10, 1e-6), 1e290),
    "jitter_s": ((1e-13, 1e-9), 1e290),
}


@st.composite
def si_config_texts(draw):
    """Config-file text as a user writes it: a positive SI value per key,
    mostly at lab scale, with the spectral center at twice the pump."""
    values = {}
    for key, ((lo, hi), top) in _SI_CONFIG_RANGES.items():
        values[key] = draw(st.one_of(
            st.floats(lo, hi), st.floats(0.0, top, exclude_min=True)))
    values["spectral_center_m"] = 2.0 * values["pump_wavelength_m"]
    values["splitter_present"] = draw(st.booleans())
    return keyvalue.format_keyvalue(values)


class TestConfigs:
    def test_reference_source_pins_rate(self):
        assert pair_rate(reference_source()).hz == pytest.approx(7.75e6, rel=1e-12)

    def test_conversion_efficiency_bounds(self):
        from dataclasses import replace
        with pytest.raises(ConfigError, match="conversion_efficiency"):
            replace(make_source(1e5), conversion_efficiency=1.5)

    def test_spectral_center_must_sit_at_degeneracy(self):
        with pytest.raises(ConfigError, match="degeneracy"):
            SourceConfig(pump_power=OpticalPower(1e-6),
                         coupling_efficiency=Efficiency(1.0),
                         pump_wavelength=Wavelength(657.0),
                         conversion_efficiency=1e-6,
                         spectral_center=Wavelength(1340.0),
                         spectral_fwhm_nm=30.0)

    def test_run_config_validation(self):
        with pytest.raises(ConfigError, match="duration"):
            RunConfig(0.0, seed=1)
        # the picosecond count must be at least 1 and fit int64
        for bad in (math.nan, 0.5e-12, 9.3e6, 1e300):
            with pytest.raises(ConfigError, match="duration"):
                RunConfig(bad, seed=1)
        assert RunConfig(0.6e-12, seed=1).duration_ps == 1
        assert RunConfig(9.2e6, seed=1).duration_ps == 9_200_000 * 10**12
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(1.0, seed=-1)
        # a resolution above the duration would overflow tick * resolution
        for bad in (0, -1, 10**12 + 1, 2**63 - 1, 2**63):
            with pytest.raises(ConfigError, match="resolution"):
                RunConfig(1.0, seed=1, timestamp_resolution_ps=bad)
        assert RunConfig(1.0, seed=1, timestamp_resolution_ps=10**12) \
            .timestamp_resolution_ps == 10**12

    def test_true_counts_invariant(self):
        with pytest.raises(ConfigError):
            TrueCounts(pairs_emitted=10, pairs_detected_coincident=11,
                       darks_emitted=(0, 0))

    def test_mapping_round_trip(self):
        src, chain = reference_source(), reference_chain()
        text = keyvalue.format_keyvalue(
            source_mod.config_to_mapping(src, chain))
        kv = keyvalue.parse_keyvalue(text)
        assert source_mod.config_from_mapping(kv) == (src, chain)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(si_config_texts())
    def test_si_text_round_trip_property(self, text):
        """A config read from SI text and written back (the manifest path
        that --from-manifest reloads) reloads to the same config, digest
        and text."""
        configs = source_mod.config_from_mapping(keyvalue.parse_keyvalue(text))
        written = keyvalue.format_keyvalue(
            source_mod.config_to_mapping(*configs))
        reloaded = source_mod.config_from_mapping(
            keyvalue.parse_keyvalue(written))
        assert reloaded == configs
        assert config_digest(*reloaded) == config_digest(*configs)
        assert keyvalue.format_keyvalue(
            source_mod.config_to_mapping(*reloaded)) == written

    def test_bundled_reference_config_matches_code(self):
        from importlib import resources
        text = resources.files("pairsim.data").joinpath(
            "reference_run_config.txt").read_text(encoding="utf-8")
        kv = keyvalue.parse_keyvalue(text)
        assert source_mod.config_from_mapping(kv) \
            == (reference_source(), reference_chain())

    def test_config_digest_tracks_changes(self):
        src, chain = reference_source(), reference_chain()
        d0 = config_digest(src, chain)
        assert d0 == config_digest(reference_source(), reference_chain())
        assert d0 == ("4f0480470ca0209d67b36b14db1aba3d"
                      "9d1d740f78adc5656e3cf7cec3c535b4")
        other = make_chain(dark1=23e3, dark2=22e3)
        assert config_digest(src, other) != d0


class TestPairRate:
    def test_published_conversion_value(self):
        src = SourceConfig(pump_power=OpticalPower(1.0e-6),
                           coupling_efficiency=Efficiency(1.0),
                           pump_wavelength=Wavelength(657.0),
                           conversion_efficiency=2.2e-6,
                           spectral_center=Wavelength(1314.0),
                           spectral_fwhm_nm=30.0)
        n = pair_rate(src).hz
        # frozen: 2.2e-6 * flux(1 uW, 657 nm)
        assert n == pytest.approx(7276312.086726232, rel=1e-12)
        assert abs(n - 7.5e6) / 7.5e6 < 0.10

    def test_zero_conversion(self):
        src = make_source(0.0)
        assert pair_rate(src).hz == 0.0

    def test_linear_in_pump_power(self):
        from dataclasses import replace
        src = make_source(1e6)
        doubled = replace(src,
                          pump_power=OpticalPower(2.0 * src.pump_power.watts))
        assert pair_rate(doubled).hz == pytest.approx(
            2.0 * pair_rate(src).hz, rel=1e-12)


class TestExpectedRates:
    def test_reference_point(self):
        s1, s2, rc = expected_rates(reference_source(), reference_chain())
        assert s1.hz == pytest.approx(155e3, rel=1e-12)
        assert s2.hz == pytest.approx(155e3, rel=1e-12)
        assert rc.hz == pytest.approx(1550.0, rel=1e-12)

    def test_dead_arm_kills_coincidences(self):
        s1, s2, rc = expected_rates(make_source(1e6), make_chain(mu2=0.0))
        assert s2.hz == 0.0 and rc.hz == 0.0 and s1.hz > 0.0

    def test_unit_efficiencies_without_splitter(self):
        src = make_source(2e5)
        s1, s2, rc = expected_rates(
            src, make_chain(mu1=1, mu2=1, eta1=1, eta2=1, splitter=False))
        n = pair_rate(src).hz
        assert s1.hz == s2.hz == rc.hz == n


class TestSimulateRun:
    def test_deterministic_per_seed(self):
        src, chain = make_source(2e5), make_chain(dark1=5e3, dark2=5e3)
        a, truth_a = simulate_run(src, chain, RunConfig(0.5, seed=9))
        b, truth_b = simulate_run(src, chain, RunConfig(0.5, seed=9))
        assert a == b and truth_a == truth_b
        c, _ = simulate_run(src, chain, RunConfig(0.5, seed=10))
        assert c != a

    def test_dark_substream_isolated_from_photons(self):
        src = make_source(2e5)
        run = RunConfig(0.5, seed=3)
        a, truth_a = simulate_run(src, make_chain(dark2=0.0), run)
        b, truth_b = simulate_run(src, make_chain(dark2=30e3), run)
        # photon-only detector 1 is untouched by the detector-2 dark toggle
        assert np.array_equal(a.times_for(1), b.times_for(1))
        assert truth_a.pairs_emitted == truth_b.pairs_emitted
        assert truth_a.pairs_detected_coincident == truth_b.pairs_detected_coincident

    def test_dark_only_run(self):
        src = make_source(0.0)
        chain = make_chain(dark1=22e3, dark2=22e3)
        stream, truth = simulate_run(src, chain, RunConfig(1.0, seed=5))
        assert truth.pairs_emitted == 0
        assert stream.counts() == truth.darks_emitted
        for n in stream.counts():
            assert abs(n - 22000) < 3.0 * math.sqrt(22000)

    def test_singles_and_coincidences_against_theory_1s(self):
        src, chain = reference_source(), reference_chain()
        stream, _ = simulate_run(src, chain, RunConfig(1.0, seed=21))
        n1, n2 = stream.counts()
        for n in (n1, n2):
            assert abs(n - 177e3) < 4.0 * math.sqrt(177e3)
        summary = net_summary(stream, WindowConfig(1.0, 100.0),
                              (Rate(22e3), Rate(22e3)))
        assert abs(summary.net_coincidences.hz - 1550.0) \
            < 4.0 * math.sqrt(1550.0 + 2 * 31.3)

    def test_splitter_factor_one_half(self):
        src = make_source(1e5)
        chain = make_chain(mu1=1, mu2=1, eta1=1, eta2=1, splitter=True)
        _, truth = simulate_run(src, chain, RunConfig(1.0, seed=31))
        frac = truth.pairs_detected_coincident / truth.pairs_emitted
        sigma = math.sqrt(0.25 / truth.pairs_emitted)
        assert abs(frac - 0.5) < 4.0 * sigma

    def test_no_splitter_unit_efficiency_all_coincident(self):
        src = make_source(1e5)
        chain = make_chain(mu1=1, mu2=1, eta1=1, eta2=1, splitter=False)
        stream, truth = simulate_run(src, chain, RunConfig(1.0, seed=32))
        assert truth.pairs_detected_coincident == truth.pairs_emitted
        assert stream.counts() == (truth.pairs_emitted, truth.pairs_emitted)

    @pytest.mark.parametrize("n_target,mu1,eta1,mu2,eta2,dark,splitter,duration", [
        (2e6, 0.2, 0.1, 0.2, 0.1, 22e3, True, 1.0),
        (5e5, 0.3, 0.1, 0.15, 0.2, 0.0, True, 1.0),
        (1e5, 0.5, 0.5, 0.5, 0.5, 5e3, False, 1.0),
        (2e4, 1.0, 1.0, 1.0, 1.0, 0.0, True, 1.0),
        (1e4, 0.8, 1.0, 0.8, 1.0, 1e3, False, 2.0),
        # unequal arm efficiencies, 0.02 vs 0.15
        (5e5, 0.2, 0.1, 0.5, 0.3, 1e3, True, 1.0),
        (5e5, 0.2, 0.1, 0.5, 0.3, 1e3, False, 1.0),
        # 3e9 emitted pairs, 6e5 detected photons
        (1e9, 0.01, 0.01, 0.01, 0.01, 0.0, True, 3.0),
    ])
    def test_monte_carlo_matches_closed_form(self, n_target, mu1, eta1, mu2,
                                             eta2, dark, splitter, duration):
        src = make_source(n_target)
        chain = make_chain(mu1=mu1, mu2=mu2, eta1=eta1, eta2=eta2,
                           dark1=dark, dark2=dark, splitter=splitter)
        s1, s2, rc = expected_rates(src, chain)
        stream, _ = simulate_run(src, chain, RunConfig(duration, seed=77))
        window = WindowConfig(1.0, 100.0)
        summary = net_summary(stream, window, (Rate(dark), Rate(dark)))

        for net, expect in ((summary.net_singles[0].hz, s1.hz),
                            (summary.net_singles[1].hz, s2.hz)):
            sigma = math.sqrt((expect + dark) * duration) / duration
            assert abs(net - expect) < 4.0 * sigma + 1e-9

        w_s = window.coincidence_window_ns * 1e-9
        acc = (s1.hz + dark) * (s2.hz + dark) * w_s
        sigma_c = math.sqrt((rc.hz + 2.0 * acc) * duration + 1.0) / duration
        assert abs(summary.net_coincidences.hz - rc.hz) < 4.0 * sigma_c

    def test_dead_time_filter_matches_reference_loop(self):
        from pairsim.source import _deadtime_filter

        def reference(times, dead):
            out, last = [], None
            for t in times:
                if last is None or t - last >= dead:
                    out.append(t)
                    last = t
            return out

        rng = np.random.default_rng(66)
        for _ in range(50):
            times = np.sort(rng.uniform(0.0, 1e-3, rng.integers(0, 400)))
            dead = float(rng.uniform(0.0, 5e-5))
            got = _deadtime_filter(times, dead)
            assert got.tolist() == reference(times.tolist(), dead)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dead_time_chains())
    def test_dead_time_filter_matches_sequential_oracle(self, chain):
        from pairsim.source import _deadtime_filter
        times, dead = chain
        got = _deadtime_filter(times, dead)
        assert got.dtype == times.dtype
        assert got.tolist() == deadtime_sequential(times, dead).tolist()

    def test_dead_time_below_float_spacing_rejected(self):
        # 1e-17 s vanishes next to event times near 1 s: t + dead == t, so
        # the sequential rule could never move past an event
        with pytest.raises(ConfigError, match="float spacing"):
            simulate_run(make_source(1e4), make_chain(dead_time_ns=1e-8),
                         RunConfig(1.0, seed=1))
        stream, _ = simulate_run(make_source(1e4),
                                 make_chain(dead_time_ns=1e-5),
                                 RunConfig(1.0, seed=1))
        assert stream.n_events > 0

    def test_dead_time_monotone(self):
        src = make_source(2e6)
        window = WindowConfig(1.0, 100.0)
        prev = None
        for dead_ns in (0.0, 10.0, 100.0, 1000.0, 10000.0):
            chain = make_chain(dark1=22e3, dark2=22e3, dead_time_ns=dead_ns)
            stream, _ = simulate_run(src, chain, RunConfig(0.5, seed=55))
            n1, n2 = stream.counts()
            rc = count_coincidences(stream, window).hz
            if prev is not None:
                assert n1 <= prev[0] and n2 <= prev[1] and rc <= prev[2]
            prev = (n1, n2, rc)
        # the largest dead time must actually have dropped events
        base, _ = simulate_run(src, make_chain(dark1=22e3, dark2=22e3),
                               RunConfig(0.5, seed=55))
        assert sum(prev[:2]) < base.n_events

    def test_jitter_spreads_coincidences(self):
        src = make_source(2e5)
        sharp, _ = simulate_run(src, make_chain(mu1=1, mu2=1, eta1=0.5, eta2=0.5),
                                RunConfig(1.0, seed=8))
        blurred, _ = simulate_run(
            src, make_chain(mu1=1, mu2=1, eta1=0.5, eta2=0.5, jitter_ps=500.0),
            RunConfig(1.0, seed=8))
        window = WindowConfig(1.0, 100.0)
        n_sharp = count_coincidences(sharp, window).hz
        n_blurred = count_coincidences(blurred, window).hz
        assert 0.0 < n_blurred < 0.8 * n_sharp

    def test_resolution_quantizes_timestamps(self):
        src = make_source(1e5)
        stream, _ = simulate_run(src, make_chain(dark1=1e3, dark2=1e3),
                                 RunConfig(0.5, seed=12,
                                           timestamp_resolution_ps=100))
        assert np.all(stream.times_ps % 100 == 0)
        assert stream.resolution_ps == 100

    def test_memory_budget_checked_before_generation(self):
        with pytest.raises(MemoryBudgetError, match="budget"):
            simulate_run(reference_source(), reference_chain(),
                         RunConfig(10.0, seed=1), max_events=1000)

    def test_pair_count_beyond_sampler_limit_rejected(self):
        # ~3.3e19 pairs over 10 s, none detected: within the event budget
        src = SourceConfig(pump_power=OpticalPower(1.0),
                           coupling_efficiency=Efficiency(1.0),
                           pump_wavelength=Wavelength(657.0),
                           conversion_efficiency=1.0,
                           spectral_center=Wavelength(1314.0),
                           spectral_fwhm_nm=30.0)
        with pytest.raises(MemoryBudgetError, match="emitted pairs"):
            simulate_run(src, make_chain(mu1=0.0, mu2=0.0),
                         RunConfig(10.0, seed=1))


class TestGoldenStream:
    """Per-seed output of a run with dead time and jitter, pinned bit for
    bit: a change to these values changes every reproduced event file and
    needs a new source.RNG_SCHEME."""

    @pytest.fixture(scope="class")
    def stream(self):
        chain = make_chain(mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=1e3,
                           dark2=1e3, dead_time_ns=50.0, splitter=False,
                           jitter_ps=300.0)
        stream, _ = simulate_run(make_source(2e6), chain,
                                 RunConfig(0.05, seed=20261018))
        return stream

    def test_stream_digest(self, stream):
        assert source_mod.RNG_SCHEME == "marked-1"
        assert stream.counts() == (43578, 43391)
        assert hashlib.sha256(stream.times_ps.astype("<i8").tobytes()) \
            .hexdigest() == ("c2134d3d501f62ac53d3e7118c94f6ab"
                             "46ed890e4c939f3afd7cc0ec2ed5efda")
        assert hashlib.sha256(stream.detectors.tobytes()).hexdigest() \
            == ("dc6076e23897ae1e89201100a2c15a0e"
                "38acb200fd1b35f2ab0f428d663fa3c2")

    def test_event_file_digest(self, stream, tmp_path):
        # computed with the previous per-line writer: the output_sha256 of
        # old manifests and --from-manifest reproduction rely on these bytes
        path = tmp_path / "golden.events"
        write_event_file(stream, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ebd243e605589c5c133a997f5e63f8d5f4c6069911c7527fc6b97ba8c656b975")
        assert read_event_file(path) == stream

    def test_net_summary_counts(self, stream):
        for window, counts in ((WindowConfig(2.0, 100.0), (18937, 66)),
                               (WindowConfig(100.0, 2000.0), (21295, 3681))):
            summary = net_summary(stream, window)
            assert summary.singles_counts == (43578, 43391)
            assert (summary.coincidence_count,
                    summary.accidental_count) == counts


class TestReferenceGoldenStream:
    """Per-seed output of the reference source and chain (splitter, darks,
    no dead time or jitter) at two timestamp resolutions, pinned bit for
    bit like TestGoldenStream."""

    @pytest.fixture(scope="class")
    def streams(self):
        return {res: simulate_run(reference_source(), reference_chain(),
                                  RunConfig(0.05, seed=20261018,
                                            timestamp_resolution_ps=res))[0]
                for res in (1, 100)}

    @pytest.mark.parametrize("res, times_sha256", [
        (1, "3207c0000c1935dcb7a2d41139163f12"
            "29cd0531bc0561aa1927f065f4223651"),
        (100, "0977be0f9eb760f8442feea77df365ef"
              "cd598e5304b30ab574535c5f2275ed15"),
    ])
    def test_stream_digest(self, streams, res, times_sha256):
        stream = streams[res]
        assert stream.counts() == (8706, 8781)
        assert hashlib.sha256(stream.times_ps.astype("<i8").tobytes()) \
            .hexdigest() == times_sha256
        assert hashlib.sha256(stream.detectors.tobytes()).hexdigest() \
            == ("397079fcfffc5a00b1e30d141dc76bba"
                "bd45ddf67a1ec203f077c857ed529762")

    def test_net_summary_counts(self, streams):
        for window, counts in ((WindowConfig(1.0, 100.0), (72, 0)),
                               (WindowConfig(100.0, 2000.0), (207, 146))):
            summary = net_summary(streams[1], window)
            assert (summary.coincidence_count,
                    summary.accidental_count) == counts


def traced_peak(call):
    """(result, peak bytes the call allocated above what it started with);
    tracemalloc sees numpy's array buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """Peak allocations per byte of the returned stream (9 bytes an event):
    the simulate -> count path works in place, with no per-arm photon copies
    and a merge that holds only its output."""

    @pytest.mark.parametrize("point, duration, budget", [
        ("reference", 1.0, 3.0),
        # the dead-time filter and the jitter edge cut copy one arm each
        ("dense", 0.1, 4.5),
    ])
    def test_simulate_and_net_summary_peaks(self, point, duration, budget):
        configs = {"reference": (reference_source(), reference_chain()),
                   "dense": (make_source(2e6), make_chain(
                       mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=1e3,
                       dark2=1e3, dead_time_ns=50.0, splitter=False,
                       jitter_ps=300.0))}
        (stream, _), peak = traced_peak(lambda: simulate_run(
            *configs[point], RunConfig(duration, seed=3)))
        nbytes = stream.times_ps.nbytes + stream.detectors.nbytes
        assert stream.n_events > 100_000
        assert peak <= budget * nbytes
        _, peak = traced_peak(lambda: net_summary(stream,
                                                  WindowConfig(1.0, 100.0)))
        assert peak <= 3.0 * nbytes


    def test_net_summary_peak_below_stream(self):
        # the delayed merge holds only the candidates (8 % of the stream)
        stream, _ = simulate_run(reference_source(), reference_chain(),
                                 RunConfig(1.0, seed=3))
        nbytes = stream.times_ps.nbytes + stream.detectors.nbytes
        _, peak = traced_peak(lambda: net_summary(stream,
                                                  WindowConfig(1.0, 100.0)))
        assert peak <= 1.0 * nbytes


class TestPairSpectrum:
    def test_fwhm_recovered(self):
        signal, idler = sample_pair_spectrum(reference_source(), 100_000, seed=2)
        fwhm = FWHM_SIGMA * signal.std()
        assert abs(fwhm - 30.0) / 30.0 < 0.03
        assert idler.shape == signal.shape

    def test_energy_conservation_every_sample(self):
        src = reference_source()
        signal, idler = sample_pair_spectrum(src, 100_000, seed=2)
        inv_sum = 1.0 / signal + 1.0 / idler
        rel = np.abs(inv_sum - 1.0 / src.pump_wavelength.nm) \
            * src.pump_wavelength.nm
        assert rel.max() < 1e-9

    def test_narrow_limit_collapses_to_degeneracy(self):
        from dataclasses import replace
        narrow = replace(reference_source(), spectral_fwhm_nm=0.001)
        signal, idler = sample_pair_spectrum(narrow, 10_000, seed=3)
        assert np.abs(signal - 1314.0).max() < 0.01
        assert np.abs(idler - 1314.0).max() < 0.01

    def test_deterministic(self):
        a = sample_pair_spectrum(reference_source(), 1000, seed=4)
        b = sample_pair_spectrum(reference_source(), 1000, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
