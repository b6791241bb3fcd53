import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import (ConfigError, DetectionChainConfig, Efficiency,
                     EventStream, MemoryBudgetError, OpticalPower, Rate, RunConfig,
                     SourceConfig, TrueCounts, Wavelength, WindowConfig,
                     config_digest, count_coincidences, estimate_accidentals,
                     expected_rates, net_summary, pair_rate, photon_flux,
                     read_event_file, reference_chain, reference_source,
                     sample_pair_spectrum, simulate_run, write_event_file)
from pairsim import DataFormatError, counting, events, keyvalue
from pairsim import source as source_mod
from pairsim import (EstimateInput, QpmPoint, estimate,
                     solve_degeneracy_temperature, solve_poling_period,
                     solve_signal_wavelength, solve_temperature,
                     temperature_tuning_curve)

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


def deadtime_sequential(times_ps: np.ndarray, dead_ps: int) -> np.ndarray:
    """Oracle: the sequential rule on sorted int64 ps, one searchsorted call
    per accepted event for the key t + dead_ps."""
    if dead_ps <= 0 or times_ps.size == 0:
        return times_ps
    keep = np.zeros(times_ps.size, dtype=bool)
    i = 0
    n = times_ps.size
    while i < n:
        keep[i] = True
        i = int(np.searchsorted(times_ps, times_ps[i] + dead_ps, side="left"))
    return times_ps[keep]


# each step places the next event relative to one of the last three events
# and the dead time: a tie, exactly on that event's key t + dead, one ps
# under it, inside its dead window, or clear of it
_DEAD_STEPS = ("tie", "at_key", "under_key", "inside", "clear")


@st.composite
def dead_time_chains(draw):
    dead = draw(st.sampled_from((1, 1000, 50_000, 300_000, 10**6, 10**7)))
    times = [draw(st.integers(0, 10**12))]
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
            t = ref + dead - 1
        elif step == "inside":
            t = ref + int(frac * dead)
        else:
            t = ref + dead + int(3.0 * frac * dead)
        times.append(max(t, times[-1]))
    return np.array(times, dtype=np.int64), dead


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


def internal_values():
    """Finite doubles >= 0: random bit patterns over every exponent, the
    subnormals included, hypothesis floats, and every power of two."""
    return st.one_of(
        st.integers(0, 0x7FEF_FFFF_FFFF_FFFF).map(
            lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
        st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True),
        st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)))


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
        for bad in (math.nan, 0.5e-12, 9.3e6, 1e300, '1', None):
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

    def test_run_config_rejects_non_integer_seed_and_resolution(self):
        # int() would truncate these, or numpy fail on them inside the run
        for bad in (1.9, math.nan, math.inf, np.float64(math.inf), "3"):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                RunConfig(1e-4, seed=bad)
        for bad in (100.7, math.nan, math.inf, "100"):
            with pytest.raises(ConfigError,
                               match="timestamp_resolution_ps must be an "
                                     "integer"):
                RunConfig(1e-4, seed=1, timestamp_resolution_ps=bad)
        # a whole float is accepted and stored as the int it equals
        run = RunConfig(1e-4, seed=2.0, timestamp_resolution_ps=100.0)
        assert (run.seed, run.timestamp_resolution_ps) == (2, 100)
        assert type(run.seed) is type(run.timestamp_resolution_ps) is int
        stream, _ = simulate_run(make_source(1e5), make_chain(), run)
        assert stream.resolution_ps == 100 and stream.seed == 2

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

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(st.sampled_from([("dead_time_s", "dead_time_ns", 1e9),
                            ("jitter_s", "jitter_ps", 1e12)]),
           internal_values())
    def test_si_value_scales_back_when_a_neighbour_does(self, field, x):
        """Whenever x / scale or one of its two float neighbours times the
        scale gives back the internal value x, the SI value
        config_to_mapping writes does too."""
        from dataclasses import replace
        key, name, scale = field
        chain = replace(reference_chain(), **{name: x})
        written = source_mod.config_to_mapping(reference_source(), chain)[key]
        y = x / scale
        if any(c * scale == x for c in (y, math.nextafter(y, math.inf),
                                        math.nextafter(y, -math.inf))):
            assert written * scale == x

    def test_bundled_reference_config_matches_code(self):
        text = keyvalue._bundled(
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

    @pytest.mark.parametrize("splitter", [True, False])
    @pytest.mark.parametrize("e1", [0.0, 0.02, 0.45, 1.0])
    @pytest.mark.parametrize("e2", [0.0, 0.02, 0.45, 1.0])
    def test_fate_table_gives_the_docstring_closed_forms(self, splitter, e1,
                                                         e2):
        # S_i = e_i N and Rc = f e1 e2 N, read from _CLICKS and _fates
        src, chain = make_source(3e5), make_chain(
            mu1=e1, mu2=e2, eta1=1.0, eta2=1.0, splitter=splitter)
        s1, s2, rc = expected_rates(src, chain)
        n, f = pair_rate(src).hz, 0.5 if splitter else 1.0
        assert s1.hz == pytest.approx(e1 * n, rel=1e-12, abs=0.0)
        assert s2.hz == pytest.approx(e2 * n, rel=1e-12, abs=0.0)
        assert rc.hz == pytest.approx(f * e1 * e2 * n, rel=1e-12, abs=0.0)
        fates = source_mod._fates(chain)
        assert len(fates) == len(source_mod._CLICKS) == 9
        assert abs(math.fsum(fates) - 1.0) <= 1e-15


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

    def test_stream_follows_the_fate_table(self):
        # without dead time and jitter every drawn time is kept: each
        # same-port pair, class (k, k) at flat index 4 k, is written twice
        # on detector k (a zero gap), and each detector holds its classes'
        # clicks plus its darks
        src, chain = reference_source(), reference_chain()
        assert chain.splitter_present
        assert chain.dead_time_ns == 0.0 and chain.jitter_ps == 0.0
        run = RunConfig(0.05, seed=3)
        stream, truth = simulate_run(src, chain, run)
        classes = source_mod._Draw(src, chain, run)._classes.sum(0)
        for k in (0, 1):
            times = stream.times_for(k + 1)
            assert np.count_nonzero(np.diff(times) == 0) == classes[4 * k]
            clicks = sum(int(n) * c[k]
                         for n, c in zip(classes, source_mod._CLICKS))
            assert stream.counts()[k] == clicks + truth.darks_emitted[k]

    def test_dead_time_filter_matches_reference_loop(self):
        from pairsim.events import _deadtime_filter

        def reference(times, dead):
            out, last = [], None
            for t in times:
                if last is None or t - last >= dead:
                    out.append(t)
                    last = t
            return out

        rng = np.random.default_rng(66)
        for _ in range(50):
            times = np.sort(rng.integers(0, 10**9, rng.integers(0, 400)))
            dead = int(rng.integers(0, 5 * 10**7))
            got = times[~_deadtime_filter(times, dead)]
            assert got.tolist() == reference(times.tolist(), dead)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dead_time_chains())
    def test_dead_time_filter_matches_sequential_oracle(self, chain):
        from pairsim.events import _deadtime_filter
        times, dead = chain
        dropped = _deadtime_filter(times, dead)
        assert dropped.dtype == bool and dropped.shape == times.shape
        assert times[~dropped].tolist() \
            == deadtime_sequential(times, dead).tolist()

    def test_dead_time_acts_in_whole_ps(self):
        # at unit efficiency with the splitter, half the pairs put both
        # photons on one detector at the same ps; a dead time of 1e-8 ns
        # acts as 1 ps and removes exactly those repeats
        src = make_source(1e5)
        run = RunConfig(0.2, seed=1)
        unit = dict(mu1=1, mu2=1, eta1=1, eta2=1, dark1=1e3, dark2=1e3)
        free, _ = simulate_run(src, make_chain(**unit), run)
        for dead_ns in (1e-8, 5e-4):
            dead, _ = simulate_run(
                src, make_chain(**unit, dead_time_ns=dead_ns), run)
            for k in (1, 2):
                assert dead.times_for(k).tolist() \
                    == np.unique(free.times_for(k)).tolist()
        assert dead.n_events < free.n_events - 1000

    def test_dead_time_ceiling_is_exact(self):
        # oracle: the exact rational ceiling; the dead times 1 ... 1000 ns
        # and 1 ... 1000 ps as read from SI text, then log-uniform values
        from fractions import Fraction
        from pairsim.source import _ceil_ps
        rng = np.random.default_rng(9)
        values = [float(f"{k}e-{e}") * 1e9 for e in (9, 12)
                  for k in range(1, 1001)]
        values += [0.0, 5e-324, 1e-3, 50.0, 2.0**-30, 1e300]
        values += (10.0 ** rng.uniform(-6.0, 6.0, 100_000)).tolist()
        for ns in values:
            assert _ceil_ps(ns) == math.ceil(Fraction(ns) * 1000), ns

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

    @pytest.mark.parametrize("resolution", [1, 100])
    @pytest.mark.parametrize("point", ["reference", "dense"])
    def test_stream_order_resolution_and_dead_time(self, point, resolution):
        src, chain = {
            "reference": (reference_source(), reference_chain()),
            "dense": (make_source(2e6), make_chain(
                mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=1e3, dark2=1e3,
                dead_time_ns=50.0, splitter=False, jitter_ps=300.0))}[point]
        stream, _ = simulate_run(src, chain, RunConfig(
            0.05, seed=4, timestamp_resolution_ps=resolution))
        t, det = stream.times_ps, stream.detectors
        tie = np.diff(t) == 0
        assert np.all(np.diff(t) >= 0) and np.any(tie)
        # detector 1 first at equal times
        assert not np.any(tie & (det[:-1] == 2) & (det[1:] == 1))
        assert np.all(t % resolution == 0)
        dead_ps = math.ceil(chain.dead_time_ns * 1000)
        for k in (1, 2):
            assert np.all(np.diff(stream.times_for(k)) >= dead_ps)

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
        assert source_mod.RNG_SCHEME == "marked-3"
        assert stream.counts() == (43175, 43330)
        assert hashlib.sha256(stream.times_ps.astype("<i8").tobytes()) \
            .hexdigest() == ("7928bd19b2038f852248fe1e40dee3b3"
                             "571ec9e65fe1737fe7db2eab7b81e8d9")
        assert hashlib.sha256(stream.detectors.tobytes()).hexdigest() \
            == ("33f9d13abbb9a8c05b6507b2b6f1116f"
                "8a9e67f7a7ab22bbcdef8ef38353a2d6")

    def test_binary_event_file_digest(self, stream, tmp_path):
        # the v2 bytes simulate writes by default: header, then packed columns
        path = tmp_path / "golden.events"
        write_event_file(stream, path)
        assert path.stat().st_size == 186 + 9 * stream.n_events
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e1da6bd1a7e7c1d49bf7dc339f1cb4cef4f1717312de5bcb3758af147bf9d3b6")
        assert read_event_file(path) == stream

    def test_net_summary_counts(self, stream):
        for window, counts in ((WindowConfig(2.0, 100.0), (18782, 64)),
                               (WindowConfig(100.0, 2000.0), (21072, 3638))):
            summary = net_summary(stream, window)
            assert summary.singles_counts == (43175, 43330)
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
        (1, "da5c31ed669afbbc60f381b73db2c28a"
            "7740d8406b947c643c4707b6ec114ad3"),
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


class TestBlockGoldenStreams:
    """Per-seed output of runs that span several slabs and draw more than
    2^16 values of one kind, pinned bit for bit like TestGoldenStream: the
    dense point's pair classes, photons per arm and jitter draws (6 slabs),
    1 MHz darks (3 slabs), and unit efficiency with jitter in 537 us slabs,
    under 2^32 ps, where numpy draws bounded 32-bit integers (8 slabs)."""

    RUNS = {
        "dense-0.2": (2e6, dict(mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9,
                                dark1=1e3, dark2=1e3, dead_time_ns=50.0,
                                splitter=False, jitter_ps=300.0), 0.2),
        "darks-1mhz-0.1": (7.75e6, dict(dark1=1e6, dark2=1e6), 0.1),
        "unit-efficiency-4ms": (5e7, dict(mu1=1.0, mu2=1.0, eta1=1.0,
                                          eta2=1.0, splitter=False,
                                          jitter_ps=50.0), 0.004),
    }

    # the case ids are the names these cases ran under when marked-2 pinned
    # them; the digests are marked-3's
    @pytest.mark.parametrize("name, counts, times_sha256, detectors_sha256", [
        pytest.param(
            "dense-0.2", (172210, 172452),
            "5e1ae3524a736246a813200a9606acffc64de249a7859311cd70f1b970699f0f",
            "596ffca0f29df28193057a8792aa366d2d601d766e35807b93a23d1f1064cd06",
            id="dense-0.2-counts0-56617bb5c6170dcf771329f7e2fba4430f634dee2846"
               "a88124218688c8f0ad2e-40dbe9d5a462d65e77d4a6d68de4164d9466031c"
               "cc2ad08f65a85b6ae6d3deb5"),
        pytest.param(
            "darks-1mhz-0.1", (115165, 115456),
            "7761752bb74299e94bfdc55407c97b5e9d38a87f98efe6d466e199fa6ea0ee69",
            "cdb60820bc47d9481b65051b734d7c5727219f60c8402b065fb0a22d8fbc088b",
            id="darks-1mhz-0.1-counts1-6d4aa30b81018fc10c5057897f0e1e554a9891"
               "f8f71a07a40bc4b69724a556b1-2f9ba3e56b427d8250cca48068a38a612d"
               "e24a7b18d44ed0a04f6e05c765d4e0"),
        pytest.param(
            "unit-efficiency-4ms", (199759, 199759),
            "68c69ff85d52f72d08ab50857254a92bcba56fa8f1b79c600c5a5ff2b486d24b",
            "e043c9eca996e7ee17b38e41873b559f3150a2521632c976d732a92b8fa444a2",
            id="unit-efficiency-4ms-counts2-b6a708db5a6dd32f004908ac40bafc9722"
               "081dc62141bfbe2b1ba0e68d18ea8f-7879f1489ef280074cc680f3dd8189"
               "8034791e7f48914b18c3208465447bd3c3"),
    ])
    def test_stream_digest(self, name, counts, times_sha256,
                           detectors_sha256):
        pair_hz, chain, duration = self.RUNS[name]
        stream, truth = simulate_run(make_source(pair_hz), make_chain(**chain),
                                     RunConfig(duration, seed=20261019))
        assert max(truth.pairs_detected_coincident,
                   *truth.darks_emitted) > 1 << 16
        assert stream.counts() == counts
        assert hashlib.sha256(stream.times_ps.astype("<i8").tobytes()) \
            .hexdigest() == times_sha256
        assert hashlib.sha256(stream.detectors.tobytes()).hexdigest() \
            == detectors_sha256

    @pytest.mark.parametrize("width", [2**62 + 12345, 4_000_000_001])
    def test_slab_draws_depend_on_the_slab_width_alone(self, width):
        # marked-3 draws a slab's times with integers(lo, lo + width): numpy
        # gives the values of integers(0, width) shifted by lo, on the
        # 64-bit and on the bounded 32-bit path, so every full slab draws
        # alike wherever it lies in the run. Its jitter, sigma times
        # standard_normal, is clipped at 64 sigma, a bound the sampler
        # never reaches (its ziggurat tail ends below 13.8)
        n = 3 * (1 << 16) + 12345
        lo = 2**63 - 1 - width      # the last slab of the longest run
        one, shifted = (source_mod._substream(7, 0) for _ in range(2))
        assert np.array_equal(one.integers(lo, lo + width, n),
                              lo + shifted.integers(0, width, n))
        assert one.integers(0, 2**63) == shifted.integers(0, 2**63)
        z = source_mod._substream(7, source_mod._SUB_JITTER).standard_normal(
            1 << 22)
        assert np.abs(z).max() < 13.8


class TestDeadTimeResolutionGoldenStreams:
    """TestBlockGoldenStreams' dense-0.2 run at coarse timestamp
    resolutions, pinned bit for bit: the dead time acts on whole ps before
    the times are quantised, and the detectors' keys are sorted after. The
    slab length is a multiple of the resolution, so each resolution draws
    its own events."""

    # the case ids are the names these cases ran under when marked-2 pinned
    # them; the digests are marked-3's
    @pytest.mark.parametrize("resolution, times_sha256, detectors_sha256", [
        pytest.param(
            100,
            "1229197989703aa7c09b076b57ac9dbdff5709fda304655e1b4f4e1cb1dce998",
            "97c35b9290b7f691850631582f78ce6127834fbeb908c58c4afb4932434e7b2b",
            id="100-f82c3dc947ff7589c7e748aa4a65379ff124dc376818bb16a82ba29ebd"
               "66b49a-248c858c4e9a6dad95ba4d5213513452487c60b6a904ea7a558a4a"
               "a888e6b2c7"),
        pytest.param(
            7,
            "3e9fa384d2c59bcd855c890b43eb4e0eeb245f6209a851c81fd89c032e7e5f84",
            "0afbf97da9f238a3d6ef047bf7d93cb7f6f9654e0598d70352066c772134d428",
            id="7-89401d93f97def330743844653d522d08da0bcb37c79f132473f882bb8b7"
               "5f4b-49fab5e44bf279670666c7a6a7d1fcd6ec38384ce0fb6068109842ed"
               "ef3c1227"),
    ])
    def test_stream_digest(self, resolution, times_sha256, detectors_sha256):
        pair_hz, chain, duration = TestBlockGoldenStreams.RUNS["dense-0.2"]
        stream, _ = simulate_run(
            make_source(pair_hz), make_chain(**chain),
            RunConfig(duration, seed=20261019,
                      timestamp_resolution_ps=resolution))
        assert stream.counts() == {100: (172284, 172541),
                                   7: (172221, 172616)}[resolution]
        assert not np.any(stream.times_ps % resolution)
        assert hashlib.sha256(stream.times_ps.astype("<i8").tobytes()) \
            .hexdigest() == times_sha256
        assert hashlib.sha256(stream.detectors.tobytes()).hexdigest() \
            == detectors_sha256


class TestSlabSeams:
    """marked-3 draws a run in time slabs and finishes it region by region,
    a region ending one jitter clip before each slab's end. With the slab
    target patched down to 64 events, jitter of 1 us moves photons across
    seams and a 2 us dead time spans region ends; the stream must equal a
    whole-run construction from the same slab draws: one global sort, the
    sequential dead-time loop, then the resolution floor."""

    @pytest.mark.parametrize("resolution", [1, 7])
    def test_stream_equals_whole_run_construction(self, monkeypatch,
                                                  resolution):
        draws = []
        slab = source_mod._Draw._slab

        def recorded(self, j, rng_jitter, pending):
            # each half starts with the pending times of earlier slabs
            carried = [p.size for p in pending]
            buf, halves = slab(self, j, rng_jitter, pending)
            draws.append([half[n:].copy() for half, n in zip(halves, carried)])
            return buf, halves

        monkeypatch.setattr(source_mod._Draw, "_slab", recorded)
        monkeypatch.setattr(source_mod, "_SLAB_EVENTS", 64)
        src = make_source(1e6)
        chain = make_chain(mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=2e4,
                           dark2=2e4, dead_time_ns=2000.0, splitter=False,
                           jitter_ps=1e6)
        run = RunConfig(0.01, seed=11, timestamp_resolution_ps=resolution)
        stream, _ = simulate_run(src, chain, run)
        d, dead = run.duration_ps, 2_000_000
        width = source_mod._slab_ps(src, chain, run)
        assert width % resolution == 0 and width >= 64 * 1e6
        assert len(draws) == -(-d // width) > 100
        clip = source_mod._Draw(src, chain, run).clip_ps
        assert clip == 64_000_000

        merged = []
        for k in (0, 1):
            t = np.concatenate([slab_draws[k] for slab_draws in draws])
            t = deadtime_sequential(np.sort(t[(t >= 0) & (t < d)]), dead)
            merged.append(2 * (t // resolution * resolution) + k)
            # photons crossed seams, and dead time reached across them
            lo = np.repeat(np.arange(len(draws)) * width,
                           [slab_draws[k].size for slab_draws in draws])
            crossed = np.concatenate([slab_draws[k] for slab_draws in draws])
            assert np.count_nonzero((crossed < lo)
                                    | (crossed >= lo + width)) > 20
            ends = np.arange(1, len(draws)) * width - clip
            before = t[np.searchsorted(t, ends) - 1]
            assert np.count_nonzero(ends - before < dead) > 20
        keys = np.sort(np.concatenate(merged))
        assert np.array_equal(stream.times_ps, keys >> 1)
        assert np.array_equal(stream.detectors, (keys & 1) + 1)

    def test_gaps_and_singles_across_seams_follow_poisson_laws(
            self, monkeypatch):
        """No splitter and no dead time: each detector's events are a
        Poisson process. Checked across seams of 64-event slabs, in numpy
        only, with critical values fixed before the first run: Bonferroni
        over four checks at a 1 % family-wise level, so each check at
        0.25 %. A one-sample Kolmogorov-Smirnov test of each detector's
        gaps against the exponential law of its rate (sqrt(n) D below
        sqrt(ln(2 / 0.0025) / 2) = 1.83), and each detector's singles
        dispersion index var/mean over 200 seeds (within 3.03 standard
        errors sqrt(2 / 199) of 1)."""
        monkeypatch.setattr(source_mod, "_SLAB_EVENTS", 64)
        src = make_source(2e5)
        chain = make_chain(mu1=0.5, mu2=0.5, eta1=1.0, eta2=1.0, dark1=1e3,
                           dark2=1e3, splitter=False)
        rate_hz = 0.5 * 2e5 + 1e3
        stream, _ = simulate_run(src, chain, RunConfig(0.2, seed=2026))
        for k in (1, 2):
            gaps = np.sort(np.diff(stream.times_for(k))) * 1e-12
            n = gaps.size
            cdf = -np.expm1(-rate_hz * gaps)
            steps = np.arange(n + 1) / n
            d_stat = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
            assert n > 15_000 and math.sqrt(n) * d_stat < 1.83
        counts = np.array([simulate_run(src, chain, RunConfig(
            0.005, seed=seed))[0].counts() for seed in range(200)])
        for singles in counts.T:
            index = singles.var(ddof=1) / singles.mean()
            assert abs(index - 1.0) < 3.03 * math.sqrt(2.0 / 199)


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
    the simulate -> count path works in place, with no per-arm photon copies,
    at most one full-size temporary beyond the stream at a time, and a merge
    that holds only its output. simulate's dead time and jitter cut hold one
    1-byte mask per arm and sort its key buffer in place. The reference
    budgets are the measured ratios at these sizes plus about 10 %.
    tracemalloc does not see the buffer of numpy's stable sort, up to 4
    bytes per sorted key (peak RSS rise 4.0 bytes per key for two merged
    runs), so the budgets leave out the merge in the delayed count, the one
    stable sort left on this path."""

    # the case ids are the names these cases have always run under
    @pytest.mark.parametrize("point, duration, budget, net_budget", [
        pytest.param("reference", 1.0, 1.45, 0.35, id="reference-1.0-3.0"),
        # 2^16-value block temporaries weigh against a 1.6 MB stream
        pytest.param("dense", 0.1, 4.5, 3.0, id="dense-0.1-4.5"),
        # the key buffer, one arm's mask and the dead-time clusters: 1.19x
        pytest.param("dense", 0.5, 1.45, 3.0, id="dense-0.5-1.45"),
    ])
    def test_simulate_and_net_summary_peaks(self, point, duration, budget,
                                            net_budget):
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
        assert peak <= net_budget * nbytes
        if point == "dense":    # 1.47x while it held full-size masks
            assert peak <= 1.47 * nbytes

    def test_dense_net_summary_peak_does_not_grow_with_the_stream(self):
        # the counter walks the stream in 2^16-event blocks: five times the
        # events, the same peak
        chain = make_chain(mu1=0.5, mu2=0.5, eta1=0.9, eta2=0.9, dark1=1e3,
                           dark2=1e3, dead_time_ns=50.0, splitter=False,
                           jitter_ps=300.0)
        peaks = []
        for duration in (0.1, 0.5):
            stream, _ = simulate_run(make_source(2e6), chain,
                                     RunConfig(duration, seed=3))
            peaks.append(traced_peak(lambda: net_summary(
                stream, WindowConfig(1.0, 100.0)))[1])
        assert peaks[1] <= peaks[0] + 64 * 1024

    def test_reference_net_summary_peak_does_not_grow_with_the_stream(self):
        # the same at the reference point: three times the events, the same
        # peak, so test_net_summary_peak_below_stream's 1 s budget measures
        # the block size
        peaks = []
        for duration in (1.0, 3.0):
            stream, _ = simulate_run(reference_source(), reference_chain(),
                                     RunConfig(duration, seed=3))
            peaks.append(traced_peak(lambda: net_summary(
                stream, WindowConfig(1.0, 100.0)))[1])
        assert peaks[1] <= peaks[0] + 64 * 1024

    def test_long_delay_net_summary_peak_does_not_grow_with_the_stream(
            self):
        # a delay 1 ns under the run makes every event a candidate and puts
        # every delayed detector-2 time behind the walk; the cursor reads
        # them a block at a time, so three times the events, the same peak
        peaks = []
        for duration in (1.0, 3.0):
            stream, _ = simulate_run(reference_source(), reference_chain(),
                                     RunConfig(duration, seed=3))
            window = WindowConfig(0.05, duration * 1e9 - 1.0)
            assert window.delay_ps == stream.duration_ps - 1000
            peaks.append(traced_peak(lambda: net_summary(stream,
                                                         window))[1])
        assert peaks[1] <= peaks[0] + 64 * 1024

    def test_bad_byte_is_named_from_blocks(self, tmp_path):
        # the last detector byte set to 7: the count names its byte with at
        # most one block (9 bytes an event) more than it holds for the good
        # file, not the columns (1.47x the stream's bytes while it read
        # them whole)
        stream, _ = simulate_run(reference_source(), reference_chain(),
                                 RunConfig(1.0, seed=3))
        path = tmp_path / "bad.events"
        write_event_file(stream, path)
        reader = events._open_event_file(path)
        nbytes = stream.times_ps.nbytes + stream.detectors.nbytes

        def count():
            return counting._summary(reader, 500, 100_000, (Rate(0.0),) * 2)

        _, good = traced_peak(count)
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"\x07")

        def fault():
            with pytest.raises(DataFormatError) as info:
                count()
            return str(info.value)

        message, peak = traced_peak(fault)
        assert message == (f"{path}: byte {reader.body + nbytes - 1}: "
                           "detector index must be 1 or 2, got 7")
        assert peak <= good + 9 * events._BLOCK

    def test_binary_read_peak(self, tmp_path):
        # the two columns are read into their final arrays; EventStream's
        # checks allocate the rest
        stream, _ = simulate_run(reference_source(), reference_chain(),
                                 RunConfig(1.0, seed=3))
        path = tmp_path / "reference.events"
        write_event_file(stream, path)
        nbytes = stream.times_ps.nbytes + stream.detectors.nbytes
        read, peak = traced_peak(lambda: read_event_file(path))
        assert read == stream
        assert peak <= 1.5 * nbytes

    def test_stream_checks_hold_one_byte_per_event(self):
        # the detector range check allocates nothing full-size; the order
        # check holds one mask of a 2^16-event block, whatever the size
        stream, _ = simulate_run(reference_source(), reference_chain(),
                                 RunConfig(1.0, seed=3))
        _, peak = traced_peak(lambda: EventStream(
            stream.detectors, stream.times_ps, stream.duration_ps))
        assert peak <= 1.1 * stream.n_events
        assert peak <= (1 << 16) + 8192

    def test_net_summary_peak_below_stream(self):
        # the counter holds one 2^16-event block's temporaries, and its
        # merges hold only candidates (8 % of the stream)
        stream, _ = simulate_run(reference_source(), reference_chain(),
                                 RunConfig(1.0, seed=3))
        nbytes = stream.times_ps.nbytes + stream.detectors.nbytes
        _, peak = traced_peak(lambda: net_summary(stream,
                                                  WindowConfig(1.0, 100.0)))
        assert peak <= 0.35 * nbytes


def _stream(**meta):
    """A one-event EventStream, duration 10 ps unless meta replaces it."""
    return EventStream([1], [5], **{"duration_ps": 10, **meta})


# library calls with bad inputs: (call, the ConfigError's text)
BAD_LIBRARY_INPUTS = {
    "unequal columns": (lambda: EventStream([1, 2], [1, 2, 3], 10),
                        "1-d arrays of equal length"),
    "2-d columns": (lambda: EventStream([[1, 2]], [[1, 2]], 10),
                    "1-d arrays of equal length"),
    "times_for(3)": (lambda: EventStream([1, 2], [1, 2], 10).times_for(3),
                     "detector index must be 1 or 2, got 3"),
    "times_for(True)": (
        lambda: EventStream([1, 2], [1, 2], 10).times_for(True),
        "detector index must be 1 or 2, got True$"),
    "net_summary of a zero duration": (
        lambda: net_summary(EventStream([], [], 0)),
        "duration must be a whole number of ps in \\[1, "),
    "count_coincidences of a zero duration": (
        lambda: count_coincidences(EventStream([], [], 0)),
        "duration must be a whole number of ps in \\[1, "),
    "estimate_accidentals of a zero duration": (
        lambda: estimate_accidentals(EventStream([], [], 0)),
        "duration must be a whole number of ps in \\[1, "),
    "negative sample count": (
        lambda: sample_pair_spectrum(reference_source(), -1, seed=1),
        "sample count must be >= 0, got -1"),
    "5000 nm spectral width": (
        lambda: sample_pair_spectrum(dataclasses.replace(
            reference_source(), spectral_fwhm_nm=5000.0), 1000, seed=1),
        "spectral width is unphysically large"),
    # stream metadata that the event file could not write and read back
    "seed 1.5": (lambda: _stream(seed=1.5), "seed must be at most"),
    "seed -1": (lambda: _stream(seed=-1), "seed must be at most"),
    "seed 2**64": (lambda: _stream(seed=2**64), "seed must be at most"),
    "seed True": (lambda: _stream(seed=True), "seed must be at most"),
    "seed '7'": (lambda: _stream(seed="7"), "seed must be at most"),
    "duration 10.7 ps": (lambda: _stream(duration_ps=10.7),
                         "duration must be a whole number"),
    "duration nan": (lambda: _stream(duration_ps=math.nan),
                     "duration must be a whole number"),
    "duration inf": (lambda: _stream(duration_ps=math.inf),
                     "duration must be a whole number"),
    "duration '12'": (lambda: _stream(duration_ps="12"),
                      "duration must be a whole number"),
    "resolution 2.5 ps": (lambda: _stream(resolution_ps=2.5),
                          "resolution must be a whole number"),
    # a number field takes a real number, not a bool, str or None, and a
    # flag takes only a bool (a non-empty string is truthy)
    "Rate('5')": (lambda: Rate("5"), "rate must be >= 0 Hz, got '5'$"),
    "Rate(True)": (lambda: Rate(True), "rate must be >= 0 Hz, got True$"),
    "Efficiency(None)": (lambda: Efficiency(None),
                         "efficiency must lie in \\[0, 1\\], got None$"),
    "conversion_efficiency '0.1'": (
        lambda: dataclasses.replace(reference_source(),
                                    conversion_efficiency="0.1"),
        "conversion_efficiency must lie in \\[0, 1\\], got '0.1'$"),
    "dead_time_ns '5'": (
        lambda: dataclasses.replace(reference_chain(), dead_time_ns="5"),
        "dead_time_ns must be >= 0, got '5'$"),
    "jitter_ps True": (
        lambda: dataclasses.replace(reference_chain(), jitter_ps=True),
        "jitter_ps must be >= 0, got True$"),
    "splitter_present 'no'": (
        lambda: dataclasses.replace(reference_chain(),
                                    splitter_present="no"),
        "splitter_present must be True or False, got 'no'$"),
    "WindowConfig('1')": (lambda: WindowConfig("1"),
                          "coincidence window must be > 0 ns, got '1'$"),
    "RunConfig(True, 1)": (lambda: RunConfig(True, 1),
                           "duration_s must round to .*, got True$"),
    "RunConfig(1.0, True)": (lambda: RunConfig(1.0, True),
                             "seed must be an integer in .*, got True$"),
    "estimate duration_s 'x'": (
        lambda: estimate(EstimateInput(Rate(100), Rate(100), Rate(10)),
                         duration_s="x"),
        "duration_s must be > 0, got 'x'$"),
    "splitter_correction 'false'": (
        lambda: EstimateInput(Rate(100), Rate(100), Rate(10),
                              splitter_correction="false"),
        "splitter_correction must be True or False, got 'false'$"),
    "qpm_order True": (
        lambda: solve_poling_period(Wavelength(657.0), Wavelength(1314.0),
                                    100.0, qpm_order=True),
        "QPM order must be an odd positive integer, got True$"),
    "degeneracy period '12'": (
        lambda: solve_degeneracy_temperature(Wavelength(657.0), "12"),
        "poling period must be finite and > 0 um, got '12'$"),
    "sample count 1.5": (
        lambda: sample_pair_spectrum(reference_source(), 1.5, 1),
        "sample count must be >= 0, got 1.5$"),
    "Wavelength.from_meters('x')": (
        lambda: Wavelength.from_meters("x"),
        "wavelength in m must be finite, got 'x'$"),
    # a field whose unit is a class takes an instance of it, not a number
    "mu1 0.2": (lambda: dataclasses.replace(reference_chain(), mu1=0.2),
                "mu1 must be of type Efficiency, got 0.2$"),
    "dark2 0.0": (lambda: dataclasses.replace(reference_chain(), dark2=0.0),
                  "dark2 must be of type Rate, got 0.0$"),
    "pump_power 1e-3": (
        lambda: dataclasses.replace(reference_source(), pump_power=1e-3),
        "pump_power must be of type OpticalPower, got 0.001$"),
    # a QPM temperature takes the number rule
    "period solve at temperature '100'": (
        lambda: solve_poling_period(Wavelength(657.0), Wavelength(1314.0),
                                    "100"),
        "temperature must be a finite number of C, got '100'$"),
    "signal solve at temperature None": (
        lambda: solve_signal_wavelength(Wavelength(657.0), 12.4, None),
        "temperature must be a finite number of C, got None$"),
    "tuning curve over ['x']": (
        lambda: temperature_tuning_curve(Wavelength(657.0), 12.4, ["x"]),
        "temperature must be a finite number of C, got 'x'$"),
    "temperature window (20, 'x')": (
        lambda: solve_temperature(Wavelength(657.0), Wavelength(1314.0), 12.4,
                                  temperature_range_c=(20.0, "x")),
        "temperature must be a finite number of C, got 'x'$"),
    "QpmPoint temperature 'x'": (
        lambda: QpmPoint(12.4, "x", Wavelength(657.0), Wavelength(1314.0),
                         Wavelength(1314.0)),
        "temperature must be a finite number of C, got 'x'$"),
}


@pytest.mark.parametrize("call, message", BAD_LIBRARY_INPUTS.values(),
                         ids=BAD_LIBRARY_INPUTS.keys())
def test_bad_library_input_is_config_error(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


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
