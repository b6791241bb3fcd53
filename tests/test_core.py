import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pairsim import (ConfigError, Efficiency, OpticalPower, Rate, Wavelength,
                     idler_wavelength, photon_flux)
from pairsim import (RunConfig, WindowConfig, reference_chain,
                     reference_source)


class TestPhotonFlux:
    def test_zero_power(self):
        assert photon_flux(OpticalPower(0.0), Wavelength(657.0)).hz == 0.0

    def test_one_microwatt_657nm(self):
        # frozen from hand arithmetic: 1e-6 W * 657e-9 m / (h c)
        flux = photon_flux(OpticalPower(1.0e-6), Wavelength(657.0)).hz
        assert flux == pytest.approx(3.30741458487556e12, rel=1e-12)
        assert flux == pytest.approx(3.31e12, rel=2e-3)

    def test_300mw_766nm(self):
        flux = photon_flux(OpticalPower(0.3), Wavelength(766.0)).hz
        assert flux == pytest.approx(1.1568399872213146e18, rel=1e-12)
        assert flux == pytest.approx(1.16e18, rel=5e-3)

    def test_linear_in_power(self):
        rng = np.random.default_rng(7)
        lam = Wavelength(657.0)
        base = photon_flux(OpticalPower(1.0), lam).hz
        for a in rng.uniform(0.0, 10.0, 50):
            scaled = photon_flux(OpticalPower(a), lam).hz
            assert scaled == pytest.approx(a * base, rel=1e-12, abs=1e-30)

    def test_rejects_bad_power(self):
        with pytest.raises(ConfigError):
            OpticalPower(-1e-6)
        with pytest.raises(ConfigError):
            OpticalPower(float("nan"))
        with pytest.raises(ConfigError):
            OpticalPower(float("inf"))


class TestIdlerWavelength:
    def test_degenerate_657(self):
        assert idler_wavelength(Wavelength(657.0), Wavelength(1314.0)).nm == 1314.0

    def test_degenerate_351(self):
        assert idler_wavelength(Wavelength(351.0), Wavelength(702.0)).nm == 702.0

    def test_500_750_gives_1500(self):
        li = idler_wavelength(Wavelength(500.0), Wavelength(750.0)).nm
        assert li == pytest.approx(1500.0, rel=1e-12)

    def test_signal_must_exceed_pump(self):
        with pytest.raises(ConfigError):
            idler_wavelength(Wavelength(657.0), Wavelength(657.0))
        with pytest.raises(ConfigError):
            idler_wavelength(Wavelength(657.0), Wavelength(400.0))

    def test_involution_about_degeneracy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lp = Wavelength(rng.uniform(300.0, 900.0))
            ls = Wavelength(lp.nm * rng.uniform(1.01, 1.99))
            li = idler_wavelength(lp, ls)
            back = idler_wavelength(lp, li)
            assert back.nm == pytest.approx(ls.nm, rel=1e-12)

    def test_degenerate_fixed_point_is_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            lp = rng.uniform(300.0, 900.0)
            assert idler_wavelength(Wavelength(lp), Wavelength(2.0 * lp)).nm \
                == 2.0 * lp


class TestValueTypes:
    def test_wavelength_positive(self):
        with pytest.raises(ConfigError):
            Wavelength(0.0)
        with pytest.raises(ConfigError):
            Wavelength(-5.0)
        with pytest.raises(ConfigError):
            Wavelength(math.inf)

    def test_wavelength_units(self):
        w = Wavelength(1314.0)
        assert w.um == pytest.approx(1.314)
        assert w.meters == pytest.approx(1.314e-6)
        assert Wavelength.from_meters(657e-9).nm == pytest.approx(657.0)

    def test_rate_non_negative(self):
        assert Rate(0.0).hz == 0.0
        with pytest.raises(ConfigError):
            Rate(-1.0)

    def test_efficiency_bounds(self):
        assert Efficiency(0.0).value == 0.0
        assert Efficiency(1.0).value == 1.0
        with pytest.raises(ConfigError):
            Efficiency(1.0001)
        with pytest.raises(ConfigError):
            Efficiency(-0.0001)


# every numeric config field: name -> (build an object with the field set to
# a value, read the field back, the field's bound, whole-number field)
_SOURCE, _CHAIN = reference_source(), reference_chain()
NUMBER_FIELDS = {
    "Wavelength.nm": (Wavelength, lambda o: o.nm, lambda x: x > 0, False),
    "OpticalPower.watts": (OpticalPower, lambda o: o.watts,
                           lambda x: x >= 0, False),
    "Rate.hz": (Rate, lambda o: o.hz, lambda x: x >= 0, False),
    "Efficiency.value": (Efficiency, lambda o: o.value,
                         lambda x: 0 <= x <= 1, False),
    "SourceConfig.conversion_efficiency": (
        lambda v: replace(_SOURCE, conversion_efficiency=v),
        lambda o: o.conversion_efficiency, lambda x: 0 <= x <= 1, False),
    "SourceConfig.spectral_fwhm_nm": (
        lambda v: replace(_SOURCE, spectral_fwhm_nm=v),
        lambda o: o.spectral_fwhm_nm, lambda x: x > 0, False),
    "DetectionChainConfig.dead_time_ns": (
        lambda v: replace(_CHAIN, dead_time_ns=v),
        lambda o: o.dead_time_ns, lambda x: x >= 0, False),
    "DetectionChainConfig.jitter_ps": (
        lambda v: replace(_CHAIN, jitter_ps=v),
        lambda o: o.jitter_ps, lambda x: x >= 0, False),
    # duration_ps = round(duration_s * 1e12) must lie in [1, 2^63)
    "RunConfig.duration_s": (
        lambda v: RunConfig(v, 1), lambda o: o.duration_s,
        lambda x: 0.5 < x * 1e12 < 2.0**63, False),
    "RunConfig.seed": (lambda v: RunConfig(1.0, v), lambda o: o.seed,
                       lambda n: 0 <= n < 2**64, True),
    # at most the run's 10^12 ps
    "RunConfig.timestamp_resolution_ps": (
        lambda v: RunConfig(1.0, 1, v), lambda o: o.timestamp_resolution_ps,
        lambda n: 1 <= n <= 10**12, True),
    # the delay must exceed 10 windows: 1e300 ns leaves every window below
    # 1e299 ns in bounds
    "WindowConfig.coincidence_window_ns": (
        lambda v: WindowConfig(v, 1e300), lambda o: o.coincidence_window_ns,
        lambda x: 0 < x and 10.0 * x < 1e300, False),
    "WindowConfig.accidental_delay_ns": (
        lambda v: WindowConfig(1.0, v), lambda o: o.accidental_delay_ns,
        lambda x: x > 10.0, False),
}

# floats (nan, +-inf and -0.0 among them), ints (10**400 too), bools, numpy
# scalars, strings and None
any_value = st.one_of(
    st.floats(), st.integers(), st.sampled_from([10**400, -10**400, 2**64]),
    st.booleans(), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([np.True_, np.float64(math.nan)]), st.text(max_size=4),
    st.none())


def _accepted(value, ok, whole):
    """The stored value the rule gives, or None where it refuses: a real
    number that is not a bool, finite, in bounds (and whole for a
    whole-number field), as a Python float or int."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        return None
    if isinstance(value, (int, np.integer)):
        exact = int(value)
    elif math.isfinite(value):
        exact = float(value)
    else:
        return None
    if whole:
        return int(exact) if exact == int(exact) and ok(int(exact)) else None
    try:
        exact = float(exact)
    except OverflowError:       # an int beyond the float range
        return None
    return exact if ok(exact) else None


@pytest.mark.parametrize("build, read, ok, whole", NUMBER_FIELDS.values(),
                         ids=NUMBER_FIELDS.keys())
@settings(derandomize=True, deadline=None, max_examples=100)
@given(value=any_value)
@example(value=math.nan)
@example(value=-math.inf)
@example(value=-0.0)
@example(value=10**400)
@example(value=True)
@example(value="5")
@example(value=None)
@example(value=np.float32(0.1))
def test_one_rule_for_every_number_field(build, read, ok, whole, value):
    # accepted exactly when a non-bool real is finite and in bounds, and
    # stored as the float (or int) equal to it; anything else is a
    # ConfigError, never another exception
    expect = _accepted(value, ok, whole)
    if expect is None:
        with pytest.raises(ConfigError):
            build(value)
    else:
        stored = read(build(value))
        assert type(stored) is (int if whole else float)
        assert stored == expect == value
