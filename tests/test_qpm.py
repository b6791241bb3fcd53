import math

import numpy as np
import pytest

from pairsim import (ConfigError, DataFormatError, QpmPoint, SolverError,
                     Wavelength, default_sellmeier_model, idler_wavelength,
                     load_sellmeier_file, phase_mismatch, refractive_index,
                     solve_degeneracy_temperature, solve_poling_period,
                     solve_signal_wavelength, solve_temperature,
                     temperature_tuning_curve)
from pairsim import keyvalue, qpm

MODEL = default_sellmeier_model()

# frozen from an independent scalar evaluation of the published Jundt fit
NE_1314_100C = 2.1485170433928116
NE_657_100C = 2.2014770480331034
PERIOD_657_1314_100C_UM = 12.40558803690428


class TestRefractiveIndex:
    def test_frozen_value_at_1314nm_100c(self):
        n = refractive_index(MODEL, Wavelength(1314.0), 100.0)
        assert n == pytest.approx(NE_1314_100C, rel=1e-12)
        assert 2.1 < n < 2.2

    def test_normal_dispersion(self):
        n_pump = refractive_index(MODEL, Wavelength(657.0), 100.0)
        assert n_pump == pytest.approx(NE_657_100C, rel=1e-12)
        assert n_pump > refractive_index(MODEL, Wavelength(1314.0), 100.0)

    def test_small_thermo_optic_step(self):
        n0 = refractive_index(MODEL, Wavelength(1314.0), 100.0)
        n1 = refractive_index(MODEL, Wavelength(1314.0), 101.0)
        assert 0.0 < abs(n1 - n0) < 1e-3

    def test_bounded_over_validity(self):
        for lam in np.linspace(0.4, 2.0, 9):
            for t in np.linspace(20.0, 200.0, 7):
                n = refractive_index(MODEL, Wavelength(lam * 1e3), float(t))
                assert 1.0 < n < 3.0

    def test_out_of_range_errors_name_the_bound(self):
        with pytest.raises(ConfigError, match="wavelength"):
            refractive_index(MODEL, Wavelength(200.0), 100.0)
        with pytest.raises(ConfigError, match="temperature"):
            refractive_index(MODEL, Wavelength(1314.0), 300.0)


class TestModelFile:
    def test_bundled_model_identity(self):
        assert MODEL.name == "cln_ne_jundt1997"
        assert MODEL.wavelength_range_um == (0.40, 5.00)

    def test_load_from_file(self, tmp_path):
        text = keyvalue._bundled(
            "cln_ne_sellmeier.txt").read_text(encoding="utf-8")
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        model = load_sellmeier_file(path)
        assert model == MODEL

    def test_missing_coefficient_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("name = broken\na1 = 5.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="a2"):
            load_sellmeier_file(path)


class TestPolingPeriod:
    def test_device_operating_point(self):
        # bulk dispersion stands in for the guide: the published period of
        # the 657 -> 1314 nm device is 12.1 um at about 100 C, and the bulk
        # value must land within 15% of it
        point = solve_poling_period(Wavelength(657.0), Wavelength(1314.0), 100.0)
        assert point.poling_period_um == pytest.approx(
            PERIOD_657_1314_100C_UM, rel=1e-12)
        assert abs(point.poling_period_um - 12.1) / 12.1 < 0.15

    def test_round_trip_mismatch(self):
        point = solve_poling_period(Wavelength(657.0), Wavelength(1314.0), 100.0)
        assert abs(phase_mismatch(point)) < 1e-6

    def test_order_three_is_exactly_triple(self):
        p1 = solve_poling_period(Wavelength(657.0), Wavelength(1314.0), 100.0)
        p3 = solve_poling_period(Wavelength(657.0), Wavelength(1314.0), 100.0,
                                 qpm_order=3)
        assert p3.poling_period_um == 3.0 * p1.poling_period_um

    def test_even_order_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            solve_poling_period(Wavelength(657.0), Wavelength(1314.0), 100.0,
                                qpm_order=2)

    def test_bad_period_or_order_rejected_by_every_solver(self):
        pump, deg = Wavelength(657.0), Wavelength(1314.0)
        calls = {
            "point": lambda p, m: QpmPoint(p, 100.0, pump, deg, deg, m),
            "period": lambda p, m: solve_poling_period(pump, deg, 100.0,
                                                       qpm_order=m),
            "temperature": lambda p, m: solve_temperature(pump, deg, p,
                                                          qpm_order=m),
            "degeneracy": lambda p, m: solve_degeneracy_temperature(
                pump, p, qpm_order=m),
            "signal": lambda p, m: solve_signal_wavelength(pump, p, 120.0,
                                                           qpm_order=m),
            "curve": lambda p, m: temperature_tuning_curve(
                pump, p, [120.0], qpm_order=m),
        }
        for name, call in calls.items():
            for order in (0, 2, -1, math.nan):
                with pytest.raises(ConfigError, match="QPM order"):
                    call(12.4, order)
            if name == "period":
                continue
            for period in (math.nan, math.inf, 0.0, -1.0):
                with pytest.raises(ConfigError, match="poling period"):
                    call(period, 1)

    def test_random_round_trips(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pump = Wavelength(rng.uniform(600.0, 800.0))
            signal = Wavelength(rng.uniform(1100.0, 1700.0))
            t = float(rng.uniform(30.0, 180.0))
            point = solve_poling_period(pump, signal, t)
            assert abs(phase_mismatch(point)) < 1e-6
            inv_sum = 1.0 / point.signal.nm + 1.0 / point.idler.nm
            assert inv_sum == pytest.approx(1.0 / pump.nm, rel=1e-9)


class TestPhaseMismatch:
    def test_infinite_period_limit(self):
        pump = Wavelength(657.0)
        signal = Wavelength(1314.0)
        idler = idler_wavelength(pump, signal)
        t = 100.0
        huge = QpmPoint(poling_period_um=1e12, temperature_c=t, pump=pump,
                        signal=signal, idler=idler)
        n_p = refractive_index(MODEL, pump, t)
        n_s = refractive_index(MODEL, signal, t)
        n_i = refractive_index(MODEL, idler, t)
        limit = 2.0 * math.pi * (n_p / pump.meters - n_s / signal.meters
                                 - n_i / idler.meters)
        assert phase_mismatch(huge) == pytest.approx(limit, rel=1e-9)

    def test_published_device_point_is_close(self):
        # 12.1 um at 100 C against the bulk model: residual mismatch must be
        # small relative to the pump wavevector term
        pump = Wavelength(657.0)
        deg = Wavelength(1314.0)
        point = QpmPoint(poling_period_um=12.1, temperature_c=100.0,
                         pump=pump, signal=deg, idler=deg)
        scale = 2.0 * math.pi * refractive_index(MODEL, pump, 100.0) / pump.meters
        assert abs(phase_mismatch(point)) < 0.05 * scale

    def test_energy_conservation_enforced(self):
        with pytest.raises(ConfigError, match="energy conservation"):
            QpmPoint(poling_period_um=12.1, temperature_c=100.0,
                     pump=Wavelength(657.0), signal=Wavelength(1314.0),
                     idler=Wavelength(1300.0))


class TestDegeneracyTemperature:
    def test_round_trip_through_own_period(self):
        period = solve_poling_period(
            Wavelength(657.0), Wavelength(1314.0), 100.0).poling_period_um
        t_star = solve_degeneracy_temperature(Wavelength(657.0), period)
        assert abs(t_star - 100.0) < 0.05

    def test_root_brackets_zero(self):
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1314.0), 100.0).poling_period_um
        t_star = solve_degeneracy_temperature(pump, period)
        deg = Wavelength(1314.0)

        def mismatch(t):
            return phase_mismatch(QpmPoint(poling_period_um=period,
                                           temperature_c=t, pump=pump,
                                           signal=deg, idler=deg))

        assert abs(mismatch(t_star)) < 1e-6
        assert (mismatch(t_star - 5.0) < 0.0) != (mismatch(t_star + 5.0) < 0.0)

    def test_published_12p1_period_against_bulk_model(self):
        # with bulk dispersion the 12.1 um degeneracy point falls just above
        # 200 C; the search window is the model's (20-250 C for the bundled
        # fit), so it finds the root, and a model narrowed to 20-200 C
        # reports the documented error
        from dataclasses import replace
        pump = Wavelength(657.0)
        with pytest.raises(SolverError, match="no degeneracy temperature"):
            solve_degeneracy_temperature(pump, 12.1, replace(
                MODEL, temperature_range_c=(20.0, 200.0)))
        t_star = solve_degeneracy_temperature(pump, 12.1)
        assert 200.0 < t_star < 205.0
        deg = Wavelength(1314.0)
        residual = phase_mismatch(QpmPoint(
            poling_period_um=12.1, temperature_c=t_star, pump=pump,
            signal=deg, idler=deg))
        assert abs(residual) < 1e-6

    def test_float32_window_bisects_in_float(self):
        # the window's bounds take the number rule, so a numpy float32
        # window finds the root that the same float window finds
        pump, deg = Wavelength(657.0), Wavelength(1314.0)
        window = (np.float32(20.0), np.float32(250.0))
        assert (solve_temperature(pump, deg, 12.4, temperature_range_c=window)
                == solve_temperature(pump, deg, 12.4))

    def test_no_sign_change_is_an_error(self):
        with pytest.raises(SolverError, match="no degeneracy temperature"):
            solve_degeneracy_temperature(Wavelength(657.0), 10.0)


class TestSignalSolve:
    def test_round_trip_against_period_solve(self):
        pump = Wavelength(657.0)
        target = Wavelength(1400.0)
        period = solve_poling_period(pump, target, 100.0).poling_period_um
        point = solve_signal_wavelength(pump, period, 100.0)
        assert point.signal.nm == pytest.approx(1400.0, abs=1e-3)
        assert abs(phase_mismatch(point)) < 1e-6

    # 1.63 um (also 1.64, 1.65) comes back one ulp above itself through nm
    @pytest.mark.parametrize("max_um", [1.63, 1.64, 1.65])
    def test_model_edge_that_rounds_up_through_nm(self, max_um):
        from dataclasses import replace
        model = replace(MODEL, wavelength_range_um=(0.4, max_um))
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1400.0), 100.0,
                                     model).poling_period_um
        point = solve_signal_wavelength(pump, period, 100.0, model)
        assert point.signal.nm == pytest.approx(1400.0, abs=1e-3)

    def test_no_solution_below_degeneracy_temperature(self):
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1314.0), 100.0).poling_period_um
        with pytest.raises(SolverError, match="no phase-matched signal"):
            solve_signal_wavelength(pump, period, 60.0)

    def test_tuning_curve_forks_above_degeneracy(self):
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1314.0), 100.0).poling_period_um
        points = temperature_tuning_curve(pump, period,
                                          np.linspace(90.0, 140.0, 11))
        temps = [p.temperature_c for p in points]
        assert min(temps) >= 100.0
        signals = [p.signal.nm for p in points]
        assert signals == sorted(signals)
        for p in points:
            assert p.signal.nm >= 2.0 * pump.nm - 1e-6
            assert p.idler.nm <= 2.0 * pump.nm + 1e-6
            assert abs(phase_mismatch(p)) < 1e-6


def scalar_signal_scan(pump, grid, temperature_c, model=MODEL):
    """Oracle: the per-point scan the array scan replaced, three scalar
    refractive_index calls per signal wavelength."""
    values = []
    for nm in grid:
        signal = Wavelength(nm)
        values.append(qpm._index_sum_per_m(
            pump, signal, idler_wavelength(pump, signal), temperature_c, model))
    return values


def _bracketed_root(f, lo: float, hi: float, f_lo: float,
                    f_hi: float) -> float | None:
    """Root of f on [lo, hi] given f_lo = f(lo) and f_hi = f(hi), by
    bisection run to floating-point convergence; None when f has the same
    nonzero sign at both ends."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_interval_signal_root(pump, poling_period_um, temperature_c,
                             model=MODEL):
    """Oracle: the signal root search that qpm._first_root replaced, one
    _bracketed_root call per scan interval until one brackets a root; None
    when none does."""
    grating = 1 / (poling_period_um * 1e-6)

    def mismatch(signal_nm: float) -> float:
        signal = Wavelength(signal_nm)
        idler = idler_wavelength(pump, signal)
        return qpm._index_sum_per_m(pump, signal, idler, temperature_c,
                                    model) - grating

    grid = np.linspace(2.0 * pump.nm, model.wavelength_range_um[1] * 1e3, 512)
    values = [v - grating
              for v in scalar_signal_scan(pump, grid, temperature_c, model)]
    root_nm = None
    for i in range(len(grid) - 1):
        root_nm = _bracketed_root(mismatch, float(grid[i]), float(grid[i + 1]),
                                  values[i], values[i + 1])
        if root_nm is not None:
            break
    return root_nm


class TestSignalScan:
    @pytest.mark.parametrize("pump_nm,temperature_c", [
        (657.0, 60.0), (657.0, 100.0), (657.0, 140.0), (532.0, 25.0),
        (1064.0, 250.0), (404.5, 180.0)])
    def test_matches_scalar_path(self, pump_nm, temperature_c):
        pump = Wavelength(pump_nm)
        grid = np.linspace(2.0 * pump.nm, MODEL.wavelength_range_um[1] * 1e3,
                           512).tolist()

        def three_indices(signal_nm):
            # the mismatch from three refractive_index calls, outside the
            # kernel that the scan and _index_sum_per_m share
            signal = Wavelength(signal_nm)
            k_p, k_s, k_i = (
                refractive_index(MODEL, w, temperature_c) / w.meters
                for w in (pump, signal, idler_wavelength(pump, signal)))
            return k_p - k_s - k_i

        mismatch = qpm._mismatch_at(MODEL, temperature_c, pump, 0.0)
        got_grid, terms = qpm._signal_grid(pump.nm, grid[-1])
        assert list(got_grid) == grid
        assert [mismatch(t) for t in terms] \
            == [mismatch(qpm._signal_terms(pump.nm, nm)) for nm in grid] \
            == scalar_signal_scan(pump, grid, temperature_c) \
            == [three_indices(nm) for nm in grid]
        # the solver bounds the range of the whole scan by its ends: the
        # signal ascends along the grid and its idler descends
        idlers = [idler_wavelength(pump, Wavelength(nm)).nm for nm in grid]
        assert grid == sorted(grid) and idlers == sorted(idlers, reverse=True)

    # temperature and pump out of the validity range; the scan's own range
    # errors are pinned by test_idler_error_raises_before_the_root, and a
    # model edge that comes back one ulp above itself through nm (which an
    # unadjusted scan would cross) by
    # TestSignalSolve::test_model_edge_that_rounds_up_through_nm
    @pytest.mark.parametrize("pump_nm,temperature_c,max_um", [
        (657.0, 300.0, 5.0), (150.0, 100.0, 5.0)])
    def test_range_error_matches_scalar_path(self, pump_nm, temperature_c,
                                             max_um):
        from dataclasses import replace
        model = replace(MODEL, wavelength_range_um=(0.4, max_um))
        pump = Wavelength(pump_nm)
        grid = np.linspace(2.0 * pump.nm, max_um * 1e3, 512)
        with pytest.raises(ConfigError) as scalar:
            scalar_signal_scan(pump, grid, temperature_c, model)
        with pytest.raises(ConfigError) as solver:
            solve_signal_wavelength(pump, 12.4, temperature_c, model)
        assert str(solver.value) == str(scalar.value)

    def test_idler_error_raises_before_the_root(self):
        # a model that starts at the pump and reaches 1e20 um: near its top
        # the idler of this pump rounds one ulp below the pump, outside the
        # model, while the mismatch changes sign near an 18 um signal long
        # before that; the first point outside still raises, as in the
        # scalar path that scans every point first
        from dataclasses import replace
        pump = Wavelength(752.5483636861356)
        model = replace(MODEL, wavelength_range_um=(pump.um, 1e20))
        grid = np.linspace(2.0 * pump.nm, 1e23, 512)
        with pytest.raises(ConfigError, match="outside validity") as scalar:
            scalar_signal_scan(pump, grid, 100.0, model)
        with pytest.raises(ConfigError) as solver:
            solve_signal_wavelength(pump, 12.4, 100.0, model)
        assert str(solver.value) == str(scalar.value)

    def test_root_matches_per_interval_search(self):
        # periods designed near degeneracy at 60 and 140 C, swept from 20 C
        # (no solution below degeneracy) to 260 C (outside the model range);
        # the period that takes a 775 nm pump to a 3 um signal at 100 C
        # matches two signal wavelengths below 180 C, which pins the root
        # the scan takes
        for pump_nm, signal_nm, t_design in [
                (532.0, 1094.0, 60.0), (657.0, 1344.0, 60.0),
                (657.0, 1344.0, 140.0), (775.0, 1580.0, 140.0),
                (775.0, 3000.0, 100.0)]:
            pump = Wavelength(pump_nm)
            period = solve_poling_period(pump, Wavelength(signal_nm),
                                         t_design).poling_period_um
            for t in [*np.linspace(20.0, 240.0, 20).tolist(), 260.0]:
                try:
                    want = per_interval_signal_root(pump, period, t)
                except ConfigError as exc:
                    with pytest.raises(ConfigError) as got:
                        solve_signal_wavelength(pump, period, t)
                    assert str(got.value) == str(exc)
                    continue
                if want is None:
                    with pytest.raises(SolverError,
                                       match="no phase-matched signal"):
                        solve_signal_wavelength(pump, period, t)
                else:
                    assert solve_signal_wavelength(
                        pump, period, t).signal.nm == want


class TestSolveTemperatureGeneral:
    def test_matches_degenerate_form(self):
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1314.0), 130.0).poling_period_um
        point = solve_temperature(pump, Wavelength(1314.0), period)
        assert point.temperature_c == pytest.approx(130.0, abs=0.01)
        assert abs(phase_mismatch(point)) < 1e-6


def _outcome(solve, *args) -> str:
    """A solver's result by repr, or its error by type and text."""
    try:
        result = solve(*args)
    except (ConfigError, SolverError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, QpmPoint):
        result = (result.poling_period_um, result.temperature_c,
                  result.signal.nm, result.idler.nm, result.qpm_order)
    return repr(result)


def _golden_models(pump):
    """The bundled model and narrowed copies: an upper edge that comes back
    one ulp above itself through nm; one that starts at the pump and
    reaches 1e20 um, where for some pumps the idler of the top signals
    rounds below the pump, so the scan raises even though its root lies
    far below that point; upper edges one ulp below and one and three
    ulps above degeneracy."""
    from dataclasses import replace
    degenerate = 2.0 * pump.nm * 1e-3
    above = math.nextafter(degenerate, math.inf)
    three_above = math.nextafter(math.nextafter(above, math.inf), math.inf)
    return [MODEL, replace(MODEL, wavelength_range_um=(0.4, 1.63)),
            replace(MODEL, wavelength_range_um=(pump.um, 1e20)),
            *(replace(MODEL, wavelength_range_um=(pump.um, edge))
              for edge in (math.nextafter(degenerate, 0.0), above,
                           three_above))]


def golden_sweep_lines():
    """One line per solver call over a fixed grid of pumps, signals,
    periods, temperatures and models."""
    lines = []
    # 458.08..., 752.54... and 857.52... nm are pumps whose top idler
    # rounds below the pump under the 1e20 um model
    pumps = [Wavelength(nm) for nm in (150.0, 404.5, 458.0815751497359,
                                       532.0, 657.0, 752.5483636861356,
                                       857.5244425409053, 1064.0, 2600.0)]
    for pump in pumps:
        signals = [Wavelength(nm) for nm in (2.0 * pump.nm, 1.1 * pump.nm,
                                             2.3 * pump.nm, 3000.0, 6000.0)]
        periods = [6.0, 12.4]
        for signal in signals:
            for t in (25.0, 100.0, 260.0):
                for order in (1, 3):
                    lines.append(_outcome(solve_poling_period, pump, signal,
                                          t, None, order))
                    try:
                        point = solve_poling_period(pump, signal, t, None,
                                                    order)
                    except (ConfigError, SolverError):
                        continue
                    if t == 100.0 and order == 1:
                        periods.append(point.poling_period_um)
                    for dt in (0.0, 0.5, 100.0, 200.0):
                        lines.append(_outcome(phase_mismatch, QpmPoint(
                            point.poling_period_um, t + dt, pump, signal,
                            point.idler, order)))
        for model in _golden_models(pump):
            for period in periods:
                for t in np.linspace(20.0, 260.0, 9).tolist():
                    lines.append(_outcome(solve_signal_wavelength, pump,
                                          period, t, model))
                for signal in signals[:3]:
                    for t_range in ((20.0, 200.0), (20.0, 260.0)):
                        lines.append(_outcome(solve_temperature, pump,
                                              signal, period, model, 1,
                                              t_range))
    return lines


class TestGoldenSweep:
    # sha256 over golden_sweep_lines(), one line each, frozen before the
    # signal scan and the scalar mismatch shared one kernel
    SWEEP_SHA256 = ("ed2ddb0847a0c96bd50195f8a91801c1"
                    "40d8a854ed94b72dc47a226e9e8314eb")

    def test_sweep_digest(self):
        import hashlib
        lines = golden_sweep_lines()
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == self.SWEEP_SHA256
