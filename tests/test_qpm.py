import math

import numpy as np
import pytest

from pairsim import (ConfigError, DataFormatError, QpmPoint, SolverError,
                     Wavelength, default_sellmeier_model, idler_wavelength,
                     load_sellmeier_file, phase_mismatch, refractive_index,
                     solve_degeneracy_temperature, solve_poling_period,
                     solve_signal_wavelength, solve_temperature,
                     temperature_tuning_curve)
from pairsim import qpm

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
        from importlib import resources
        text = resources.files("pairsim.data").joinpath(
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
        # the default 200 C search ceiling; the default interval reports the
        # documented error and a wider interval finds the root
        pump = Wavelength(657.0)
        with pytest.raises(SolverError, match="no degeneracy temperature"):
            solve_degeneracy_temperature(pump, 12.1)
        t_star = solve_degeneracy_temperature(
            pump, 12.1, temperature_range_c=(20.0, 250.0))
        assert 200.0 < t_star < 205.0
        deg = Wavelength(1314.0)
        residual = phase_mismatch(QpmPoint(
            poling_period_um=12.1, temperature_c=t_star, pump=pump,
            signal=deg, idler=deg))
        assert abs(residual) < 1e-6

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


class TestSignalScan:
    @pytest.mark.parametrize("pump_nm,temperature_c", [
        (657.0, 60.0), (657.0, 100.0), (657.0, 140.0), (532.0, 25.0),
        (1064.0, 250.0), (404.5, 180.0)])
    def test_matches_scalar_path(self, pump_nm, temperature_c):
        pump = Wavelength(pump_nm)
        grid = np.linspace(2.0 * pump.nm, MODEL.wavelength_range_um[1] * 1e3,
                           512)
        assert qpm._signal_scan_per_m(pump, grid, temperature_c,
                                      MODEL).tolist() \
            == scalar_signal_scan(pump, grid, temperature_c)

    # temperature and pump out of the validity range, and a model whose
    # upper edge 1.63 um comes back one ulp above itself through nm, so the
    # last signal point of the scan falls outside it
    @pytest.mark.parametrize("pump_nm,temperature_c,max_um", [
        (657.0, 300.0, 5.0), (150.0, 100.0, 5.0), (657.0, 100.0, 1.63)])
    def test_range_error_matches_scalar_path(self, pump_nm, temperature_c,
                                             max_um):
        from dataclasses import replace
        model = replace(MODEL, wavelength_range_um=(0.4, max_um))
        pump = Wavelength(pump_nm)
        grid = np.linspace(2.0 * pump.nm, max_um * 1e3, 512)
        with pytest.raises(ConfigError) as scalar:
            scalar_signal_scan(pump, grid, temperature_c, model)
        with pytest.raises(ConfigError) as array:
            qpm._signal_scan_per_m(pump, grid, temperature_c, model)
        assert str(array.value) == str(scalar.value)


class TestSolveTemperatureGeneral:
    def test_matches_degenerate_form(self):
        pump = Wavelength(657.0)
        period = solve_poling_period(pump, Wavelength(1314.0), 130.0).poling_period_um
        point = solve_temperature(pump, Wavelength(1314.0), period)
        assert point.temperature_c == pytest.approx(130.0, abs=0.01)
        assert abs(phase_mismatch(point)) < 1e-6
