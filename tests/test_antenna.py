import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmray
from mmray.antenna import (
    BACK_LOBE_GAIN, AntennaSystem, _sphere_average, gain, make_system,
    solve_pattern_exponent, system_preset,
)
from oracles import fibonacci_sphere, sphere_average_quad


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def test_preset_parameters():
    s1 = system_preset("system1")
    s2 = system_preset("system2")
    s3 = system_preset("system3")
    assert (s1.kind, s1.tx_power_dbm, s1.peak_gain_dbi) == ("isotropic", 20.0, 0.0)
    assert (s2.kind, s2.tx_power_dbm, s2.peak_gain_dbi) == ("omni", 20.0, 8.5)
    assert (s3.kind, s3.tx_power_dbm, s3.peak_gain_dbi) == ("horn", 10.0, 20.8)


def test_kind_aliases_resolve_to_presets():
    assert system_preset("isotropic") == system_preset("system1")
    assert system_preset("omni") == system_preset("system2")
    assert system_preset("horn") == system_preset("system3")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        system_preset("system4")


def test_power_conversions():
    s = system_preset("system1")
    assert s.tx_power_watts == pytest.approx(0.1)
    s3 = system_preset("system3")
    assert s3.tx_power_watts == pytest.approx(0.01)
    assert s3.peak_gain_linear == pytest.approx(10.0 ** 2.08)


def test_solved_exponents_are_stable():
    # regression pins for the energy-conservation solve
    assert system_preset("system2").pattern_exponent == pytest.approx(
        77.22471889387816, abs=1e-6)
    assert system_preset("system3").pattern_exponent == pytest.approx(
        59.118560309521854, abs=1e-6)


# ---------------------------------------------------------------------------
# Pattern shapes
# ---------------------------------------------------------------------------

def test_isotropic_gain_is_unity_everywhere():
    s = system_preset("system1")
    dirs = fibonacci_sphere(512)
    assert np.allclose(gain(s, dirs), 1.0)


def test_omni_azimuth_symmetry():
    s = system_preset("system2")
    el = math.radians(30.0)
    vals = []
    for az_deg in (0.0, 45.0, 137.0, 260.0):
        az = math.radians(az_deg)
        d = (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
             math.sin(el))
        vals.append(gain(s, d))
    assert max(vals) - min(vals) < 1e-12


def test_omni_peaks_on_horizon_vanishes_at_poles():
    s = system_preset("system2")
    assert gain(s, (1.0, 0.0, 0.0)) == pytest.approx(s.peak_gain_linear)
    assert gain(s, (0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-30)
    # monotone decay away from the horizon
    prev = gain(s, (1.0, 0.0, 0.0))
    for el_deg in (5.0, 15.0, 30.0, 60.0, 85.0):
        el = math.radians(el_deg)
        g = gain(s, (math.cos(el), 0.0, math.sin(el)))
        assert g < prev
        prev = g


def test_horn_boresight_peak_and_monotone_rolloff():
    s = system_preset("system3")
    assert gain(s, (1.0, 0.0, 0.0)) == pytest.approx(s.peak_gain_linear)
    prev = s.peak_gain_linear
    for psi_deg in (2.0, 5.0, 10.0, 20.0, 40.0, 70.0):
        psi = math.radians(psi_deg)
        g = gain(s, (math.cos(psi), math.sin(psi), 0.0))
        assert g <= prev
        prev = g


def test_horn_back_hemisphere_is_floor():
    s = system_preset("system3")
    assert gain(s, (-1.0, 0.0, 0.0)) == BACK_LOBE_GAIN
    assert gain(s, (-0.5, math.sqrt(0.75), 0.0)) == pytest.approx(BACK_LOBE_GAIN)
    # wide front angles bottom out at the same floor instead of underflowing
    psi = math.radians(85.0)
    assert gain(s, (math.cos(psi), math.sin(psi), 0.0)) == BACK_LOBE_GAIN


def test_horn_boresight_override():
    s = system_preset("system3")
    d = (0.0, 1.0, 0.0)
    assert gain(s, d, boresight=d) == pytest.approx(s.peak_gain_linear)
    assert gain(s, (1.0, 0.0, 0.0), boresight=d) < s.peak_gain_linear


@pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0), (math.nan, 1.0, 0.0), (0.0, math.inf, 0.0)])
def test_horn_rejects_a_bad_boresight_row(bad):
    """A zero or non-finite boresight row fails like AntennaSystem's check
    instead of giving the back-lobe floor."""
    s = system_preset("system3")
    dirs = np.array([[1.0, 0.0, 0.0]] * 3)
    with pytest.raises(ValueError, match="boresight must be a non-zero finite vector"):
        gain(s, dirs, boresight=np.array([(1.0, 0.0, 0.0), bad, (0.0, 1.0, 0.0)]))
    with pytest.raises(ValueError, match="boresight must be a non-zero finite vector"):
        gain(s, dirs, boresight=bad)


def test_gain_accepts_batches():
    s = system_preset("system2")
    dirs = fibonacci_sphere(64)
    g = gain(s, dirs)
    assert g.shape == (64,)
    single = gain(s, tuple(dirs[7]))
    assert single == pytest.approx(g[7])


def test_gain_requires_unit_vectors():
    """A NaN direction passed the unit-length check: the omni read 7.08 for it."""
    s = system_preset("system1")
    with pytest.raises(ValueError):
        gain(s, (2.0, 0.0, 0.0))
    for name in ("system1", "system2", "system3"):
        s = system_preset(name)
        with pytest.raises(ValueError, match=r"direction must be a unit vector, got \(nan"):
            gain(s, (math.nan, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"direction must be a unit vector, got \(0.0, nan"):
            gain(s, np.array([(1.0, 0.0, 0.0), (0.0, math.nan, 0.0)]))


@pytest.mark.parametrize("make, message", [
    (lambda: make_system("omni", 20.0, math.nan), "peak_gain_dbi must be finite, got nan"),
    (lambda: make_system("omni", math.inf, 8.5), "tx_power_dbm must be finite, got inf"),
    (lambda: AntennaSystem("horn", -math.inf, 20.8, pattern_exponent=59.0),
     "tx_power_dbm must be finite, got -inf"),
    (lambda: AntennaSystem("isotropic", 20.0, math.nan), "peak_gain_dbi must be finite, got nan"),
    (lambda: AntennaSystem("horn", 10.0, 20.8, pattern_exponent=math.nan),
     r"pattern_exponent must be in \[0, inf\), got nan"),
    (lambda: AntennaSystem("omni", 20.0, 8.5, pattern_exponent=-3.0),
     r"pattern_exponent must be in \[0, inf\), got -3.0"),
    (lambda: AntennaSystem("omni", 20.0, 8.5, pattern_exponent=math.inf),
     r"pattern_exponent must be in \[0, inf\), got inf"),
])
def test_a_system_rejects_a_non_finite_power_or_gain(make, message):
    """make_system("omni", 20.0, nan) gave pattern exponent 9.3e-10, and
    make_system("omni", inf, 8.5) a system of infinite power. A horn of
    exponent NaN read NaN off boresight, an omni of -3 read 32.8 at 53
    degrees elevation, above its 7.08 peak, and one of +inf 0.0 off the
    horizon."""
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# Energy conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["system1", "system2", "system3"])
def test_sphere_average_gain_is_unity(name):
    s = system_preset(name)
    dirs = fibonacci_sphere(1_000_000)
    avg = float(np.mean(gain(s, dirs)))
    assert avg == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("kind", ["omni", "horn"])
@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.7, 20.0, 59.1, 77.2, 300.0, 1000.0])
@pytest.mark.parametrize("peak_dbi", [8.5, 20.8])
def test_closed_form_sphere_average_matches_quadrature(kind, exponent, peak_dbi):
    peak = 10.0 ** (peak_dbi / 10.0)
    expect = sphere_average_quad(kind, exponent, peak, BACK_LOBE_GAIN)
    assert _sphere_average(kind, exponent, peak) == pytest.approx(expect, rel=1e-9)


def test_sphere_average_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown antenna kind 'dish'"):
        solve_pattern_exponent("dish", 30.0)


def _loaded_in_a_fresh_process(code: str, modules: str) -> str:
    """The modules matching the expression `modules` (of m) after code runs."""
    code += f"; import sys; print(sorted(m for m in sys.modules if {modules}))"
    src = str(Path(mmray.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_runtime_import_does_not_load_scipy():
    code = "import mmray; mmray.system_preset('horn')"
    assert _loaded_in_a_fresh_process(code, "m.split('.')[0] == 'scipy'") == "[]"


def test_import_loads_no_process_pool():
    """Only a sweep or table on more than one worker needs multiprocessing."""
    pool = "m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'"
    assert _loaded_in_a_fresh_process("import mmray, mmray.cli", pool) == "[]"


def test_solver_rejects_nonzero_isotropic_gain():
    with pytest.raises(ValueError):
        solve_pattern_exponent("isotropic", 3.0)


def test_solver_rejects_sub_unity_peak():
    # a pattern whose peak is below average can never average to one
    with pytest.raises(ValueError):
        solve_pattern_exponent("horn", -3.0)


def test_make_system_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_system("dish", 20.0, 30.0)


def test_boresight_is_normalized():
    s = AntennaSystem("horn", 10.0, 20.8, boresight=(0.0, 0.0, 2.0),
                      pattern_exponent=59.0)
    assert s.boresight == (0.0, 0.0, 1.0)
