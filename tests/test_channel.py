"""Narrowband power, delay profiles, and sweep plumbing."""

import copy
import dataclasses
import itertools
import math
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmray
from mmray import (
    ATMOSPHERIC_LOSS_DB_PER_M, NO_COVERAGE, CarrierConfig, ChannelTap, Material, ObstacleSlab,
    Polarization, PowerDelayProfile, build_bent_tunnel,
    build_obstacle_corridor, build_plain_corridor, build_straight_tunnel,
    dbm_to_watts, delay_spread_table, enumerate_paths, free_space,
    impulse_response, make_system, mean_excess_delay, power_delay_profile,
    received_power, rms_delay_spread, run_sweep_grid, system_preset,
    watts_to_dbm,
)
from mmray.geometry import add, neg, scale
from mmray.tracer import trace_receivers
from oracles import friis_dbm, phasor_sum_dbm, power_delay_profile_reference

TX = (0.0, 0.0, 2.0)
ISO = system_preset("system1")


def test_dbm_watt_roundtrip():
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert watts_to_dbm(0.1) == pytest.approx(20.0)
    assert watts_to_dbm(dbm_to_watts(-63.2)) == pytest.approx(-63.2)


def test_zero_power_maps_to_sentinel():
    assert watts_to_dbm(0.0) == NO_COVERAGE
    assert watts_to_dbm(-1.0) == NO_COVERAGE
    assert NO_COVERAGE == float("-inf")


def test_carrier_config():
    c = CarrierConfig(60e9)
    assert c.wavelength == pytest.approx(0.004996540, rel=1e-6)
    assert c.wavenumber == pytest.approx(2.0 * math.pi / c.wavelength)
    with pytest.raises(ValueError):
        CarrierConfig(0.0)


BAD_FREQUENCIES = [-60e9, 0.0, math.nan, math.inf]


@pytest.mark.parametrize("freq", BAD_FREQUENCIES)
def test_carrier_and_sweeps_reject_a_bad_frequency(freq):
    """One rule for every entry point: 0 < f < inf. A sweep at -60 GHz gave
    the +60 GHz powers, and at 0 Hz, NaN or inf a grid of NOCOV."""
    message = "carrier frequency must be > 0 and finite"
    with pytest.raises(ValueError, match=message):
        CarrierConfig(freq)
    env = build_straight_tunnel()
    with pytest.raises(ValueError, match=message):
        run_sweep_grid(env, [ISO], [60e9, freq], n_samples=4)
    with pytest.raises(ValueError, match=message):
        delay_spread_table([env], [ISO], [freq], n_samples=4)


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True, False, 2.0])
def test_sweeps_reject_a_bad_worker_count(workers):
    """0 and -3 ran serial, 1.5 raised a TypeError inside the pool, and True
    ran on one worker."""
    env = build_straight_tunnel()
    message = f"workers must be an integer >= 1, got {workers!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_sweep_grid(env, [ISO], [60e9], n_samples=4, workers=workers)
    with pytest.raises(ValueError, match=re.escape(message)):
        delay_spread_table([env], [ISO], [60e9], n_samples=4, workers=workers)


def test_a_table_of_no_environment_is_rejected():
    """It returned an empty table, without checking the frequencies."""
    with pytest.raises(ValueError, match="at least one environment is required"):
        delay_spread_table([], [ISO], [-1.0])


# ---------------------------------------------------------------------------
# Free-space behavior
# ---------------------------------------------------------------------------

def test_free_space_matches_friis():
    env = free_space()
    paths = enumerate_paths(env, TX, (10.0, 0.0, 2.0))
    assert len(paths) == 1
    got = received_power(paths, ISO, CarrierConfig(60e9))
    assert got == pytest.approx(friis_dbm(20.0, 60e9, 10.0), abs=1e-9)


def test_free_space_sweep_tracks_friis():
    env = free_space()
    # at rx_height equal to tx height, every sample is a pure Friis link
    grid = run_sweep_grid(env, [ISO], [60e9], n_samples=32, rx_height=2.0)
    for distance, power in zip(grid.distances, grid.power_dbm[:, 0, 0]):
        assert power == pytest.approx(friis_dbm(20.0, 60e9, distance), abs=1e-9)


def test_empty_path_list_is_no_coverage():
    assert received_power([], ISO, CarrierConfig(60e9)) == NO_COVERAGE
    assert impulse_response([], ISO, CarrierConfig(60e9)) == []


# ---------------------------------------------------------------------------
# Coherent sum and taps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tunnel_paths():
    return enumerate_paths(build_straight_tunnel(), TX, (10.0, 0.0, 1.5))


def test_taps_reproduce_received_power(tunnel_paths):
    carrier = CarrierConfig(60e9)
    taps = impulse_response(tunnel_paths, ISO, carrier)
    assert len(taps) == len(tunnel_paths)
    total = sum(t.amplitude for t in taps)
    coherent_dbm = watts_to_dbm(abs(total) ** 2)
    assert coherent_dbm == pytest.approx(
        received_power(tunnel_paths, ISO, carrier), abs=1e-9)


def test_taps_sorted_by_delay(tunnel_paths):
    taps = impulse_response(tunnel_paths, ISO, CarrierConfig(60e9))
    delays = [t.delay for t in taps]
    assert delays == sorted(delays)


def test_tap_power_is_amplitude_squared(tunnel_paths):
    taps = impulse_response(tunnel_paths, ISO, CarrierConfig(60e9))
    for t in taps:
        assert t.power == pytest.approx(abs(t.amplitude) ** 2, rel=1e-12)


def test_power_linear_in_transmit_power(tunnel_paths):
    carrier = CarrierConfig(60e9)
    base = received_power(tunnel_paths, ISO, carrier)
    import dataclasses
    louder = dataclasses.replace(ISO, tx_power_dbm=23.0103)
    boosted = received_power(tunnel_paths, louder, carrier)
    assert boosted - base == pytest.approx(3.0103, abs=1e-9)


def test_isotropic_power_reciprocity():
    env = build_straight_tunnel()
    rx = (18.0, 0.6, 0.8)
    carrier = CarrierConfig(70e9)
    fwd = received_power(enumerate_paths(env, TX, rx), ISO, carrier)
    rev = received_power(enumerate_paths(env, rx, TX), ISO, carrier)
    assert fwd == pytest.approx(rev, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6, fault B: the optical thickness of a "
                                        "slab is added to a length that already runs through it")
@pytest.mark.parametrize("rx", [(12.0, 0.3, 1.2), (25.0, 0.3, 1.2)])
def test_a_slab_of_air_changes_no_power(rx):
    """A 0.1 m dielectric slab of eps_r = 1 at 10 m is nothing: the power
    past it equals the plain corridor's. Today it moves by 13.3 and 14.8 dB."""
    air = build_obstacle_corridor(obstacles=(ObstacleSlab("air", 10.0, 0.1, Material("air", 1.0)),))
    sys, carrier = system_preset("system1"), CarrierConfig(60e9)
    with_slab = received_power(enumerate_paths(air, TX, rx), sys, carrier)
    plain = received_power(enumerate_paths(build_plain_corridor(), TX, rx), sys, carrier)
    assert with_slab == pytest.approx(plain, abs=1e-9)


@pytest.mark.parametrize("loss", [math.nan, -5.0])
def test_a_nan_or_negative_atmospheric_loss_is_rejected(tunnel_paths, loss):
    """Both read -41.59 dBm for the omni, the lossless power."""
    omni, carrier = system_preset("system2"), CarrierConfig(60e9)
    assert round(received_power(tunnel_paths, omni, carrier), 2) == -41.59
    message = f"atmospheric_loss_db_per_m must be >= 0, got {loss}"
    with pytest.raises(ValueError, match=re.escape(message)):
        received_power(tunnel_paths, omni, carrier, atmospheric_loss_db_per_m=loss)
    with pytest.raises(ValueError, match=re.escape(message)):
        impulse_response(list(tunnel_paths), omni, carrier, atmospheric_loss_db_per_m=loss)


def test_paths_of_mixed_polarizations_are_rejected():
    """Every slab crossing took the first path's polarization: the TE
    direct path and the TM reflections in the obstacle corridor read
    -71.024 dBm (isotropic), and in reverse order -71.031 dBm."""
    env, rx = build_obstacle_corridor(), (15.0, 0.3, 1.2)
    te, tm = (enumerate_paths(env, TX, rx, polarization=p) for p in Polarization)
    mixed = te[:1] + tm[1:]
    for paths in (mixed, mixed[::-1]):
        with pytest.raises(ValueError, match=re.escape("paths must share one polarization, got "
                                                       "['TE', 'TM']")):
            received_power(paths, ISO, CarrierConfig(60e9))


def test_atmospheric_loss_scales_with_distance():
    env = free_space()
    carrier = CarrierConfig(60e9)
    paths = enumerate_paths(env, TX, (20.0, 0.0, 2.0))
    clear = received_power(paths, ISO, carrier)
    hazy = received_power(paths, ISO, carrier,
                          atmospheric_loss_db_per_m=0.00116)
    assert clear - hazy == pytest.approx(0.00116 * 20.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Power delay profile and statistics
# ---------------------------------------------------------------------------

def _taps(pairs):
    return [ChannelTap(delay=d, amplitude=complex(math.sqrt(p)), power=p)
            for d, p in pairs]


def test_pdp_peak_is_one(tunnel_paths):
    taps = impulse_response(tunnel_paths, ISO, CarrierConfig(60e9))
    pdp = power_delay_profile(taps)
    powers = [p for _, p in pdp.taps]
    assert max(powers) == 1.0
    assert all(0.0 <= p <= 1.0 for p in powers)
    assert pdp.first_arrival == pytest.approx(taps[0].delay)


def test_pdp_rejects_empty_or_dark_taps():
    with pytest.raises(ValueError):
        power_delay_profile([])
    with pytest.raises(ValueError):
        power_delay_profile(_taps([(1e-9, 0.0)]))
    for bin_width in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="bin_width"):
            power_delay_profile(_taps([(1e-9, 1.0)]), bin_width)
    with pytest.raises(ValueError, match="empty"):
        rms_delay_spread(PowerDelayProfile((), 0.0, 0.0))


def test_pdp_binning_merges_taps():
    taps = _taps([(10e-9, 1.0), (10.4e-9, 1.0), (20e-9, 2.0)])
    pdp = power_delay_profile(taps, bin_width=1e-9)
    assert len(pdp.taps) == 2
    # merged bin holds the summed power at the power-weighted centroid
    (d0, p0), (d1, p1) = pdp.taps
    assert d0 == pytest.approx(10.2e-9)
    assert p0 == pytest.approx(1.0)     # 2.0 normalized by peak 2.0
    assert p1 == pytest.approx(1.0)
    # excess delay counts from the first arrival, not the first bin centroid
    assert mean_excess_delay(pdp) == pytest.approx(5.1e-9)


def test_single_tap_has_zero_spread():
    pdp = power_delay_profile(_taps([(33e-9, 5.0)]))
    assert rms_delay_spread(pdp) == 0.0
    assert mean_excess_delay(pdp) == 0.0


def test_delay_stats_translation_invariance():
    base = _taps([(10e-9, 1.0), (13e-9, 0.5), (19e-9, 0.25)])
    shifted = _taps([(110e-9, 1.0), (113e-9, 0.5), (119e-9, 0.25)])
    a = power_delay_profile(base)
    b = power_delay_profile(shifted)
    assert rms_delay_spread(a) == pytest.approx(rms_delay_spread(b), rel=1e-12)
    assert mean_excess_delay(a) == pytest.approx(mean_excess_delay(b), rel=1e-12)


def test_delay_stats_scale_invariance():
    one = power_delay_profile(_taps([(0.0, 2.0), (5e-9, 1.0)]))
    ten = power_delay_profile(_taps([(0.0, 20.0), (5e-9, 10.0)]))
    assert rms_delay_spread(one) == pytest.approx(rms_delay_spread(ten))


def test_two_tap_spread_closed_form():
    # equal powers T apart: sigma = T/2, mean excess = T/2
    pdp = power_delay_profile(_taps([(0.0, 1.0), (8e-9, 1.0)]))
    assert rms_delay_spread(pdp) == pytest.approx(4e-9, rel=1e-12)
    assert mean_excess_delay(pdp) == pytest.approx(4e-9, rel=1e-12)


# Delays from a short list collide; powers include exact zeros.
TAP_DELAYS = st.one_of(st.sampled_from([20e-9, 20.05e-9, 21e-9, 33e-9, 33.4e-9]),
                       st.floats(3e-9, 3e-7))
TAP_POWERS = st.one_of(st.just(0.0), st.floats(0.0, 1e-3))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(TAP_DELAYS, TAP_POWERS), max_size=12),
       st.sampled_from([0.0, 1e-10, 1e-9, 5e-9]))
@example([(33e-9, 2e-5)], 0.0)  # a single tap
@example([(33e-9, 2e-5)], 1e-9)
@example([(21e-9, 1e-6), (20e-9, 3e-6), (21e-9, 2e-6), (20e-9, 0.0)], 0.0)  # equal delays
@example([(20e-9, 0.0), (20.05e-9, 1e-6), (20.5e-9, 0.0), (33e-9, 4e-6)], 1e-9)  # zeros in a bin
@example([(20e-9, 0.0), (20.05e-9, 0.0), (33e-9, 4e-6), (33.4e-9, 1e-6)], 1e-9)  # a dark bin
@example([(20e-9, 0.0), (33e-9, 0.0)], 5e-9)  # no power
@example([], 0.0)
def test_pdp_equals_the_loop_reference(pairs, bin_width):
    """The profile formed from arrays has the taps, first arrival and moments
    of the sorted-list, dict-bin reference, to the bit, and a profile built
    by hand from its taps has the same moments."""
    taps = _taps(pairs)
    try:
        want = power_delay_profile_reference(taps, bin_width)
    except ValueError:
        with pytest.raises(ValueError):
            power_delay_profile(taps, bin_width)
        return
    pdp = power_delay_profile(taps, bin_width)
    got = (pdp.taps, pdp.first_arrival, rms_delay_spread(pdp), mean_excess_delay(pdp))
    assert got == want
    hand = PowerDelayProfile(pdp.taps, bin_width, pdp.first_arrival)
    assert (rms_delay_spread(hand), mean_excess_delay(hand)) == want[2:]


def test_delay_stats_against_independent_formula(tunnel_paths):
    from oracles import delay_stats_ns
    taps = impulse_response(tunnel_paths, ISO, CarrierConfig(60e9))
    pdp = power_delay_profile(taps)
    mu_ns, sigma_ns = delay_stats_ns([t.delay for t in taps],
                                     [t.power for t in taps])
    assert mean_excess_delay(pdp) * 1e9 == pytest.approx(mu_ns, rel=1e-9)
    assert rms_delay_spread(pdp) * 1e9 == pytest.approx(sigma_ns, rel=1e-9)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_shapes():
    env = build_straight_tunnel()
    systems = [system_preset(k) for k in ("system1", "system3")]
    grid = run_sweep_grid(env, systems, [60e9, 80e9], n_samples=16)
    assert grid.power_dbm.shape == (16, 2, 2)
    assert grid.rms_spread.shape == (16, 2, 2)
    assert grid.mean_excess.shape == (16, 2, 2)
    assert grid.distances[0] == 1.0
    assert grid.distances[-1] == pytest.approx(44.0)
    assert np.all(np.isfinite(grid.power_dbm))


def test_sweep_validates_arguments():
    env = build_straight_tunnel()
    with pytest.raises(ValueError):
        run_sweep_grid(env, [ISO], [60e9], n_samples=1)
    with pytest.raises(ValueError):
        run_sweep_grid(env, [ISO], [60e9], rx_start=0.0)
    with pytest.raises(ValueError):
        run_sweep_grid(env, [ISO], [60e9], rx_start=45.0)
    with pytest.raises(ValueError):
        run_sweep_grid(env, [ISO], [60e9], rx_height=2.5)
    # The first receiver sits within a nanometre of the transmitter.
    with pytest.raises(ValueError, match="coincide"):
        run_sweep_grid(env, [ISO], [60e9], tx=(1.0, 1e-10, 1.5), rx_start=1.0)


def test_sweep_worker_count_is_invisible():
    env = build_straight_tunnel()
    serial = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=1)
    pooled = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=2)
    assert np.array_equal(serial.power_dbm, pooled.power_dbm)
    assert np.array_equal(serial.rms_spread, pooled.rms_spread,
                          equal_nan=True)


def test_sweep_power_against_direct_evaluation():
    env = build_straight_tunnel()
    grid = run_sweep_grid(env, [ISO], [60e9], n_samples=8)
    i = 5
    rx = (float(grid.distances[i]), 0.0, 1.5)
    paths = enumerate_paths(env, TX, rx)
    expect = received_power(paths, ISO, CarrierConfig(60e9),
                            rx_boresight=(-1.0, 0.0, 0.0))
    assert grid.power_dbm[i, 0, 0] == expect


def test_sweep_moments_match_pdp_moments():
    env = build_straight_tunnel()
    systems = [ISO, system_preset("system3")]
    grid = run_sweep_grid(env, systems, [60e9, 80e9], n_samples=8)
    i = 5
    paths = enumerate_paths(env, TX, (float(grid.distances[i]), 0.0, 1.5))
    for s, system in enumerate(systems):
        for f, freq in enumerate(grid.frequencies):
            taps = impulse_response(paths, system, CarrierConfig(freq),
                                    rx_boresight=(-1.0, 0.0, 0.0))
            pdp = power_delay_profile(taps)
            assert grid.rms_spread[i, s, f] == pytest.approx(
                rms_delay_spread(pdp), rel=1e-9, abs=1e-15)
            assert grid.mean_excess[i, s, f] == pytest.approx(
                mean_excess_delay(pdp), rel=1e-9, abs=1e-15)


DUCTS = {
    "straight_tunnel": build_straight_tunnel(),
    "bent_tunnel": build_bent_tunnel(45.0),
    "plain_corridor": build_plain_corridor(),
    "obstacle_corridor": build_obstacle_corridor(),
    # The second leg's boresight squares to 1 - 1e-16 summed term by term.
    "bent_tunnel_80": build_bent_tunnel(80.0),
}
PRESETS = [system_preset(k) for k in ("system1", "system2", "system3")]


@pytest.mark.parametrize("name", sorted(DUCTS))
def test_sweep_matches_the_per_path_functions_at_every_position(name):
    """Without and with the atmospheric loss, which enters the real gains."""
    env = DUCTS[name]
    freqs = [60e9, 80e9]
    for atmospheric in (False, True):
        grid = run_sweep_grid(env, PRESETS, freqs, n_samples=64, atmospheric=atmospheric)
        loss = ATMOSPHERIC_LOSS_DB_PER_M if atmospheric else 0.0
        for i, d in enumerate(grid.distances.tolist()):
            paths = enumerate_paths(env, TX, env.axis_point(d, height=1.5))
            kw = dict(rx_boresight=tuple(-c for c in env.axis_direction(d)),
                      atmospheric_loss_db_per_m=loss)
            if not paths:
                assert np.all(grid.power_dbm[i] == NO_COVERAGE)
                assert np.all(np.isnan(grid.rms_spread[i]) & np.isnan(grid.mean_excess[i]))
                continue
            for s, system in enumerate(PRESETS):
                for f, freq in enumerate(freqs):
                    carrier = CarrierConfig(freq)
                    assert grid.power_dbm[i, s, f] == received_power(paths, system, carrier, **kw)
                    pdp = power_delay_profile(impulse_response(paths, system, carrier, **kw))
                    assert grid.rms_spread[i, s, f] == pytest.approx(
                        rms_delay_spread(pdp), rel=1e-9, abs=1e-15)
                    assert grid.mean_excess[i, s, f] == pytest.approx(
                        mean_excess_delay(pdp), rel=1e-9, abs=1e-15)


def _axis_reference(env, s, height):
    """The point at arclength s lifted by height and the reversed centerline
    direction there, a segment at a time in Python floats."""
    remaining = s
    for seg in env.centerline:
        if remaining <= seg.length or seg is env.centerline[-1]:
            p = add(seg.origin, scale(seg.direction, remaining))
            return (p[0], p[1], p[2] + height), neg(seg.direction)
        remaining -= seg.length


@pytest.mark.parametrize("name", sorted(DUCTS))
def test_sweep_receivers_equal_the_per_point_axis_calls(name):
    """The sweep's receiver positions and boresights, Environment._axis,
    equal a per-point reference bit for bit, and so do env.axis_point and
    -env.axis_direction: at 1024 sweep positions, on and an ulp either side
    of every segment's end (the bent ducts' elbow and the far end), and at
    0."""
    env = DUCTS[name]
    ends = np.cumsum([seg.length for seg in env.centerline])
    distances = np.concatenate([
        np.linspace(1.0, env.axis_length, 1024), [0.0, env.axis_length],
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    rx, direction = env._axis(distances, 1.5)
    expected = [_axis_reference(env, s, 1.5) for s in distances.tolist()]
    assert rx.tobytes() == np.array([p for p, _ in expected]).tobytes()
    assert (-direction).tobytes() == np.array([b for _, b in expected]).tobytes()
    assert [(env.axis_point(s, height=1.5), neg(env.axis_direction(s)))
            for s in distances.tolist()] == expected
    if len(env.centerline) > 1:
        assert len({tuple(b) for b in direction.tolist()}) == 2


def test_path_factors_carry_each_rows_transmission_product():
    """A row's carrier-free factors hold its slab transmissions: without a
    crossing h = 1/d and L = d exactly; with one or two, wood at 10 m and
    glass at 30 m, (h d) exp(-j k (L - d)) is the row's transmission_product.
    The tolerance is one rounding of L = d + sqrt(eps_r) t_eff, which moves
    the phase by up to k ulp(d) / 2 = 6.7e-12 rad at 90 GHz and d < 64 m
    (the worst row reads 6.5e-12)."""
    slabs = (
        ObstacleSlab("wooden_door", 10.0, 0.1, Material("wood", 3.3)),
        ObstacleSlab("glass_door", 30.0, 0.1, Material("glass", 6.0)),
    )
    env = build_obstacle_corridor(obstacles=slabs)
    rx = [env.axis_point(d, height=1.5) for d in np.linspace(1.0, 43.0, 40)]
    freqs = np.array([60e9 + 5e9 * k for k in range(7)])
    k = 2.0 * math.pi * freqs / 299792458.0
    for pol in Polarization:
        table = trace_receivers(env, TX, rx, 2, pol)
        h, optical = mmray.channel._path_factors(table, 0.0)
        paths = [p for r in range(len(rx)) for p in table.paths(r)]
        assert len(paths) == len(h) == len(optical)
        assert {len(p.crossings) for p in paths} >= {0, 1, 2}
        for path, h_i, length_i in zip(paths, h.tolist(), optical.tolist()):
            d = path.length
            if not path.crossings:
                assert (h_i, length_i) == (1.0 / d, d)
                continue
            want = [path.transmission_product(f) for f in freqs.tolist()]
            np.testing.assert_allclose((h_i * d) * np.exp(-1j * k * (length_i - d)), want,
                                       rtol=2e-11, atol=0.0)


def test_received_power_equals_a_phasor_sum_over_the_paths():
    """In the obstacle corridor, on and off the axis in front of the lift,
    received_power equals the oracle's sum of one complex term per path,
    with the slab phase taken from each crossing's transmission."""
    env = DUCTS["obstacle_corridor"]
    rng = np.random.default_rng(3)
    receivers = [env.axis_point(d, height=1.5) for d in np.linspace(1.0, 19.5, 19).tolist()]
    receivers += [(rng.uniform(1.0, 19.5), rng.uniform(-0.9, 0.9), rng.uniform(0.4, 2.4))
                  for _ in range(19)]
    crossed = 0
    for rx in receivers:
        paths = enumerate_paths(env, TX, rx)
        crossed += any(p.crossings for p in paths)
        boresight = tuple(-c for c in env.axis_direction(rx[0]))
        departure = np.array([p.departure_dir for p in paths])
        arrival = np.array([p.arrival_dir for p in paths])
        for system in PRESETS:
            gains = (mmray.antenna.gain(system, departure)
                     * mmray.antenna.gain(system, -arrival, boresight)).tolist()
            for carrier in CARRIERS:
                want = phasor_sum_dbm(paths, carrier.frequency, system.tx_power_dbm, gains)
                got = received_power(paths, system, carrier, rx_boresight=boresight)
                assert got == pytest.approx(want, abs=1e-9)
    assert crossed > len(receivers) // 3


BLOCK_CASES = {  # name -> (duct, carriers)
    "bent_tunnel": ("bent_tunnel", [60e9, 70e9]),
    "obstacle_corridor": ("obstacle_corridor", [60e9, 70e9]),
    # 31 carriers chunk the kernel at the default budget, door transmissions included.
    "obstacle_corridor_31_carriers": ("obstacle_corridor", [60e9 + 1e9 * k for k in range(31)]),
}


def _assert_grids_equal(a, b):
    for x, y in ((a.power_dbm, b.power_dbm), (a.rms_spread, b.rms_spread),
                 (a.mean_excess, b.mean_excess)):
        assert np.array_equal(x, y, equal_nan=True)


def _assert_budgets_do_not_matter(monkeypatch, name, trace_bytes, cells):
    """A 48-position sweep under the given budgets equals one without any."""
    env, freqs = DUCTS[BLOCK_CASES[name][0]], BLOCK_CASES[name][1]
    monkeypatch.setattr(mmray.channel, "_TRACE_BYTES", 1 << 60)
    monkeypatch.setattr(mmray.channel, "_BLOCK_CELLS", 1 << 30)
    together = run_sweep_grid(env, PRESETS, freqs, n_samples=48)
    monkeypatch.setattr(mmray.channel, "_TRACE_BYTES", trace_bytes)
    monkeypatch.setattr(mmray.channel, "_BLOCK_CELLS", cells)
    _assert_grids_equal(together, run_sweep_grid(env, PRESETS, freqs, n_samples=48))


def _grid_bytes(env, systems, freqs, order: int = 2):
    """(per block, per pair, per receiver) bytes of run_sweep_grid's blocks,
    whose receivers hold 2 delay moments per system and a power per cell."""
    results = len(systems) * (2 + len(freqs))
    return mmray.channel._block_bytes(env, TX, order, len(systems), results)


def _live_on(env, n: int, order: int = 2, height: float = 1.5) -> np.ndarray:
    """(candidates, n): whether a candidate's sweep window holds a position."""
    lo, hi = mmray.tracer._sweep_windows(env, TX, order, height)
    d = np.linspace(1.0, env.axis_length, n)
    return (d >= lo[:, None]) & (d <= hi[:, None])


def _lit_on(env, n: int, height: float = 1.5) -> np.ndarray:
    """(n,): whether a position's direct ray crosses no metal slab, that is
    whether the x-interval between TX and it overlaps none."""
    x = env._axis(np.linspace(1.0, env.axis_length, n), height)[0][:, 0]
    lit = np.ones(n, bool)
    for slab in env.obstacles:
        if slab.material.is_conductor:
            lo, hi = slab.interval
            lit &= (np.maximum(x, TX[0]) <= lo) | (np.minimum(x, TX[0]) >= hi)
    return lit


def _trace_budget(env, receivers: int, n: int = 48, systems=PRESETS, freqs=(60e9,)) -> int:
    """The trace budget of grid blocks of the given number of receivers if
    every candidate live somewhere on the sweep line were live in each and
    every receiver lit."""
    fixed, pair, receiver = _grid_bytes(env, systems, freqs)
    return fixed + receivers * (int(_live_on(env, n).any(1).sum()) * pair + receiver)


def _expected_blocks(env, n: int, budget: int, systems=PRESETS, freqs=(60e9,)) -> list:
    """The block sizes of an n-position grid sweep, by the rule written out:
    from each start, the most positions such that the per-block bytes, the
    per-pair bytes times the candidates with a window on them times the lit
    positions, and the per-receiver bytes times the positions fit the
    budget, at least one."""
    fixed, pair, receiver = _grid_bytes(env, systems, freqs)
    live, lit, sizes, i = _live_on(env, n), _lit_on(env, n), [], 0

    def held(size):
        block = slice(i, i + size)
        return fixed + live[:, block].any(1).sum() * lit[block].sum() * pair + size * receiver

    while i < n:
        size = 1
        while i + size < n and held(size + 1) <= budget:
            size += 1
        sizes.append(size)
        i += size
    return sizes


def _spy_on_trace_blocks(monkeypatch) -> list:
    """The receiver count of every block the sweep traces, in call order."""
    blocks, trace = [], mmray.channel._trace_rows

    def spy(env, tx, rx, *args):
        blocks.append(len(rx))
        return trace(env, tx, rx, *args)

    monkeypatch.setattr(mmray.channel, "_trace_rows", spy)
    return blocks


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
@pytest.mark.parametrize("receivers", [1, 7])
def test_sweep_does_not_depend_on_trace_blocks(monkeypatch, name, receivers):
    """Blocks sized for 1 and for 7 receivers, the last one ragged, give the
    grid of one 48-receiver block; the spy checks the blocks really are the
    sizes the live candidates and lit receivers give. In the obstacle
    corridor every live candidate is live at every position, so the blocks
    of the positions before the metal lift hold exactly 1 and 7; the
    positions behind it hold no pair, so they take fewer, larger blocks. In
    the bent duct the sizes vary along the sweep."""
    env, freqs = DUCTS[BLOCK_CASES[name][0]], BLOCK_CASES[name][1]
    blocks = _spy_on_trace_blocks(monkeypatch)
    budget = _trace_budget(env, receivers, freqs=freqs)
    _assert_budgets_do_not_matter(monkeypatch, name, budget, 1 << 30)
    assert blocks == [48] + _expected_blocks(env, 48, budget, freqs=freqs)
    if name.startswith("obstacle"):
        lit = int(_lit_on(env, 48).sum())
        assert 0 < lit < 48 and _lit_on(env, 48)[:lit].all()
        assert blocks[1:1 + lit // receivers] == [receivers] * (lit // receivers)
        assert len(blocks) - 1 < -(-48 // receivers)
    else:
        assert len(set(blocks[1:])) > 1


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
@pytest.mark.parametrize("cells", [1, 2000, "split"])
def test_sweep_does_not_depend_on_receiver_blocks(monkeypatch, name, cells):
    """Kernel chunks: a budget of one cell forms every receiver's amplitudes
    alone, 2000 cells a few at a time; "split" cuts the largest group of
    receivers with equal row counts into chunks of two."""
    if cells == "split":
        env, freqs = DUCTS[BLOCK_CASES[name][0]], BLOCK_CASES[name][1]
        rx = [env.axis_point(float(s), height=1.5) for s in np.linspace(1.0, env.axis_length, 48)]
        counts = trace_receivers(env, TX, rx, 2).counts()
        n = int(np.bincount(counts[counts > 0]).argmax())
        assert np.count_nonzero(counts == n) > 2
        cells = 2 * len(PRESETS) * len(freqs) * n
    _assert_budgets_do_not_matter(monkeypatch, name, mmray.channel._TRACE_BYTES, cells)


def test_the_pool_fills_the_grid_in_position_order(monkeypatch):
    """Bent-duct blocks sized for 5 receivers, of several sizes, some without
    coverage, give the same grid on one worker, on two and as a single
    block."""
    env = build_bent_tunnel(45.0)
    together = run_sweep_grid(env, [ISO], [60e9], n_samples=24)
    assert np.isinf(together.power_dbm).any() and np.isfinite(together.power_dbm).any()
    budget = _trace_budget(env, 5, 24, systems=[ISO])
    monkeypatch.setattr(mmray.channel, "_TRACE_BYTES", budget)
    blocks = _spy_on_trace_blocks(monkeypatch)
    serial = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=1)
    assert blocks == _expected_blocks(env, 24, budget, systems=[ISO])
    assert len(blocks) >= 3 and len(set(blocks)) > 1
    pooled = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=2)
    _assert_grids_equal(serial, together)
    _assert_grids_equal(pooled, together)


OUTPUTS = {"grid": ("power", "moments"), "sweep": ("power",), "table": ("moments",)}


@pytest.mark.parametrize("name, carriers, order, pol, kind", [
    pytest.param("straight_tunnel", 3, 2, "te", "grid", id="straight_tunnel-3"),
    pytest.param("straight_tunnel", 3, 2, "te", "sweep", id="straight_tunnel-3-sweep"),
    pytest.param("plain_corridor", 31, 2, "te", "table", id="plain_corridor-31-table"),
    pytest.param("obstacle_corridor", 31, 2, "te", "grid", id="obstacle_corridor-31"),
    pytest.param("obstacle_corridor", 31, 2, "te", "table", id="obstacle_corridor-31-table"),
    pytest.param("bent_tunnel", 3, 2, "te", "grid", id="bent_tunnel-3"),
    pytest.param("bent_tunnel_80", 3, 2, "tm", "grid", id="bent_tunnel_80-3-tm"),
    pytest.param("bent_tunnel", 3, 4, "te", "grid", id="bent_tunnel-3-order_4"),
    pytest.param("bent_tunnel_80", 3, 6, "tm", "grid", id="bent_tunnel_80-3-tm-order_6"),
    pytest.param("straight_tunnel", 3, 6, "tm", "grid", id="straight_tunnel-3-tm-order_6"),
    pytest.param("straight_tunnel", 3, 8, "te", "grid", id="straight_tunnel-3-order_8"),
    pytest.param("bent_tunnel_80", 3, 8, "te", "grid", id="bent_tunnel_80-3-order_8"),
    pytest.param("obstacle_corridor", 3, 8, "te", "sweep", id="obstacle_corridor-3-sweep-order_8"),
])
def test_every_sweep_block_stays_within_the_trace_budget(monkeypatch, name, carriers, order,
                                                         pol, kind):
    """The numpy memory a block allocates at its peak, traced with
    tracemalloc over every block a 1024-position sweep forms, is at most the
    budget the block was sized by, for every kind of block: a grid's, `mmray
    sweep`'s and a delay-spread table's. The obstacle corridor's receivers
    behind the metal lift hold no pairs, so its blocks take more of them."""
    monkeypatch.setattr(mmray.tracer, "MAX_ORDER", max(order, mmray.tracer.MAX_ORDER))
    env, freqs = DUCTS[name], [60e9 + 1e9 * k for k in range(carriers)]
    *_, block, _, jobs = mmray.channel._sweep_plan(OUTPUTS[kind], env, PRESETS, freqs,
                                                   polarization=Polarization(pol),
                                                   max_order=order)
    peak = 0
    for job in jobs:
        tracemalloc.start()
        try:
            block(job)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 0 < peak <= mmray.channel._TRACE_BYTES


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name, most", [
    ("straight_tunnel", 2), ("plain_corridor", 2), ("obstacle_corridor", 1), ("bent_tunnel", 3)])
def test_the_shipped_scenarios_sweep_in_few_trace_blocks(monkeypatch, name, most):
    """Each shipped scenario's 1024-position order-2 sweep, as `mmray sweep`
    forms it, and its delay-spread table at 31 carriers take 2 trace blocks
    in the straight ducts, 1 in the obstacle corridor, whose receivers
    behind the metal lift hold no pairs, and at most 3 in the bent duct."""
    config = mmray.cli.parse_scenario((SCENARIOS / f"{name}.yaml").read_text())
    env, systems = mmray.cli.build_environment(config.environment), mmray.cli.build_systems(config)
    sweep = mmray.cli._sweep_settings(config)
    assert (sweep["n_samples"], sweep["max_order"]) == (1024, 2)
    blocks = _spy_on_trace_blocks(monkeypatch)
    mmray.channel._sweep(("power",), env, systems, config.frequencies, **sweep)
    counts = [len(blocks)]
    delay_spread_table([env], systems, [60e9 + 1e9 * k for k in range(31)], **sweep)
    counts.append(len(blocks) - counts[0])
    if name.startswith("bent"):
        assert max(counts) <= most
    else:
        assert counts == [most, most]


def test_only_the_whole_tree_traces_keep_their_steps(monkeypatch, tmp_path):
    """A sweep forms the back-trace steps of each block's candidates and
    keeps none: run_sweep_grid, delay_spread_table and `mmray sweep` at
    order 4 never call tracer._tree_steps, which forms and caches the whole
    tree's steps, nor does an order-1 sweep whose one block holds every
    candidate. Two enumerate_paths calls from one transmitter form them
    once; without the cache a one-receiver trace would form them on every
    call."""
    monkeypatch.setattr(mmray.tracer, "MAX_ORDER", 4)
    cached, calls = mmray.tracer._tree_steps, []

    def spy(*args):
        calls.append(args)
        return cached(*args)

    monkeypatch.setattr(mmray.tracer, "_tree_steps", spy)
    env = DUCTS["bent_tunnel"]
    run_sweep_grid(env, PRESETS, [60e9], n_samples=64, max_order=4)
    run_sweep_grid(DUCTS["straight_tunnel"], PRESETS, [60e9], n_samples=64, max_order=1)
    delay_spread_table([env], PRESETS, [60e9], n_samples=64, max_order=4)
    config = mmray.cli.parse_scenario((SCENARIOS / "bent_tunnel.yaml").read_text())
    config = dataclasses.replace(config, sweep=dataclasses.replace(config.sweep, n_samples=64),
                                 physics=dataclasses.replace(config.physics, max_order=4))
    assert mmray.cli.run_sweep_command(config, tmp_path)
    assert calls == []
    cached.cache_clear()
    for rx in ((10.0, 0.3, 1.5), (20.0, -0.2, 1.0)):
        enumerate_paths(env, TX, rx, max_order=4)
    info = cached.cache_info()
    assert len(calls) == 2 and (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# Gains and the per-call memo
# ---------------------------------------------------------------------------

OBLIQUE = (-0.7071, -0.7071, 0.0)


def test_lone_row_gain_equals_the_batched_gain():
    """A path's gain does not depend on how many rows share the call. The
    horn's cos_psi is summed elementwise; a matrix product with the
    boresight sums a lone row in another order than a batch, and then
    differs from it in the last bit for some directions."""
    horn = make_system("horn", 10.0, 20.8, boresight=OBLIQUE)
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(4000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[dirs @ horn.boresight < 0.0] *= -1.0  # front hemisphere
    batched = mmray.antenna.gain(horn, dirs)
    lone = np.array([mmray.antenna.gain(horn, dirs[i:i + 1])[0] for i in range(len(dirs))])
    assert lone.view(np.uint64).tolist() == batched.view(np.uint64).tolist()
    # Per-row boresights, not unit length, near the directions so that most
    # gains are above the back-lobe floor.
    boresights = (dirs + 0.3 * rng.normal(size=dirs.shape)) * rng.uniform(0.1, 10.0, (len(dirs), 1))
    batched = mmray.antenna.gain(horn, dirs, boresights)
    lone = np.array([mmray.antenna.gain(horn, dirs[i:i + 1], boresights[i])[0]
                     for i in range(len(dirs))])
    assert (batched > mmray.antenna.BACK_LOBE_GAIN).mean() > 0.5
    assert lone.view(np.uint64).tolist() == batched.view(np.uint64).tolist()


def _spy_on_gain(monkeypatch, record) -> list:
    """record(args) of every gain call the channel makes, in call order."""
    calls, original = [], mmray.channel.gain
    monkeypatch.setattr(mmray.channel, "gain",
                        lambda *args: calls.append(record(args)) or original(*args))
    return calls


def test_a_sweep_block_across_the_elbow_calls_gain_twice_per_system(monkeypatch):
    """Receivers on both legs of the bent duct face back along their own
    leg, yet each system gets one departure and one arrival call."""
    env = DUCTS["bent_tunnel"]
    distances = [12.0, 18.0, 26.0, 34.0]
    rx = np.array([env.axis_point(d, height=1.5) for d in distances])
    direction = np.array([env.axis_direction(d) for d in distances])
    assert len({tuple(d) for d in direction.tolist()}) == 2
    calls = _spy_on_gain(monkeypatch, lambda args: args[0])
    ctx = (("power", "moments"), env, TX, tuple(PRESETS), (60e9,), mmray.Polarization.TE, 2,
           0.0)
    mmray.channel._sweep_block(ctx, (rx, direction, None))
    assert calls == [s for s in PRESETS for _ in ("departure", "arrival")]


def _fresh(paths):
    """Equal paths in new objects, for which no memo can be reused."""
    return [dataclasses.replace(p) for p in paths]


def _per_call(paths, system, carrier, boresight, atmospheric, power_first=False):
    """repr of received_power and the taps of one (system, carrier, boresight, loss)."""
    kw = dict(rx_boresight=boresight, atmospheric_loss_db_per_m=atmospheric)
    power = received_power(paths, system, carrier, **kw) if power_first else None
    taps = impulse_response(paths, system, carrier, **kw)
    if not power_first:
        power = received_power(paths, system, carrier, **kw)
    return repr((power, [(t.delay, t.amplitude, t.power) for t in taps]))


CARRIERS = [CarrierConfig(f) for f in (60e9, 70e9, 80e9)]


@pytest.mark.parametrize("seed", [0, 1])
def test_warm_per_call_results_equal_cold_ones(seed):
    # Every path crosses the wooden door, so prop carries slab transmissions.
    paths = enumerate_paths(DUCTS["obstacle_corridor"], TX, (15.0, 0.3, 1.2))
    assert paths and all(p.crossings for p in paths)
    combos = list(itertools.product(PRESETS, CARRIERS, (None, (-1.0, 0.0, 0.0), OBLIQUE),
                                    (0.0, ATMOSPHERIC_LOSS_DB_PER_M)))
    cold = {c: _per_call(_fresh(paths), *c) for c in combos}
    rng = random.Random(seed)
    for _ in range(2):
        rng.shuffle(combos)
        for c in combos:
            assert _per_call(paths, *c, power_first=rng.random() < 0.5) == cold[c], c


def test_per_call_gains_are_evaluated_once_per_system(monkeypatch):
    paths = enumerate_paths(DUCTS["straight_tunnel"], TX, (10.0, 0.3, 1.5))
    calls = _spy_on_gain(monkeypatch, lambda args: args[0])
    for system, carrier in itertools.product(PRESETS, CARRIERS):
        _per_call(paths, system, carrier, (-1.0, 0.0, 0.0), 0.0)
    assert calls == [s for s in PRESETS for _ in ("departure", "arrival")]


@pytest.mark.parametrize("name", ["bent_tunnel", "obstacle_corridor"])
def test_a_receiver_s_paths_from_a_batched_trace_carry_its_table(monkeypatch, name):
    """PathTable.paths(r) of a table of several receivers carries r's slice
    of it: the table of a trace of r alone, bit for bit, so the per-call
    results equal those of the enumerate_paths list, and a second call is
    served from the list's memo. In the obstacle corridor the paths cross the
    wooden doors, and a receiver past the metal lift has none."""
    env = DUCTS[name]
    rx = [(3.0, 0.2, 1.5), (12.0, -0.4, 0.9), (15.0, 0.3, 1.2), (22.0, 0.0, 1.5),
          env.axis_point(30.0, 1.5)]
    table = trace_receivers(env, TX, rx)
    combos = list(itertools.product(PRESETS[::2], CARRIERS[::2], (None, OBLIQUE),
                                    (0.0, ATMOSPHERIC_LOSS_DB_PER_M)))
    for r, p in enumerate(rx):
        paths, alone = table.paths(r), enumerate_paths(env, TX, p)
        assert paths == alone
        for f in dataclasses.fields(mmray.tracer.PathTable):
            x, y = getattr(paths.table, f.name), getattr(alone.table, f.name)
            if isinstance(x, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
            else:
                assert x == y, f.name
        assert [_per_call(paths, *c) for c in combos] == [_per_call(alone, *c) for c in combos]
    paths = table.paths(2)
    assert paths and all(path.crossings for path in paths) == (name == "obstacle_corridor")
    calls = _spy_on_gain(monkeypatch, lambda args: args[0])
    for _ in range(2):
        _per_call(paths, ISO, CARRIERS[0], OBLIQUE, 0.0)
    assert calls == [ISO, ISO]


def test_interleaved_path_lists_evaluate_each_gain_once(monkeypatch):
    """Two traced lists used in turn keep their own factors: each evaluates
    the departure and the arrival gain of each system once."""
    env = DUCTS["straight_tunnel"]
    lists = [enumerate_paths(env, TX, rx) for rx in ((10.0, 0.3, 1.5), (14.0, -0.2, 1.1))]
    # The departure gain gets the departure directions, the arrival gain the
    # arrival directions (about the reversed rx boresight), so each call's
    # directions name its list.
    owner = {}
    for i, paths in enumerate(lists):
        owner[tuple(p.departure_dir for p in paths)] = i
        owner[tuple(p.arrival_dir for p in paths)] = i
    calls = _spy_on_gain(monkeypatch,
                         lambda args: (args[0], owner[tuple(map(tuple, args[1].tolist()))]))
    for system, carrier in itertools.product(PRESETS, CARRIERS):
        for paths in lists:
            impulse_response(paths, system, carrier, rx_boresight=(-1.0, 0.0, 0.0))
            received_power(paths, system, carrier, rx_boresight=(-1.0, 0.0, 0.0))
    assert calls == [(s, i) for s in PRESETS for i in (0, 1) for _ in ("departure", "arrival")]


def test_a_changed_copy_or_a_slice_of_a_traced_list_is_evaluated_afresh():
    """A copy with one path replaced by another receiver's, a copy with a
    path appended and a slice give the values of fresh objects with their
    own contents, not those kept for the traced list."""
    env = DUCTS["obstacle_corridor"]
    paths = enumerate_paths(env, TX, (15.0, 0.3, 1.2))
    other = enumerate_paths(env, TX, (12.0, -0.4, 1.6))
    args = (PRESETS[2], CARRIERS[1], OBLIQUE, ATMOSPHERIC_LOSS_DB_PER_M)
    kept = _per_call(paths, *args)
    replaced, appended = copy.copy(paths), copy.copy(paths)
    assert type(replaced) is type(paths) and replaced.table is paths.table
    replaced[3] = other[3]
    appended.append(other[-1])
    for variant in (replaced, appended, paths[2:]):
        assert _per_call(variant, *args) == _per_call(_fresh(variant), *args) != kept
    assert _per_call(paths, *args) == kept == _per_call(_fresh(paths), *args)


def test_alternating_path_lists_keep_their_own_values():
    env = DUCTS["straight_tunnel"]
    a = enumerate_paths(env, TX, (10.0, 0.0, 1.5))
    b = enumerate_paths(env, TX, (14.0, 0.3, 1.1))
    assert len(a) == len(b)
    args = (PRESETS[2], CARRIERS[1], OBLIQUE, 0.0)
    cold_a, cold_b = (_per_call(_fresh(p), *args) for p in (a, b))
    assert cold_a != cold_b
    assert [_per_call(p, *args) for p in (a, b, a)] == [cold_a, cold_b, cold_a]


def _route_inputs():
    """(env, tx, rx, rx boresight, carriers, polarization) at each shipped
    scenario's PDP positions, then at seeded receivers off the axis."""
    rng = random.Random(28)
    for name in ("straight_tunnel", "bent_tunnel", "plain_corridor", "obstacle_corridor"):
        config = mmray.cli.parse_scenario((SCENARIOS / f"{name}.yaml").read_text())
        env = mmray.cli.build_environment(config.environment)
        carriers = [CarrierConfig(f) for f in config.frequencies]
        points = [(d, config.sweep.rx_height, 0.0) for d in config.output.pdp_positions]
        # Up to 19.5 m every duct has a line-of-sight path.
        points += [(rng.uniform(1.0, 19.5), rng.uniform(0.6, 2.0), rng.uniform(-0.6, 0.6))
                   for _ in range(3)]
        for d, height, lateral in points:
            axis, p = env.axis_direction(d), env.axis_point(d, height=height)
            rx = (p[0] - lateral * axis[1], p[1] + lateral * axis[0], p[2])
            yield (env, config.sweep.tx_position, rx, neg(axis), carriers,
                   Polarization(config.physics.polarization))


def _profile(taps, bin_width):
    pdp = power_delay_profile(taps, bin_width)
    return repr((pdp.taps, pdp.first_arrival, rms_delay_spread(pdp), mean_excess_delay(pdp)))


def test_every_route_into_the_per_call_functions_gives_the_same_bits():
    """A traced list, and each tap list made from it, carry arrays that the
    per-call functions read in place of the objects; any other sequence is
    read from its objects. Both routes give the same bits: for the taps and
    the power, a traced list and list(paths); for the profile and its
    moments, at bin_width 0 and 1 ns, the intact tap list, list(taps), the
    taps reversed and a tap list changed after it was made (a tap replaced
    by an equal copy)."""
    cells = 0
    for env, tx, rx, boresight, carriers, pol in _route_inputs():
        paths = enumerate_paths(env, tx, rx, polarization=pol)
        assert paths.table is not None
        for system, carrier in itertools.product(PRESETS, carriers):
            assert (_per_call(paths, system, carrier, boresight, 0.0)
                    == _per_call(list(paths), system, carrier, boresight, 0.0))
            taps, changed = (impulse_response(paths, system, carrier, rx_boresight=boresight)
                             for _ in range(2))
            changed[-1] = ChannelTap(*changed[-1])
            assert taps.arrays is not None and changed.arrays is None
            for bin_width in (0.0, 1e-9):
                want = _profile(taps, bin_width)
                for other in (list(taps), taps[::-1], changed):
                    assert _profile(other, bin_width) == want
            cells += 1
    assert cells == 3 * 3 * (5 + 4 * 3)


@pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)])
def test_a_bad_rx_boresight_is_rejected(bad):
    """The horn at (10, 0, 1.5) read -94.11 dBm, its back-lobe floor, for
    these instead of -37.12 dBm."""
    paths = enumerate_paths(DUCTS["straight_tunnel"], TX, (10.0, 0.0, 1.5))
    assert round(received_power(paths, PRESETS[2], CARRIERS[0]), 2) == -37.12
    with pytest.raises(ValueError, match="boresight must be a non-zero finite vector"):
        received_power(paths, PRESETS[2], CARRIERS[0], rx_boresight=bad)


def test_changing_only_the_boresight_or_the_loss_changes_the_result():
    paths = enumerate_paths(DUCTS["straight_tunnel"], TX, (10.0, 0.3, 1.5))
    horn, carrier, axis = PRESETS[2], CARRIERS[0], (-1.0, 0.0, 0.0)
    base = _per_call(paths, horn, carrier, axis, 0.0)
    assert _per_call(paths, horn, carrier, OBLIQUE, 0.0) != base
    assert _per_call(paths, horn, carrier, axis, ATMOSPHERIC_LOSS_DB_PER_M) != base
    assert _per_call(paths, horn, carrier, list(axis), 0.0) == base
    assert _per_call(paths, horn, carrier, np.array(OBLIQUE), 0.0) == _per_call(
        _fresh(paths), horn, carrier, OBLIQUE, 0.0)


# ---------------------------------------------------------------------------
# Delay-spread table
# ---------------------------------------------------------------------------

def test_delay_spread_table_layout():
    envs = [build_straight_tunnel()]
    systems = [system_preset(k) for k in ("system1", "system2", "system3")]
    table = delay_spread_table(envs, systems, [60e9], n_samples=64)
    assert table.values_ns.shape == (1, 3, 1)
    assert table.environments == ("straight_tunnel",)
    assert table.system_labels == ("isotropic", "omni", "horn")
    assert table.aggregate == "mean"
    assert table.cell("straight_tunnel", "omni", 60e9) == pytest.approx(
        float(table.values_ns[0, 1, 0]))


def test_delay_spread_table_median_differs_from_mean():
    envs = [build_straight_tunnel()]
    mean_t = delay_spread_table(envs, [ISO], [60e9], n_samples=64)
    med_t = delay_spread_table(envs, [ISO], [60e9], n_samples=64,
                               aggregate="median")
    assert mean_t.values_ns[0, 0, 0] != med_t.values_ns[0, 0, 0]
    with pytest.raises(ValueError):
        delay_spread_table(envs, [ISO], [60e9], aggregate="mode")


def test_delay_spread_table_forwards_the_sweep_keywords():
    """atmospheric reaches run_sweep_grid: 0.857607 ns with the loss, 0.857661 without."""
    envs = [build_straight_tunnel()]
    lossy = delay_spread_table(envs, [ISO], [60e9], n_samples=64, atmospheric=True)
    grid = run_sweep_grid(envs[0], [ISO], [60e9], n_samples=64, atmospheric=True)
    expected = np.nanmean(grid.rms_spread, axis=0) * 1e9
    assert lossy.values_ns[0] == pytest.approx(expected, rel=1e-12)
    plain = delay_spread_table(envs, [ISO], [60e9], n_samples=64)
    assert lossy.values_ns[0, 0, 0] != pytest.approx(plain.values_ns[0, 0, 0], rel=1e-6)


def test_delay_spread_ordering_small_grid():
    """Directive patterns suppress long detours, shrinking the spread."""
    envs = [build_straight_tunnel()]
    systems = [system_preset(k) for k in ("system1", "system2", "system3")]
    table = delay_spread_table(envs, systems, [60e9], n_samples=128)
    iso, omni, horn = table.values_ns[0, :, 0]
    assert horn < omni < iso


def _finite_mean(col):
    return np.mean(col[np.isfinite(col)])


@pytest.mark.parametrize("name", sorted(DUCTS))
def test_delay_spread_table_aggregates_the_sweep_grid_spreads(name):
    """Each cell is the mean, or the median, over the finite RMS spreads of
    run_sweep_grid's column, bit for bit, on one worker and on two. The
    median is np.nanmedian; the mean is taken over the finite entries only:
    np.nanmean adds zeros in place of NaN, which regroups numpy's pairwise
    sum and moves some means by an ulp where a duct has NOCOV positions."""
    env, freqs = DUCTS[name], [60e9, 80e9]
    for pol, atmospheric in itertools.product(Polarization, (False, True)):
        kw = dict(n_samples=48, polarization=pol, atmospheric=atmospheric)
        spreads = run_sweep_grid(env, PRESETS, freqs, **kw).rms_spread
        means = np.array([[_finite_mean(spreads[:, s, f]) for f in range(2)] for s in range(3)])
        medians = np.nanmedian(spreads, axis=0)
        for workers in (1, 2):
            for aggregate, expected in (("mean", means * 1e9), ("median", medians * 1e9)):
                table = delay_spread_table([env], PRESETS, freqs, aggregate=aggregate,
                                           workers=workers, **kw)
                assert table.values_ns[0].tobytes() == expected.tobytes()


def test_a_delay_spread_table_forms_no_phase_or_coherent_power(monkeypatch):
    """The table takes the carrier-free moments only, at any carrier count."""
    calls = []
    for name in ("_phase", "_coherent"):
        monkeypatch.setattr(mmray.channel, name, lambda *args, name=name: calls.append(name))
    freqs = [60e9 + 1e9 * k for k in range(31)]
    for env in (DUCTS["bent_tunnel"], DUCTS["obstacle_corridor"]):
        table = delay_spread_table([env], PRESETS, freqs, n_samples=64)
        assert np.isfinite(table.values_ns).all()
    assert calls == []


TABLE_SWEEP_ERRORS = [
    (dict(n_samples=1), "n_samples must be >= 2"),
    (dict(rx_start=0.0), r"rx_start must be in \(0, 44.0\)"),
    (dict(rx_start=45.0), r"rx_start must be in \(0, 44.0\)"),
    (dict(rx_height=2.5), r"rx_height must be in \(0, "),
    (dict(tx=(0.0, 5.0, 2.0)), "outside environment 'straight_tunnel'"),
    # The first receiver sits within a nanometre of the transmitter.
    (dict(tx=(1.0, 1e-10, 1.5), rx_start=1.0), "coincide"),
    (dict(systems=[]), "at least one antenna system is required"),
    (dict(frequencies=[]), "at least one frequency is required"),
    (dict(frequencies=[60e9, -60e9]), "carrier frequency must be > 0 and finite"),
    (dict(n_samples=2.5), "n_samples must be >= 2"),
    (dict(n_samples=3.0), "n_samples must be >= 2"),
    (dict(n_samples="4"), "n_samples must be >= 2"),
    (dict(n_samples=True), "n_samples must be >= 2"),
]


def test_a_numpy_integer_sample_count_sweeps_as_an_int():
    env = build_straight_tunnel()
    a = run_sweep_grid(env, [ISO], [60e9], n_samples=np.int64(4))
    b = run_sweep_grid(env, [ISO], [60e9], n_samples=4)
    assert a.power_dbm.tobytes() == b.power_dbm.tobytes()


@pytest.mark.parametrize("kw, message", TABLE_SWEEP_ERRORS)
def test_delay_spread_table_raises_the_sweeps_errors(kw, message):
    kw = dict(kw)
    systems, freqs = kw.pop("systems", [ISO]), kw.pop("frequencies", [60e9])
    env = build_straight_tunnel()
    with pytest.raises(ValueError, match=message):
        run_sweep_grid(env, systems, freqs, **kw)
    with pytest.raises(ValueError, match=message):
        delay_spread_table([env], systems, freqs, **kw)
