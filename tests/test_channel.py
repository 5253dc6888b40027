"""Narrowband power, delay profiles, and sweep plumbing."""

import copy
import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmray
from mmray import (
    ATMOSPHERIC_LOSS_DB_PER_M, NO_COVERAGE, CarrierConfig, ChannelTap, PowerDelayProfile,
    build_bent_tunnel,
    build_obstacle_corridor, build_plain_corridor, build_straight_tunnel,
    dbm_to_watts, delay_spread_table, enumerate_paths, free_space,
    impulse_response, make_system, mean_excess_delay, power_delay_profile,
    received_power, rms_delay_spread, run_sweep_grid, system_preset,
    watts_to_dbm,
)
from mmray.tracer import candidate_count, trace_receivers
from oracles import friis_dbm, power_delay_profile_reference

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
    env = DUCTS[name]
    freqs = [60e9, 80e9]
    grid = run_sweep_grid(env, PRESETS, freqs, n_samples=64)
    for i, d in enumerate(grid.distances.tolist()):
        paths = enumerate_paths(env, TX, env.axis_point(d, height=1.5))
        boresight = tuple(-c for c in env.axis_direction(d))
        if not paths:
            assert np.all(grid.power_dbm[i] == NO_COVERAGE)
            assert np.all(np.isnan(grid.rms_spread[i]) & np.isnan(grid.mean_excess[i]))
            continue
        for s, system in enumerate(PRESETS):
            for f, freq in enumerate(freqs):
                carrier = CarrierConfig(freq)
                assert grid.power_dbm[i, s, f] == received_power(
                    paths, system, carrier, rx_boresight=boresight)
                pdp = power_delay_profile(impulse_response(paths, system, carrier,
                                                           rx_boresight=boresight))
                assert grid.rms_spread[i, s, f] == pytest.approx(
                    rms_delay_spread(pdp), rel=1e-9, abs=1e-15)
                assert grid.mean_excess[i, s, f] == pytest.approx(
                    mean_excess_delay(pdp), rel=1e-9, abs=1e-15)


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


def _trace_budget(env, carriers: int, receivers: int) -> int:
    """The trace budget that gives blocks of the given number of receivers."""
    channel = mmray.channel
    return (receivers * candidate_count(env, TX, 2)
            * (channel._SEGMENT_BYTES * 3 + channel._CARRIER_BYTES * carriers))


def _spy_on_trace_blocks(monkeypatch) -> list:
    """The receiver count of every block the sweep traces, in call order."""
    blocks, trace = [], mmray.channel.trace_receivers

    def spy(env, tx, rx, *args):
        blocks.append(len(rx))
        return trace(env, tx, rx, *args)

    monkeypatch.setattr(mmray.channel, "trace_receivers", spy)
    return blocks


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
@pytest.mark.parametrize("receivers", [1, 7])
def test_sweep_does_not_depend_on_trace_blocks(monkeypatch, name, receivers):
    """Blocks of 1 and of 7 receivers, the last one ragged, give the grid
    of one 48-receiver block; the spy checks the blocks really are that size."""
    env, freqs = DUCTS[BLOCK_CASES[name][0]], BLOCK_CASES[name][1]
    blocks = _spy_on_trace_blocks(monkeypatch)
    _assert_budgets_do_not_matter(monkeypatch, name,
                                  _trace_budget(env, len(freqs), receivers), 1 << 30)
    ragged = [48 % receivers] if 48 % receivers else []
    assert blocks == [48] + [receivers] * (48 // receivers) + ragged


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
    """Five bent-duct blocks of 5 receivers, the last one ragged, some
    without coverage, give the same grid on one worker, on two and as a
    single block."""
    env = build_bent_tunnel(45.0)
    together = run_sweep_grid(env, [ISO], [60e9], n_samples=24)
    assert np.isinf(together.power_dbm).any() and np.isfinite(together.power_dbm).any()
    monkeypatch.setattr(mmray.channel, "_TRACE_BYTES", _trace_budget(env, 1, 5))
    blocks = _spy_on_trace_blocks(monkeypatch)
    serial = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=1)
    assert blocks == [5, 5, 5, 5, 4]
    pooled = run_sweep_grid(env, [ISO], [60e9], n_samples=24, workers=2)
    _assert_grids_equal(serial, together)
    _assert_grids_equal(pooled, together)


@pytest.mark.parametrize("name, carriers", [
    ("straight_tunnel", 3), ("bent_tunnel", 3), ("obstacle_corridor", 31)])
def test_every_sweep_block_stays_within_the_trace_budget(name, carriers):
    """The numpy memory a default-size block allocates at its peak, traced
    with tracemalloc over every block of a 1024-position sweep, is at most
    the budget the block was sized by."""
    env, freqs = DUCTS[name], tuple(60e9 + 1e9 * k for k in range(carriers))
    size = mmray.channel._block_receivers(candidate_count(env, TX, 2), 2, carriers)
    distances = np.linspace(1.0, env.axis_length, 1024).tolist()
    rx = np.array([env.axis_point(d, height=1.5) for d in distances])
    boresight = -np.array([env.axis_direction(d) for d in distances])
    ctx = (env, TX, tuple(PRESETS), freqs, mmray.Polarization.TE, 2, 0.0)
    peak = 0
    for i in range(0, len(rx), size):
        tracemalloc.start()
        try:
            mmray.channel._sweep_block(ctx, (rx[i:i + size], boresight[i:i + size]))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 0 < peak <= mmray.channel._TRACE_BYTES


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
    boresight = -np.array([env.axis_direction(d) for d in distances])
    assert len({tuple(b) for b in boresight.tolist()}) == 2
    calls = _spy_on_gain(monkeypatch, lambda args: args[0])
    ctx = (env, TX, tuple(PRESETS), (60e9,), mmray.Polarization.TE, 2, 0.0)
    mmray.channel._sweep_block(ctx, (rx, boresight))
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


def test_interleaved_path_lists_evaluate_each_gain_once(monkeypatch):
    """Two traced lists used in turn keep their own factors: each evaluates
    the departure and the arrival gain of each system once."""
    env = DUCTS["straight_tunnel"]
    lists = [enumerate_paths(env, TX, rx) for rx in ((10.0, 0.3, 1.5), (14.0, -0.2, 1.1))]
    # The departure gain gets the departure directions, the arrival gain the
    # reversed arrival directions, so each call's directions name its list.
    owner = {}
    for i, paths in enumerate(lists):
        owner[tuple(p.departure_dir for p in paths)] = i
        owner[tuple(tuple(-c for c in p.arrival_dir) for p in paths)] = i
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
