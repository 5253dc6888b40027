"""Property tests of the path enumerator and the channel over random placements."""

import dataclasses
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmray import (
    CarrierConfig, Polarization, build_bent_tunnel, build_obstacle_corridor,
    build_plain_corridor, build_straight_tunnel, channel, delay_spread_table, enumerate_paths,
    impulse_response, mean_excess_delay, power_delay_profile, received_power,
    rms_delay_spread, run_sweep_grid, system_preset,
)
from mmray.geometry import distance, scale
from mmray.tracer import _MIN_SEPARATION, candidate_count

ENVIRONMENTS = {
    "straight_tunnel": build_straight_tunnel(),
    "bent_tunnel": build_bent_tunnel(45.0),
    "obstacle_corridor": build_obstacle_corridor(),
}
# The ducts of the channel tests: these and the plain corridor and an 80
# degree bend.
DUCTS = dict(ENVIRONMENTS, plain_corridor=build_plain_corridor(),
             bent_tunnel_80=build_bent_tunnel(80.0))
PRESETS = [system_preset(k) for k in ("system1", "system2", "system3")]

# Derandomized so the suite stays deterministic. Each example runs two or
# three traces of about a millisecond, so each test takes about a second.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def placements(draw, environments=ENVIRONMENTS):
    """An environment and two points inside it, off the axis sideways and vertically."""
    env = environments[draw(st.sampled_from(sorted(environments)))]

    def point():
        return _at(env, draw(st.floats(0.0, env.axis_length)), draw(st.floats(-0.45, 0.45)),
                   draw(st.floats(0.05, 0.95)))

    tx, rx = point(), point()
    # enumerate_paths rejects endpoints closer than the floor (tested in test_tracer).
    assume(env.contains(tx) and env.contains(rx) and distance(tx, rx) >= _MIN_SEPARATION)
    return env, tx, rx


def _at(env, s, lateral, height):
    """The point at arclength s along env's axis, lateral times its width to
    the axis' left and height times its height up."""
    lateral *= env.width
    axis, p = env.axis_direction(s), env.axis_point(s, height=height * env.height)
    return (p[0] - lateral * axis[1], p[1] + lateral * axis[0], p[2])


def _length_multiset(paths):
    return Counter((p.order, round(p.length, 7)) for p in paths)


@PROPERTY
@given(placements())
# Corner bounces a few nanometres apart: the short segment between them
# ends on the wall it bounces from and must not count as crossing it.
@example((ENVIRONMENTS["bent_tunnel"], (0.0, 6.544088242852959e-09, 1.25), (1.0, 0.0, 1.25)))
# A floor-then-wall path through the corner line, bounces 3e-12 m apart:
# both directions of travel must keep it.
@example((ENVIRONMENTS["bent_tunnel"], (0.5197366657367991, 2.5e-12, 2.06713100984583),
          (22.39878495775011, -1.7535360205194e-70, 2.06713100984583)))
def test_swapping_endpoints_keeps_the_paths(placement):
    env, tx, rx = placement
    assert (_length_multiset(enumerate_paths(env, tx, rx))
            == _length_multiset(enumerate_paths(env, rx, tx)))


@PROPERTY
@given(placements())
def test_lower_orders_are_a_subset_of_the_full_trace(placement):
    env, tx, rx = placement
    full = enumerate_paths(env, tx, rx, max_order=2)
    for m in (0, 1):
        assert enumerate_paths(env, tx, rx, max_order=m) == [p for p in full if p.order <= m]


@PROPERTY
@given(placements())
# Floor and ceiling bounces where the two legs' rectangles overlap across
# the elbow wedge: each such bounce lies on two coplanar rectangles.
@example((ENVIRONMENTS["bent_tunnel"], (20.5, 0.3, 1.8),
          ENVIRONMENTS["bent_tunnel"].axis_point(24.0, height=1.5)))
def test_a_trace_never_repeats_a_path(placement):
    env, tx, rx = placement
    keys = [(p.order, round(p.length, 7),
             tuple(round(v, 7) for b in p.bounces for v in b.point))
            for p in enumerate_paths(env, tx, rx)]
    assert len(keys) == len(set(keys))


# A boresight: any direction, not of unit length.
BORESIGHTS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 0.01)


def _channel(paths, system, carrier, rx_boresight):
    """One system's received_power (dBm), the fade depth (sum |a_i|)^2 /
    |sum a_i|^2 of its tap amplitudes a_i, its delay variance (s^2) and
    second moment of the excess delay (s^2). A fade cancels the amplitudes
    in the coherent power, and the variance the second moment, so each
    grows the rounding of the trace by its ratio."""
    taps = impulse_response(paths, system, carrier, rx_boresight=rx_boresight)
    fade = sum(abs(t.amplitude) for t in taps) ** 2 / abs(sum(t.amplitude for t in taps)) ** 2
    pdp = power_delay_profile(taps)
    variance = rms_delay_spread(pdp) ** 2
    return (received_power(paths, system, carrier, rx_boresight=rx_boresight), fade,
            variance, variance + mean_excess_delay(pdp) ** 2)


def _assert_reciprocal(env, tx, rx, polarization, tx_boresight, rx_boresight, freq):
    forward = enumerate_paths(env, tx, rx, polarization=polarization)
    backward = enumerate_paths(env, rx, tx, polarization=polarization)
    assert len(forward) == len(backward)
    carrier = CarrierConfig(freq)
    for preset in PRESETS if forward else ():
        there = _channel(forward, dataclasses.replace(preset, boresight=tx_boresight),
                         carrier, rx_boresight)
        back = _channel(backward, dataclasses.replace(preset, boresight=rx_boresight),
                        carrier, tx_boresight)
        _assert_close(there, back, preset.kind)


def _assert_close(there, back, label):
    """_channel results equal to 1e-9 dB times the fade depth and to 1e-9
    of the second moment."""
    assert abs(there[0] - back[0]) <= 1e-9 * there[1], (label, there, back)
    assert abs(there[2] - back[2]) <= 1e-9 * there[3], (label, there, back)


@pytest.mark.parametrize("polarization", list(Polarization), ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(DUCTS))
@settings(PROPERTY, max_examples=30)
@given(data=st.data(), tx_boresight=BORESIGHTS, rx_boresight=BORESIGHTS,
       freq=st.sampled_from([60e9, 70e9, 80e9]))
def test_the_channel_is_reciprocal(name, polarization, data, tx_boresight, rx_boresight, freq):
    """Swapping tx and rx, and with them their boresights, keeps each
    system's received power to 1e-9 dB times the fade depth, and its delay
    variance to 1e-9 of the second moment: the antenna gains and the
    reflection and slab coefficients of a path are those of its reverse,
    and only the rounding of the two traces differs. Where the sums cancel
    that rounding grows: omni in the 80 degree bend, 33.6 dB below the
    incoherent power, differed by 1.6e-9 dB, and in the obstacle corridor,
    where one path held all but 1e-7 of the power, the RMS spreads of
    2.8 ps differed by 1.6e-9 of themselves."""
    env, tx, rx = data.draw(placements({name: DUCTS[name]}))
    _assert_reciprocal(env, tx, rx, polarization, tx_boresight, rx_boresight, freq)


@pytest.mark.parametrize("name, tx, rx, polarization, boresights", [
    # Half-way up the 80 degree bend, 1 m apart: four second-order paths
    # bounce off the floor or ceiling and a wall 1.8 nm apart. Angles
    # formed along that segment differed between the two directions by up
    # to 1e-7, and the isotropic power by 4.4e-9 dB at a fade depth of
    # 2.8; each bounce's angle now comes from its longer segment.
    pytest.param("bent_tunnel_80", (0.0, 0.0, 1.25), (1.0, 2.5e-9, 1.25), Polarization.TM,
                 ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)), id="corner"),
    # A wall bounce on the wooden door's face, at x = 10 to 2e-15 m: one
    # direction records the door crossed twice (ROADMAP item 6, fault A),
    # and the isotropic power reads -58.37 dBm one way, -63.34 the other.
    pytest.param("obstacle_corridor", (8.0, 0.99, 0.6875), (12.0, 0.99, 0.9642080702890178),
                 Polarization.TE, ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                 id="bounce inside a slab",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="ROADMAP item 6, fault A")),
])
def test_reciprocity_fails_where_the_trace_does(name, tx, rx, polarization, boresights):
    """Reciprocity where a trace broke it: at a corner, which holds now,
    and at a bounce inside a slab, which still fails."""
    _assert_reciprocal(DUCTS[name], tx, rx, polarization, *boresights, 60e9)


# Slab-free ducts k times the default size, with their origin fixed.
SCALED = {
    "straight_tunnel": lambda k: build_straight_tunnel(44.0 * k, 2.5 * k, 2.5 * k),
    "bent_tunnel": lambda k: build_bent_tunnel(45.0, 44.0 * k, 2.5 * k, 2.5 * k),
}


@settings(PROPERTY, max_examples=25)
@given(name=st.sampled_from(sorted(SCALED)), k=st.floats(0.2, 5.0),
       ends=st.tuples(*[st.floats(0.05, 0.95)] * 2 + [st.floats(-0.4, 0.4)] * 2
                      + [st.floats(0.1, 0.9)] * 2))
def test_scaling_a_duct_scales_its_delays_and_powers(name, k, ends):
    """Scale (ROADMAP item 7): a duct and both endpoints k times as large
    keep every path, by its bounce surfaces; each delay and the RMS delay
    spread scale by k and each isotropic tap power by 1 / k^2, to a
    relative 1e-9. The endpoints keep a twentieth of the axis from its
    ends, and a tenth of the width and height from the walls, so no bounce
    lies near the edge of a rectangle."""
    small, large = SCALED[name](1.0), SCALED[name](k)
    s_tx, s_rx, a_tx, a_rx, h_tx, h_rx = ends
    tx = _at(small, s_tx * small.axis_length, a_tx, h_tx)
    rx = _at(small, s_rx * small.axis_length, a_rx, h_rx)
    assume(distance(tx, rx) > 0.1)
    iso, carrier = PRESETS[0], CarrierConfig(60e9)
    paths, scaled = (enumerate_paths(env, scale(tx, f), scale(rx, f))
                     for env, f in ((small, 1.0), (large, k)))

    def by_surfaces(paths):
        return {tuple(b.surface_index for b in p.bounces): p for p in paths}

    one, other = by_surfaces(paths), by_surfaces(scaled)
    assert len(one) == len(paths) and one.keys() == other.keys()
    for chain, p in one.items():
        q = other[chain]
        assert q.delay == pytest.approx(k * p.delay, rel=1e-9)
        power = impulse_response([p], iso, carrier)[0].power
        assert impulse_response([q], iso, carrier)[0].power == pytest.approx(power / k ** 2,
                                                                             rel=1e-9)
    if paths:  # none past the elbow of the bent duct
        spread = (rms_delay_spread(power_delay_profile(impulse_response(x, iso, carrier)))
                  for x in (paths, scaled))
        assert next(spread) * k == pytest.approx(next(spread), rel=1e-9)


@pytest.mark.parametrize("polarization", list(Polarization), ids=lambda p: p.name)
@settings(PROPERTY, max_examples=20)
@given(placement=placements({name: DUCTS[name] for name in ("straight_tunnel", "plain_corridor")}),
       freq=st.sampled_from([60e9, 70e9, 80e9]))
def test_mirroring_both_endpoints_across_the_axis_keeps_the_channel(polarization, placement,
                                                                   freq):
    """Mirror (ROADMAP item 7): the straight tunnel and the plain corridor
    are symmetric about y = 0, and so is each system's boresight, so with
    both endpoints mirrored y -> -y each system's received power and delay
    variance hold to the reciprocity property's tolerances."""
    env, tx, rx = placement
    carrier = CarrierConfig(freq)
    paths, mirrored = (enumerate_paths(env, a, b, polarization=polarization)
                       for a, b in ((tx, rx), ((tx[0], -tx[1], tx[2]), (rx[0], -rx[1], rx[2]))))
    assert len(paths) == len(mirrored)
    for preset in PRESETS:
        _assert_close(_channel(paths, preset, carrier, None),
                      _channel(mirrored, preset, carrier, None), preset.kind)


SWEEP_CARRIERS = [60e9, 80e9]
TX = (0.0, 0.0, 2.0)  # the sweep's default transmitter


def _sweep_outputs(env, n_samples, workers):
    """The grid, `mmray sweep`'s powers and a delay-spread table of one
    n-position order-2 sweep, as float arrays."""
    sweep = dict(n_samples=n_samples, workers=workers)
    grid = run_sweep_grid(env, PRESETS, SWEEP_CARRIERS, **sweep)
    (powers,) = channel._sweep(("power",), env, PRESETS, SWEEP_CARRIERS, **sweep)[3]
    table = delay_spread_table([env], PRESETS, SWEEP_CARRIERS, **sweep)
    return grid.power_dbm, grid.rms_spread, grid.mean_excess, powers, table.values_ns


@settings(PROPERTY, max_examples=40)
@given(name=st.sampled_from(sorted(DUCTS)), n_samples=st.integers(2, 48),
       receivers=st.integers(1, 7), workers=st.just(1))
@example(name="bent_tunnel", n_samples=40, receivers=3, workers=2)
@example(name="obstacle_corridor", n_samples=33, receivers=2, workers=2)
def test_sweeps_do_not_depend_on_blocks_or_workers(name, n_samples, receivers, workers):
    """Blocks and workers (ROADMAP item 7): with the trace budget cut to
    the bytes of 1 to 7 receivers, so that blocks are ragged, every sweep
    output is bit-equal to that of one unbounded block on one worker. The
    budget counts every candidate of the tree live and every receiver lit,
    so a block holds at least that many receivers, and more where fewer
    candidates are live or fewer receivers lit."""
    env = DUCTS[name]
    with mock.patch.object(channel, "_TRACE_BYTES", 1 << 60):
        together = _sweep_outputs(env, n_samples, 1)
    fixed, pair, receiver = channel._block_bytes(env, TX, 2, len(PRESETS),
                                                 len(PRESETS) * (2 + len(SWEEP_CARRIERS)))
    budget = fixed + receivers * (candidate_count(env, TX) * pair + receiver)
    with mock.patch.object(channel, "_TRACE_BYTES", budget):
        slices = channel._sweep_plan(("power", "moments"), env, PRESETS, SWEEP_CARRIERS,
                                     n_samples=n_samples)[4]
        blocked = _sweep_outputs(env, n_samples, workers)
    sizes = [s.stop - s.start for s in slices]
    assert sum(sizes) == n_samples and min(sizes[:-1], default=receivers) >= receivers
    for a, b in zip(together, blocked):
        assert a.tobytes() == b.tobytes()
