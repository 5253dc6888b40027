"""Property tests of the path enumerator over random placements."""

from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmray import (
    build_bent_tunnel, build_obstacle_corridor, build_straight_tunnel,
    enumerate_paths,
)
from mmray.geometry import distance
from mmray.tracer import _MIN_SEPARATION

ENVIRONMENTS = {
    "straight_tunnel": build_straight_tunnel(),
    "bent_tunnel": build_bent_tunnel(45.0),
    "obstacle_corridor": build_obstacle_corridor(),
}

# Derandomized so the suite stays deterministic. Each example runs two or
# three traces of about a millisecond, so each test takes about a second.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def placements(draw):
    """An environment and two points inside it, off the axis sideways and vertically."""
    env = ENVIRONMENTS[draw(st.sampled_from(sorted(ENVIRONMENTS)))]

    def point():
        s = draw(st.floats(0.0, env.axis_length))
        lateral = draw(st.floats(-0.45, 0.45)) * env.width
        height = draw(st.floats(0.05, 0.95)) * env.height
        axis = env.axis_direction(s)
        p = env.axis_point(s, height=height)
        return (p[0] - lateral * axis[1], p[1] + lateral * axis[0], p[2])

    tx, rx = point(), point()
    # enumerate_paths rejects endpoints closer than the floor (tested in test_tracer).
    assume(env.contains(tx) and env.contains(rx) and distance(tx, rx) >= _MIN_SEPARATION)
    return env, tx, rx


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
