import copy
import dataclasses
import math
import pickle

import pytest

import mmray
from mmray.geometry import (
    add, cross, distance, dot, mirror_across_plane, neg, norm,
    scale, sub, unit, vec3,
)


def test_basic_ops():
    a = (1.0, 2.0, 3.0)
    b = (4.0, -1.0, 0.5)
    assert add(a, b) == (5.0, 1.0, 3.5)
    assert sub(a, b) == (-3.0, 3.0, 2.5)
    assert scale(a, 2.0) == (2.0, 4.0, 6.0)
    assert neg(a) == (-1.0, -2.0, -3.0)
    assert dot(a, b) == 4.0 - 2.0 + 1.5
    assert cross((1, 0, 0), (0, 1, 0)) == (0.0, 0.0, 1.0)


def test_norm_and_unit():
    assert norm((3.0, 4.0, 0.0)) == 5.0
    u = unit((0.0, 0.0, -7.0))
    assert u == (0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        unit((0.0, 0.0, 0.0))


def test_distance_and_lerp():
    assert distance((0, 0, 0), (1, 2, 2)) == 3.0


def test_vec3_coerces_to_floats():
    v = vec3([1, 2, 3])
    assert v == (1.0, 2.0, 3.0)
    assert all(isinstance(c, float) for c in v)


def test_mirror_across_plane():
    # plane z = 0 with upward normal
    assert mirror_across_plane((1.0, 2.0, 3.0), (0.0, 0.0, 1.0), 0.0) == (1.0, 2.0, -3.0)
    # plane z = 2.5
    assert mirror_across_plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), 2.5) == (0.0, 0.0, 3.0)
    # mirroring twice is the identity
    p = (0.3, -1.2, 0.7)
    n = unit((1.0, 2.0, -0.5))
    q = mirror_across_plane(mirror_across_plane(p, n, 1.3), n, 1.3)
    assert distance(p, q) < 1e-12


def test_mirror_point_on_plane_is_fixed():
    n = (0.0, 1.0, 0.0)
    p = (5.0, 1.25, 1.0)
    assert mirror_across_plane(p, n, 1.25) == p


def test_mirror_preserves_distance_to_plane_points():
    # reflection is an isometry that fixes the plane
    n = unit((0.2, -0.4, 0.89))
    offset = 0.37
    anchor = scale(n, offset)  # a point on the plane
    p = (1.0, 2.0, 3.0)
    q = mirror_across_plane(p, n, offset)
    assert abs(distance(p, anchor) - distance(q, anchor)) < 1e-12
    # signed distances are opposite
    assert abs((dot(p, n) - offset) + (dot(q, n) - offset)) < 1e-12


# Frozen scene and antenna dataclasses that cache their hash: each is
# built twice, equal but not the same object.
CACHED = {
    "environment": lambda: mmray.build_bent_tunnel(45.0),
    "antenna system": lambda: mmray.make_system("horn", 10.0, 20.8, (0.6, 0.8, 0.0)),
}


def _field_hash(x) -> int:
    """The hash a frozen dataclass takes of its fields."""
    return hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))


@pytest.mark.parametrize("name", sorted(CACHED))
def test_a_cached_hash_is_the_field_hash_and_stays_out_of_pickles(name):
    a, b = CACHED[name](), CACHED[name]()
    fresh = pickle.dumps(a)
    assert a == b and a is not b and "_hash" not in a.__dict__
    assert hash(a) == hash(b) == _field_hash(a) == a.__dict__["_hash"]
    # A pickle or a copy carries no cached hash, so a fresh interpreter,
    # whose string hashes differ, takes its own.
    assert pickle.dumps(a) == fresh
    for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert "_hash" not in c.__dict__ and c == a and hash(c) == hash(a)
    # dataclasses.replace builds a new instance, with no cached hash.
    changed = dataclasses.replace(a, **({"name": "renamed"} if name == "environment"
                                        else {"kind": "omni"}))
    assert "_hash" not in changed.__dict__ and changed != a
    assert hash(changed) == _field_hash(changed)
