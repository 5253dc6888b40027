"""Image-method enumeration and interface physics."""

import dataclasses
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import mmray
from mmray import (
    Material, ObstacleSlab, Polarization, build_bent_tunnel,
    build_obstacle_corridor, build_plain_corridor, build_straight_tunnel,
    enumerate_paths, fresnel_reflection, path_geometry, reflection_coefficient,
    slab_transmission,
)
from mmray import tracer
from mmray.geometry import dot, mirror_across_plane
from mmray.scene import METAL, CenterlineSegment, Environment, Material, Surface

import oracles

TX = (0.0, 0.0, 2.0)
NS = 1e-9
C = 299792458.0


# ---------------------------------------------------------------------------
# Fresnel coefficients
# ---------------------------------------------------------------------------

def test_fresnel_te_normal_incidence():
    r = fresnel_reflection(5.0, 0.0, Polarization.TE)
    assert r == pytest.approx(-0.3819660112501051, abs=1e-12)


def test_fresnel_te_60deg():
    r = fresnel_reflection(5.0, math.radians(60.0), Polarization.TE)
    assert r == pytest.approx(-0.6096117967977924, abs=1e-12)


def test_fresnel_tm_normal_incidence_sign():
    r = fresnel_reflection(5.0, 0.0, Polarization.TM)
    assert r == pytest.approx(+0.3819660112501051, abs=1e-12)


def test_fresnel_grazing_limit():
    r = fresnel_reflection(5.0, math.pi / 2 - 1e-4, Polarization.TE)
    assert r == pytest.approx(-1.0, abs=1e-3)


def test_fresnel_tm_brewster_zero():
    theta_b = math.atan(math.sqrt(5.0))
    assert fresnel_reflection(5.0, theta_b, Polarization.TM) == pytest.approx(0.0, abs=1e-12)


def test_fresnel_magnitude_below_one():
    for deg in range(0, 90, 5):
        r = fresnel_reflection(4.0, math.radians(deg), Polarization.TE)
        assert abs(r) < 1.0


def test_fresnel_input_validation():
    with pytest.raises(ValueError):
        fresnel_reflection(0.5, 0.0, Polarization.TE)
    with pytest.raises(ValueError):
        fresnel_reflection(5.0, math.pi / 2, Polarization.TE)
    with pytest.raises(ValueError):
        fresnel_reflection(5.0, -0.1, Polarization.TE)


def test_conductor_reflection():
    assert reflection_coefficient(METAL, 0.3, Polarization.TE) == -1.0
    assert reflection_coefficient(METAL, 0.3, Polarization.TM) == +1.0


# ---------------------------------------------------------------------------
# Slab transmission
# ---------------------------------------------------------------------------

def test_wood_slab_normal_incidence_magnitude():
    slab = ObstacleSlab("door", 10.0, 0.1, Material("wood", 3.3))
    t = slab_transmission(slab, 0.0, 60e9, Polarization.TE)
    assert abs(t) == pytest.approx(0.9159454923036132, abs=1e-12)


def test_slab_magnitude_consistent_with_fresnel():
    slab = ObstacleSlab("door", 10.0, 0.1, Material("glass", 6.0))
    theta = math.radians(30.0)
    r = fresnel_reflection(6.0, theta, Polarization.TE)
    t = slab_transmission(slab, theta, 70e9, Polarization.TE)
    assert abs(t) == pytest.approx(1.0 - r * r, rel=1e-12)


def test_slab_phase_advances_with_thickness():
    thin = ObstacleSlab("a", 0.0, 0.05, Material("wood", 3.3))
    thick = ObstacleSlab("b", 0.0, 0.10, Material("wood", 3.3))
    p1 = np.angle(slab_transmission(thin, 0.0, 60e9, Polarization.TE))
    p2 = np.angle(slab_transmission(thick, 0.0, 60e9, Polarization.TE))
    assert p1 != p2


def test_conductor_slab_blocks():
    lift = ObstacleSlab("lift", 20.0, 0.1, METAL)
    assert slab_transmission(lift, 0.0, 60e9, Polarization.TE) == 0j


# ---------------------------------------------------------------------------
# Straight-tunnel enumeration fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tunnel_paths():
    env = build_straight_tunnel()
    return enumerate_paths(env, TX, (10.0, 0.0, 1.5))


def test_direct_path_length(tunnel_paths):
    direct = [p for p in tunnel_paths if p.order == 0]
    assert len(direct) == 1
    assert direct[0].length == pytest.approx(10.0125, abs=1e-4)


def test_floor_bounce_length_and_excess_delay(tunnel_paths):
    env = build_straight_tunnel()
    floor_idx = [i for i, s in enumerate(env.surfaces) if s.name == "floor"][0]
    floor = [p for p in tunnel_paths
             if p.order == 1 and p.bounces[0].surface_index == floor_idx]
    assert len(floor) == 1
    assert floor[0].length == pytest.approx(math.sqrt(10.0 ** 2 + 3.5 ** 2), abs=1e-9)
    direct = [p for p in tunnel_paths if p.order == 0][0]
    excess = (floor[0].delay - direct.delay) / NS
    assert excess == pytest.approx(1.94, abs=0.01)


def test_floor_bounce_incidence_angle(tunnel_paths):
    floor = [p for p in tunnel_paths
             if p.order == 1 and p.bounces[0].point[2] == pytest.approx(0.0)]
    angle = math.degrees(floor[0].bounces[0].incidence_angle)
    assert angle == pytest.approx(70.71, abs=0.01)


def test_first_order_delays(tunnel_paths):
    delays = sorted(p.delay / NS for p in tunnel_paths if p.order <= 1)
    assert delays == pytest.approx([33.398, 33.730, 34.423, 34.423, 35.340],
                                   abs=2e-3)


def test_path_count_bound(tunnel_paths):
    assert len(tunnel_paths) <= 1 + 4 + 12
    by_order = {o: sum(1 for p in tunnel_paths if p.order == o) for o in (0, 1, 2)}
    assert by_order == {0: 1, 1: 4, 2: 8}


def test_bounce_points_on_their_surfaces(tunnel_paths):
    env = build_straight_tunnel()
    for p in tunnel_paths:
        for b in p.bounces:
            assert env.surfaces[b.surface_index].contains(b.point, tol=1e-9)


def test_paths_sorted_and_deterministic():
    env = build_straight_tunnel()
    a = enumerate_paths(env, TX, (17.3, 0.4, 1.1))
    b = enumerate_paths(env, TX, (17.3, 0.4, 1.1))
    assert [(p.order, p.length) for p in a] == [(p.order, p.length) for p in b]
    delays = [p.delay for p in a]
    orders = [p.order for p in a]
    assert sorted(zip(orders, delays)) == list(zip(orders, delays))


def test_direct_only_when_order_zero():
    env = build_straight_tunnel()
    paths = enumerate_paths(env, TX, (10.0, 0.0, 1.5), max_order=0)
    assert len(paths) == 1
    assert paths[0].order == 0


def test_reciprocity_of_path_multiset():
    env = build_straight_tunnel()
    rx = (23.4, -0.7, 0.9)
    fwd = enumerate_paths(env, TX, rx)
    rev = enumerate_paths(env, rx, TX)
    key_f = sorted((p.order, round(p.length, 9),
                    tuple(sorted(b.surface_index for b in p.bounces))) for p in fwd)
    key_r = sorted((p.order, round(p.length, 9),
                    tuple(sorted(b.surface_index for b in p.bounces))) for p in rev)
    assert key_f == key_r
    # bounce sequences reverse under endpoint swap
    two_f = sorted(tuple(b.surface_index for b in p.bounces)
                   for p in fwd if p.order == 2)
    two_r = sorted(tuple(reversed([b.surface_index for b in p.bounces]))
                   for p in rev if p.order == 2)
    assert two_f == two_r


def test_image_tree_keeps_chains_whose_images_face_the_next_surface():
    # 1 + 4 + 12 chains in the straight duct. The bent duct's 8 rectangles
    # lie in 6 planes: the two floors are one reflector, and so are the two
    # ceilings, so no chain repeats per twin rectangle. 5 planes face
    # the transmitter; 5 of the 25 pairs that follow go on to a plane the
    # first image lies behind, which no receiver can complete: 1 + 5 + 20.
    assert tracer.candidate_count(build_straight_tunnel(), TX, 2) == 17
    assert tracer.candidate_count(build_bent_tunnel(45.0), TX, 2) == 26


# Candidates per order at TX, recorded before the tree was built on arrays.
# In the straight duct order n adds 2^(n+2) - 4 chains, for the 4n lattice
# points that give paths.
TREE_SIZES = {
    "straight_tunnel": (build_straight_tunnel(), [1, 5, 17, 45, 105, 229, 481, 989, 2009]),
    "bent_tunnel": (build_bent_tunnel(45.0), [1, 6, 26, 94, 314, 1018, 3226, 10067]),
    "bent_tunnel_80": (build_bent_tunnel(80.0), [1, 6, 26, 95, 323, 1048, 3309, 10274]),
}


@pytest.mark.parametrize("name", sorted(TREE_SIZES))
def test_image_tree_sizes_per_order(monkeypatch, name):
    monkeypatch.setattr(tracer, "MAX_ORDER", 8)
    env, sizes = TREE_SIZES[name]
    assert [tracer.candidate_count(env, TX, k) for k in range(len(sizes))] == sizes
    if name == "straight_tunnel":
        assert np.diff(sizes).tolist() == [2 ** (n + 2) - 4 for n in range(1, len(sizes))]


def _scalar_tree(env, tx, max_order):
    """(plane chain, images) of every candidate, stacked by descending order:
    the image tree's rule a chain at a time, in Python floats, with
    geometry.mirror_across_plane."""
    planes = [env.surfaces[g[0]] for g in tracer._reflectors(env)]
    level = [((), (tx,))]
    levels = [level]
    for _ in range(max_order):
        level = [(chain + (j,), images + (mirror_across_plane(images[-1], f.normal,
                                                              f.plane_offset),))
                 for chain, images in level for j, f in enumerate(planes)
                 if dot(f.normal, images[-1]) - f.plane_offset > tracer._ON_PLANE
                 and not (chain and planes[chain[-1]].coplanar_with(f))]
        levels.append(level)
    return [c for level in reversed(levels) for c in level]


def _two_sided_duct():
    """The straight tunnel with a divider of two faces, back to back in the
    plane y = 0: an image mirrored across one face lies in front of the
    other, which only the previous-plane rule keeps from following."""
    env = build_straight_tunnel()
    concrete = env.surfaces[0].material
    faces = (Surface("divider_left", (20.0, 0.0, 0.0), (0.0, 0.0, 2.5), (4.0, 0.0, 0.0), concrete),
             Surface("divider_right", (20.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 0.0, 2.5), concrete))
    return replace(env, name="two_sided", surfaces=env.surfaces + faces)


@pytest.mark.parametrize("name", sorted(TREE_SIZES) + ["two_sided"])
def test_image_tree_holds_the_scalar_chains_and_images(monkeypatch, name):
    """Up to order 6, each stacked candidate's plane chain and images, read
    from the receiver back, are those of the scalar rule, bit for bit."""
    monkeypatch.setattr(tracer, "MAX_ORDER", 8)
    env = _two_sided_duct() if name == "two_sided" else TREE_SIZES[name][0]
    tx = (0.3, -0.4, 1.7)
    for order in (1, 4, 6):
        tree = tracer._image_tree(env, tx, order)
        expected = _scalar_tree(env, tx, order)
        assert len(tree.order) == len(expected)
        for k, chain, images, (want_chain, want_images) in zip(
                tree.order.tolist(), tree.chain, tree.images, expected):
            assert k == len(want_chain)
            assert chain.tolist() == list(want_chain[::-1]) + [-1] * (order - k)
            assert images[:k + 1].tobytes() == np.array(want_images[::-1]).tobytes()


def test_enumerate_rejects_invalid_inputs():
    env = build_straight_tunnel()
    with pytest.raises(ValueError):
        enumerate_paths(env, TX, (10.0, 0.0, 1.5), max_order=tracer.MAX_ORDER + 1)
    # True traced order 1, False order 0 and 2.0 order 2; numpy integers pass.
    rx = (10.0, 0.0, 1.5)
    for order in (True, False, 2.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(f"got {order!r}")):
            enumerate_paths(env, TX, rx, max_order=order)
    assert enumerate_paths(env, TX, rx, max_order=np.int64(1)) == enumerate_paths(env, TX, rx, 1)
    with pytest.raises(ValueError):
        enumerate_paths(env, (0.0, 5.0, 1.0), (10.0, 0.0, 1.5))
    with pytest.raises(ValueError):
        enumerate_paths(env, TX, (50.0, 0.0, 1.5))
    # Endpoints closer than a nanometre coincide, also where the distance
    # does not round to zero.
    for rx in (TX, (0.0, 1e-300, 2.0), (0.0, 1e-160, 2.0), (0.0, 1e-150, 2.0),
               (0.0, 1e-10, 2.0)):
        with pytest.raises(ValueError, match="coincide"):
            enumerate_paths(env, TX, rx)


@pytest.mark.parametrize("bad, message", [
    ((50.0, 0.0, 1.5), "receiver (50.0, 0.0, 1.5) outside environment 'straight_tunnel'"),
    ((0.0, 1e-10, 2.0), "transmitter and receiver coincide at (0.0, 1e-10, 2.0)"),
])
def test_a_bad_receiver_inside_a_block_is_named(bad, message):
    """A block checks its receivers together; the error names the first
    offending one, here in the middle of the block, before a second."""
    env = build_straight_tunnel()
    rx = [(float(x), 0.0, 1.5) for x in range(1, 9)]
    rx[4], rx[6] = bad, (0.0, 0.0, 2.0)
    with pytest.raises(ValueError) as info:
        tracer.trace_receivers(env, TX, rx)
    assert str(info.value).startswith(message)
    with pytest.raises(ValueError, match="transmitter"):
        tracer.trace_receivers(env, (0.0, 5.0, 1.0), rx[:4])


def test_path_geometry_consistency(tunnel_paths):
    for p in tunnel_paths:
        lengths, angles = path_geometry(p)
        assert len(lengths) == p.order + 1
        assert sum(lengths) == pytest.approx(p.length, abs=1e-12)
        assert angles == [b.incidence_angle for b in p.bounces]


def test_specular_law_at_every_bounce(tunnel_paths):
    env = build_straight_tunnel()
    for p in tunnel_paths:
        verts = p.vertices
        for i, b in enumerate(p.bounces):
            n = np.array(env.surfaces[b.surface_index].normal)
            inc = np.array(verts[i + 1]) - np.array(verts[i])
            out = np.array(verts[i + 2]) - np.array(verts[i + 1])
            inc /= np.linalg.norm(inc)
            out /= np.linalg.norm(out)
            mirrored = inc - 2.0 * float(np.dot(inc, n)) * n
            assert np.linalg.norm(mirrored - out) < 1e-9


# ---------------------------------------------------------------------------
# Bent tunnel
# ---------------------------------------------------------------------------

def test_bent_shadow_has_no_direct_path():
    env = build_bent_tunnel(45.0)
    rx = env.axis_point(40.0, height=1.5)
    paths = enumerate_paths(env, (1.0, 0.0, 2.0), rx)
    assert all(p.order != 0 for p in paths)


def test_bent_before_elbow_matches_straight():
    bent = build_bent_tunnel(45.0)
    straight = build_straight_tunnel()
    rx = (15.0, 0.3, 1.2)
    pb = enumerate_paths(bent, TX, rx)
    ps = enumerate_paths(straight, TX, rx)
    assert sorted(round(p.length, 9) for p in pb) == \
        sorted(round(p.length, 9) for p in ps)


def _two_floor_duct():
    """Straight duct whose floor is two overlapping coplanar rectangles:
    concrete on x in [0, 25] (surface 0), then metal on x in [15, 44]
    (surface 1)."""
    base = build_straight_tunnel()
    floor = base.surfaces[0]
    concrete = replace(floor, name="concrete_floor", edge_u=(25.0, 0.0, 0.0))
    metal = replace(floor, name="metal_floor", origin=(15.0, *floor.origin[1:]),
                    edge_u=(29.0, 0.0, 0.0), material=METAL)
    return replace(base, surfaces=(concrete, metal) + base.surfaces[1:])


@pytest.mark.parametrize("pol", list(Polarization), ids=lambda p: p.name)
def test_a_bounce_on_coplanar_twins_takes_the_first_rectangle(pol):
    env = _two_floor_duct()

    def floor_path(rx):
        [path] = [p for p in enumerate_paths(env, TX, rx, max_order=1, polarization=pol)
                  if p.order == 1 and abs(p.bounces[0].point[2]) < 1e-9]
        return path

    # Bounces at x = 20, on both rectangles: the concrete one, listed first.
    both = floor_path((40.0, 0.0, 2.0))
    assert both.bounces[0].surface_index == 0
    assert both.reflection_product == fresnel_reflection(
        env.surfaces[0].material.eps_r, both.bounces[0].incidence_angle, pol)
    # Bounces at x = 32, on the metal rectangle only.
    metal = floor_path((40.0, 0.0, 0.5))
    assert metal.bounces[0].surface_index == 1
    assert metal.reflection_product == (-1.0 if pol is Polarization.TE else 1.0)


def test_nearly_straight_bend_converges_to_straight_sweep():
    iso = mmray.system_preset("system1")
    straight = mmray.run_sweep_grid(build_straight_tunnel(), [iso], [60e9],
                                    n_samples=256)
    bent = mmray.run_sweep_grid(build_bent_tunnel(0.0001), [iso], [60e9],
                                n_samples=256)
    diff = np.abs(straight.power_dbm - bent.power_dbm)
    assert float(np.nanmax(diff)) < 0.1


def _merge_twins(found, points):
    """One oracle path per polyline, keeping the lowest surface indices.

    The oracle searches every rectangle, so where coplanar rectangles
    overlap (floors and ceilings at the elbow) it finds one path per twin.
    """
    kept = []
    for r in sorted(found, key=lambda r: r[0]):
        if not any(abs(r[1] - k[1]) <= 1e-6 and np.allclose(points(r), points(k), atol=1e-6)
                   for k in kept):
            kept.append(r)
    return kept


_BENT = build_bent_tunnel(45.0)
_CORRIDOR = build_obstacle_corridor()


@pytest.mark.parametrize("env, tx, rx, count", [
    # Floor and ceiling bounces in the overlap of both legs' rectangles.
    (_BENT, (20.5, 0.3, 1.8), _BENT.axis_point(24.0, height=1.5), 13),
    # Deep in the second leg, where no path of order <= 2 turns the corner.
    (_BENT, TX, _BENT.axis_point(40.0, height=1.5), 0),
    # Past the wooden door and short of the metal lift.
    (_CORRIDOR, TX, (15.0, 0.3, 1.2), 13),
], ids=["elbow overlap", "no coverage", "door crossing"])
def test_paths_match_stationary_search_beyond_the_straight_duct(env, tx, rx, count):
    rects = oracles.rects_from_environment(env)
    paths = enumerate_paths(env, tx, rx)
    assert len(paths) == count
    assert sum(p.order == 0 for p in paths) == (not oracles.los_blocked(tx, rx, rects))
    refs = {
        1: [((i,), length) for i, length, _ in
            _merge_twins(oracles.fermat_first_order(tx, rx, rects), lambda r: r[2])],
        2: [(ij, length) for ij, length, *_ in
            _merge_twins(oracles.fermat_second_order(tx, rx, rects),
                         lambda r: np.concatenate(r[2:]))],
    }
    for p in paths:
        if p.order == 0:
            continue
        key = tuple(b.surface_index for b in p.bounces)
        hit = next((r for r in refs[p.order] if r[0] == key and abs(r[1] - p.length) <= 1e-4),
                   None)
        assert hit is not None, f"no stationary path for {key} of {p.length} m"
        refs[p.order].remove(hit)
    assert refs == {1: [], 2: []}
    passed = [s.name for s in env.obstacles if s.interval[1] <= rx[0]]
    assert all([c.slab.name for c in p.crossings] == passed for p in paths)


def _rebuilt(record):
    """record made again through its class's __init__, nested records too."""
    def value(x):
        return tuple(map(_rebuilt, x)) if type(x) is tuple and x and dataclasses.is_dataclass(
            x[0]) else x
    return type(record)(**{f.name: value(getattr(record, f.name))
                           for f in dataclasses.fields(record)})


def test_records_built_without_init_behave_as_built_with_it():
    """PathTable.paths builds its PathContribution, Bounce and SlabCrossing
    records without their __init__. Each equals, hashes and prints as the
    same record built with it, and refuses assignment as frozen."""
    paths = enumerate_paths(_CORRIDOR, TX, (15.0, 0.3, 1.2))
    bounces = [b for p in paths for b in p.bounces]
    crossings = [c for p in paths for c in p.crossings]
    assert len(paths) == 13 and bounces and crossings
    for record in paths + bounces + crossings:
        built = _rebuilt(record)
        assert built is not record and built == record
        assert (hash(built), repr(built)) == (hash(record), repr(record))
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, first)
    assert {type(r).__name__ for r in paths + bounces + crossings} == {
        "PathContribution", "Bounce", "SlabCrossing"}


# ---------------------------------------------------------------------------
# Obstacle crossings
# ---------------------------------------------------------------------------

def test_los_before_first_obstacle_is_clean():
    env = build_obstacle_corridor()
    paths = enumerate_paths(env, TX, (5.0, 0.0, 1.5))
    direct = [p for p in paths if p.order == 0][0]
    assert direct.crossings == ()
    assert direct.transmission_product(60e9) == 1.0


def test_wood_door_crossing_attenuates():
    env = build_obstacle_corridor()
    paths = enumerate_paths(env, TX, (15.0, 0.0, 1.5))
    direct = [p for p in paths if p.order == 0][0]
    assert len(direct.crossings) == 1
    t = direct.transmission_product(60e9)
    assert 0.0 < abs(t) < 1.0


def test_metal_lift_blocks_everything_behind():
    env = build_obstacle_corridor()
    paths = enumerate_paths(env, TX, (25.0, 0.0, 1.5))
    assert paths == []


def test_two_dielectric_crossings_compound():
    # only wood and glass: receiver behind both picks up both factors
    slabs = (
        ObstacleSlab("wooden_door", 10.0, 0.1, Material("wood", 3.3)),
        ObstacleSlab("glass_door", 30.0, 0.1, Material("glass", 6.0)),
    )
    env = build_obstacle_corridor(obstacles=slabs)
    paths = enumerate_paths(env, TX, (40.0, 0.0, 1.5))
    direct = [p for p in paths if p.order == 0][0]
    assert len(direct.crossings) == 2
    t_both = abs(direct.transmission_product(60e9))
    t_wood = abs(slab_transmission(slabs[0], direct.bounces[0].incidence_angle
                                   if direct.bounces else 0.0, 60e9,
                                   Polarization.TE))
    assert t_both < t_wood < 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6, fault A: a slab is counted on both "
                                        "segments that overlap its x-interval")
def test_a_path_lists_each_slab_once():
    """With the wooden and glass doors and no lift, no path of 40
    centerline receivers crosses one slab twice. A bounce inside a slab's
    x-interval gives two segments that overlap it, each listed today."""
    doors = tuple(s for s in mmray.default_corridor_obstacles() if not s.material.is_conductor)
    env = build_obstacle_corridor(obstacles=doors)
    table = tracer.trace_receivers(env, TX, [env.axis_point(d, 1.5)
                                             for d in np.linspace(1.0, 43.0, 40).tolist()])
    assert len(table.order) == 520
    pairs = np.stack([table.crossing_row, table.crossing_slab], axis=1)
    assert len(np.unique(pairs, axis=0)) == len(pairs)


def test_blocked_receiver_in_plain_corridor_does_not_happen():
    env = build_plain_corridor()
    for d in (1.0, 10.0, 25.0, 43.9):
        assert enumerate_paths(env, TX, (d, 0.0, 1.5))


# ---------------------------------------------------------------------------
# Culls: occluders and the metal shadow
# ---------------------------------------------------------------------------

CULL_DUCTS = {
    "straight_tunnel": build_straight_tunnel(),
    "plain_corridor": build_plain_corridor(),
    "obstacle_corridor": build_obstacle_corridor(),
    "bent_tunnel": build_bent_tunnel(45.0),
    "bent_tunnel_30": build_bent_tunnel(30.0),
    "bent_tunnel_80": build_bent_tunnel(80.0),
}


def _without_culls(monkeypatch):
    """Trace as if every surface could occlude and no receiver were shadowed."""
    tree = tracer._image_tree
    monkeypatch.setattr(tracer, "_image_tree",
                        lambda *args: tree(*args)._replace(occluders=tree(*args).surfaces))
    monkeypatch.setattr(tracer, "_lit", lambda slabs, tx, rx: np.arange(len(rx)))


# The bounce records, which a sweep block's trace leaves empty, and every other field.
BOUNCE_FIELDS = ("bounce_row", "bounce_surface", "bounce_point", "bounce_angle")
ROW_FIELDS = [f.name for f in dataclasses.fields(tracer.PathTable) if f.name not in BOUNCE_FIELDS]


def _assert_tables_identical(a, b, fields=None):
    for f in fields or [f.name for f in dataclasses.fields(tracer.PathTable)]:
        x, y = getattr(a, f), getattr(b, f)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f
        else:
            assert x == y, f


def _interior_receivers(env, rng, n):
    """Receivers at random arclength, lateral offset and height inside env."""
    rx = []
    for s, lateral, h in zip(rng.uniform(0.5, env.axis_length, n), rng.uniform(-1.1, 1.1, n),
                             rng.uniform(0.05, 2.4, n)):
        p, d = env.axis_point(float(s), float(h)), env.axis_direction(float(s))
        q = (p[0] - d[1] * lateral, p[1] + d[0] * lateral, p[2])
        if env.contains(q):
            rx.append(q)
    return rx


@pytest.mark.parametrize("pol", list(Polarization), ids=lambda p: p.name)
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CULL_DUCTS))
def test_the_culls_drop_no_path(monkeypatch, name, order, pol):
    """Random interior receivers, traced from transmitters in the benchmark's
    range, give the bits of a trace that tests every surface for occlusion
    and back-traces every receiver."""
    env = CULL_DUCTS[name]
    rng = np.random.default_rng([sorted(CULL_DUCTS).index(name), order, pol is Polarization.TM])
    cases = []
    for _ in range(3):
        tx = (0.0, float(rng.uniform(-0.4, 0.4)), float(rng.uniform(1.6, 2.1)))
        rx = _interior_receivers(env, rng, 120)
        cases.append((tx, rx, tracer.trace_receivers(env, tx, rx, order, pol)))
    _without_culls(monkeypatch)
    for tx, rx, culled in cases:
        _assert_tables_identical(culled, tracer.trace_receivers(env, tx, rx, order, pol))


def _occluder_names(env):
    occluders = tracer._image_tree(env, TX, 2).occluders
    if occluders is None:
        return []
    normals = set(map(tuple, occluders.normal.T.tolist()))
    return [s.name for s in env.surfaces if s.normal in normals]


@pytest.mark.parametrize("env, names", [
    (build_straight_tunnel(), []),
    (build_plain_corridor(), []),
    (build_obstacle_corridor(), []),
    (mmray.free_space(), []),
    (build_bent_tunnel(10.0), ["a_left_wall", "b_left_wall"]),
    (build_bent_tunnel(30.0), ["a_left_wall", "b_left_wall"]),
    (build_bent_tunnel(45.0), ["a_left_wall", "b_left_wall"]),
    # Past 45 degrees each leg's box, which reaches a nanometre past the
    # miter, has a corner a nanometre behind the other leg's outer wall.
    (build_bent_tunnel(80.0), ["a_left_wall", "a_right_wall", "b_left_wall", "b_right_wall"]),
    (build_bent_tunnel(89.0), ["a_left_wall", "a_right_wall", "b_left_wall", "b_right_wall"]),
], ids=["straight", "plain", "obstacle", "free space", "bent 10", "bent 30", "bent 45",
        "bent 80", "bent 89"])
def test_only_faces_with_the_duct_behind_them_can_occlude(env, names):
    assert _occluder_names(env) == names


def _baffled_duct():
    """A hand-built duct: a floor on x in [0, 10] and a baffle across the
    whole section at x = 10, facing the transmitter. No rectangle corner is
    behind the baffle, but the duct's box, 44 m long, is."""
    floor = build_straight_tunnel().surfaces[0]
    baffle = Surface("baffle", (10.0, -1.25, 0.0), (0.0, 0.0, 2.5), (0.0, 2.5, 0.0),
                     Material("concrete", 5.0))
    return Environment("baffled", (replace(floor, edge_u=(10.0, 0.0, 0.0)), baffle), (),
                       (CenterlineSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 44.0),),
                       2.5, 2.5, 44.0)


def test_a_face_with_only_the_duct_box_behind_it_occludes(monkeypatch):
    env = _baffled_duct()
    assert _occluder_names(env) == ["baffle"]
    rx = [(5.0, 0.3, 1.5), (20.0, 0.0, 1.5), (30.0, -0.5, 0.7)]
    culled = tracer.trace_receivers(env, TX, rx)
    assert culled.counts()[0] > 0 and culled.counts()[1:].tolist() == [0, 0]
    _without_culls(monkeypatch)
    _assert_tables_identical(culled, tracer.trace_receivers(env, TX, rx))


@pytest.mark.parametrize("pol", list(Polarization), ids=lambda p: p.name)
@pytest.mark.parametrize("tx", [(0.0, 0.2, 1.9), (25.0, -0.3, 1.7)], ids=["before", "past"])
def test_receivers_behind_the_lift_get_no_rows_and_keep_their_place(monkeypatch, tx, pol):
    """One block with receivers on both sides of the metal lift (20 to
    20.1 m), the transmitter on either side: each receiver gets the rows of
    a trace of its own, those across the lift none, and the table the bits
    of a trace that back-traces every receiver."""
    env = build_obstacle_corridor()
    xs = [5.0, 25.0, 19.9, 20.0, 20.05, 20.1, 12.0, 35.0, 43.0, 20.2, 1.0, 15.0]
    rx = [(x, 0.4 * math.sin(x), 1.0 + 0.04 * x) for x in xs]
    table = tracer.trace_receivers(env, tx, rx, 2, pol)
    across = [min(x, tx[0]) < 20.1 and max(x, tx[0]) > 20.0 for x in xs]
    assert table.counts().tolist() == [
        0 if a else len(enumerate_paths(env, tx, p, 2, pol)) for a, p in zip(across, rx)]
    assert 0 < sum(across) < len(rx)
    for r, p in enumerate(rx):
        assert table.paths(r) == enumerate_paths(env, tx, p, 2, pol)
    assert np.array_equal(table.rx, np.array(rx))
    _without_culls(monkeypatch)
    _assert_tables_identical(table, tracer.trace_receivers(env, tx, rx, 2, pol))


def test_a_block_all_behind_the_lift_keeps_its_receivers_and_has_no_rows(monkeypatch):
    env = build_obstacle_corridor()
    rx = [(x, 0.1, 1.5) for x in (20.2, 25.0, 30.0, 43.9)]
    table = tracer.trace_receivers(env, TX, rx)
    assert np.array_equal(table.rx, np.array(rx))
    assert len(table.receiver) == len(table.bounce_row) == len(table.crossing_row) == 0
    assert table.counts().tolist() == [0, 0, 0, 0]
    _without_culls(monkeypatch)
    _assert_tables_identical(table, tracer.trace_receivers(env, TX, rx))


def test_an_outside_receiver_behind_the_lift_is_still_named():
    env = build_obstacle_corridor()
    rx = [(25.0, 0.0, 1.5), (30.0, 5.0, 1.5), (35.0, 0.0, 1.5)]
    with pytest.raises(ValueError, match=r"receiver \(30.0, 5.0, 1.5\) outside environment "
                                         "'obstacle_corridor'"):
        tracer.trace_receivers(env, TX, rx)


# ---------------------------------------------------------------------------
# Sweep-line windows
# ---------------------------------------------------------------------------

WINDOW_DUCTS = {
    "straight_tunnel": build_straight_tunnel(),
    "bent_tunnel": build_bent_tunnel(45.0),
    "plain_corridor": build_plain_corridor(),
    "obstacle_corridor": build_obstacle_corridor(),
    "bent_tunnel_80": build_bent_tunnel(80.0),
}
ISO = mmray.system_preset("system1")


def _window_cases(env, order, rng):
    """(tx, rx height, polarization, positions) of each sweep checked: a
    transmitter from the benchmark's seeded range per receiver height,
    0.7 m, 1.5 m and 5 cm below the ceiling; above order 6, where the bent
    ducts' trees hold 10 000 to 31 000 candidates, one height and few positions."""
    heights = (0.7, 1.5, env.height - 0.05)
    if order > 6:
        heights = heights[order % 3:][:1]
    n = 48 if order <= 4 else 16 if order <= 6 else 4
    return [((0.0, float(rng.uniform(-0.4, 0.4)), float(rng.uniform(1.6, 2.1))), h,
             list(Polarization)[(order + i) % 2], n) for i, h in enumerate(heights)]


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("name", sorted(WINDOW_DUCTS))
def test_sweep_windows_drop_no_pair(monkeypatch, name, order):
    """Each trace block of a sweep back-traces only the candidates whose
    window meets its positions, and its rows and slab crossings have the
    bits of a trace of the whole tree; it forms no bounce records. The
    first sweep's grid and table equal those with every candidate in every
    block."""
    monkeypatch.setattr(tracer, "MAX_ORDER", 8)
    env = WINDOW_DUCTS[name]
    cases = _window_cases(env, order, np.random.default_rng([sorted(WINDOW_DUCTS).index(name),
                                                             order]))
    culled = 0
    for tx, height, pol, n in cases:
        distances = np.linspace(1.0, env.axis_length, n)
        rx, direction = env._axis(distances, height)
        # The blocks of the grid below: one system, one carrier.
        block_bytes = mmray.channel._block_bytes(env, tx, order, 1, 3)
        _, jobs = mmray.channel._trace_jobs(env, tx, order, distances, rx, direction, height,
                                            block_bytes)
        candidates = tracer.candidate_count(env, tx, order)
        for block, _, live in jobs:
            culled += len(live) < candidates
            rows = tracer._trace_rows(env, tx, block, order, pol, live)
            assert all(len(getattr(rows, f)) == 0 for f in BOUNCE_FIELDS)
            _assert_tables_identical(rows, tracer.trace_receivers(env, tx, block, order, pol),
                                     ROW_FIELDS)
    assert culled or order < 2
    tx, height, pol, n = cases[0]
    sweep = dict(n_samples=n, tx=tx, rx_height=height, max_order=order, polarization=pol)
    grid = mmray.run_sweep_grid(env, [ISO], [60e9], **sweep)
    table = mmray.delay_spread_table([env], [ISO], [60e9], **sweep)
    everywhere = np.array([-np.inf, np.inf])[:, None]
    monkeypatch.setattr(mmray.channel, "_sweep_windows",
                        lambda env, tx, order, height: everywhere.repeat(
                            tracer.candidate_count(env, tx, order), 1))
    full = mmray.run_sweep_grid(env, [ISO], [60e9], **sweep)
    for a, b in ((grid.power_dbm, full.power_dbm), (grid.rms_spread, full.rms_spread),
                 (grid.mean_excess, full.mean_excess)):
        assert a.tobytes() == b.tobytes()
    assert table.values_ns.tobytes() == mmray.delay_spread_table(
        [env], [ISO], [60e9], **sweep).values_ns.tobytes()


# ---------------------------------------------------------------------------
# Exact outputs
# ---------------------------------------------------------------------------

# The PathTable fields formed with +, -, *, / and sqrt only, whose bits do not
# depend on which SIMD kernels numpy dispatches to. bounce_angle, reflection
# and crossing_angle go through arccos, cos and sin, whose last bit does.
PINNED_FIELDS = ("receiver", "order", "length", "departure", "arrival", "bounce_row",
                 "bounce_surface", "bounce_point", "crossing_row", "crossing_slab")
TRANSCENDENTAL_FIELDS = ("bounce_angle", "reflection", "crossing_angle")


def _pinned_traces(name):
    """The traces a duct's pins cover: from TX and a seeded transmitter of
    the benchmark's range, to seeded receivers on the centerline (at 1.5 m
    and at random heights) and off it, at orders 0-2, TE and TM."""
    env = WINDOW_DUCTS[name]
    rng = np.random.default_rng([sorted(WINDOW_DUCTS).index(name), 24])
    traces = []
    for tx in (TX, (0.0, float(rng.uniform(-0.4, 0.4)), float(rng.uniform(1.6, 2.1)))):
        on_axis = np.concatenate([
            env._axis(np.sort(rng.uniform(0.5, env.axis_length, 16)), 1.5)[0],
            env._axis(rng.uniform(0.5, env.axis_length, 16), rng.uniform(0.1, 2.4, 16))[0]])
        rx = [tuple(p) for p in on_axis.tolist()] + _interior_receivers(env, rng, 40)
        for order in range(3):
            for pol in Polarization:
                traces.append((env, tx, rx, order, pol,
                               tracer.trace_receivers(env, tx, rx, order, pol)))
    return traces


def _field_digests(tables):
    """SHA-256 per pinned field over the tables, of each array's dtype,
    shape and bytes in turn."""
    digests = {f: hashlib.sha256() for f in PINNED_FIELDS}
    for table in tables:
        for f, h in digests.items():
            x = getattr(table, f)
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(x.tobytes())
    return {f: h.hexdigest() for f, h in digests.items()}


def _receiver_rows(table, r):
    """Slices of the rows, bounces and crossings of receiver r."""
    lo, hi = np.searchsorted(table.receiver, [r, r + 1]).tolist()
    return (slice(lo, hi), slice(*np.searchsorted(table.bounce_row, [lo, hi]).tolist()),
            slice(*np.searchsorted(table.crossing_row, [lo, hi]).tolist()))


# Per duct, the digests of _pinned_traces' tables.
TRACE_PINS = {
    "bent_tunnel": {
        "receiver": "281e8d93bdd5733cc3fa3dadee09ddb91a3edd68ea22c65dee25716da694d62c",
        "order": "4faf6bcc8023af9efdd944172b5351cea75b945335f219b8556ee7f1eb54c66e",
        "length": "4776ae2002d759f43ba66316f1903c5ac9f948f0a0be0c1eb806be333fff3912",
        "departure": "e78c0f05a71e138f96dd6cb4418920f3c6bece3716ad5c012262fc0649321d70",
        "arrival": "5e57a2b96edbf2533cf60f610414221f8c86a069ce5839caf85d05e86931beae",
        "bounce_row": "b1331f498bc0db63692b5b084f48b2de31de644b7c46a14c2001ab50a60f1bad",
        "bounce_surface": "a76adab79d3edcf308529ec663ea45e6435ae32f9832bb5ed04ce53aea7230fd",
        "bounce_point": "19b0a345e4a3949fcf3e0253ad27a26440d46c318c0af69a4d3709dd41e86674",
        "crossing_row": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
        "crossing_slab": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
    },
    "bent_tunnel_80": {
        "receiver": "0dd38063f88aef866a293b7e805027e1c2e78ad1b9bb95607a6db7a183140725",
        "order": "8d31607a1676cd129404e6af45f79539aae43fd912111ca39228215e19fe0204",
        "length": "d92c75fd2cd1ad0d3c37d1fd305f2d1e5156a24d731d707f10a140f83ea3030e",
        "departure": "f88a92d20bf7a361bcf7aebe145411663b085892930bef94ecc73d23fb42b198",
        "arrival": "306d9eef123a21aa8ced2f05a8c0dbfcbd005fedc539219198ecb44bf11bc1dd",
        "bounce_row": "c471ea5dcb6dc9e7cfc318d7acbe273b853e87d08781519fc0c88808920241ae",
        "bounce_surface": "c420e26ba7cfa610330ee129b30d6ba4620b2236807522c859599268173ff264",
        "bounce_point": "8e6332314ea8f34cd11206ca87ff19a4fe8c650581417e25a078157993ad4fa2",
        "crossing_row": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
        "crossing_slab": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
    },
    "obstacle_corridor": {
        "receiver": "dda79dd12a1ed966a23f93cc119ef917a4da2ef9a2eafd81b07f2a1098832eed",
        "order": "b052ae6bf87951893f0570eee97ef3c451ecb1382bc441de42f0defd70a0442f",
        "length": "771bbdb45ebdd014b5acdd4db9fb28d27d60137cb1e0cf8d64fd975846b343b1",
        "departure": "1b3bf098009790bdec75c50d9b46dd93080319deb58669fa15c1790ff6d96907",
        "arrival": "168228ca2aacbe4869fd65e89a4e24549249243c2e27acc70522f3c3633dd66d",
        "bounce_row": "f5f7fdfa9fcfb7081293ca7afceed2f83aa979e877e1262dc277750162b7f789",
        "bounce_surface": "fa922d25f8eee23a4f5745dd440a50b792ede9286360f9df0875a445eb7ce5ce",
        "bounce_point": "02e5fd48e26be01088fe3a6c452fe6d7e339c9c37fa14e8169b014b3f02a8984",
        "crossing_row": "0b74796170f62cb7284dbc8c5d4ed96380c54ec6dad2b27e0c16bdc8f6f6eda5",
        "crossing_slab": "52f06c3a0b44b42869ac82fee8841567e6a52db332a1f0dc87bb003bde9d75e2",
    },
    "plain_corridor": {
        "receiver": "184411ddd50721ad9f6214ec87d5ace8876ae7ac4946901004420ba737487f7e",
        "order": "6b4c281f9e92cb9c866add7890e4ca31dd1050cacfcf48e5ea8e7d1de45163c8",
        "length": "358da4e91e014ef0f5d781d2fca4017bdcff2f6e1af444dd196aa4c1b8c60435",
        "departure": "5c5e19f88bf4631b42dc4a2dd1b4cbe82189c12e2e3866f53867e2723edbab59",
        "arrival": "37361f1d3be731a51ed72ca1a51d214891ee2af37ed20ddd55d6db5e97b43804",
        "bounce_row": "f0f37074b8d17fa2075f3a98817bd9bf2361a068eccee8bb380e8bd6195586a9",
        "bounce_surface": "012f843398bed2ad46728cc1cc19e5f013ed828df1bfd629efe5282fbcfec6cd",
        "bounce_point": "7bd345a6f246d2662caebcdd804835b032bb84bba495998dc1d2a057443490ed",
        "crossing_row": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
        "crossing_slab": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
    },
    "straight_tunnel": {
        "receiver": "184411ddd50721ad9f6214ec87d5ace8876ae7ac4946901004420ba737487f7e",
        "order": "6b4c281f9e92cb9c866add7890e4ca31dd1050cacfcf48e5ea8e7d1de45163c8",
        "length": "5fd209b8d08be6f54089361b76b2c960ce647d3285fdb0e87875c85acc97e58a",
        "departure": "2f89ee34105182f2cd8c47f1c4868535854bbc736aecc0eca35bc0ae80901f81",
        "arrival": "d5f27668672fcb4f078f10e1f0a650ffdfc1d51f7370adaf1f4ebb19db8b87ab",
        "bounce_row": "f0f37074b8d17fa2075f3a98817bd9bf2361a068eccee8bb380e8bd6195586a9",
        "bounce_surface": "f9034eecae29b63bdbbb65ca55e3a3e3c353c3b22ed0a99c63b12b01eafa01ff",
        "bounce_point": "5c6c1b156016bf643d0fcf6cec142dbde70f58c746963cdf5b416e3ab9bb5eb8",
        "crossing_row": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
        "crossing_slab": "ee021ea976ed753c463b60761294948cd46585cee51772200e83d3f01cb27ec3",
    },
}


@pytest.mark.parametrize("name", sorted(WINDOW_DUCTS))
def test_the_tracer_s_exact_outputs_are_pinned(name):
    """Every field of these traces built from +, -, *, / and sqrt hashes to
    the recorded digest; the fields that go through arccos, cos and sin
    equal, receiver by receiver, those of a trace of that receiver alone."""
    traces = _pinned_traces(name)
    assert _field_digests([t[-1] for t in traces]) == TRACE_PINS[name]
    for env, tx, rx, order, pol, table in traces:
        if order < 2:
            continue
        for r, p in enumerate(rx):
            alone = tracer.trace_receivers(env, tx, [p], order, pol)
            rows, bounces, crossings = _receiver_rows(table, r)
            for f, part in zip(TRANSCENDENTAL_FIELDS, (bounces, rows, crossings)):
                assert getattr(table, f)[part].tobytes() == getattr(alone, f).tobytes(), (f, r)
