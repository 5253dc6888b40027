import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from mmray.scene import (
    BUILDERS, CEILING_EPS_R, CONCRETE_EPS_R, MARBLE_EPS_R, METAL,
    WALL_BLEND_EPS_R, CenterlineSegment, Environment, Material, ObstacleSlab,
    Surface, build_bent_tunnel, build_obstacle_corridor, build_plain_corridor,
    build_straight_tunnel, default_corridor_obstacles, free_space,
    validate_environment,
)


# ---------------------------------------------------------------------------
# Materials
# ---------------------------------------------------------------------------

def test_material_rejects_sub_unity_permittivity():
    with pytest.raises(ValueError):
        Material("bogus", 0.5)


def test_conductor_ignores_permittivity_floor():
    assert METAL.is_conductor
    # conductors may carry a placeholder eps_r
    Material("pec", eps_r=0.0, is_conductor=True)


def test_wall_blend_value():
    assert WALL_BLEND_EPS_R == pytest.approx((4.44 + 5.0) / 2.0)


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def test_surface_normal_and_containment():
    s = Surface("floor", (0.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0),
                Material("concrete", 5.0))
    assert s.normal == (0.0, 0.0, 1.0)
    assert s.plane_offset == 0.0
    assert s.contains((5.0, 0.0, 0.0))
    assert s.contains((0.0, -1.0, 0.0))          # corner
    assert not s.contains((10.1, 0.0, 0.0))      # past edge_u
    assert not s.contains((5.0, 1.1, 0.0))       # past edge_v


def test_surface_local_coords_roundtrip():
    s = Surface("wall", (1.0, 2.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 3.0),
                Material("brick", 4.44))
    a, b = s.local_coords((1.0, 4.0, 1.5))
    assert a == pytest.approx(0.5)
    assert b == pytest.approx(0.5)


CONCRETE = Material("concrete", 5.0)


@pytest.mark.parametrize("a, b, expected", [
    # Two floors on one plane z = 0, facing up.
    (Surface("f1", (0.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE),
     Surface("f2", (10.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE), True),
    # Back-to-back faces on y = 1: the normals and the sign of the offset flip.
    (Surface("up", (0.0, 1.0, 0.0), (0.0, 0.0, 2.0), (4.0, 0.0, 0.0), CONCRETE),
     Surface("down", (0.0, 1.0, 0.0), (4.0, 0.0, 0.0), (0.0, 0.0, 2.0), CONCRETE), True),
    # Parallel floors 1e-8 m apart are two planes; 1e-10 m apart, one.
    (Surface("f1", (0.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE),
     Surface("f2", (0.0, -1.0, 1e-8), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE), False),
    (Surface("f1", (0.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE),
     Surface("f2", (0.0, -1.0, 1e-10), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE), True),
    # Normals 1e-4 rad apart, through one point: past the 1e-9 tolerance.
    (Surface("f1", (0.0, -1.0, 0.0), (10.0, 0.0, 0.0), (0.0, 2.0, 0.0), CONCRETE),
     Surface("tilted", (0.0, -1.0, 0.0), (10.0, 0.0, 1e-3), (0.0, 2.0, 0.0), CONCRETE), False),
])
def test_surface_coplanarity(a, b, expected):
    assert a.coplanar_with(b) is expected
    assert b.coplanar_with(a) is expected


def test_obstacle_interval_and_validation():
    slab = ObstacleSlab("door", 10.0, 0.1, Material("wood", 3.3))
    assert slab.interval == (10.0, 10.1)
    with pytest.raises(ValueError):
        ObstacleSlab("flat", 10.0, 0.0, METAL)


# ---------------------------------------------------------------------------
# Builders: dimensions and materials
# ---------------------------------------------------------------------------

def test_plain_corridor_dimensions():
    env = build_plain_corridor()
    assert env.axis_length == 44.0
    assert env.width == 2.20
    assert env.height == 2.75
    assert len(env.surfaces) == 4
    assert env.obstacles == ()
    mats = {s.name: s.material for s in env.surfaces}
    assert mats["floor"].eps_r == MARBLE_EPS_R
    assert mats["ceiling"].eps_r == CEILING_EPS_R
    assert mats["left_wall"].eps_r == WALL_BLEND_EPS_R
    assert mats["right_wall"].eps_r == WALL_BLEND_EPS_R


def test_corridor_split_walls():
    env = build_plain_corridor(split_walls=True)
    mats = {s.name: s.material.eps_r for s in env.surfaces}
    assert mats["left_wall"] == 4.44
    assert mats["right_wall"] == 5.0


def test_obstacle_corridor_has_three_slabs():
    env = build_obstacle_corridor()
    names = [o.name for o in env.obstacles]
    assert names == ["wooden_door", "lift", "glass_door"]
    positions = [o.position for o in env.obstacles]
    assert positions == [10.0, 20.0, 30.0]
    lift = env.obstacles[1]
    assert lift.material.is_conductor
    assert env.obstacles[0].material.eps_r == 3.3
    assert env.obstacles[2].material.eps_r == 6.0


def test_straight_tunnel_all_concrete():
    env = build_straight_tunnel()
    assert env.axis_length == 44.0
    assert env.width == 2.5 and env.height == 2.5
    assert all(s.material.eps_r == CONCRETE_EPS_R for s in env.surfaces)
    assert len(env.surfaces) == 4


def test_inward_normals_point_at_centerline():
    env = build_straight_tunnel()
    mid = (22.0, 0.0, 1.25)
    for s in env.surfaces:
        # walking from the surface along its normal must approach the axis
        from mmray.geometry import add, distance, scale
        start = s.origin
        closer = add(start, scale(s.normal, 0.1))
        assert distance(closer, mid) < distance(start, mid)


def test_free_space_contains_everything():
    env = free_space()
    assert env.contains((1e6, -1e6, 1e6))
    assert env.surfaces == ()


# ---------------------------------------------------------------------------
# Bent tunnel joint geometry
# ---------------------------------------------------------------------------

def test_bent_tunnel_miter_extension():
    env = build_bent_tunnel(45.0)
    ext = 1.25 * math.tan(math.radians(22.5))
    assert ext == pytest.approx(0.51777, abs=1e-5)
    names = {s.name: s for s in env.surfaces}

    def max_x(surface):
        o, u, v = surface.origin, surface.edge_u, surface.edge_v
        return max(o[0], o[0] + u[0], o[0] + v[0], o[0] + u[0] + v[0])

    # inner wall (left) stops short of the elbow, outer wall runs past it
    assert max_x(names["a_left_wall"]) == pytest.approx(22.0 - ext)
    assert max_x(names["a_right_wall"]) == pytest.approx(22.0 + ext)


def test_bent_tunnel_centerline():
    env = build_bent_tunnel(45.0)
    assert len(env.centerline) == 2
    assert env.axis_length == 44.0
    # arclength 22 is the elbow; past it the axis heads 45 degrees off +x
    d = env.axis_direction(30.0)
    assert d[0] == pytest.approx(math.cos(math.radians(45.0)))
    assert d[1] == pytest.approx(math.sin(math.radians(45.0)))
    p = env.axis_point(44.0, height=1.5)
    assert p[2] == pytest.approx(1.5)


def test_bent_tunnel_rejects_degenerate_angles():
    with pytest.raises(ValueError):
        build_bent_tunnel(0.0)
    with pytest.raises(ValueError):
        build_bent_tunnel(90.0)
    build_bent_tunnel(0.0001)
    build_bent_tunnel(89.999)


def test_bent_tunnel_contains_both_arms():
    env = build_bent_tunnel(45.0)
    assert env.contains((10.0, 0.0, 1.0))
    beta = math.radians(45.0)
    far = (22.0 + 15.0 * math.cos(beta), 15.0 * math.sin(beta), 1.0)
    assert env.contains(far)
    # a point straight ahead past the elbow leaves the duct
    assert not env.contains((40.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Containment semantics
# ---------------------------------------------------------------------------

def test_contains_is_transverse_strict_axial_closed():
    env = build_straight_tunnel()
    assert env.contains((0.0, 0.0, 2.0))        # on the start face: inside
    assert env.contains((44.0, 0.0, 1.5))       # on the end face: inside
    assert not env.contains((10.0, 1.25, 1.0))  # on a wall plane: outside
    assert not env.contains((10.0, 0.0, 0.0))   # on the floor: outside
    assert not env.contains((10.0, 0.0, 2.5))   # on the ceiling: outside
    assert not env.contains((-0.5, 0.0, 1.0))
    assert not env.contains((44.5, 0.0, 1.0))


def test_contains_of_many_points_is_the_duct_box():
    """About 10 000 random points around the straight duct, some on its
    faces, tested at once, equal the box 0 <= x <= 44, |y| < 1.25,
    0 < z < 2.5 up to the 1e-9 tolerance."""
    env, tol = build_straight_tunnel(), 1e-9
    rng = np.random.default_rng(7)
    pts = rng.uniform((-1.0, -1.5, -0.5), (45.0, 1.5, 3.0), (10_000, 3))
    pts[::7, 0] = rng.choice([0.0, 44.0, -tol / 2, 44.0 + 2 * tol], len(pts[::7]))
    pts[::11, 1] = rng.choice([1.25, -1.25, 1.25 - tol / 2], len(pts[::11]))
    pts[::13, 2] = rng.choice([0.0, 2.5, tol / 2, 2.5 - 2 * tol], len(pts[::13]))
    x, y, z = pts.T
    box = ((x >= -tol) & (x <= 44.0 + tol) & (np.abs(y) < 1.25 - tol)
           & (z > tol) & (z < 2.5 - tol))
    inside = env.contains(pts)
    assert inside.shape == (len(pts),) and inside.dtype == bool
    assert 0 < inside.sum() < len(pts)
    assert np.array_equal(inside, box)


def _contains_one(env, p, tol=1e-9):
    """The per-segment box rule, one point at a time: the axial interval
    is closed with tol past each end, v and z are strict with tol inside."""
    for seg in env.centerline:
        (ox, oy, oz), (dx, dy, dz) = seg.origin, seg.direction
        rx, ry, rz = p[0] - ox, p[1] - oy, p[2] - oz
        u = rx * dx + ry * dy + rz * dz
        if u < -seg.ext_before - tol or u > seg.length + seg.ext_after + tol:
            continue
        v = rx * -dy + ry * dx + rz * 0.0
        if abs(v) < env.width / 2.0 - tol and tol < p[2] < env.height - tol:
            return True
    return False


def test_contains_of_an_array_follows_the_scalar_rule_in_the_bent_duct():
    """Random points plus points within a few ulps of every bound of both
    segments' boxes (ends with their overhang, walls, floor, ceiling)."""
    env, tol = build_bent_tunnel(45.0), 1e-9
    rng = np.random.default_rng(8)
    pts = [rng.uniform((-1.0, -2.0, -0.5), (45.0, 18.0, 3.0), (2000, 3))]
    for seg in env.centerline:
        (ox, oy, _), (dx, dy, _) = seg.origin, seg.direction
        u_ends = (-seg.ext_before - tol, seg.length + seg.ext_after + tol)
        v_walls = (env.width / 2.0 - tol, -(env.width / 2.0 - tol))
        z_faces = (tol, env.height - tol)
        for _ in range(1500):
            u = rng.choice(u_ends) if rng.random() < 0.4 else rng.uniform(*u_ends)
            v = rng.choice(v_walls) if rng.random() < 0.4 else rng.uniform(-1.0, 1.0)
            z = rng.choice(z_faces) if rng.random() < 0.4 else rng.uniform(0.1, 2.4)
            u, v, z = (np.nextafter(w, rng.choice([-np.inf, np.inf])) if rng.random() < 0.5 else w
                       for w in (u, v, z))
            pts.append([(ox + u * dx - v * dy, oy + u * dy + v * dx, z)])
    pts = np.concatenate(pts)
    inside = env.contains(pts)
    expected = [_contains_one(env, p) for p in pts.tolist()]
    assert 0 < sum(expected) < len(pts)
    assert inside.tolist() == expected
    assert [env.contains(p) for p in pts[:50].tolist()] == expected[:50]
    assert free_space().contains(pts).all()
    with pytest.raises(ValueError, match="3 components"):
        env.contains(pts[:, :2])


CORNER_DUCTS = {name: BUILDERS[name]() for name in sorted(BUILDERS) if name != "free_space"}
CORNER_DUCTS.update({f"bent_{a}": build_bent_tunnel(a) for a in (10.0, 30.0, 45.0, 80.0, 89.0)})


@pytest.mark.parametrize("name", sorted(CORNER_DUCTS))
def test_every_box_corner_is_inside_its_duct(name):
    """The two readers of the box format agree: each corner of every
    centerline segment's box in _corners, moved 1e-12 of the way to the
    box's centre, is inside by contains. Unmoved, a corner of the second
    leg of a bent duct may round a few ulps outside."""
    env = CORNER_DUCTS[name]
    corners = env._corners
    assert corners.shape == (4 * len(env.surfaces) + 8 * len(env.centerline), 3)
    boxes = corners[4 * len(env.surfaces):].reshape(len(env.centerline), 8, 3)
    moved = boxes + 1e-12 * (boxes.mean(1, keepdims=True) - boxes)
    assert env.contains(moved.reshape(-1, 3)).all()
    # The rectangle corners lie on the walls, floor and ceiling: outside.
    assert not env.contains(corners[:4 * len(env.surfaces)]).any()


@pytest.mark.parametrize("builder, kwargs, message", [
    (build_straight_tunnel, {"width": -1.0}, "width must be > 0, got -1.0"),
    (build_straight_tunnel, {"length": -5.0}, "length must be > 0, got -5.0"),
    (build_straight_tunnel, {"height": 0.0}, "height must be > 0, got 0.0"),
    (build_plain_corridor, {"width": 0.0}, "width must be > 0, got 0.0"),
    (build_bent_tunnel, {"length": -5.0}, "length must be > 0, got -5.0"),
    (build_bent_tunnel, {"height": math.nan}, "height must be > 0, got nan"),
    (free_space, {"length": -3}, "length must be > 0, got -3"),
    (build_obstacle_corridor, {"wood_eps_r": 2.0, "glass_eps_r": 9.0, "obstacles": ()},
     "wood_eps_r=2.0 has no effect: obstacles replace the stock doors"),
    (build_obstacle_corridor, {"glass_eps_r": 9.0, "obstacles": default_corridor_obstacles()},
     "glass_eps_r=9.0 has no effect"),
])
def test_builders_reject_input_that_cannot_take_effect(builder, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        builder(**kwargs)


def test_door_permittivities_still_set_the_stock_doors():
    env = build_obstacle_corridor(wood_eps_r=2.0, glass_eps_r=9.0)
    assert [o.material.eps_r for o in env.obstacles if not o.material.is_conductor] == [2.0, 9.0]


PINNED_BUILDS = {f"{name}-defaults": (BUILDERS[name], {}) for name in BUILDERS}
PINNED_BUILDS.update({f"bent-{a}": (build_bent_tunnel, {"bend_angle_deg": a})
                      for a in (0.0001, 1.0, 10.0, 30.0, 45.0, 60.0, 80.0, 89.0, 89.999)})
PINNED_BUILDS.update({
    "bent-sized": (build_bent_tunnel, {"bend_angle_deg": 37.3, "length": 37.3, "width": 2.1,
                                       "height": 3.3, "eps_r": 6.5}),
    "plain-split-conductor": (build_plain_corridor, {"split_walls": True,
                                                     "ceiling_is_conductor": True}),
    "obstacle-custom": (build_obstacle_corridor, {"obstacles": (
        ObstacleSlab("panel", 7.5, 0.25, Material("panel", 2.2)),
        ObstacleSlab("grille", 31.0, 0.05, METAL))}),
    "plain-sized": (build_plain_corridor, {"length": 30.5, "width": 1.9, "height": 3.1,
                                           "wall_eps_r": 4.1, "floor_eps_r": 3.7,
                                           "ceiling_eps_r": 1.3}),
    "straight-sized": (build_straight_tunnel, {"length": 61.0, "width": 3.7, "height": 2.9,
                                               "eps_r": 7.0}),
})
# SHA-256 of repr(builder(**kwargs)): every float of every surface, slab and
# centerline segment, every name and the surface order.
PINNED_DIGESTS = {
    "plain_corridor-defaults": "de82604c577c6d3e720000c337341a865c7f904164882c0f878d923b0d8530ad",
    "obstacle_corridor-defaults": "800385e4f421770ad40cb9a1738868407ac247343f2f1affb854d9af22f2894c",
    "straight_tunnel-defaults": "d8cb04ef64be6b5d03273131d19a22f1db15de14b1b00908ab3b6274d0856711",
    "bent_tunnel-defaults": "901336e1bd9534d71335489080725ad3648e07ddeb1d66478732960a46f89c46",
    "free_space-defaults": "76736aade0d3aa55cdb7d9c1c3b313c654c1a52c571c13a46330ac5d9c3b9988",
    "bent-0.0001": "083f174204aa57570a8be52eb1d1b8521c8bab33e8a4bdacc4205a5a864a848b",
    "bent-1.0": "b62efef64e0e58e34bd9fbf7cfd0bc2dadc5ca50c18cc93a8be12defb0dcc31c",
    "bent-10.0": "e6099c9166c3794cf7ba41306a0066c58ca3ac3d52d678c0d028cc1941f103bd",
    "bent-30.0": "07375e12b77a2a7309368bf43eaaec4ef3c6b3c8752c80cdbc46eb5474c0cf4e",
    "bent-45.0": "901336e1bd9534d71335489080725ad3648e07ddeb1d66478732960a46f89c46",
    "bent-60.0": "67514e1ed99ee2e467d4b9de8f675f81d41a43a7a649e128a75fdc49bec6fcfb",
    "bent-80.0": "7d9d88d790e9574e9684885c39e2cf953b277a4427628fad371950a56bdd2bc3",
    "bent-89.0": "653dfb9acbf0cc6a49a0378061ad5a9f27ddc525cabcef8c8e2a6297cba712b8",
    "bent-89.999": "47036ea2bb0f9c650853136e0209013e80ee18d9abae2ed4d5e53c6a8bc2133e",
    "bent-sized": "acc4598d4a33f7722fa30c12bab3eb58c3b3b3bfb19b0a8b3891973029ecc77c",
    "plain-split-conductor": "4d2e22b8a6a19bd35bab1743d804664c0ee2348aa359d5d7023065e022a1729d",
    "obstacle-custom": "6412cc55a07cdd752e387747fdd01243f98c3a4ea48251458a74cbd8ce35f9a9",
    "plain-sized": "d90e6f64c93044f30d8cba414ec0ae9da6943cdd6c03b049f3f80782e8e4b4dd",
    "straight-sized": "5a62a6b713c70f580cb5d12fde105ea2e53f6e5f263a86dff737f84b22f1c333",
}


@pytest.mark.parametrize("key", sorted(PINNED_BUILDS))
def test_every_builder_s_geometry_is_pinned_bit_for_bit(key):
    """A builder's surfaces, slabs and centerline keep their exact floats,
    names and order: surface indices break ties in the path sort, and an
    ulp moved in a leg's direction moves every bounce off that leg."""
    builder, kwargs = PINNED_BUILDS[key]
    assert hashlib.sha256(repr(builder(**kwargs)).encode()).hexdigest() == PINNED_DIGESTS[key]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_validate_clean(name):
    report = validate_environment(BUILDERS[name]())
    assert report.ok, report.violations


def test_validation_flags_skewed_surface():
    env = build_straight_tunnel()
    bad = Surface("skewed", (0.0, -1.25, 0.0), (44.0, 0.0, 0.0),
                  (0.3, 2.5, 0.0), Material("concrete", 5.0))
    broken = Environment(
        name=env.name,
        surfaces=env.surfaces[:1] + (bad,) + env.surfaces[2:],
        obstacles=env.obstacles,
        centerline=env.centerline,
        width=env.width,
        height=env.height,
        axis_length=env.axis_length,
    )
    report = validate_environment(broken)
    assert not report.ok


def test_validation_flags_overlapping_obstacles():
    env = build_obstacle_corridor(obstacles=(
        ObstacleSlab("one", 10.0, 0.5, METAL),
        ObstacleSlab("two", 10.2, 0.5, METAL),
    ))
    report = validate_environment(env)
    assert any("overlap" in v for v in report.violations)


def test_cross_section_closure_probe():
    """A transverse ray from the axis midpoint must exit through exactly
    one surface in every direction (closed rectangular cross-section)."""
    env = build_straight_tunnel()
    report = validate_environment(env)
    assert report.ok


@pytest.mark.parametrize("angle", [10.0, 30.0, 45.0, 60.0, 80.0, 88.0, 89.0, 89.9])
def test_bent_ducts_validate_clean(angle):
    """From a station inside the miter, a transverse ray may run down the
    other leg and out by its open end; that is no gap in the walls."""
    report = validate_environment(build_bent_tunnel(angle))
    assert report.ok, report.violations


def test_validation_flags_a_missing_wall():
    env = build_straight_tunnel()
    open_left = dataclasses.replace(
        env, surfaces=tuple(s for s in env.surfaces if s.name != "left_wall"))
    violations = validate_environment(open_left).violations
    assert violations and all(re.fullmatch(r"open cross-section at s=\d+\.\d\d m looking left", v)
                              for v in violations)
