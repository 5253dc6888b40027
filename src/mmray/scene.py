"""Duct-shaped indoor propagation environments.

An Environment is a set of finite rectangular reflecting surfaces plus
optional transverse obstacle slabs, arranged along a piecewise-straight
centerline. Four builders cover the studied geometries: a plain corridor,
the same corridor with door/lift slabs, a straight concrete tunnel, and a
tunnel with a single horizontal bend.

Coordinates: x runs along the (first) duct axis, y is transverse
horizontal, z is up. The floor of every duct sits at z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    Vec3,
    add,
    cached_hash,
    cross,
    dot,
    norm,
    scale,
    sub,
    unit,
)

# Default material parameters for the built-in scenes.
BRICK_EPS_R = 4.44
PLASTERBOARD_EPS_R = 5.0
WALL_BLEND_EPS_R = (BRICK_EPS_R + PLASTERBOARD_EPS_R) / 2.0  # 4.72
MARBLE_EPS_R = 4.0
CEILING_EPS_R = 1.0
CONCRETE_EPS_R = 5.0
WOOD_EPS_R = 3.3
GLASS_EPS_R = 6.0  # not measured for these scenes; common architectural value
# Environment.contains counts a point inside a duct from this many metres
# inside its walls, floor and ceiling to this many past its open ends.
_INSIDE_TOL = 1e-9


@dataclass(frozen=True)
class Material:
    """Electromagnetic description of a reflecting surface or slab."""

    name: str
    eps_r: float
    is_conductor: bool = False

    def __post_init__(self) -> None:
        if not self.is_conductor and self.eps_r < 1.0:
            raise ValueError(f"material {self.name!r}: eps_r must be >= 1, got {self.eps_r}")


METAL = Material("metal", eps_r=1.0, is_conductor=True)


@dataclass(frozen=True)
class Surface:
    """Finite planar rectangle spanned by two orthogonal edge vectors.

    The inward normal is unit(edge_u x edge_v); builders orient the edges
    so it points into the duct interior.
    """

    name: str
    origin: Vec3
    edge_u: Vec3
    edge_v: Vec3
    material: Material

    @cached_property
    def normal(self) -> Vec3:
        return unit(cross(self.edge_u, self.edge_v))

    @cached_property
    def plane_offset(self) -> float:
        return dot(self.normal, self.origin)

    @cached_property
    def _edge_norms_sq(self) -> Tuple[float, float]:
        u, v = self.edge_u, self.edge_v
        return (dot(u, u), dot(v, v))

    def local_coords(self, p: Vec3) -> Tuple[float, float]:
        """Barycentric coordinates along edge_u / edge_v, in [0, 1] on the rectangle."""
        rel = sub(p, self.origin)
        lu2, lv2 = self._edge_norms_sq
        return (dot(rel, self.edge_u) / lu2, dot(rel, self.edge_v) / lv2)

    def contains(self, p: Vec3, tol: float = 1e-9) -> bool:
        a, b = self.local_coords(p)
        return -tol <= a <= 1.0 + tol and -tol <= b <= 1.0 + tol

    def coplanar_with(self, other: "Surface") -> bool:
        """Whether other lies in this surface's plane, facing either way."""
        d = dot(self.normal, other.normal)
        if abs(abs(d) - 1.0) > 1e-9:
            return False
        # Same plane only if the offsets agree once the normals are aligned;
        # anti-parallel normals flip the sign of the plane constant.
        sign = 1.0 if d > 0.0 else -1.0
        return abs(other.plane_offset - sign * self.plane_offset) < 1e-9


@dataclass(frozen=True)
class ObstacleSlab:
    """Transverse slab filling the full duct cross-section.

    position is measured along the first centerline segment; the slab
    occupies [position, position + thickness].
    """

    name: str
    position: float
    thickness: float
    material: Material

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise ValueError(f"slab {self.name!r}: thickness must be > 0")

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.position, self.position + self.thickness)


@dataclass(frozen=True)
class CenterlineSegment:
    """One straight piece of the duct centerline, at floor level."""

    origin: Vec3
    direction: Vec3  # unit, horizontal
    length: float
    # Longitudinal overhang at each end, at a mitered joint: the leg's floor,
    # ceiling and right (outer) wall run this far past the end, its left
    # (inner) wall stops this far short, and Environment.contains accepts
    # points this far past it.
    ext_before: float = 0.0
    ext_after: float = 0.0


@cached_hash
@dataclass(frozen=True)
class Environment:
    """Immutable scene: reflecting surfaces, obstacle slabs, centerline."""

    name: str
    surfaces: Tuple[Surface, ...]
    obstacles: Tuple[ObstacleSlab, ...]
    centerline: Tuple[CenterlineSegment, ...]
    width: float
    height: float
    axis_length: float

    def axis_point(self, s: float, height: float = 0.0) -> Vec3:
        """Point at arclength s along the centerline, lifted to the given height."""
        return tuple(self._axis(np.array([s], float), height)[0][0].tolist())

    def axis_direction(self, s: float) -> Vec3:
        return tuple(self._axis(np.array([s], float), 0.0)[1][0].tolist())

    def _axis(self, s: np.ndarray, height: float) -> Tuple[np.ndarray, np.ndarray]:
        """Points at arclengths s (N,) along the centerline, lifted to height,
        and its directions there, (N, 3) each; s is on the first segment it
        does not run past, or on the last."""
        points, directions = np.empty((2, len(s), 3))
        remaining, todo = s, np.ones(len(s), bool)
        for seg in self.centerline:
            here = todo if seg is self.centerline[-1] else todo & (remaining <= seg.length)
            points[here] = np.add(seg.origin, np.multiply(seg.direction, remaining[here, None]))
            directions[here], todo, remaining = seg.direction, todo & ~here, remaining - seg.length
        points[:, 2] += height
        return points, directions

    def contains(self, p):
        """True if p lies inside the duct volume; an (N, 3) array of points gives
        an (N,) bool array. Transverse bounds are strict; the longitudinal
        interval is closed (the duct ends are open, so points on an end face
        count as inside). An environment with no surfaces is free space."""
        pts = np.asarray(p, float)
        if pts.shape[-1:] != (3,) or pts.ndim > 2:
            raise ValueError(f"points must have 3 components, got shape {pts.shape}")
        if not self.surfaces:
            return True if pts.ndim == 1 else np.ones(len(pts), bool)
        origin, axes, lo, hi = self._boxes
        # (u, v, z) along each segment's axes, (N, S, 3); an axis's zero
        # components add exact zeros, so sums round as geometry.dot's.
        w = ((pts[..., None, None, :] - origin) * axes).sum(-1)
        inside = ((lo <= w) & (w <= hi)).all(-1).any(-1)
        return bool(inside) if pts.ndim == 1 else inside

    @cached_property
    def _boxes(self) -> Tuple[np.ndarray, ...]:
        """Per centerline segment, the box contains accepts: its origin at
        z = 0 (S, 1, 3), its axes direction, left = (-dy, dx, 0) and up
        (S, 3, 3), and the closed bounds lo <= (u, v, z) <= hi (S, 3) on the
        coordinates along them; the strict bounds sit an ulp inside."""
        t = _INSIDE_TOL
        side = math.nextafter(self.width / 2.0 - t, -math.inf)
        floor = math.nextafter(t, math.inf)
        ceiling = math.nextafter(self.height - t, -math.inf)
        c = self.centerline
        return (np.array([(s.origin[0], s.origin[1], 0.0) for s in c], float)[:, None],
                np.array([(s.direction, (-s.direction[1], s.direction[0], 0.0), (0.0, 0.0, 1.0))
                          for s in c], float),
                np.array([(-s.ext_before - t, -side, floor) for s in c]),
                np.array([(s.length + s.ext_after + t, side, ceiling) for s in c]))

    @cached_property
    def _corners(self) -> np.ndarray:
        """Every corner of the environment, (n, 3): the four of each surface
        rectangle, then the eight of each centerline segment's box."""
        o, u, v = (np.array([getattr(f, e) for f in self.surfaces], float).reshape(-1, 3)
                   for e in ("origin", "edge_u", "edge_v"))
        origin, axes, lo, hi = self._boxes
        # Box corner i takes lo on axis k if bit k of i is set, else hi.
        at = np.where(np.arange(8)[:, None] >> np.arange(3) & 1 == 1, lo[:, None], hi[:, None])
        term = at[..., None] * axes[:, None]  # (segments, 8, 3 axes, 3)
        box = origin + (term[:, :, 0] + term[:, :, 1] + term[:, :, 2])
        return np.concatenate([o, o + u, o + v, o + u + v, box.reshape(-1, 3)])


@dataclass
class ValidationReport:
    """List of invariant violations found in an environment (empty = valid)."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


# ---------------------------------------------------------------------------
# Duct assembly
# ---------------------------------------------------------------------------

def _check_sizes(**sizes: float) -> None:
    for name, value in sizes.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")


def _duct(name: str, centerline: Tuple[CenterlineSegment, ...], width: float, height: float,
          floor: Material, ceiling: Material, left: Material, right: Material) -> Environment:
    """Duct of straight legs, four rectangles each with inward normals, named
    with a prefix "a_", "b_", ... per leg if there is more than one.

    A leg's floor, ceiling and right (outer) wall run ext_before before its
    start and ext_after past its end; its left (inner) wall starts and ends
    that far inside them (mitered joints). The axis is as long as the legs.
    """
    up = (0.0, 0.0, 1.0)
    half_w = width / 2.0
    surfaces = []
    for i, seg in enumerate(centerline):
        prefix = f"{chr(ord('a') + i)}_" if len(centerline) > 1 else ""
        d = unit(seg.direction)  # a bent leg's (cos, sin, 0) may be an ulp off unit
        across = (-d[1], d[0], 0.0)

        def at(u: float, v: float, z: float) -> Vec3:
            return (
                seg.origin[0] + u * d[0] + v * across[0],
                seg.origin[1] + u * d[1] + v * across[1],
                seg.origin[2] + z,
            )

        u0, u1 = -seg.ext_before, seg.length + seg.ext_after
        lu0, lu1 = seg.ext_before, seg.length - seg.ext_after
        surfaces += [
            # floor: normal +z
            Surface(f"{prefix}floor", at(u0, -half_w, 0.0),
                    scale(d, u1 - u0), scale(across, width), floor),
            # ceiling: normal -z
            Surface(f"{prefix}ceiling", at(u0, -half_w, height),
                    scale(across, width), scale(d, u1 - u0), ceiling),
            # left wall (v = +w/2): normal points right, into the duct
            Surface(f"{prefix}left_wall", at(lu0, half_w, 0.0),
                    scale(d, lu1 - lu0), scale(up, height), left),
            # right wall (v = -w/2): normal points left
            Surface(f"{prefix}right_wall", at(u0, -half_w, 0.0),
                    scale(up, height), scale(d, u1 - u0), right),
        ]
    return Environment(
        name=name,
        surfaces=tuple(surfaces),
        obstacles=(),
        centerline=tuple(centerline),
        width=width,
        height=height,
        axis_length=sum(seg.length for seg in centerline),
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_plain_corridor(length: float = 44.0,
                         width: float = 2.20,
                         height: float = 2.75,
                         wall_eps_r: float = WALL_BLEND_EPS_R,
                         floor_eps_r: float = MARBLE_EPS_R,
                         ceiling_eps_r: float = CEILING_EPS_R,
                         split_walls: bool = False,
                         ceiling_is_conductor: bool = False) -> Environment:
    """Plain corridor: marble floor, light furred ceiling, brick/plaster walls.

    By default the two side walls share a single blended permittivity;
    split_walls assigns brick to the left wall and plasterboard to the right.
    """
    floor = Material("marble", floor_eps_r)
    ceiling = Material("ceiling", ceiling_eps_r, is_conductor=ceiling_is_conductor)
    if split_walls:
        left = Material("brick", BRICK_EPS_R)
        right = Material("plasterboard", PLASTERBOARD_EPS_R)
    else:
        left = right = Material("wall_blend", wall_eps_r)
    _check_sizes(length=length, width=width, height=height)
    return _duct("plain_corridor", (CenterlineSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), length),),
                 width, height, floor, ceiling, left, right)


def default_corridor_obstacles(wood_eps_r: float = WOOD_EPS_R,
                               glass_eps_r: float = GLASS_EPS_R,
                               thickness: float = 0.1) -> Tuple[ObstacleSlab, ...]:
    """Wooden door at 10 m, metal lift at 20 m, glass door at 30 m."""
    return (
        ObstacleSlab("wooden_door", 10.0, thickness, Material("wood", wood_eps_r)),
        ObstacleSlab("lift", 20.0, thickness, METAL),
        ObstacleSlab("glass_door", 30.0, thickness, Material("glass", glass_eps_r)),
    )


def build_obstacle_corridor(length: float = 44.0,
                            width: float = 2.20,
                            height: float = 2.75,
                            wall_eps_r: float = WALL_BLEND_EPS_R,
                            floor_eps_r: float = MARBLE_EPS_R,
                            ceiling_eps_r: float = CEILING_EPS_R,
                            split_walls: bool = False,
                            ceiling_is_conductor: bool = False,
                            wood_eps_r: float = WOOD_EPS_R,
                            glass_eps_r: float = GLASS_EPS_R,
                            obstacles: Optional[Sequence[ObstacleSlab]] = None) -> Environment:
    """Plain corridor plus three full-cross-section slabs (door, lift, door).

    wood_eps_r and glass_eps_r set the stock doors, which obstacles replace.
    """
    base = build_plain_corridor(length, width, height, wall_eps_r, floor_eps_r,
                                ceiling_eps_r, split_walls, ceiling_is_conductor)
    for name, value, stock in (("wood_eps_r", wood_eps_r, WOOD_EPS_R),
                               ("glass_eps_r", glass_eps_r, GLASS_EPS_R)):
        if obstacles is not None and value != stock:
            raise ValueError(f"{name}={value} has no effect: obstacles replace the stock doors")
    if obstacles is None:
        obstacles = default_corridor_obstacles(wood_eps_r, glass_eps_r)
    return replace(base, name="obstacle_corridor", obstacles=tuple(obstacles))


def build_straight_tunnel(length: float = 44.0,
                          width: float = 2.5,
                          height: float = 2.5,
                          eps_r: float = CONCRETE_EPS_R) -> Environment:
    """Straight concrete tunnel with a square cross-section."""
    concrete = Material("concrete", eps_r)
    _check_sizes(length=length, width=width, height=height)
    return _duct("straight_tunnel", (CenterlineSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), length),),
                 width, height, concrete, concrete, concrete, concrete)


def build_bent_tunnel(bend_angle_deg: float = 45.0,
                      length: float = 44.0,
                      width: float = 2.5,
                      height: float = 2.5,
                      eps_r: float = CONCRETE_EPS_R) -> Environment:
    """Concrete tunnel with one horizontal bend halfway along the centerline.

    The bend is a mitered joint of two straight legs, each overhanging the
    elbow by the miter's reach (ext_after on the first, ext_before on the
    second), which sets all of their rectangles: the side walls of both legs
    stop exactly at their mutual intersection line, while the coplanar
    floor/ceiling rectangles of the two legs overlap across the elbow wedge
    (the tracer treats each such pair as one reflecting plane, so a bounce
    in the overlap is traced once).
    """
    if not 0.0 < bend_angle_deg < 90.0:
        raise ValueError(f"bend angle must be in (0, 90) degrees, got {bend_angle_deg}")
    _check_sizes(length=length, width=width, height=height)
    beta = math.radians(bend_angle_deg)
    half = length / 2.0
    # Longitudinal reach of the miter past/short of the elbow point.
    ext = width / 2.0 * math.tan(beta / 2.0)
    concrete = Material("concrete", eps_r)
    # The bend turns toward +y, so the left wall is the inner one.
    legs = (CenterlineSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), half, ext_after=ext),
            CenterlineSegment((half, 0.0, 0.0), (math.cos(beta), math.sin(beta), 0.0), half,
                              ext_before=ext))
    return _duct("bent_tunnel", legs, width, height, concrete, concrete, concrete, concrete)


def free_space(length: float = 44.0) -> Environment:
    """Unbounded environment with no reflectors; direct ray only."""
    _check_sizes(length=length)
    return Environment(
        name="free_space",
        surfaces=(),
        obstacles=(),
        centerline=(CenterlineSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), length),),
        width=math.inf,
        height=math.inf,
        axis_length=length,
    )


BUILDERS = {
    "plain_corridor": build_plain_corridor,
    "obstacle_corridor": build_obstacle_corridor,
    "straight_tunnel": build_straight_tunnel,
    "bent_tunnel": build_bent_tunnel,
    "free_space": free_space,
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _nearest_centerline_point(env: Environment, p: Vec3, height: float) -> Optional[Vec3]:
    points = []
    for seg in env.centerline:
        u = min(max(dot(sub(p, seg.origin), seg.direction), 0.0), seg.length)
        q = add(seg.origin, scale(seg.direction, u))
        points.append((q[0], q[1], q[2] + height))
    return min(points, key=lambda q: sum((p[i] - q[i]) ** 2 for i in range(3)), default=None)


def _ray_hits(env: Environment, start: Vec3, direction: Vec3) -> bool:
    """Whether a ray from start hits any surface rectangle."""
    for surf in env.surfaces:
        n = surf.normal
        denom = dot(n, direction)
        t = (surf.plane_offset - dot(n, start)) / denom if abs(denom) >= 1e-12 else 0.0
        if t > 1e-9 and surf.contains(add(start, scale(direction, t)), tol=1e-9):
            return True
    return False


def _leaves_through_a_side(env: Environment, start: Vec3, direction: Vec3) -> bool:
    """Whether a ray from start leaves the duct through a side, the floor or
    the ceiling rather than an open end: the bound it leaves by, of the
    centerline segments' boxes it starts in, the one it stays in longest.
    Each leg's box holds the other's end face at a miter, so a ray leaves
    the duct where it leaves that box."""
    origin, axes, lo, hi = env._boxes
    w = (np.subtract(start, origin) * axes).sum(-1)  # (segments, 3 axes)
    rate = (np.multiply(direction, axes)).sum(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (np.stack([lo, hi]) - w) / rate  # where the ray meets each bound
    # A coordinate that does not move holds everywhere or nowhere on the ray.
    held = np.where((lo <= w) & (w <= hi), np.inf, -np.inf)
    leave = np.where(rate == 0.0, held, t.max(0))
    enter, out = np.where(rate == 0.0, -held, t.min(0)).max(1), leave.min(1)
    here = (enter <= 0.0) & (out > 0.0)
    return not here.any() or leave[np.where(here, out, -np.inf).argmax()].argmin() > 0


def validate_environment(env: Environment,
                         n_stations: int = 48) -> ValidationReport:
    """Check scene invariants; returns a report of violations (empty = valid)."""
    report = ValidationReport()

    for surf in env.surfaces:
        if abs(dot(surf.edge_u, surf.edge_v)) > 1e-9:
            report.add(f"surface {surf.name!r}: edge vectors not orthogonal")
            continue
        if abs(norm(surf.normal) - 1.0) > 1e-12:
            report.add(f"surface {surf.name!r}: normal not unit length")
        centroid = add(surf.origin,
                       add(scale(surf.edge_u, 0.5), scale(surf.edge_v, 0.5)))
        inward_ref = _nearest_centerline_point(env, centroid, env.height / 2.0
                                               if math.isfinite(env.height) else 0.0)
        if inward_ref is not None and dot(surf.normal, sub(inward_ref, centroid)) <= 0.0:
            report.add(f"surface {surf.name!r}: normal does not point into the duct")

    spans = sorted((slab.interval, slab.name) for slab in env.obstacles)
    for (ivl_a, name_a), (ivl_b, name_b) in zip(spans, spans[1:]):
        if ivl_b[0] < ivl_a[1] - 1e-12:
            report.add(f"obstacles {name_a!r} and {name_b!r} overlap")
    for slab in env.obstacles:
        if not 0.0 <= slab.position <= env.axis_length:
            report.add(f"obstacle {slab.name!r}: position outside the duct axis")

    if env.surfaces and math.isfinite(env.height):
        mid = env.height / 2.0
        margin = min(0.1, env.axis_length / (2 * n_stations))
        for i in range(n_stations):
            s = margin + (env.axis_length - 2 * margin) * i / (n_stations - 1)
            start = env.axis_point(s, height=mid)
            d = env.axis_direction(s)
            left = (-d[1], d[0], 0.0)
            for label, direction in (("up", (0.0, 0.0, 1.0)),
                                     ("down", (0.0, 0.0, -1.0)),
                                     ("left", left),
                                     ("right", (-left[0], -left[1], 0.0))):
                # The duct ends are open: a ray out through one shows no gap.
                if not _ray_hits(env, start, direction) and _leaves_through_a_side(
                        env, start, direction):
                    report.add(f"open cross-section at s={s:.2f} m looking {label}")
                    break
    return report
