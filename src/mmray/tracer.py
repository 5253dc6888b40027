"""Image-method path enumeration with Fresnel reflection and slab transmission.

One image tree per transmitter lists every chain of up to MAX_ORDER surfaces
with the transmitter mirrored across each in turn; one routine back-traces
any chain from the receiver. A candidate survives if every reflection point
falls on its finite rectangle between vertices on the reflecting side, every
straight segment is unobstructed, and no metal slab is crossed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    Vec3,
    distance,
    dot,
    lerp,
    mirror_across_plane,
    sub,
    unit,
    vec3,
)
from .scene import Environment, Material, ObstacleSlab, Surface

SPEED_OF_LIGHT = 299792458.0
# Highest reflection order the tracer enumerates (and scenarios may request).
MAX_ORDER = 2

# Barycentric slack for "point on finite rectangle"; keeps edge-grazing
# bounces from being dropped by floating-point noise.
ON_SURFACE_TOL = 1e-9
# Strictly interior parameter range used when testing a segment for occlusion.
_T_INTERIOR = 1e-9
# Distance in metres within which a point counts as lying on a plane.
_ON_PLANE = 1e-12


class Polarization(Enum):
    """Field orientation used for every reflection in a trace."""

    TE = "te"  # E-field perpendicular to the plane of incidence
    TM = "tm"  # E-field parallel to the plane of incidence


def fresnel_reflection(eps_r: float, theta: float, pol: Polarization) -> float:
    """Amplitude reflection coefficient of an air-dielectric interface.

    theta is the incidence angle from the surface normal, in [0, pi/2).

    TE: (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    TM: (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))
    """
    if eps_r < 1.0:
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta}")
    ct = math.cos(theta)
    st2 = math.sin(theta) ** 2
    root = math.sqrt(eps_r - st2)
    if pol is Polarization.TE:
        return (ct - root) / (ct + root)
    return (eps_r * ct - root) / (eps_r * ct + root)


def reflection_coefficient(material: Material, theta: float, pol: Polarization) -> float:
    """Reflection coefficient for a scene material (conductors reflect fully)."""
    if material.is_conductor:
        return -1.0 if pol is Polarization.TE else 1.0
    return fresnel_reflection(material.eps_r, theta, pol)


def slab_transmission(slab: ObstacleSlab, theta: float, frequency: float,
                      pol: Polarization) -> complex:
    """Amplitude transmission through a thin slab crossed at angle theta.

    Two air-dielectric interfaces without internal multiple reflections:
    T = (1 - r^2) * exp(-j * k_slab * t_eff), where r is the single-interface
    Fresnel coefficient, k_slab the in-slab wavenumber and t_eff the in-slab
    path length. Conductor slabs transmit nothing.
    """
    if slab.material.is_conductor:
        return 0.0j
    eps = slab.material.eps_r
    r = fresnel_reflection(eps, theta, pol)
    cos_t = math.sqrt(1.0 - math.sin(theta) ** 2 / eps)
    t_eff = slab.thickness / cos_t
    k_slab = 2.0 * math.pi * frequency * math.sqrt(eps) / SPEED_OF_LIGHT
    return (1.0 - r * r) * complex(math.cos(k_slab * t_eff), -math.sin(k_slab * t_eff))


@dataclass(frozen=True)
class Bounce:
    """One specular reflection of a path."""

    surface_index: int
    point: Vec3
    incidence_angle: float  # from the surface normal, [0, pi/2)


@dataclass(frozen=True)
class SlabCrossing:
    """One passage of a path segment through an obstacle slab."""

    obstacle_index: int
    slab: ObstacleSlab
    incidence_angle: float

    def transmission(self, frequency: float, pol: Polarization) -> complex:
        return slab_transmission(self.slab, self.incidence_angle, frequency, pol)


@dataclass(frozen=True)
class PathContribution:
    """One traced ray from transmitter to receiver."""

    order: int
    vertices: Tuple[Vec3, ...]  # tx, bounce points..., rx
    length: float
    delay: float
    bounces: Tuple[Bounce, ...]
    reflection_product: float
    crossings: Tuple[SlabCrossing, ...]
    departure_dir: Vec3   # propagation direction leaving the transmitter
    arrival_dir: Vec3     # propagation direction arriving at the receiver
    polarization: Polarization

    def transmission_product(self, frequency: float) -> complex:
        """Product of slab transmission coefficients over all crossings."""
        t = complex(1.0, 0.0)
        for crossing in self.crossings:
            t *= crossing.transmission(frequency, self.polarization)
        return t


def path_geometry(path: PathContribution) -> Tuple[List[float], List[float]]:
    """Per-segment lengths and per-bounce incidence angles of a path."""
    verts = path.vertices
    lengths = [distance(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]
    angles = [b.incidence_angle for b in path.bounces]
    return lengths, angles


# ---------------------------------------------------------------------------
# Enumeration internals
# ---------------------------------------------------------------------------

class _Frame:
    """Precomputed per-surface floats for the hot loop."""

    __slots__ = ("index", "normal", "offset", "origin", "edge_u", "edge_v",
                 "inv_u2", "inv_v2", "material")

    def __init__(self, index: int, surf: Surface):
        self.index = index
        self.normal = surf.normal
        self.offset = surf.plane_offset
        self.origin = surf.origin
        self.edge_u = surf.edge_u
        self.edge_v = surf.edge_v
        u2, v2 = surf._edge_norms_sq
        self.inv_u2 = 1.0 / u2
        self.inv_v2 = 1.0 / v2
        self.material = surf.material

    def side(self, p: Vec3) -> float:
        n = self.normal
        return n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - self.offset

    def contains(self, p: Vec3, tol: float) -> bool:
        o = self.origin
        rel = (p[0] - o[0], p[1] - o[1], p[2] - o[2])
        a = dot(rel, self.edge_u) * self.inv_u2
        if a < -tol or a > 1.0 + tol:
            return False
        b = dot(rel, self.edge_v) * self.inv_v2
        return -tol <= b <= 1.0 + tol

    def coplanar_with(self, other: "_Frame", tol: float = 1e-9) -> bool:
        n1, n2 = self.normal, other.normal
        d = dot(n1, n2)
        if abs(abs(d) - 1.0) > tol:
            return False
        # Same plane only if the offsets agree once the normals are aligned;
        # anti-parallel normals flip the sign of the plane constant.
        sign = 1.0 if d > 0.0 else -1.0
        return abs(other.offset - sign * self.offset) < 1e-9


@lru_cache(maxsize=32)
def _frames(env: Environment) -> Tuple[_Frame, ...]:
    return tuple(_Frame(i, s) for i, s in enumerate(env.surfaces))


def _segment_blocked(a: Vec3, b: Vec3, frames: Sequence[_Frame]) -> bool:
    """True if the open segment a->b properly crosses any surface rectangle."""
    for f in frames:
        n = f.normal
        da = n[0] * a[0] + n[1] * a[1] + n[2] * a[2] - f.offset
        db = n[0] * b[0] + n[1] * b[1] + n[2] * b[2] - f.offset
        denom = da - db
        if abs(denom) < 1e-12:
            continue
        t = da / denom
        if t <= _T_INTERIOR or t >= 1.0 - _T_INTERIOR:
            continue
        # An endpoint on the plane (a bounce point, up to rounding) touches it.
        if abs(da) <= _ON_PLANE or abs(db) <= _ON_PLANE:
            continue
        # Occlusion uses a slightly shrunk rectangle so edge grazes do not block.
        if f.contains(lerp(a, b, t), -ON_SURFACE_TOL):
            return True
    return False


def _collect_crossings(segments: Sequence[Tuple[Vec3, Vec3]],
                       obstacles: Sequence[ObstacleSlab]) -> Optional[List[SlabCrossing]]:
    """Slab crossings over all segments; None if a conductor slab is crossed.

    Slabs are transverse to the first centerline segment, so the crossing
    test works on the global x coordinate.
    """
    if not obstacles:
        return []
    crossings: List[SlabCrossing] = []
    for a, b in segments:
        x_lo, x_hi = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        seg_len = distance(a, b)
        ux = abs(b[0] - a[0]) / seg_len if seg_len > 0.0 else 0.0
        for idx, slab in enumerate(obstacles):
            s_lo, s_hi = slab.interval
            if x_hi <= s_lo or x_lo >= s_hi:
                continue
            if slab.material.is_conductor:
                return None
            theta = min(math.acos(min(ux, 1.0)), math.pi / 2 - 1e-9)
            crossings.append(SlabCrossing(idx, slab, theta))
    return crossings


def _make_path(vertices: Tuple[Vec3, ...],
               bounce_frames: Sequence[_Frame],
               env: Environment,
               pol: Polarization) -> Optional[PathContribution]:
    segments = [(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]
    crossings = _collect_crossings(segments, env.obstacles)
    if crossings is None:
        return None

    length = 0.0
    for a, b in segments:
        length += distance(a, b)

    bounces = []
    refl = 1.0
    for i, f in enumerate(bounce_frames):
        p = vertices[i + 1]
        incoming = unit(sub(p, vertices[i]))
        cos_inc = min(abs(dot(incoming, f.normal)), 1.0)
        theta = math.acos(cos_inc)
        theta = min(theta, math.pi / 2 - 1e-12)
        bounces.append(Bounce(f.index, p, theta))
        refl *= reflection_coefficient(f.material, theta, pol)

    return PathContribution(
        order=len(bounce_frames),
        vertices=vertices,
        length=length,
        delay=length / SPEED_OF_LIGHT,
        bounces=tuple(bounces),
        reflection_product=refl,
        crossings=tuple(crossings),
        departure_dir=unit(sub(vertices[1], vertices[0])),
        arrival_dir=unit(sub(vertices[-1], vertices[-2])),
        polarization=pol,
    )


def enumerate_paths(env: Environment,
                    tx: Vec3,
                    rx: Vec3,
                    max_order: int = 2,
                    polarization: Polarization = Polarization.TE) -> List[PathContribution]:
    """All geometrically valid paths up to the given reflection order.

    Returns the direct path and every specular reflection path of order
    1..max_order, sorted by (order, delay). Paths crossing a conductor slab
    are removed; dielectric slab crossings are recorded on the path.
    """
    tx = vec3(tx)
    rx = vec3(rx)
    if max_order not in range(MAX_ORDER + 1):
        raise ValueError(f"max_order must be an integer in 0..{MAX_ORDER}, got {max_order!r}")
    if not env.contains(tx):
        raise ValueError(f"transmitter {tx} outside environment {env.name!r}")
    if not env.contains(rx):
        raise ValueError(f"receiver {rx} outside environment {env.name!r}")
    if distance(tx, rx) == 0.0:
        raise ValueError(f"transmitter and receiver coincide at {rx}")

    frames, candidates = _image_tree(env, tx, int(max_order))
    paths: List[PathContribution] = []
    for chain, images in candidates:
        vertices = _unfold(tx, rx, chain, images)
        if vertices is None:
            continue
        if any(_segment_blocked(vertices[i], vertices[i + 1], frames)
               for i in range(len(vertices) - 1)):
            continue
        p = _make_path(vertices, chain, env, polarization)
        if p is not None:
            paths.append(p)

    paths = _dedupe(paths)
    paths.sort(key=lambda p: (p.order, p.delay,
                              tuple(b.surface_index for b in p.bounces)))
    return paths


@lru_cache(maxsize=64)
def _image_tree(env: Environment, tx: Vec3, max_order: int) -> Tuple[tuple, tuple]:
    """Surface frames and the (surface chain, images) candidates of a transmitter.

    images[k] is tx mirrored across chain[:k]. Candidates are breadth-first:
    the direct ray, each surface facing tx, each ordered pair, ..., never the
    same plane twice in a row. Only the receiver moves in a sweep, so this is
    built once per transmitter.
    """
    frames = _frames(env)
    level = [((), (tx,))]
    candidates = list(level)
    for _ in range(max_order):
        level = [(chain + (f,),
                  images + (mirror_across_plane(images[-1], f.normal, f.offset),))
                 for chain, images in level for f in frames
                 if (not chain[-1].coplanar_with(f) if chain else f.side(tx) > _ON_PLANE)]
        candidates += level
    return frames, tuple(candidates)


def _unfold(tx: Vec3, rx: Vec3, chain: Sequence[_Frame],
            images: Sequence[Vec3]) -> Optional[Tuple[Vec3, ...]]:
    """Vertices tx, bounce points..., rx of a chain back-traced from rx, or None.

    Every bounce must land on its rectangle with both neighbouring vertices
    on the reflecting side (tx's side is checked when the tree is built).
    """
    vertices = (rx,)
    after = None  # the bounce after the current one
    # zip pairs chain[k] with images[k + 1] and leaves out images[0], tx itself.
    for f, img in zip(reversed(chain), reversed(images)):
        if f.side(vertices[0]) <= _ON_PLANE:
            return None
        p = _plane_point(img, vertices[0], f)
        if p is None or (after is not None and after.side(p) <= _ON_PLANE):
            return None
        vertices = (p,) + vertices
        after = f
    return (tx,) + vertices


def _plane_point(img: Vec3, target: Vec3, f: _Frame) -> Optional[Vec3]:
    """Intersection of segment img->target with f's plane, if strictly between."""
    n = f.normal
    da = n[0] * img[0] + n[1] * img[1] + n[2] * img[2] - f.offset
    db = n[0] * target[0] + n[1] * target[1] + n[2] * target[2] - f.offset
    denom = da - db
    if abs(denom) < 1e-12:
        return None
    t = da / denom
    if not 1e-12 < t < 1.0 - 1e-12:
        return None
    p = lerp(img, target, t)
    if not f.contains(p, ON_SURFACE_TOL):
        return None
    return p


def _dedupe(paths: List[PathContribution]) -> List[PathContribution]:
    """Drop duplicate paths found through overlapping coplanar rectangles."""
    seen = set()
    out = []
    for p in paths:
        key = (p.order,
               round(p.length, 7),
               tuple((round(b.point[0], 7), round(b.point[1], 7), round(b.point[2], 7))
                     for b in p.bounces))
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out
