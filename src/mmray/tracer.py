"""Image-method path enumeration with Fresnel reflection and slab transmission.

The reflectors are planes: coplanar surfaces that face the same way form
one. One image tree per transmitter lists every chain of up to MAX_ORDER
planes with the transmitter mirrored across each in turn (the empty chain
is the direct ray), and stacks the chains of each order into arrays.
trace_receivers back-traces every chain from a block of receivers at once,
as array operations over (candidates x receivers), and writes the
surviving paths into a PathTable: one row per path, the rows of a receiver
together and in enumerate_paths order. A candidate survives if every
reflection point falls on a rectangle of its plane between vertices on the
reflecting side, every straight segment is unobstructed, and no metal slab
is crossed. A bounce is tested only against the rectangles of its own
plane and recorded on the first, in surface-index order, that holds it;
that surface gives its material. enumerate_paths is the one-receiver view
of the same trace.

Every formula is an elementwise numpy expression with one order of
operations for all rows (n0*x0 + n1*x1 + n2*x2, a + t*(b - a)), so a path's
numbers do not depend on which receivers share its block. The functions
are numpy's own (arccos, sqrt, x ** 2), which may differ from Python's
math module in the last bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import Vec3, distance, dot, mirror_across_plane, vec3
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
# Closest transmitter-receiver separation in metres a trace accepts: below
# it the direct path has no usable direction and a meaningless power.
_MIN_SEPARATION = 1e-9
# Slab transmission of a table without slab crossings: a broadcastable 1.
_NO_CROSSINGS = np.ones((1, 1), complex)
_NO_CROSSINGS.flags.writeable = False


class Polarization(Enum):
    """Field orientation used for every reflection in a trace."""

    TE = "te"  # E-field perpendicular to the plane of incidence
    TM = "tm"  # E-field parallel to the plane of incidence


def _check_angle(theta: float) -> None:
    if not 0.0 <= theta < math.pi / 2:
        raise ValueError(f"incidence angle must be in [0, pi/2), got {theta}")


def fresnel_reflection(eps_r: float, theta: float, pol: Polarization) -> float:
    """Amplitude reflection coefficient of an air-dielectric interface.

    theta is the incidence angle from the surface normal, in [0, pi/2).

    TE: (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    TM: (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))
    """
    if eps_r < 1.0:
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    _check_angle(theta)
    return float(_fresnel(eps_r, np.float64(theta), pol))


def _fresnel(eps_r, theta, pol: Polarization):
    """fresnel_reflection over arrays, without the range checks."""
    ct = np.cos(theta)
    root = np.sqrt(eps_r - np.sin(theta) ** 2)
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
    _check_angle(theta)
    return complex(_slab_transmission(slab.material.eps_r, slab.thickness,
                                      np.float64(theta), frequency, pol))


def _slab_transmission(eps_r, thickness, theta, frequency, pol: Polarization) -> np.ndarray:
    """slab_transmission of dielectric slabs, broadcast over arrays.

    The phase and its cosine and sine are formed in place, so besides the
    complex result at most two real arrays of its shape are held.
    """
    r = _fresnel(eps_r, theta, pol)
    cos_t = np.sqrt(1.0 - np.sin(theta) ** 2 / eps_r)
    t_eff = thickness / cos_t
    amp = 1.0 - r * r
    # k_slab * t_eff, with k_slab = 2 pi f sqrt(eps_r) / c.
    phase = 2.0 * math.pi * frequency * np.sqrt(eps_r)
    phase /= SPEED_OF_LIGHT
    phase *= t_eff
    out = np.empty(np.shape(phase), complex)
    part = np.cos(phase, out=np.empty(out.shape))
    np.multiply(amp, part, out=out.real)
    np.sin(phase, out=part)
    np.negative(part, out=part)
    np.multiply(amp, part, out=out.imag)
    return out


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


@dataclass(frozen=True, eq=False)
class PathTable:
    """Traced paths of a block of receivers, as a struct of arrays.

    One row per path. The rows of a receiver are contiguous and sorted as
    enumerate_paths sorts them: by reflection order, delay, then surface
    chain; a receiver without coverage has no rows. Bounces and slab
    crossings are records of their own, in row order and, within a row, in
    path order.
    """

    tx: Vec3
    rx: np.ndarray               # (R, 3) receiver positions
    receiver: np.ndarray         # (M,) index into rx
    order: np.ndarray            # (M,) number of reflections
    length: np.ndarray           # (M,) metres
    reflection: np.ndarray       # (M,) product of reflection coefficients
    departure: np.ndarray        # (M, 3) unit direction leaving the transmitter
    arrival: np.ndarray          # (M, 3) unit direction arriving at the receiver
    bounce_row: np.ndarray       # (B,) row of each bounce
    bounce_surface: np.ndarray   # (B,) surface index
    bounce_point: np.ndarray     # (B, 3)
    bounce_angle: np.ndarray     # (B,) incidence angle from the normal
    crossing_row: np.ndarray     # (Q,) row of each slab crossing
    crossing_slab: np.ndarray    # (Q,) index into slabs
    crossing_angle: np.ndarray   # (Q,) incidence angle on the slab
    slabs: Tuple[ObstacleSlab, ...]
    polarization: Polarization

    @property
    def delay(self) -> np.ndarray:
        return self.length / SPEED_OF_LIGHT

    def counts(self) -> np.ndarray:
        """Rows per receiver."""
        return np.bincount(self.receiver, minlength=len(self.rx))

    def transmission(self, frequencies: Sequence[float]) -> np.ndarray:
        """Product of slab transmissions of every row, (carriers, M) complex.

        A table without slab crossings gives a read-only (1, 1) array of
        ones, which broadcasts as that product.
        """
        if not len(self.crossing_row):
            return _NO_CROSSINGS
        freqs = np.asarray(frequencies, float).reshape(-1, 1)
        rows = self.crossing_row
        slabs = [self.slabs[i] for i in self.crossing_slab.tolist()]
        t = _slab_transmission(np.array([s.material.eps_r for s in slabs]),
                               np.array([s.thickness for s in slabs]),
                               self.crossing_angle, freqs, self.polarization)
        # Each row's crossings are contiguous and in path order.
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        t = np.multiply.reduceat(t, first, axis=1)
        trans = np.ones((len(freqs), len(self.length)), complex)
        trans[:, rows[first]] = t
        return trans

    def paths(self, r: int) -> "PathList":
        """The rows of receiver r as PathContribution objects, in a PathList."""
        lo, hi = np.searchsorted(self.receiver, [r, r + 1]).tolist()
        rx = tuple(self.rx[r].tolist())
        bounces = [[] for _ in range(lo, hi)]
        b_lo, b_hi = np.searchsorted(self.bounce_row, [lo, hi]).tolist()
        for i, s, p, a in zip(self.bounce_row[b_lo:b_hi].tolist(),
                              self.bounce_surface[b_lo:b_hi].tolist(),
                              self.bounce_point[b_lo:b_hi].tolist(),
                              self.bounce_angle[b_lo:b_hi].tolist()):
            bounces[i - lo].append(Bounce(s, tuple(p), a))
        crossings = [[] for _ in range(lo, hi)]
        c_lo, c_hi = np.searchsorted(self.crossing_row, [lo, hi]).tolist()
        for i, s, a in zip(self.crossing_row[c_lo:c_hi].tolist(),
                           self.crossing_slab[c_lo:c_hi].tolist(),
                           self.crossing_angle[c_lo:c_hi].tolist()):
            crossings[i - lo].append(SlabCrossing(s, self.slabs[s], a))
        return PathList(self if len(self.rx) == 1 else None, [PathContribution(
                    order=k,
                    vertices=(self.tx, *(b.point for b in bs), rx),
                    length=length,
                    delay=length / SPEED_OF_LIGHT,
                    bounces=tuple(bs),
                    reflection_product=refl,
                    crossings=tuple(cs),
                    departure_dir=tuple(dep),
                    arrival_dir=tuple(arr),
                    polarization=self.polarization)
                for k, length, refl, dep, arr, bs, cs in zip(
                    self.order[lo:hi].tolist(), self.length[lo:hi].tolist(),
                    self.reflection[lo:hi].tolist(), self.departure[lo:hi].tolist(),
                    self.arrival[lo:hi].tolist(), bounces, crossings)])

    @classmethod
    def from_paths(cls, paths: Sequence[PathContribution]) -> "PathTable":
        """One receiver's (non-empty) path list as a table."""
        bounces = [(i, b) for i, p in enumerate(paths) for b in p.bounces]
        crossings = [(i, c) for i, p in enumerate(paths) for c in p.crossings]
        slabs = {c.obstacle_index: c.slab for _, c in crossings}
        return cls(
            tx=paths[0].vertices[0],
            rx=np.array([paths[0].vertices[-1]], float),
            receiver=np.zeros(len(paths), int),
            order=np.array([p.order for p in paths], int),
            length=np.array([p.length for p in paths], float),
            reflection=np.array([p.reflection_product for p in paths], float),
            departure=np.array([p.departure_dir for p in paths], float),
            arrival=np.array([p.arrival_dir for p in paths], float),
            bounce_row=np.array([i for i, _ in bounces], int),
            bounce_surface=np.array([b.surface_index for _, b in bounces], int),
            bounce_point=np.array([b.point for _, b in bounces], float).reshape(-1, 3),
            bounce_angle=np.array([b.incidence_angle for _, b in bounces], float),
            crossing_row=np.array([i for i, _ in crossings], int),
            crossing_slab=np.array([c.obstacle_index for _, c in crossings], int),
            crossing_angle=np.array([c.incidence_angle for _, c in crossings], float),
            slabs=tuple(slabs.get(i) for i in range(max(slabs, default=-1) + 1)),
            polarization=paths[0].polarization,
        )


class PathList(list):
    """A receiver's paths, which carry the PathTable they were made from if
    it holds no other receiver, and a memo for the channel's factors of it (a
    dict per antenna system and one per carrier). table is None once the
    list no longer holds the objects it was made with, in their order."""

    def __init__(self, table: Optional[PathTable], paths: List[PathContribution]):
        super().__init__(paths)
        self._table, self._made, self.memo = table, tuple(paths), ({}, {})

    @property
    def table(self) -> Optional[PathTable]:
        made = self._made
        intact = len(made) == len(self) and all(map(operator.is_, made, self))
        return self._table if intact else None


# ---------------------------------------------------------------------------
# Image tree
# ---------------------------------------------------------------------------

class _Frame:
    """Precomputed per-surface floats used while building the image tree."""

    __slots__ = ("index", "normal", "offset")

    def __init__(self, index: int, surf: Surface):
        self.index = index
        self.normal = surf.normal
        self.offset = surf.plane_offset

    def side(self, p: Vec3) -> float:
        n = self.normal
        return n[0] * p[0] + n[1] * p[1] + n[2] * p[2] - self.offset

    def coplanar_with(self, other: "_Frame", tol: float = 1e-9) -> bool:
        n1, n2 = self.normal, other.normal
        d = dot(n1, n2)
        if abs(abs(d) - 1.0) > tol:
            return False
        # Same plane only if the offsets agree once the normals are aligned;
        # anti-parallel normals flip the sign of the plane constant.
        sign = 1.0 if d > 0.0 else -1.0
        return abs(other.offset - sign * self.offset) < 1e-9


def _frames(env: Environment) -> Tuple[_Frame, ...]:
    return tuple(_Frame(i, s) for i, s in enumerate(env.surfaces))


def _reflectors(env: Environment) -> Tuple[Tuple[_Frame, ...], ...]:
    """The surfaces grouped by plane, each group in surface-index order.

    Coplanar surfaces that face the same way reflect alike, so they form one
    reflector; its first surface stands for the plane.
    """
    groups: Dict[_Frame, List[_Frame]] = {}
    for f in _frames(env):
        first = next((g for g in groups
                      if g.coplanar_with(f) and dot(g.normal, f.normal) > 0.0), f)
        groups.setdefault(first, []).append(f)
    return tuple(map(tuple, groups.values()))


class _Planes(NamedTuple):
    """Planes n . x = offset; the last axis runs over surfaces."""

    normal: np.ndarray   # (3, ...)
    offset: np.ndarray   # (...)

    def at(self, i) -> "_Planes":
        return _Planes(*(x[..., i] for x in self))


class _Rects(NamedTuple):
    """Rectangles origin + a edge_u + b edge_v; the last axis runs over surfaces."""

    origin: np.ndarray   # (3, ...)
    edge_u: np.ndarray   # (3, ...)
    edge_v: np.ndarray   # (3, ...)
    inv_u2: np.ndarray   # (...) 1 / |edge_u|^2
    inv_v2: np.ndarray   # (...) 1 / |edge_v|^2

    def at(self, i) -> "_Rects":
        return _Rects(*(x[..., i] for x in self))


class _Surfaces(NamedTuple):
    plane: _Planes
    rect: _Rects
    eps_r: np.ndarray      # (S,)
    conductor: np.ndarray  # (S,) bool


def _surfaces(env: Environment) -> _Surfaces:
    s = env.surfaces

    def columns(values, n: int) -> np.ndarray:  # n numbers per surface -> (n, S)
        return np.array(values, float).reshape(-1, n).T.copy()

    return _Surfaces(
        _Planes(columns([f.normal for f in s], 3), columns([f.plane_offset for f in s], 1)[0]),
        _Rects(columns([f.origin for f in s], 3), columns([f.edge_u for f in s], 3),
               columns([f.edge_v for f in s], 3),
               *columns([[1.0 / u2, 1.0 / v2] for u2, v2 in (f._edge_norms_sq for f in s)], 2)),
        np.array([f.material.eps_r for f in s], float),
        np.array([f.material.is_conductor for f in s], bool))


class _Step(NamedTuple):
    """One back-trace step: the s-th bounce counted back from the receiver.

    Candidates are stacked by descending order, so the n candidates with a
    bounce at step s come first. Arrays are (3, n, 1) or (n, 1), to
    broadcast against (3, n, receivers) points.
    """

    count: int
    plane: _Planes         # plane of the bounce
    # Per surface slot j of the plane, in surface-index order: (the
    # candidates whose plane has a j-th surface, its index, its rectangle)
    members: Tuple[Tuple[np.ndarray, np.ndarray, _Rects], ...]
    image: np.ndarray      # the image mirrored across that plane last
    image_side: np.ndarray  # the image's side of the plane (negative)
    after: _Planes         # plane of the next bounce (unused at step 0)


class _Tree(NamedTuple):
    surfaces: _Surfaces
    order: np.ndarray               # (C,) order of each candidate, stacked
    steps: Tuple[_Step, ...]        # one per step 0..max_order - 1


@lru_cache(maxsize=64)
def _image_tree(env: Environment, tx: Vec3, max_order: int) -> _Tree:
    """The (plane chain, images) candidates of a transmitter, stacked.

    images[k] is tx mirrored across chain[:k]. Candidates are built
    breadth-first: the direct ray, each plane facing tx, each pair, ... A
    plane may follow a chain only if the chain's last image lies on its
    reflecting side (the segment arriving at the plane, extended backwards,
    ends at that image) and it is not the plane of the previous bounce. The
    stacked arrays hold them by descending order, so the direct ray, which
    has no step, comes last. Only the receiver moves in a sweep, so this is
    built, and tx checked to lie inside env, once per transmitter.
    """
    if not env.contains(tx):
        raise ValueError(f"transmitter {tx} outside environment {env.name!r}")
    reflectors = _reflectors(env)
    surfaces = _surfaces(env)
    level = [((), (tx,))]
    candidates = list(level)
    for _ in range(max_order):
        level = [(chain + (g,),
                  images + (mirror_across_plane(images[-1], g[0].normal, g[0].offset),))
                 for chain, images in level for g in reflectors
                 if g[0].side(images[-1]) > _ON_PLANE
                 and not (chain and chain[-1][0].coplanar_with(g[0]))]
        candidates += level
    stacked = sorted(candidates, key=lambda c: -len(c[0]))
    order = np.array([len(chain) for chain, _ in stacked], int)
    # members[c, j] lists the surfaces of the j-th plane of candidate c,
    # padded with -1 to the widest plane; -1 past the candidate's order.
    width = max(map(len, reflectors), default=1)
    members = np.array([[[f.index for f in g] + [-1] * (width - len(g)) for g in chain]
                        + [[-1] * width] * (max_order - len(chain))
                        for chain, _ in stacked], int).reshape(len(stacked), max_order, width)
    steps = []
    for s in range(max_order):
        # The bounce at step s of a chain of order k is on plane k - 1 - s;
        # its image is images[k - s], and the next bounce is on plane k - s.
        live = order > s
        bounce = members[live, order[live] - 1 - s]
        after = members[live, order[live] - s, :1] if s else bounce[:, :1]
        plane = surfaces.plane.at(bounce[:, :1])
        images = [images[len(chain) - s] for chain, images in stacked if len(chain) > s]
        image = np.array(images, float).reshape(-1, 3).T[..., None]
        slots = [(np.flatnonzero(m >= 0), m) for m in bounce.T]
        steps.append(_Step(int(live.sum()), plane,
                           tuple((c, m[c, None], surfaces.rect.at(m[c, None])) for c, m in slots),
                           image, _side(plane, image), surfaces.plane.at(after)))
    return _Tree(surfaces, order, tuple(steps))


def candidate_count(env: Environment, tx: Vec3, max_order: int = 2) -> int:
    """Image-tree candidates one trace from tx tests per receiver."""
    _check_order(max_order)
    return len(_image_tree(env, vec3(tx), int(max_order)).order)


def _check_order(max_order) -> None:
    if max_order not in range(MAX_ORDER + 1):
        raise ValueError(f"max_order must be an integer in 0..{MAX_ORDER}, got {max_order!r}")


# ---------------------------------------------------------------------------
# Batched trace
# ---------------------------------------------------------------------------

def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u0*v0 + u1*v1 + u2*v2 of arrays (3, ...), summed left to right in
    place: at most two arrays of the result's shape are held."""
    out = u[0] * v[0]
    term = u[1] * v[1]
    out += term
    np.multiply(u[2], v[2], out=term)
    out += term
    return out


def _side(plane: _Planes, p: np.ndarray) -> np.ndarray:
    """n0*x + n1*y + n2*z - offset of points p (3, ...)."""
    side = _dot(plane.normal, p)
    side -= plane.offset
    return side


def _on_rectangle(p: np.ndarray, rect: _Rects, tol: float) -> np.ndarray:
    """Whether points p (3, ...) in a rectangle's plane lie on it, up to tol."""
    r = p - rect.origin
    ru, rv = r * rect.edge_u, r * rect.edge_v
    a = (ru[0] + ru[1] + ru[2]) * rect.inv_u2
    b = (rv[0] + rv[1] + rv[2]) * rect.inv_v2
    return (a >= -tol) & (a <= 1.0 + tol) & (b >= -tol) & (b <= 1.0 + tol)


def _back_trace(tree: _Tree, tx: Vec3, rx: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked candidates x receivers that unfold into a valid polyline.

    Each bounce, from the last to the first, is where the segment from its
    image to the next vertex crosses the plane. It must land on a rectangle
    of the plane with both neighbouring vertices strictly on the reflecting
    side (the side of tx and of each image is checked when the tree is
    built); it is recorded on the first such rectangle. Returns the
    receiver, order, bounce surfaces (m, max_order; -1 past the order) and
    vertices (m, max_order + 2, 3) of the m surviving (candidate, receiver)
    pairs, by stacked candidate. The vertices are tx, bounces, rx, and rx
    again past the order. The direct ray has no step, so it survives for
    every receiver.
    """
    ok = np.ones((len(tree.order), len(rx)), bool)
    p = rx.T[:, None, :]
    points, recorded = [], []
    for s, step in enumerate(tree.steps):
        n = step.count
        p = p[:, :n]
        side = _side(step.plane, p)
        valid = side > _ON_PLANE
        # The tree keeps an image only behind its plane (da < 0), so with
        # the next vertex in front, t is in (0, 1) up to rounding. A relative
        # margin on t would reject corner bounces a picometre apart in one
        # direction of travel but not in the other.
        da = step.image_side
        t = np.subtract(da, side, out=side)
        np.divide(da, t, out=t)
        valid &= (t > 0.0) & (t < 1.0)
        # image + t * (p - image), in place.
        p = p - step.image
        p *= t
        p += step.image
        # Rectangles tested last to first, so the first that holds p wins.
        surface = np.full(p.shape[1:], -1)
        for cand, index, rect in reversed(step.members):
            hit = _on_rectangle(p[:, cand], rect, ON_SURFACE_TOL)
            surface[cand] = np.where(hit, index, surface[cand])
        valid &= surface >= 0
        if s:
            valid &= _side(step.after, p) > _ON_PLANE
        ok[:n] &= valid
        points.append(p)
        recorded.append(surface)
    c, r = np.nonzero(ok)
    K = len(tree.steps)
    verts = np.empty((len(c), K + 2, 3))
    verts[:, 0] = tx
    verts[:, 1:] = rx[r, None]
    chain = np.full((len(c), K), -1)
    k = tree.order[c]
    for s, (p, surface) in enumerate(zip(points, recorded)):
        # Survivors are sorted by stacked index, so those with a bounce at
        # step s, which stacks first, are a prefix.
        m = np.searchsorted(c, tree.steps[s].count)
        verts[np.arange(m), k[:m] - s] = p[:, c[:m], r[:m]].T
        chain[np.arange(m), k[:m] - 1 - s] = surface[c[:m], r[:m]]
    return r, k, chain, verts


def _blocked(verts: np.ndarray, surfaces: _Surfaces) -> np.ndarray:
    """Rows with a segment verts[:, i] -> verts[:, i + 1] that properly
    crosses a surface rectangle.

    A crossing within _T_INTERIOR of either end, or with an endpoint on the
    plane (a bounce point, up to rounding), only touches the surface. Only
    segments with their ends strictly on opposite sides of a plane reach the
    crossing parameter t = da / (da - db): with both ends on one side,
    rounding is monotone and keeps t outside (0, 1), so this is the same
    rule as testing t for every segment.
    """
    plane = _Planes(surfaces.plane.normal[..., None, None], surfaces.plane.offset[:, None, None])
    side = _side(plane, verts.transpose(2, 0, 1)[:, None])  # (surfaces, rows, vertices)
    above, below = side > _ON_PLANE, side < -_ON_PLANE
    surf, row, seg = np.nonzero((above[..., :-1] & below[..., 1:])
                                | (below[..., :-1] & above[..., 1:]))
    end = seg + 1
    da, db = side[surf, row, seg], side[surf, row, end]
    del side, above, below
    t = da / (da - db)
    a, b = verts[row, seg].T, verts[row, end].T
    # Occlusion uses a slightly shrunk rectangle so edge grazes do not block.
    hit = _on_rectangle(a + t * (b - a), surfaces.rect.at(surf), -ON_SURFACE_TOL)
    hit &= (t > _T_INTERIOR) & (t < 1.0 - _T_INTERIOR)
    blocked = np.zeros(len(verts), bool)
    blocked[row[hit]] = True
    return blocked


def trace_receivers(env: Environment,
                    tx: Vec3,
                    receivers: Sequence[Vec3],
                    max_order: int = 2,
                    polarization: Polarization = Polarization.TE) -> PathTable:
    """Every valid path from tx to each receiver, up to the given order.

    paths(r) of the result equals enumerate_paths(env, tx, receivers[r],
    ...): the direct path and every specular reflection path of order
    1..max_order, sorted by (order, delay). Paths crossing a conductor slab
    are removed; dielectric slab crossings are recorded.
    """
    tx = vec3(tx)
    rx = np.array(receivers, float).reshape(-1, 3)
    _check_order(max_order)
    K = int(max_order)
    tree = _image_tree(env, tx, K)
    # The first receiver outside, or closer to tx than _MIN_SEPARATION, is named.
    inside = env.contains(rx)
    good = inside & (((rx - tx) ** 2).sum(1) >= _MIN_SEPARATION ** 2)
    if not good.all():
        r = int(good.argmin())
        p = tuple(rx[r].tolist())
        if not inside[r]:
            raise ValueError(f"receiver {p} outside environment {env.name!r}")
        raise ValueError(f"transmitter and receiver coincide at {p} "
                         f"(closer than {_MIN_SEPARATION:g} m)")
    surfaces = tree.surfaces
    slabs = env.obstacles
    with np.errstate(divide="ignore", invalid="ignore"):
        recv, order, surf, verts = _back_trace(tree, tx, rx)

        # Segments verts[:, i] -> verts[:, i + 1]; those past a row's order
        # join rx to itself.
        keep = ~_blocked(verts, surfaces)
        if slabs:
            lo = np.array([s.interval[0] for s in slabs])
            hi = np.array([s.interval[1] for s in slabs])
            # A live segment crosses a slab if their x-intervals overlap.
            a, b = verts[:, :-1, 0, None], verts[:, 1:, 0, None]
            crosses = ~((np.maximum(a, b) <= lo) | (np.minimum(a, b) >= hi))
            del a, b  # views that would keep the uncompacted vertices alive
            crosses &= (np.arange(K + 1) <= order[:, None])[..., None]
            metal = np.array([s.material.is_conductor for s in slabs])
            keep &= ~crosses[..., metal].any(axis=(1, 2))
            crosses = crosses[keep]

        # Each step below drops what the later ones do not need, so that a
        # row holds little more than its vertices and segments at any time.
        recv, order, surf, verts = recv[keep], order[keep], surf[keep], verts[keep]
        diff = verts[:, 1:] - verts[:, :-1]
        seg = np.sqrt(_dot(diff.T, diff.T).T)
        length = seg[:, 0]
        for i in range(1, K + 1):
            length = length + seg[:, i]

        # Paths of equal delay keep the order of their bounce surfaces.
        rows = np.lexsort((*surf.T[::-1], length / SPEED_OF_LIGHT, order, recv))
        recv, order, length = recv[rows], order[rows], length[rows]

        # Every bounce, in row then bounce order.
        bounce = np.arange(K) < order[:, None]
        brow, slot = np.nonzero(bounce)
        src = rows[brow]
        bsurf = surf[src, slot]
        bpoint = verts[src, slot + 1]
        del verts, surf

        # Unit directions, in place; the incidence angle of a bounce is
        # taken from the segment arriving at it.
        dirs = np.divide(diff, seg[..., None], out=diff)
        dot = dirs[src, slot].T * surfaces.plane.normal[:, bsurf]
        cos_inc = np.minimum(np.abs(dot[0] + dot[1] + dot[2]), 1.0)
        del dot
        if slabs:
            # |dx| / seg = |dx / seg|: division rounds the same for either sign.
            crow, cseg, cslab = np.nonzero(crosses[rows])
            src = rows[crow]
            ux = np.where(seg[src, cseg] > 0.0, np.abs(dirs[src, cseg, 0]), 0.0)
            cangle = np.minimum(np.arccos(np.minimum(ux, 1.0)), math.pi / 2 - 1e-9)
        else:
            crow = cslab = np.zeros(0, int)
            cangle = np.zeros(0)
        departure, arrival = dirs[rows, 0], dirs[rows, order]
        del diff, dirs, seg

        angle = np.minimum(np.arccos(cos_inc), math.pi / 2 - 1e-12)
        coeff = np.ones(bounce.shape)
        coeff[bounce] = np.where(surfaces.conductor[bsurf],
                                 -1.0 if polarization is Polarization.TE else 1.0,
                                 _fresnel(surfaces.eps_r[bsurf], angle, polarization))
        reflection = np.ones(len(rows))
        for j in range(K):
            reflection = reflection * coeff[:, j]

    return PathTable(
        tx=tx, rx=rx, receiver=recv, order=order, length=length,
        reflection=reflection, departure=departure, arrival=arrival,
        bounce_row=brow, bounce_surface=bsurf, bounce_point=bpoint, bounce_angle=angle,
        crossing_row=crow, crossing_slab=cslab, crossing_angle=cangle,
        slabs=slabs, polarization=polarization)


def enumerate_paths(env: Environment,
                    tx: Vec3,
                    rx: Vec3,
                    max_order: int = 2,
                    polarization: Polarization = Polarization.TE) -> List[PathContribution]:
    """All geometrically valid paths up to the given reflection order.

    Returns the direct path and every specular reflection path of order
    1..max_order, sorted by (order, delay). Paths crossing a conductor slab
    are removed; dielectric slab crossings are recorded on the path. This is
    trace_receivers for a single receiver; the list carries its table.
    """
    return trace_receivers(env, tx, [vec3(rx)], max_order, polarization).paths(0)
