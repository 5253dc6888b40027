"""Image-method path enumeration with Fresnel reflection and slab transmission.

The reflectors are planes: coplanar surfaces (Surface.coplanar_with) that
face the same way form one. One image tree per transmitter lists every
chain of up to MAX_ORDER planes with the transmitter mirrored across each
in turn (the empty chain is the direct ray). It is built an order at a
time on arrays and held as arrays per candidate (order, plane chain,
images); one function, _steps, forms the back-trace steps of any set of
candidates.
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

The back-trace compacts the pairs that pass its steps once, as flat
indices into the (candidates x receivers) grid, and writes each step's
bounce points and surfaces straight into their path-order slot of one
(slot, component, pair) vertex array: tx, the bounces, rx. Candidates
stack by descending order, so the pairs of an order are one run, and a
step writes each run with one take. A trace is then one pass,
_trace_rows, that drops each array once it has read it: the segment
lengths, the occlusion and slab tests and the one sort on that array;
the bounce rows, surfaces and points, read from the vertices before they
turn into segment directions in place; then the rows' fields and slab
crossings. trace_receivers and enumerate_paths form the bounce records.
A sweep block skips them, so its table has none: only PathTable.paths
reads them.

Two rejections are decided before any path is formed. A segment is tested
for occlusion only against the surfaces whose plane has one of
Environment._corners, of a rectangle or of a centerline segment's box,
strictly behind it: every other plane has all points of the environment on
or in front of it, so none in a convex duct. A bounce may lie up to
ON_SURFACE_TOL outside its rectangle's edge; such a point is never tested
against a face with the whole duct in front of it. And a receiver whose
direct ray crosses a metal slab is not back-traced: each path is an
unbroken polyline from tx to rx, so its x-range holds the direct ray's and
it crosses the same slab. Such a receiver keeps its place with no rows.

A sweep moves the receiver along the duct centerline, and there most
candidates never give a path. Each back-trace step is a central projection,
linear in homogeneous coordinates, so the vertices of a receiver on a
centerline segment are linear in its axial distance and each test of the
back-trace is one linear inequality in it. _sweep_windows solves them once
per sweep, with every bound relaxed and the result widened, into a window
of axial distance per candidate that holds every position where it passes
the back-trace (occlusion and slabs are left out). A sweep block then
back-traces, through _trace_rows, only the candidates whose window meets
its positions; trace_receivers and enumerate_paths keep the whole tree.

Every formula is an elementwise numpy expression with one order of
operations for all rows (n0*x0 + n1*x1 + n2*x2, a + t*(b - a)), so a path's
numbers do not depend on which receivers share its block. The functions
are numpy's own (arccos, sqrt, x ** 2), which may differ from Python's
math module in the last bit.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import Vec3, distance, dot, vec3
from .scene import Environment, Material, ObstacleSlab

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
    T = (1 - r^2) * exp(-j * k * sqrt(eps_r) * t_eff), where r is the
    single-interface Fresnel coefficient, k the free-space wavenumber and
    t_eff the in-slab path length. Conductor slabs transmit nothing.
    """
    if slab.material.is_conductor:
        return 0.0j
    _check_angle(theta)
    amp, optical = _slab_factors(slab.material.eps_r, slab.thickness, np.float64(theta), pol)
    return complex(amp * np.exp(-1j * (2.0 * math.pi * frequency / SPEED_OF_LIGHT) * optical))


def _slab_factors(eps_r, thickness, theta, pol: Polarization):
    """The carrier-free factors of slab_transmission, broadcast over arrays:
    the magnitude 1 - r^2 and the optical thickness sqrt(eps_r) * t_eff."""
    r = _fresnel(eps_r, theta, pol)
    cos_t = np.sqrt(1.0 - np.sin(theta) ** 2 / eps_r)
    return 1.0 - r * r, np.sqrt(eps_r) * (thickness / cos_t)


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
    path order. A sweep block's table (_trace_rows) has no bounce records:
    its bounce arrays are empty.
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

    def paths(self, r: int) -> "PathList":
        """The rows of receiver r as PathContribution objects, in a PathList
        that carries receiver r's one-receiver slice of this table."""
        rx = tuple(self.rx[r].tolist())
        if len(self.rx) == 1:  # the table is receiver r's own
            table, lo, hi, b_lo, b_hi = self, 0, len(self.receiver), 0, len(self.bounce_row)
            c_lo, c_hi = 0, len(self.crossing_row)
        else:
            lo, hi = np.searchsorted(self.receiver, [r, r + 1]).tolist()
            b_lo, b_hi = np.searchsorted(self.bounce_row, [lo, hi]).tolist()
            c_lo, c_hi = np.searchsorted(self.crossing_row, [lo, hi]).tolist()
            table = self._slice(r, slice(lo, hi), slice(b_lo, b_hi), slice(c_lo, c_hi))
        # The records are built without their dataclass __init__, which sets
        # each field through object.__setattr__; there is nothing to check.
        bounces = [[] for _ in range(lo, hi)]
        for i, s, p, a in zip(self.bounce_row[b_lo:b_hi].tolist(),
                              self.bounce_surface[b_lo:b_hi].tolist(),
                              self.bounce_point[b_lo:b_hi].tolist(),
                              self.bounce_angle[b_lo:b_hi].tolist()):
            bounces[i - lo].append(_record(Bounce, surface_index=s, point=tuple(p),
                                           incidence_angle=a))
        crossings = [[] for _ in range(lo, hi)]
        for i, s, a in zip(self.crossing_row[c_lo:c_hi].tolist(),
                           self.crossing_slab[c_lo:c_hi].tolist(),
                           self.crossing_angle[c_lo:c_hi].tolist()):
            crossings[i - lo].append(_record(SlabCrossing, obstacle_index=s, slab=self.slabs[s],
                                             incidence_angle=a))
        return PathList(table, [_record(
                    PathContribution,
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

    def _slice(self, r: int, rows: slice, bounces: slice, crossings: slice) -> "PathTable":
        """Receiver r's rows, bounces and crossings as a table of its own,
        with rows counted from 0."""
        return PathTable(
            self.tx, self.rx[r:r + 1], self.receiver[rows] - r, self.order[rows],
            self.length[rows], self.reflection[rows], self.departure[rows], self.arrival[rows],
            self.bounce_row[bounces] - rows.start, self.bounce_surface[bounces],
            self.bounce_point[bounces], self.bounce_angle[bounces],
            self.crossing_row[crossings] - rows.start, self.crossing_slab[crossings],
            self.crossing_angle[crossings], self.slabs, self.polarization)

    @classmethod
    def from_paths(cls, paths: Sequence[PathContribution]) -> "PathTable":
        """One receiver's (non-empty) path list, of one polarization, as a table."""
        polarization = paths[0].polarization
        if any(p.polarization is not polarization for p in paths):
            raise ValueError("paths must share one polarization, got "
                             f"{sorted({p.polarization.name for p in paths})}")
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
            polarization=polarization,
        )


def _record(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, made
    without cls.__init__: it compares, hashes, prints and refuses
    assignment as one made with it."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


class _Carrier(list):
    """A list that carries what was formed with its items. carried() gives
    it only while the list holds the objects it was made with, in their
    order, and None once it does not."""

    def __init__(self, carried, items: list):
        super().__init__(items)
        self._carried, self._made = carried, tuple(self)

    def carried(self):
        made = self._made
        intact = len(made) == len(self) and all(map(operator.is_, made, self))
        return self._carried if intact else None


class PathList(_Carrier):
    """A receiver's paths, which carry its one-receiver PathTable (the table
    they were made from, or that table's slice of the receiver), and a dict
    in which the channel memoizes what it forms from that table. table is
    None once the list no longer holds the objects it was made with, in
    their order."""

    def __init__(self, table: Optional[PathTable], paths: List[PathContribution]):
        super().__init__(table, paths)
        self.memo = {}

    table = property(_Carrier.carried)


# ---------------------------------------------------------------------------
# Image tree
# ---------------------------------------------------------------------------

_frames = operator.attrgetter("surfaces")  # bench/spans.py reads coplanar_with off these


def _reflectors(env: Environment) -> Tuple[Tuple[int, ...], ...]:
    """The surface indices grouped by plane, each group in index order.

    Coplanar surfaces that face the same way reflect alike, so they form one
    reflector; its first surface stands for the plane.
    """
    s = env.surfaces
    groups: Dict[int, List[int]] = {}
    for i, f in enumerate(s):
        first = next((g for g in groups
                      if s[g].coplanar_with(f) and dot(s[g].normal, f.normal) > 0.0), i)
        groups.setdefault(first, []).append(i)
    return tuple(map(tuple, groups.values()))


class _Surfaces(NamedTuple):
    """Surfaces as arrays: planes n . x = offset, rectangles origin + a
    edge_u + b edge_v in them, and materials; the last axis runs over
    surfaces."""

    normal: np.ndarray     # (3, ...)
    offset: np.ndarray     # (...)
    origin: np.ndarray     # (3, ...)
    edge_u: np.ndarray     # (3, ...)
    edge_v: np.ndarray     # (3, ...)
    inv_u2: np.ndarray     # (...) 1 / |edge_u|^2
    inv_v2: np.ndarray     # (...) 1 / |edge_v|^2
    eps_r: np.ndarray      # (...)
    conductor: np.ndarray  # (...) bool

    def at(self, i) -> "_Surfaces":
        return _Surfaces(*(x.take(i, -1) for x in self))


def _surfaces(env: Environment) -> _Surfaces:
    s = env.surfaces

    def columns(values, n: int) -> np.ndarray:  # n numbers per surface -> (n, S)
        return np.array(values, float).reshape(-1, n).T.copy()

    return _Surfaces(
        columns([f.normal for f in s], 3), columns([f.plane_offset for f in s], 1)[0],
        columns([f.origin for f in s], 3), columns([f.edge_u for f in s], 3),
        columns([f.edge_v for f in s], 3),
        *columns([[1.0 / u2, 1.0 / v2] for u2, v2 in (f._edge_norms_sq for f in s)], 2),
        np.array([f.material.eps_r for f in s], float),
        np.array([f.material.is_conductor for f in s], bool))


class _Step(NamedTuple):
    """One back-trace step: the s-th bounce counted back from the receiver.

    Candidates are stacked by descending order, so the n candidates with a
    bounce at step s come first. Arrays are (3, n, 1) or (n, 1), to
    broadcast against (3, n, receivers) points.
    """

    count: int
    plane: _Surfaces       # the first surface of the bounce's plane
    # Per surface slot j of the plane, in surface-index order: (the
    # candidates whose plane has a j-th surface, a slice of all of them at
    # j = 0 and their indices after; its index; its surface, `plane` at j = 0)
    members: Tuple[Tuple[Union[slice, np.ndarray], np.ndarray, _Surfaces], ...]
    image: np.ndarray      # the image mirrored across that plane last
    image_side: np.ndarray  # the image's side of the plane (negative)
    after: _Surfaces       # plane of the next bounce (unused at step 0)


def _occluders(env: Environment, surfaces: _Surfaces) -> Optional[_Surfaces]:
    """The surfaces that can occlude a segment, or None if none can.

    Those are the surfaces whose plane has one of Environment._corners, of
    some rectangle or of some centerline segment's box (the volume
    Environment.contains accepts), strictly behind it. Every other plane has
    the whole environment on or in front of it, and a segment between two
    such points never has its ends on opposite sides.
    """
    if not env.surfaces:
        return None
    behind = _side(surfaces.normal[..., None], surfaces.offset[:, None],
                   env._corners.T[:, None]) < -_ON_PLANE
    occluding = np.flatnonzero(behind.any(1))
    return surfaces.at(occluding) if len(occluding) else None


class _Tree(NamedTuple):
    """A transmitter's image tree as arrays per candidate, stacked by
    descending order. Column s of a candidate of order k holds, counted back
    from the receiver, the plane of its s-th bounce and images[:, s + 1]
    mirrored across it; images[:, k] is tx and later columns are padding.
    order and steps are those of the candidates a trace tests: all of them
    in the cached tree, a sweep block's in _trace_rows."""

    surfaces: _Surfaces
    occluders: Optional[_Surfaces]  # the surfaces that can occlude a segment
    slabs: "_Slabs"                 # the environment's obstacle slabs
    members: np.ndarray             # (P, W) surfaces of each plane, padded with -1
    order: np.ndarray               # (C,) order of each candidate
    chain: np.ndarray               # (C, K) planes, padded with -1
    images: np.ndarray              # (C, K + 1, 3)
    image_side: np.ndarray          # (C, K) side of images[:, s] of chain[:, s], held for _steps
    steps: Tuple[_Step, ...]        # one per step 0..K - 1


@lru_cache(maxsize=64)
def _image_tree(env: Environment, tx: Vec3, max_order: int) -> _Tree:
    """The (plane chain, images) candidates of a transmitter, stacked.

    A level (an order) at a time: a plane may follow a chain only if the
    chain's last image lies on its reflecting side (the segment arriving at
    the plane, extended backwards, ends at that image) and it is not the
    plane of the previous bounce. A level takes the side of every last
    image of every plane, keeps the passing (chain, plane) pairs in that
    order and mirrors each image across its plane, x - 2 side n. The direct
    ray, with no step, stacks last. Only the receiver moves in a sweep, so
    this is built, and tx checked to lie inside env, once per transmitter.
    """
    if not env.contains(tx):
        raise ValueError(f"transmitter {tx} outside environment {env.name!r}")
    reflectors = _reflectors(env)
    surfaces = _surfaces(env)
    width = max(map(len, reflectors), default=1)
    members = np.array([[*g] + [-1] * (width - len(g)) for g in reflectors],
                       int).reshape(len(reflectors), width)
    plane = surfaces.at(members[:, 0])
    first = [env.surfaces[g[0]] for g in reflectors]
    coplanar = np.array([[a.coplanar_with(b) for b in first] for a in first], bool)
    levels = [(np.full((1, max_order), -1), np.array([[tx] + [(0.0, 0.0, 0.0)] * max_order]),
               np.zeros((1, max_order)))]
    for k in range(max_order):
        chain, images, _ = levels[-1]
        side = _side(plane.normal, plane.offset, images[:, 0].T[..., None])  # (chains, planes)
        reflects = side > _ON_PLANE
        if k:
            reflects &= ~coplanar[chain[:, 0]]
        c, p = np.nonzero(reflects)
        mirrored = images[c, 0] - (2.0 * side[c, p])[:, None] * plane.normal.T[p]
        # Each array gains a first column and drops its last, a padding one.
        levels.append(tuple(np.concatenate([new[:, None], old[c, :-1]], axis=1) for new, old in
                            zip((p, mirrored, _side(plane.normal[:, p], plane.offset[p],
                                                    mirrored.T)), levels[-1])))
    order = np.repeat(np.arange(max_order, -1, -1), [len(c) for c, _, _ in levels[::-1]])
    tree = _Tree(surfaces, _occluders(env, surfaces), _slab_arrays(env.obstacles), members,
                 order, *(np.concatenate(x[::-1]) for x in zip(*levels)), ())
    return tree._replace(steps=_steps(tree, np.arange(len(order))))


def _steps(tree: _Tree, live: np.ndarray) -> Tuple[_Step, ...]:
    """The back-trace steps of the stacked candidates live (ascending). Those
    with a bounce at step s stack first, so they are a prefix of live and of
    those at step s - 1, whose plane is the one after step s."""
    surfaces = tree.surfaces
    order = tree.order.take(live)
    counts = len(order) - np.searchsorted(order[::-1], np.arange(tree.chain.shape[1]), "right")
    steps = []
    for s, n in enumerate(counts.tolist()):
        c = live[:n]
        bounce = tree.members.take(tree.chain[:, s].take(c), 0)  # (n, W) surfaces
        first = bounce[:, :1]
        plane = surfaces.at(first)
        # Per surface slot j: the candidates whose plane has a j-th surface;
        # every plane has a first.
        members = [(slice(None), first, plane)]
        for m in bounce.T[1:]:
            i = np.flatnonzero(m >= 0)
            index = m.take(i)[:, None]
            members.append((i, index, surfaces.at(index)))
        after = _Surfaces(*(x[..., :n, :] for x in steps[-1].plane)) if s else plane
        steps.append(_Step(n, plane, tuple(members), tree.images[:, s].take(c, 0).T[..., None],
                           tree.image_side[:, s].take(c)[:, None], after))
    return tuple(steps)


def candidate_count(env: Environment, tx: Vec3, max_order: int = 2) -> int:
    """Image-tree candidates one trace from tx tests per receiver."""
    _check_order(max_order)
    return len(_image_tree(env, vec3(tx), int(max_order)).order)


def _check_order(max_order) -> None:
    if (isinstance(max_order, bool) or not isinstance(max_order, numbers.Integral)
            or max_order not in range(MAX_ORDER + 1)):
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


def _side(normal: np.ndarray, offset: np.ndarray, p: np.ndarray) -> np.ndarray:
    """n0*x + n1*y + n2*z - offset of points p (3, ...)."""
    side = _dot(normal, p)
    side -= offset
    return side


def _on_rectangle(p: np.ndarray, rect: _Surfaces, tol: float) -> np.ndarray:
    """Whether points p (3, ...) in a rectangle's plane lie on it, up to tol."""
    r = p - rect.origin
    a = _dot(r, rect.edge_u)
    a *= rect.inv_u2
    b = _dot(r, rect.edge_v)
    b *= rect.inv_v2
    return (a >= -tol) & (a <= 1.0 + tol) & (b >= -tol) & (b <= 1.0 + tol)


def _back_trace(tree: _Tree, tx: Vec3, rx: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked candidates x receivers that unfold into a valid polyline.

    Each bounce, from the last to the first, is where the segment from its
    image to the next vertex crosses the plane. It must land on a rectangle
    of the plane with both neighbouring vertices strictly on the reflecting
    side (the side of tx and of each image is checked when the tree is
    built); it is recorded on the first such rectangle. The direct ray has
    no step, so it survives for every receiver.

    The m surviving (candidate, receiver) pairs are compacted once, as flat
    indices c * R + r of the grid, and stay in stacked-candidate order.
    Returns their receiver and order, and in path order their bounce
    surfaces (max_order, m; -1 past the order) and vertices
    (max_order + 2, 3, m): tx, the bounces, then rx in every later slot.
    Candidates stack by descending order, so the pairs of order k are one
    run, and the bounce at step s of each goes to slot k - s: a slice copy
    per (step, order) from one flat take of the step's points.
    """
    ok = np.ones((len(tree.order), len(rx)), bool)
    p = rx.T[:, None, :]
    points, recorded = [], []
    for s, step in enumerate(tree.steps):
        n = step.count
        p = p[:, :n]
        side = _side(step.plane.normal, step.plane.offset, p)
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
            valid &= _side(step.after.normal, step.after.offset, p) > _ON_PLANE
        ok[:n] &= valid
        points.append(p)
        recorded.append(surface)
    pair = ok.reshape(-1).nonzero()[0]
    del ok
    c, r = np.divmod(pair, len(rx))
    K, m = len(tree.steps), len(pair)
    # Pairs [edge[k + 1], edge[k]) are of order k; those with a bounce at
    # step s, which stack first, are the prefix [0, edge[s + 1]).
    edge = [m, *np.searchsorted(c, [step.count for step in tree.steps]).tolist(), 0]
    order = tree.order.take(c)
    del c
    verts = np.empty((K + 2, 3, m))
    verts[0].T[...] = tx
    rx.T.take(r, 1, out=verts[1], mode="clip")
    verts[2:] = verts[1]
    surf = np.full((K, m), -1)
    # Each take writes into its slice, through a buffer of the run's size
    # at most; the indices are in range, so mode="clip" spares the buffer
    # mode="raise" takes through.
    for s, (p, surface) in enumerate(zip(points, recorded)):
        p, surface = p.reshape(3, -1), surface.reshape(-1)
        points[s] = recorded[s] = None
        for k in range(s + 1, K + 1):
            run = pair[edge[k + 1]:edge[k]]
            p.take(run, 1, out=verts[k - s, :, edge[k + 1]:edge[k]], mode="clip")
            surface.take(run, out=surf[k - 1 - s, edge[k + 1]:edge[k]], mode="clip")
        del p, surface
    return r, order, surf, verts


def _blocked(verts: np.ndarray, surfaces: _Surfaces) -> np.ndarray:
    """Rows with a segment verts[j] -> verts[j + 1] of vertices (slots, 3,
    rows) that properly crosses a surface rectangle.

    A crossing within _T_INTERIOR of either end, or with an endpoint on the
    plane (a bounce point, up to rounding), only touches the surface. Only
    segments with their ends strictly on opposite sides of a plane reach the
    crossing parameter t = da / (da - db): with both ends on one side,
    rounding is monotone and keeps t outside (0, 1), so this is the same
    rule as testing t for every segment. The surfaces are tested one at a
    time, so only one surface's crossings are held at once; a crossing
    segment j of row i is the flat index j * rows + i, and its ends are
    taken from the flat vertices.
    """
    m = verts.shape[-1]
    blocked = np.zeros(m, bool)
    p = verts.swapaxes(0, 1)  # (3, slots, rows)
    xyz = m * np.arange(3)[:, None]
    for i in range(len(surfaces.eps_r)):
        surface = _Surfaces(*(x[..., i:i + 1] for x in surfaces))
        side = _side(surface.normal[..., None], surface.offset, p)
        above, below = side > _ON_PLANE, side < -_ON_PLANE
        seg = np.flatnonzero((above[:-1] & below[1:]) | (below[:-1] & above[1:]))
        del above, below
        da, db = side.take(seg), side.take(seg + m)
        del side
        t = np.divide(da, np.subtract(da, db, out=db), out=db)  # da / (da - db)
        del da
        start = seg + 2 * m * (seg // m)  # x of vertex j of row i: 3 m j + i
        # The crossing a + t (b - a), formed in place.
        a = verts.take(start + xyz)
        start += 3 * m
        b = verts.take(start + xyz)
        del start
        b -= a
        b *= t
        a += b
        del b
        # Occlusion uses a slightly shrunk rectangle so edge grazes do not block.
        hit = _on_rectangle(a, surface, -ON_SURFACE_TOL)
        hit &= (t > _T_INTERIOR) & (t < 1.0 - _T_INTERIOR)
        blocked[seg[hit] % m] = True
    return blocked


def _pair_words(env: Environment, tx: Vec3, max_order: int) -> int:
    """The 8-byte words a trace holds per (candidate, receiver) pair at its
    peak, counted as if the pair were traced into a row; K is max_order:
    - the back-trace and sort: its vertices (3 K + 6 words), a point and a
      surface per back-trace step (4 K), its bounce surfaces (K), its
      receiver, order and flat index (3), a gather's buffer (3), and a byte
      per (slab, segment) for the slab test; what follows holds less;
    - where some surface can occlude, the occlusion test: the vertices,
      bounce surfaces, receiver and order (4 K + 8) and the work on one
      crossing segment (17)."""
    K = max_order
    words = 8 * K + 12 + -(-len(env.obstacles) * (K + 1) // 8)
    if _image_tree(env, tx, K).occluders is not None:
        words = max(words, 4 * K + 25)
    return words


def _overlaps(a, b, lo, hi):
    """Whether the x-interval between a and b overlaps the slab (lo, hi)."""
    return ~((np.maximum(a, b) <= lo) | (np.minimum(a, b) >= hi))


class _Slabs(NamedTuple):
    """Obstacle slabs as arrays, one entry per slab."""

    lo: np.ndarray         # (Q,) x-interval [lo, hi]
    hi: np.ndarray         # (Q,)
    eps_r: np.ndarray      # (Q,)
    thickness: np.ndarray  # (Q,)
    metal: np.ndarray      # indices of the conductor slabs


@lru_cache(maxsize=64)
def _slab_arrays(slabs: Tuple[Optional[ObstacleSlab], ...]) -> _Slabs:
    """The slabs as arrays, formed once per tuple: an environment's
    obstacles, or a table's slabs, where from_paths leaves None for a slab
    no path crosses (NaN here). Crossings gather from them by slab index."""
    nan = math.nan
    columns = np.array([(*s.interval, s.material.is_conductor, s.material.eps_r, s.thickness)
                        if s else (nan, nan, False, nan, nan) for s in slabs], float)
    lo, hi, metal, eps_r, thickness = columns.reshape(-1, 5).T.copy()
    arrays = _Slabs(lo, hi, eps_r, thickness, np.flatnonzero(metal))
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _lit(slabs: _Slabs, tx: Vec3, rx: np.ndarray) -> np.ndarray:
    """The indices of the receivers whose direct ray crosses no metal slab.
    Every path runs from tx to rx without a break, so its x-range holds the
    direct ray's: a receiver whose direct ray crosses a metal slab has no
    path."""
    if not len(slabs.metal):
        return np.arange(len(rx))
    lo, hi = slabs.lo.take(slabs.metal), slabs.hi.take(slabs.metal)
    return np.flatnonzero(~_overlaps(rx[:, :1], tx[0], lo, hi).any(1))


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
    return _trace_rows(env, tx, receivers, max_order, polarization, None, bounces=True)


def _trace_rows(env: Environment, tx: Vec3, receivers: Sequence[Vec3], max_order: int,
                polarization: Polarization, live: Optional[np.ndarray],
                bounces: bool = False) -> PathTable:
    """The trace: back-trace the stacked candidates live (ascending; all if
    None), test occlusion and slabs, sort once and form the rows' fields.
    Its table has bounce records only with bounces (trace_receivers); a
    sweep block's has empty ones. Rows are ordered by their sort keys, not
    by candidate, so a subset that holds every path gives the same rows.

    The back-trace's m pairs stay in stacked order while their segment
    lengths, the occlusion test and the slab crossings are formed on its
    path-order vertices. One stable sort then orders them, and the occluded
    pairs and those through metal are dropped from that order. Every array
    is dropped once read. The bounce points are read from the vertices
    before they become the unit directions of the segments in place;
    every field is then a gather from those arrays by (slot, pair), and
    the reflection product multiplies the coefficients in bounce order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = vec3(tx)
        rx = np.array(receivers, float).reshape(-1, 3)
        _check_order(max_order)
        K = int(max_order)
        tree = _image_tree(env, tx, K)
        if live is not None and len(live) < len(tree.order):
            tree = tree._replace(order=tree.order.take(live), steps=_steps(tree, live))
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
        slabs, surfaces = tree.slabs, tree.surfaces
        lit = _lit(slabs, tx, rx)
        recv, order, surf, verts = _back_trace(tree, tx, rx[lit])
        recv = lit.take(recv)
        m = len(recv)

        # Segment j of a pair joins verts[j] to verts[j + 1]; those past its
        # order join rx to itself.
        keep = np.ones(m, bool)
        if tree.occluders is not None:
            keep = ~_blocked(verts, tree.occluders)
        crosses = None
        if len(slabs.lo):
            # A live segment crosses a slab if their x-intervals overlap.
            x = verts[:, 0]
            crosses = _overlaps(x[:-1], x[1:], slabs.lo[:, None, None], slabs.hi[:, None, None])
            del x  # a view that would keep the vertices alive
            crosses &= np.arange(K + 1)[:, None] <= order  # (slabs, K + 1, m)
            keep &= ~crosses.take(slabs.metal, 0).any(axis=(0, 1))

        # Segment lengths, with the components summed in order, as _dot does.
        seg = verts[1:, 0] - verts[:-1, 0]
        seg *= seg
        for i in (1, 2):
            d = verts[1:, i] - verts[:-1, i]
            d *= d
            seg += d
        del d
        np.sqrt(seg, out=seg)
        length = seg[0]
        for j in range(1, K + 1):
            length = length + seg[j]

        # The one sort, of the pairs in stacked order; paths of equal delay
        # keep the order of their bounce surfaces. Dropping rows after a
        # stable sort leaves the others in the order a sort of them gives.
        # Receiver and order sort as one key.
        rows = np.lexsort((*surf[::-1], length / SPEED_OF_LIGHT, recv * (K + 1) + order))
        if not keep.all():
            rows = rows[keep.take(rows)]
        del keep, tree, lit, inside, good  # tree holds the live steps
        # Pairs stack by descending order, so the first has the most bounces.
        k = int(order[0]) if m else 0
        receiver, order, length = recv.take(rows), order.take(rows), length.take(rows)
        del recv

        if bounces:
            # Every bounce in row, then bounce order, as its row, surface and
            # point, and the flat index slot * m + pair of its incidence angle
            # in the (slot, pair) angles below. Bounce j of a row is its
            # vertex j + 1.
            brow, src = np.arange(len(rows)).repeat(order), rows.repeat(order)
            slot = np.arange(len(brow)) - (order.cumsum() - order).repeat(order)
            at, at3 = slot * m + src, slot * (3 * m) + src  # 3 m j + i: x of slot j
            bpoint = verts[1:].reshape(-1).take(at3 + m * np.arange(3)[:, None]).T.copy()
            bsurf = surf.reshape(-1).take(at)
            del src, slot, at3
        else:
            brow = bsurf = at = np.zeros(0, int)
            bpoint = np.zeros((0, 3))

        # The vertices become the unit directions of the segments in place:
        # segment j, from verts[j] to verts[j + 1], is (verts[j + 1] -
        # verts[j]) / seg[j], and bounce j is reached by segment j.
        dirs = verts
        del verts
        for j in range(K + 1):
            np.subtract(dirs[j + 1], dirs[j], out=dirs[j])
        dirs[:-1] /= seg[:, None]

        if crosses is not None:
            # In row, then segment, then slab order.
            crow, cseg, cslab = np.nonzero(crosses.take(rows, 2).transpose(2, 1, 0))
            pair = rows.take(crow)
            # |dx| / seg = |dx / seg|: division rounds the same for either sign.
            ux = np.where(seg[cseg, pair] > 0.0, np.abs(dirs[cseg, 0, pair]), 0.0)
            cangle = np.minimum(np.arccos(np.minimum(ux, 1.0)), math.pi / 2 - 1e-9)
        else:
            crow = cslab = np.zeros(0, int)
            cangle = np.zeros(0)

        # Bounce j joins segments j and j + 1, and specular reflection makes
        # their angles with its normal equal. The longer gives it, or on a
        # tie the one of larger |cos|; the reversed path takes the same one,
        # so a bounce nanometres from the next gets one angle either way.
        shorter, tie = seg[:k] < seg[1:k + 1], seg[:k] == seg[1:k + 1]
        del seg, crosses

        # The incidence angles (slot, pair) of the slots some row has a
        # bounce in (meaningless past a pair's order), a slot at a time:
        # bounce j's surface is surf[j], and |cos| is the dot of a segment's
        # direction with its normal.
        surf, normal = surf[:k], surfaces.normal
        angle = np.empty((k, m))
        for j in range(k):
            cos = _dot(dirs[j:j + 2].swapaxes(0, 1), normal.take(surf[j], 1)[:, None])
            a, b = np.abs(cos, out=cos)  # along segments j and j + 1
            angle[j] = np.where(shorter[j] | tie[j] & (b > a), b, a)
            del cos, a, b
        del shorter, tie
        np.minimum(angle, 1.0, out=angle)
        np.minimum(np.arccos(angle, out=angle), math.pi / 2 - 1e-12, out=angle)
        eps_r, metal, past = surfaces.eps_r.take(surf), surfaces.conductor.take(surf), surf < 0
        del surf

        # Arrival along segment `order`, departure along segment 0.
        arrival = dirs[order, :, rows]
        departure = dirs[0, :, rows]
        del dirs

        # Coefficients of 1 past each pair's order; the product over slots
        # multiplies them in bounce order.
        coeff = _fresnel(eps_r, angle, polarization)
        np.copyto(coeff, -1.0 if polarization is Polarization.TE else 1.0, where=metal)
        np.copyto(coeff, 1.0, where=past)
        del eps_r, metal, past
        reflection = coeff.take(rows, 1).prod(0)
        del coeff
    return PathTable(tx, rx, receiver, order, length, reflection, departure, arrival, brow,
                     bsurf, bpoint, angle.reshape(-1).take(at), crow, cslab, cangle,
                     env.obstacles, polarization)


# ---------------------------------------------------------------------------
# Sweep-line windows
# ---------------------------------------------------------------------------

# A window's tests are the back-trace's with every bound relaxed by
# _WINDOW_SLACK metres, far above the rounding of either computation; each
# window is then widened by as much along the axis.
_WINDOW_SLACK = 1e-6


def _positive_on(f: np.ndarray, length: float) -> Tuple[np.ndarray, np.ndarray]:
    """[lo, hi] where a linear function of s in [0, length], given by its
    values f (..., 2) at both ends, is positive; lo > hi if nowhere."""
    f0, f1 = f[..., 0], f[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = length * (f0 / (f0 - f1))
    lo = np.where(f0 > 0.0, 0.0, np.where(f1 > 0.0, root, np.inf))
    hi = np.where(f1 > 0.0, length, np.where(f0 > 0.0, root, -np.inf))
    return lo, hi


def _segment_windows(tree: _Tree, start: np.ndarray, end: np.ndarray,
                     length: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per stacked candidate, the [lo, hi] of s in [0, length] outside of
    which no receiver start + (end - start) s / length passes its back-trace.

    A back-trace step is a central projection from the step's image onto its
    plane, p -> (side(p) image - da p) / (side(p) - da), so in homogeneous
    coordinates (x w, w) it is linear, and the vertices of a receiver on the
    segment are linear in s. Each test (the side of the previous vertex, the
    bounds of a rectangle, the side of the next plane) is then the sign of a
    linear function of s, taken from its values at both ends. The weight w
    stays positive on every receiver the back-trace keeps, so there the
    multiplied test agrees with the test itself. A bounce passes if it is on
    one of its plane's rectangles: the hull of their intervals is kept.
    Occlusion and slabs are left out, so the window holds every receiver
    the back-trace keeps.
    """
    E = _WINDOW_SLACK
    lo, hi = np.zeros(len(tree.order)), np.full(len(tree.order), length)

    def keep(n, interval):
        np.maximum(lo[:n], interval[0], out=lo[:n])
        np.minimum(hi[:n], interval[1], out=hi[:n])

    x = np.stack([start, end], axis=-1)[:, None]  # (3, 1, ends)
    w = np.ones((1, 2))
    for s, step in enumerate(tree.steps):
        n = step.count
        x, w = x[:, :n], w[:n]
        side = _dot(step.plane.normal, x) - step.plane.offset * w
        keep(n, _positive_on(side + E * w, length))
        x = side * step.image - step.image_side * x
        w = side - step.image_side * w
        rect_lo, rect_hi = np.full(n, np.inf), np.full(n, -np.inf)
        for cand, _, rect in step.members:
            wc = w[cand]
            r = x[:, cand] - rect.origin * wc
            # The bounce's coordinates along both edges, times w, and the
            # relaxed bounds 0 <= a <= 1 on them.
            inv = np.stack([rect.inv_u2, rect.inv_v2])
            a = np.stack([_dot(r, rect.edge_u), _dot(r, rect.edge_v)]) * inv
            slack = (ON_SURFACE_TOL + E * np.sqrt(inv)) * wc
            a_lo, a_hi = _positive_on(np.concatenate([a + slack, wc + slack - a]), length)
            rect_lo[cand] = np.minimum(rect_lo[cand], a_lo.max(0))
            rect_hi[cand] = np.maximum(rect_hi[cand], a_hi.min(0))
        keep(n, (rect_lo, rect_hi))
        if s:
            keep(n, _positive_on(_dot(step.after.normal, x) - (step.after.offset - E) * w, length))
    return lo, hi


@lru_cache(maxsize=64)
def _sweep_windows(env: Environment, tx: Vec3, max_order: int,
                   height: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per stacked candidate of tx's image tree, the window [lo, hi] of
    axis distance outside of which no receiver on the centerline at the
    given height gives it a path (lo > hi if none does): the hull of its
    windows on each centerline segment, widened by _WINDOW_SLACK. Like the
    tree, they are formed once per (transmitter, receiver height)."""
    tree = _image_tree(env, tx, max_order)
    lo, hi = np.full(len(tree.order), np.inf), np.full(len(tree.order), -np.inf)
    offset = 0.0
    for seg in env.centerline:
        start = np.add(seg.origin, (0.0, 0.0, height))
        a, b = _segment_windows(tree, start, start + np.multiply(seg.direction, seg.length),
                                seg.length)
        some = a <= b
        lo[some] = np.minimum(lo[some], offset + a[some] - _WINDOW_SLACK)
        hi[some] = np.maximum(hi[some], offset + b[some] + _WINDOW_SLACK)
        offset += seg.length
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


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
