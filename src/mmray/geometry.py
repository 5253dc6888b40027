"""Minimal 3D vector algebra on plain float triples.

Scene construction and validation use these helpers, and so does
Surface.coplanar_with, by which the tracer groups surfaces into planes. The
image tree and the back-trace run on numpy arrays; the back-trace evaluates
each row elementwise in one order of operations (dot as a0*b0 + a1*b1 +
a2*b2, a point between a and b as a + t*(b - a)), so a path's numbers do not
depend on how many receivers are traced together. It does not reproduce
these scalar helpers bit for bit. cached_hash lets a frozen scene or
antenna dataclass, used as a cache key on every call, hash its fields once.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

Vec3 = Tuple[float, float, float]


def vec3(p: Sequence[float]) -> Vec3:
    """Coerce any length-3 sequence to a float tuple."""
    return (float(p[0]), float(p[1]), float(p[2]))


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(a: Vec3, s: float) -> Vec3:
    return (a[0] * s, a[1] * s, a[2] * s)


def neg(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


def dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def unit(a: Vec3) -> Vec3:
    n = norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def distance(a: Vec3, b: Vec3) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def cached_hash(cls):
    """Class decorator for a frozen dataclass: its field hash is taken once
    per instance and kept in the instance dict. Pickles leave it out, since
    a string's hash differs between interpreters; dataclasses.replace makes
    a new instance with none."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


def mirror_across_plane(p: Vec3, normal: Vec3, offset: float) -> Vec3:
    """Reflect p across the plane {x : normal . x = offset}; normal must be unit."""
    s = 2.0 * (dot(normal, p) - offset)
    return (p[0] - s * normal[0], p[1] - s * normal[1], p[2] - s * normal[2])

