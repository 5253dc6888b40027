"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written from scratch against the public
data model only (surface rectangles, path vertices), without calling into
the tracer or channel internals, so that agreement between the two code
paths is meaningful evidence rather than a tautology.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

SPEED_OF_LIGHT = 299792458.0

_EDGE_MARGIN = 1e-6  # minimizers this close to a rectangle edge are rejected


# ---------------------------------------------------------------------------
# Fermat path search
# ---------------------------------------------------------------------------

class _Rect:
    """Minimal stand-alone copy of a finite rectangular facet."""

    def __init__(self, origin, edge_u, edge_v):
        self.origin = np.asarray(origin, dtype=float)
        self.edge_u = np.asarray(edge_u, dtype=float)
        self.edge_v = np.asarray(edge_v, dtype=float)
        n = np.cross(self.edge_u, self.edge_v)
        self.normal = n / np.linalg.norm(n)
        self.offset = float(np.dot(self.normal, self.origin))

    def point(self, a, b):
        return self.origin + a * self.edge_u + b * self.edge_v

    def params(self, p):
        rel = np.asarray(p, dtype=float) - self.origin
        a = float(np.dot(rel, self.edge_u) / np.dot(self.edge_u, self.edge_u))
        b = float(np.dot(rel, self.edge_v) / np.dot(self.edge_v, self.edge_v))
        return a, b

    def same_plane(self, other):
        d = float(np.dot(self.normal, other.normal))
        if abs(abs(d) - 1.0) > 1e-9:
            return False
        sign = 1.0 if d > 0 else -1.0
        return abs(other.offset - sign * self.offset) < 1e-9


def rects_from_environment(env):
    return [_Rect(s.origin, s.edge_u, s.edge_v) for s in env.surfaces]


def _segment_hits_rect(p, q, rect, tol=1e-9):
    """True if the open segment p->q crosses the rectangle's interior."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    denom = float(np.dot(rect.normal, d))
    if abs(denom) < 1e-15:
        return False
    t = (rect.offset - float(np.dot(rect.normal, p))) / denom
    if t <= tol or t >= 1.0 - tol:
        return False
    a, b = rect.params(p + t * d)
    return tol <= a <= 1.0 - tol and tol <= b <= 1.0 - tol


def _polyline_clear(points, rects, bounce_rect_indices):
    """Check every leg of a reflection polyline for occlusion.

    A leg may graze the rectangles it bounces on at its endpoints; interior
    crossings of any rectangle disqualify the polyline.
    """
    for i in range(len(points) - 1):
        for j, rect in enumerate(rects):
            if _segment_hits_rect(points[i], points[i + 1], rect):
                return False
    return True


def _front_side(rect, p, tol=1e-9):
    return float(np.dot(rect.normal, np.asarray(p, dtype=float))) - rect.offset > tol


def _specular_at(before, pt, after, normal, tol=1e-3):
    """Reflection-law residual check at a candidate bounce point.

    Distinguishes true specular points from boundary minima the optimizer
    leaves slightly inside a facet (corner grazes have residuals > 0.01).
    """
    inc = pt - before
    inc = inc / np.linalg.norm(inc)
    out = after - pt
    out = out / np.linalg.norm(out)
    mirrored = inc - 2.0 * float(np.dot(inc, normal)) * normal
    return float(np.linalg.norm(mirrored - out)) < tol


def fermat_first_order(tx, rx, rects):
    """All valid single-bounce paths found by direct length minimization.

    Returns a list of (surface_index, length, bounce_point). A specular
    reflection off a finite facet exists exactly when the path-length
    functional has an interior minimum on that facet (Fermat), the endpoints
    lie on the reflective side, and no other facet blocks either leg.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    found = []
    grid = np.linspace(0.0, 1.0, 21)
    for idx, rect in enumerate(rects):
        if not (_front_side(rect, tx) and _front_side(rect, rx)):
            continue

        def length(ab, rect=rect):
            p = rect.point(ab[0], ab[1])
            return float(np.linalg.norm(p - tx) + np.linalg.norm(rx - p))

        # coarse grid scan, vectorized
        aa, bb = np.meshgrid(grid, grid, indexing="ij")
        pts = (rect.origin[None, None, :]
               + aa[..., None] * rect.edge_u[None, None, :]
               + bb[..., None] * rect.edge_v[None, None, :])
        tot = (np.linalg.norm(pts - tx, axis=-1)
               + np.linalg.norm(rx - pts, axis=-1))
        i0 = np.unravel_index(np.argmin(tot), tot.shape)
        res = minimize(length, x0=[grid[i0[0]], grid[i0[1]]],
                       method="L-BFGS-B", bounds=[(0.0, 1.0)] * 2,
                       options={"ftol": 1e-15, "gtol": 1e-12})
        a, b = res.x
        if not (_EDGE_MARGIN < a < 1.0 - _EDGE_MARGIN
                and _EDGE_MARGIN < b < 1.0 - _EDGE_MARGIN):
            continue  # pinned at an edge: no true specular point on the facet
        p = rect.point(a, b)
        if not _specular_at(tx, p, rx, rect.normal):
            continue
        if not _polyline_clear([tx, p, rx], rects, [idx]):
            continue
        found.append((idx, float(res.fun), p))
    return found


def fermat_second_order(tx, rx, rects):
    """All valid double-bounce paths via 4-parameter length minimization."""
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    found = []
    grid = np.linspace(0.05, 0.95, 7)
    for i, r1 in enumerate(rects):
        if not _front_side(r1, tx):
            continue
        for j, r2 in enumerate(rects):
            if i == j or r1.same_plane(r2):
                continue
            if not _front_side(r2, rx):
                continue

            def length(x, r1=r1, r2=r2):
                p1 = r1.point(x[0], x[1])
                p2 = r2.point(x[2], x[3])
                return float(np.linalg.norm(p1 - tx)
                             + np.linalg.norm(p2 - p1)
                             + np.linalg.norm(rx - p2))

            best = None
            for a1 in grid:
                for b1 in grid:
                    p1 = r1.point(a1, b1)
                    l1 = float(np.linalg.norm(p1 - tx))
                    for a2 in grid:
                        for b2 in grid:
                            p2 = r2.point(a2, b2)
                            tot = (l1 + float(np.linalg.norm(p2 - p1))
                                   + float(np.linalg.norm(rx - p2)))
                            if best is None or tot < best[0]:
                                best = (tot, (a1, b1, a2, b2))
            res = minimize(length, x0=list(best[1]), method="L-BFGS-B",
                           bounds=[(0.0, 1.0)] * 4,
                           options={"ftol": 1e-15, "gtol": 1e-12})
            x = res.x
            if not all(_EDGE_MARGIN < v < 1.0 - _EDGE_MARGIN for v in x):
                continue
            p1 = r1.point(x[0], x[1])
            p2 = r2.point(x[2], x[3])
            if np.linalg.norm(p2 - p1) < 1e-6:
                continue
            # departing legs must head to the reflective side of each facet
            if np.dot(r1.normal, p2 - p1) <= 0 or np.dot(r2.normal, p1 - p2) <= 0:
                continue
            # the reflection law must hold at both points; boundary minima
            # the optimizer parks just inside a facet (corner grazes) fail it
            if not (_specular_at(tx, p1, p2, r1.normal)
                    and _specular_at(p1, p2, rx, r2.normal)):
                continue
            if not _polyline_clear([tx, p1, p2, rx], rects, [i, j]):
                continue
            found.append(((i, j), float(res.fun), p1, p2))
    return found


def los_blocked(tx, rx, rects):
    """Direct-segment visibility: True if any facet interrupts the line."""
    return not _polyline_clear([np.asarray(tx, float), np.asarray(rx, float)],
                               rects, [])


# ---------------------------------------------------------------------------
# Narrowband power, written independently from first principles
# ---------------------------------------------------------------------------

def fresnel_te(eps_r, theta):
    c = math.cos(theta)
    s2 = math.sin(theta) ** 2
    root = math.sqrt(eps_r - s2)
    return (c - root) / (c + root)


def coherent_power_watts(paths, frequency, tx_power_dbm, surfaces):
    """Two-antenna isotropic narrowband power from raw path geometry.

    Re-derives every per-path quantity (segment lengths, incidence angles,
    reflection products, phases) from the path vertices and the surface
    planes, then forms the coherent sum

        P = T_R (lambda / 4 pi)^2 | sum_i R_i e^{-j k d_i} / d_i |^2.

    surfaces: sequence of (normal, eps_r) per surface index.
    """
    lam = SPEED_OF_LIGHT / frequency
    k = 2.0 * math.pi / lam
    t_r = 10.0 ** (tx_power_dbm / 10.0) / 1000.0
    dists = []
    refls = []
    for path in paths:
        verts = path.vertices
        d = 0.0
        for m in range(len(verts) - 1):
            ex = verts[m + 1][0] - verts[m][0]
            ey = verts[m + 1][1] - verts[m][1]
            ez = verts[m + 1][2] - verts[m][2]
            d += math.sqrt(ex * ex + ey * ey + ez * ez)
        refl = 1.0
        for m, bounce in enumerate(path.bounces):
            ex = verts[m + 1][0] - verts[m][0]
            ey = verts[m + 1][1] - verts[m][1]
            ez = verts[m + 1][2] - verts[m][2]
            n = math.sqrt(ex * ex + ey * ey + ez * ez)
            nx, ny, nz = surfaces[bounce.surface_index][0]
            cosang = min(abs((ex / n) * nx + (ey / n) * ny + (ez / n) * nz), 1.0)
            theta = min(math.acos(cosang), math.pi / 2 - 1e-12)
            refl *= fresnel_te(surfaces[bounce.surface_index][1], theta)
        dists.append(d)
        refls.append(refl)
    d = np.array(dists)
    amps = np.array(refls) * np.exp(-1j * k * d) / d
    scale = math.sqrt(t_r) * lam / (4.0 * math.pi)
    return float(abs(np.sum(scale * amps)) ** 2)


def phasor_sum_dbm(paths, frequency, tx_power_dbm, gains):
    """Coherent power in dBm of paths through slabs, one complex term per path.

        P = T_R (lambda / 4 pi)^2 | sum_i sqrt(G_i) R_i T_i(f) e^{-j k d_i} / d_i |^2

    gains: the power gain product a_t a_r of each path. R_i is the path's
    reflection_product and T_i(f) its transmission_product, so the slab
    phase enters through each crossing's own transmission coefficient.
    """
    lam = SPEED_OF_LIGHT / frequency
    k = 2.0 * math.pi / lam
    total = 0j
    for path, g in zip(paths, gains):
        total += (math.sqrt(g) * path.reflection_product * path.transmission_product(frequency)
                  * cmath.exp(-1j * k * path.length) / path.length)
    watts = 10.0 ** (tx_power_dbm / 10.0) / 1000.0 * (lam / (4.0 * math.pi)) ** 2 * abs(total) ** 2
    return 10.0 * math.log10(watts * 1000.0)


def friis_dbm(tx_power_dbm, frequency, distance):
    lam = SPEED_OF_LIGHT / frequency
    return tx_power_dbm + 20.0 * math.log10(lam / (4.0 * math.pi * distance))


# ---------------------------------------------------------------------------
# Quasi-uniform sphere sampling for pattern-average checks
# ---------------------------------------------------------------------------

def fibonacci_sphere(n):
    """n quasi-uniform unit vectors (golden-angle spiral)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def sphere_average_quad(kind, exponent, peak, floor):
    """Sphere-averaged gain of a cos-power pattern by adaptive quadrature.

    omni: peak * cos^n(elevation). horn: max(peak * cos^m(psi), floor) in
    front of the aperture and floor behind it, psi off boresight.
    """
    if kind == "omni":
        # elevation in [-pi/2, pi/2] carries solid-angle weight cos(el) / 2
        def integrand(el):
            return peak * math.cos(el) ** exponent * math.cos(el) / 2.0
        lo, hi, breaks = -math.pi / 2, math.pi / 2, [0.0]
    elif kind == "horn":
        # off-boresight angle in [0, pi] carries weight sin(psi) / 2
        def integrand(psi):
            c = math.cos(psi)
            g = max(peak * c ** exponent, floor) if c > 0.0 else floor
            return g * math.sin(psi) / 2.0
        lo, hi = 0.0, math.pi
        breaks = [math.acos((floor / peak) ** (1.0 / exponent)), math.pi / 2]
    else:
        raise ValueError(kind)
    value, _ = quad(integrand, lo, hi, points=breaks, epsabs=0.0,
                    epsrel=1e-13, limit=500)
    return value


# ---------------------------------------------------------------------------
# Delay statistics from scratch
# ---------------------------------------------------------------------------

def delay_stats_ns(delays_s, powers_w):
    """(mean excess delay, rms delay spread) in ns, power-weighted."""
    t = np.asarray(delays_s, dtype=float)
    w = np.asarray(powers_w, dtype=float)
    t0 = t.min()
    ex = t - t0
    mu = float(np.sum(w * ex) / np.sum(w))
    var = float(np.sum(w * (ex - mu) ** 2) / np.sum(w))
    return mu * 1e9, math.sqrt(max(var, 0.0)) * 1e9


def power_delay_profile_reference(taps, bin_width=0.0):
    """((delay, normalized power) entries, first arrival, rms spread, mean excess).

    A loop over the taps sorted by delay: with bin_width > 0 they go into
    dict bins counted from the first arrival, and each bin's power is the
    sum of its taps' powers in delay order, placed at their power-weighted
    centroid (at their mean delay if the bin has no power). The moments sum
    over the entries as numpy arrays, E[x^2] - E[x]^2 of the excess delay.
    Raises ValueError for no taps, a negative bin width or no power.
    """
    if not taps:
        raise ValueError("no taps")
    if bin_width < 0.0:
        raise ValueError("negative bin width")
    ordered = sorted(taps, key=lambda t: t.delay)
    first = ordered[0].delay
    if bin_width == 0.0:
        entries = [(t.delay, t.power) for t in ordered]
    else:
        bins = {}
        for t in ordered:
            bins.setdefault(int((t.delay - first) / bin_width), []).append(t)
        entries = []
        for idx in sorted(bins):
            members = bins[idx]
            total = sum(t.power for t in members)
            if total > 0.0:
                centroid = sum(t.power * t.delay for t in members) / total
            else:
                centroid = sum(t.delay for t in members) / len(members)
            entries.append((centroid, total))
    peak = max(p for _, p in entries)
    if peak <= 0.0:
        raise ValueError("no power")
    entries = tuple((d, p / peak) for d, p in entries)
    delays, powers = np.array(entries).T
    excess = delays - first
    total = powers.sum()
    mean = (powers * excess).sum() / total
    second = (powers * excess ** 2).sum() / total
    return entries, first, float(np.sqrt(max(second - mean * mean, 0.0))), float(mean)
