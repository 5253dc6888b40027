"""Antenna systems: isotropic, vertical-dipole-like omni, and directive horn.

Patterns are cos-power shapes whose exponent is solved so the gain averaged
over the full sphere equals 1 (total radiated power is conserved). The
sphere averages have closed forms; the exponent is found by bisection.
Gains are linear power factors applied per ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .geometry import Vec3, cached_hash, norm

# Gain used behind the horn aperture (and wherever the pattern would
# otherwise underflow it): -40 dB, avoids exact zeros in coherent sums.
BACK_LOBE_GAIN = 1e-4

KINDS = ("isotropic", "omni", "horn")


@cached_hash
@dataclass(frozen=True)
class AntennaSystem:
    """One end-to-end antenna configuration (same pattern at Tx and Rx).

    boresight is the transmitter's pointing direction; the receiver faces
    back along it. The omni pattern is symmetric about the vertical axis,
    so its boresight only marks the link direction.
    """

    kind: str
    tx_power_dbm: float
    peak_gain_dbi: float
    boresight: Vec3 = (1.0, 0.0, 0.0)
    pattern_exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown antenna kind {self.kind!r}; expected one of {KINDS}")
        for name in ("tx_power_dbm", "peak_gain_dbi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        b = self.boresight
        n = norm(b)
        if not 1e-12 < n < math.inf:
            raise ValueError(f"boresight must be a non-zero finite vector, got {b}")
        object.__setattr__(self, "boresight", (b[0] / n, b[1] / n, b[2] / n))

    @property
    def tx_power_watts(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0) / 1000.0

    @property
    def peak_gain_linear(self) -> float:
        return 10.0 ** (self.peak_gain_dbi / 10.0)


def _sphere_average(kind: str, exponent: float, peak_linear: float) -> float:
    """Pattern gain averaged over the full sphere (1 = power conserved)."""
    if kind == "isotropic":
        return peak_linear
    if kind == "omni":
        # (1/4pi) * integral of G cos^n(el) over the sphere
        # = G * integral_0^{pi/2} cos^{n+1}(el) d(el).
        log_ratio = math.lgamma((exponent + 2.0) / 2.0) - math.lgamma((exponent + 3.0) / 2.0)
        return peak_linear * math.sqrt(math.pi) / 2.0 * math.exp(log_ratio)
    if kind == "horn":
        # Front hemisphere keeps max(G cos^m(psi), floor), the back is floor.
        # With u = cos(psi) the front is integral_0^1 max(G u^m, floor) du;
        # G u^m drops below the floor at u = c (the solver only asks for
        # peaks above the floor).
        floor = BACK_LOBE_GAIN
        c = (floor / peak_linear) ** (1.0 / exponent) if exponent > 0.0 else 0.0
        front = peak_linear * (1.0 - c ** (exponent + 1.0)) / (exponent + 1.0) + floor * c
        return 0.5 * front + 0.5 * floor
    raise ValueError(f"unknown antenna kind {kind!r}; expected one of {KINDS}")


def solve_pattern_exponent(kind: str, peak_gain_dbi: float) -> float:
    """Exponent making the sphere-averaged gain equal 1 for the given peak."""
    if kind == "isotropic":
        if abs(peak_gain_dbi) > 1e-9:
            raise ValueError("isotropic pattern requires 0 dBi peak gain")
        return 0.0
    peak = 10.0 ** (peak_gain_dbi / 10.0)
    f = lambda x: _sphere_average(kind, x, peak) - 1.0
    f0 = f(0.0)
    if f0 <= 0.0:
        raise ValueError(
            f"peak gain {peak_gain_dbi} dBi too low to normalize a {kind} pattern")
    hi = 64.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e7:
            raise ValueError(
                f"peak gain {peak_gain_dbi} dBi too high to normalize (beam too narrow)")
    # Bisection on [0, hi] that steps like scipy.optimize.bisect with
    # xtol=1e-9 and rtol=4*eps, so it returns the same exponents bit for bit.
    lo, step = 0.0, hi
    while True:
        step *= 0.5
        mid = lo + step
        f_mid = f(mid)
        if f_mid * f0 >= 0.0:
            lo = mid
        if f_mid == 0.0 or step < 1e-9 + 4.0 * math.ulp(1.0) * mid:
            return mid


def make_system(kind: str, tx_power_dbm: float, peak_gain_dbi: float,
                boresight: Vec3 = (1.0, 0.0, 0.0)) -> AntennaSystem:
    """Antenna system with its pattern exponent solved for power conservation."""
    return AntennaSystem(
        kind=kind,
        tx_power_dbm=tx_power_dbm,
        peak_gain_dbi=peak_gain_dbi,
        boresight=boresight,
        pattern_exponent=solve_pattern_exponent(kind, peak_gain_dbi),
    )


_PRESETS = {
    "system1": ("isotropic", 20.0, 0.0),
    "system2": ("omni", 20.0, 8.5),
    "system3": ("horn", 10.0, 20.8),
}
# The kind names double as preset aliases.
_PRESET_ALIASES = {"isotropic": "system1", "omni": "system2", "horn": "system3"}


def preset_parameters(name: str) -> Tuple[str, float, float]:
    """(kind, tx power dBm, peak gain dBi) of a preset name or kind alias."""
    key = _PRESET_ALIASES.get(name, name)
    if key not in _PRESETS:
        known = sorted(_PRESETS) + sorted(_PRESET_ALIASES)
        raise ValueError(f"unknown antenna preset {name!r} (known: {', '.join(known)})")
    return _PRESETS[key]


@lru_cache(maxsize=None)
def system_preset(name: str) -> AntennaSystem:
    """One of the three studied configurations.

    system1: isotropic, 20 dBm, 0 dBi
    system2: omnidirectional, 20 dBm, 8.5 dBi
    system3: horn, 10 dBm, 20.8 dBi
    """
    return make_system(*preset_parameters(name))


def _unit_columns(boresight) -> np.ndarray:
    """Boresight(s), one (3,) or (N, 3), scaled to unit length, as columns
    (3,) or (3, N)."""
    b = np.asarray(boresight, float).T
    # Elementwise, so a direction's gain does not depend on its batch.
    n = np.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
    bad = ~((n > 1e-12) & (n < math.inf))
    if bad.any():
        raise ValueError("boresight must be a non-zero finite vector, "
                         f"got {tuple(b.T[bad][0].tolist())}")
    return b / n


@lru_cache(maxsize=64)
def _unit_boresight(boresight: tuple) -> np.ndarray:
    """_unit_columns of a boresight tuple (a system's own, a receiver's),
    formed once and shared, so read-only."""
    b = _unit_columns(boresight)
    b.flags.writeable = False
    return b


def gain(sys: AntennaSystem,
         direction: Union[Vec3, np.ndarray],
         boresight: Optional[Vec3] = None) -> Union[float, np.ndarray]:
    """Linear power gain of the pattern in the given unit direction(s).

    direction may be one 3-vector or an (N, 3) array. boresight overrides
    the system's own pointing direction (used for the receiving end): one
    direction for all, or one per direction (N, 3). Only the horn uses it.
    """
    arr = np.asarray(direction, dtype=float)
    single = arr.ndim == 1
    pts = arr if arr.ndim == 2 else np.atleast_2d(arr)  # (N, 3), the usual case, as is
    if pts.shape[-1] != 3:
        raise ValueError(f"direction must have 3 components, got shape {arr.shape}")
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    unit = np.abs(norms - 1.0) <= 1e-6  # False for NaN
    if not unit.all():
        bad = tuple(pts[unit.argmin()].tolist())
        raise ValueError(f"direction must be a unit vector, got {bad}")

    if sys.kind == "isotropic":
        out = np.ones(pts.shape[0])
    elif sys.kind == "omni":
        cos_el = np.sqrt(np.clip(1.0 - pts[:, 2] ** 2, 0.0, 1.0))
        out = sys.peak_gain_linear * cos_el ** sys.pattern_exponent
    else:
        b = sys.boresight if boresight is None else boresight
        b = _unit_boresight(b) if type(b) is tuple else _unit_columns(b)
        cos_psi = pts[:, 0] * b[0] + pts[:, 1] * b[1] + pts[:, 2] * b[2]
        front = np.maximum(
            sys.peak_gain_linear * np.clip(cos_psi, 0.0, 1.0) ** sys.pattern_exponent,
            BACK_LOBE_GAIN)
        out = np.where(cos_psi > 0.0, front, BACK_LOBE_GAIN)
    return float(out[0]) if single else out
