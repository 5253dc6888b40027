"""Narrowband power, wideband impulse response, delay statistics, sweeps.

Each traced path becomes one complex tap. The coherent phasor sum of the
taps gives the narrowband received power; tap powers versus delay give the
power delay profile and its moments (mean excess delay, RMS delay spread).
One kernel turns the rows of a tracer PathTable into tap amplitudes: a real
factor per antenna system (gains, reflections, transmit power) times a
complex factor per carrier (spreading, phase, slab transmission). A sweep
slides the receiver along the duct centerline: it traces the positions in
blocks sized by a byte budget over what a block holds (the tracer's arrays
per (candidate, receiver) pair and the kernel's per-carrier factors). A
block, a pure function of its receivers and the sweep's settings, evaluates
its factors once and forms amplitudes and per-receiver sums in chunks of
receivers; one loop maps it over the blocks for any worker count.
The per-path functions take a list of PathContribution. The list that
enumerate_paths returns carries its table and the factors formed from it, so
calls for several systems and carriers on one list evaluate each system's
gains and each carrier's phases once; other sequences go through from_paths.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .antenna import AntennaSystem, gain
from .geometry import Vec3, neg, vec3
from .scene import Environment
from .tracer import (  # noqa: F401  enumerate_paths stays importable from here
    SPEED_OF_LIGHT,
    PathContribution,
    PathList,
    PathTable,
    Polarization,
    candidate_count,
    enumerate_paths,
    trace_receivers,
)

# Sea-level 60 GHz oxygen absorption is ~0.00116 dB/m; negligible over tens
# of metres and off by default, but available for longer ducts.
ATMOSPHERIC_LOSS_DB_PER_M = 0.00116

# Sentinel power for fully blocked receiver positions.
NO_COVERAGE = float("-inf")

# A sweep works under two budgets. Receivers are traced in blocks that hold
# at most _TRACE_BYTES (1.75 MiB) of arrays. A block of R receivers and C
# image-tree candidates of up to max_order reflections is counted as C * R
# (candidate, receiver) pairs. Each pair is counted as _SEGMENT_BYTES per path
# segment (max_order + 1 of them) for the tracer's arrays at their peak, and as
# _CARRIER_BYTES per carrier for the kernel's complex (carrier, row) factors,
# of which three are alive at once (a pair gives at most one row). Larger
# blocks cut the fixed cost per trace but raise the peak memory of a sweep.
_TRACE_BYTES = 7 << 18
_SEGMENT_BYTES = 96
_CARRIER_BYTES = 48
# Within a block, tap amplitudes are formed for at most _BLOCK_CELLS complex
# (system, carrier, path) cells at a time (128 KB).
_BLOCK_CELLS = 1 << 13


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    """dBm of watts, NO_COVERAGE if <= 0; an array of powers > 0 gives an array."""
    if isinstance(watts, np.ndarray):
        return 10.0 * np.log10(watts * 1000.0)
    if watts <= 0.0:
        return NO_COVERAGE
    return float(10.0 * np.log10(watts * 1000.0))


@dataclass(frozen=True)
class CarrierConfig:
    """Carrier frequency with derived wavelength and wavenumber."""

    frequency: float  # Hz

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency < math.inf:
            raise ValueError(f"carrier frequency must be > 0 and finite, got {self.frequency}")

    @cached_property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @cached_property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class ChannelTap:
    """One resolvable multipath component of the impulse response."""

    delay: float        # seconds
    amplitude: complex  # sqrt-watt units, carries the propagation phase
    power: float        # |amplitude|^2, watts


@dataclass(frozen=True)
class PowerDelayProfile:
    """Normalized tap power versus delay (strongest entry = 1)."""

    taps: Tuple[Tuple[float, float], ...]  # (delay s, normalized power)
    bin_width: float
    first_arrival: float

    @cached_property
    def _moments(self) -> Tuple[float, float]:
        """(RMS delay spread, mean excess delay) of a profile built by hand;
        power_delay_profile sets them from the arrays it forms."""
        if not self.taps:
            raise ValueError("empty power delay profile")
        delays, powers = np.array(self.taps).T
        return tuple(map(float, _delay_moments(delays, powers, self.first_arrival)))


@dataclass(eq=False)
class SweepGrid:
    """Full sweep over (position, antenna system, frequency).

    Arrays are indexed [position, system, frequency]. Power is in dBm with
    -inf marking no coverage; delay statistics are in seconds with NaN
    where undefined.
    """

    environment: str
    distances: np.ndarray
    systems: Tuple[AntennaSystem, ...]
    frequencies: Tuple[float, ...]
    power_dbm: np.ndarray
    rms_spread: np.ndarray
    mean_excess: np.ndarray


@dataclass(eq=False)
class DelaySpreadTable:
    """Sweep-aggregated RMS delay spread in ns per (environment, system, frequency)."""

    environments: Tuple[str, ...]
    system_labels: Tuple[str, ...]
    frequencies: Tuple[float, ...]
    values_ns: np.ndarray  # [environment, system, frequency]
    aggregate: str

    def cell(self, environment: str, system_label: str, frequency: float) -> float:
        i = self.environments.index(environment)
        j = self.system_labels.index(system_label)
        k = self.frequencies.index(frequency)
        return float(self.values_ns[i, j, k])


# ---------------------------------------------------------------------------
# Tap construction
# ---------------------------------------------------------------------------

def _geo(table: PathTable, sys: AntennaSystem, rx_boresight) -> np.ndarray:
    """The real factor of one system's tap amplitudes, (rows,):
    geo_i = sqrt(T_R a_t a_r) * refl_i. rx_boresight is one direction, one
    per row (rows, 3), or None for the system's own reversed boresight."""
    b = neg(sys.boresight) if rx_boresight is None else rx_boresight
    return (np.sqrt(gain(sys, table.departure) * gain(sys, -table.arrival, b))
            * table.reflection * math.sqrt(sys.tx_power_watts))


def _prop(table: PathTable, frequencies: Sequence[float],
          atmospheric_loss_db_per_m: float) -> np.ndarray:
    """The complex factor of the tap amplitudes, (carriers, rows):
    prop_i = (lambda/4pi) * trans_i * exp(-j k d_i) / d_i, times the
    atmospheric loss, if any."""
    d = table.length
    # Evaluated left to right; exp and the division work in place. The
    # complex product does not: numpy rounds a one-element complex product
    # written over its operand differently.
    freqs = np.array(frequencies, float).reshape(-1, 1)
    k = 2.0 * math.pi * freqs / SPEED_OF_LIGHT
    prop = -1j * k * d
    np.exp(prop, out=prop)
    prop = SPEED_OF_LIGHT / (4.0 * math.pi) / freqs * table.transmission(frequencies) * prop
    prop /= d
    if atmospheric_loss_db_per_m > 0.0:
        prop *= 10.0 ** (-atmospheric_loss_db_per_m * d / 20.0)
    return prop


def _amplitudes(paths: Sequence[PathContribution], sys: AntennaSystem,
                frequency: float, rx_boresight,
                atmospheric_loss_db_per_m: float) -> Tuple[PathTable, np.ndarray]:
    """The table of paths and its complex tap amplitudes (sqrt-watt) of one
    system and carrier, (rows,).

    A traced list keeps in its memo the two factors of the amplitudes: the
    geo per (system, rx boresight) and the prop per (carrier, atmospheric
    loss).
    """
    table = paths.table if isinstance(paths, PathList) else None
    if table is None:
        table, (systems, props) = PathTable.from_paths(paths), ({}, {})
    else:
        systems, props = paths.memo
    if rx_boresight is not None and type(rx_boresight) is not tuple:
        rx_boresight = tuple(np.ravel(rx_boresight).tolist())
    system_key = (sys, rx_boresight)
    carrier_key = (frequency, atmospheric_loss_db_per_m)
    geo = systems.get(system_key)
    if geo is None:
        geo = systems[system_key] = _geo(table, sys, rx_boresight)
    prop = props.get(carrier_key)
    if prop is None:
        prop = props[carrier_key] = _prop(table, (frequency,), atmospheric_loss_db_per_m)[0]
    return table, geo * prop


def received_power(paths: Sequence[PathContribution],
                   sys: AntennaSystem,
                   carrier: CarrierConfig,
                   rx_boresight: Optional[Vec3] = None,
                   atmospheric_loss_db_per_m: float = 0.0) -> float:
    """Coherent narrowband received power in dBm.

    R = T_R * (lambda/4pi)^2 * |sum_i sqrt(a_t a_r) refl_i trans_i
        exp(-j k d_i)/d_i|^2. An empty path list (blocked receiver) returns
    the NO_COVERAGE sentinel rather than raising.
    """
    if not paths:
        return NO_COVERAGE
    _, amps = _amplitudes(paths, sys, carrier.frequency, rx_boresight,
                          atmospheric_loss_db_per_m)
    return watts_to_dbm(np.abs(amps.sum()) ** 2)


def impulse_response(paths: Sequence[PathContribution],
                     sys: AntennaSystem,
                     carrier: CarrierConfig,
                     rx_boresight: Optional[Vec3] = None,
                     atmospheric_loss_db_per_m: float = 0.0) -> List[ChannelTap]:
    """One complex tap per traced path, sorted by delay.

    Summing the tap amplitudes coherently reproduces received_power.
    """
    if not paths:
        return []
    table, amps = _amplitudes(paths, sys, carrier.frequency, rx_boresight,
                              atmospheric_loss_db_per_m)
    delays = table.delay
    order = delays.argsort(kind="stable")
    amps = amps[order]
    return list(map(ChannelTap, delays[order].tolist(), amps.tolist(),
                    (np.abs(amps) ** 2).tolist()))


# ---------------------------------------------------------------------------
# Power delay profile and its moments
# ---------------------------------------------------------------------------

def power_delay_profile(taps: Sequence[ChannelTap],
                        bin_width: float = 0.0) -> PowerDelayProfile:
    """Normalized power versus delay; bin_width 0 keeps exact tap delays.

    With a positive bin_width, tap powers are summed within consecutive
    bins starting at the first arrival and each bin is placed at the
    power-weighted centroid of its taps.
    """
    if not taps:
        raise ValueError("cannot build a power delay profile from zero taps")
    if not bin_width >= 0.0:
        raise ValueError(f"bin_width must be >= 0, got {bin_width}")
    delays, powers = np.array([(t.delay, t.power) for t in taps], float).T
    order = delays.argsort(kind="stable")
    delays, powers = delays[order], powers[order]
    first = delays[0]

    if bin_width > 0.0:
        # Each bin sums its taps in delay order, as bincount adds its weights
        # in input order. A bin without power sits at its taps' mean delay.
        bins = np.unique(((delays - first) / bin_width).astype(int),
                         return_inverse=True)[1]
        total = np.bincount(bins, powers)
        weights = np.where(total[bins] > 0.0, powers, 1.0)
        delays = np.bincount(bins, weights * delays) / np.bincount(bins, weights)
        powers = total

    peak = powers.max()
    if peak <= 0.0:
        raise ValueError("all taps have zero power")
    powers = powers / peak
    pdp = PowerDelayProfile(
        taps=tuple(zip(delays.tolist(), powers.tolist())),
        bin_width=bin_width,
        first_arrival=float(first),
    )
    pdp.__dict__["_moments"] = tuple(map(float, _delay_moments(delays, powers, first)))
    return pdp


def _delay_moments(delays: np.ndarray, powers: np.ndarray,
                   first_arrival) -> Tuple[np.ndarray, np.ndarray]:
    """RMS delay spread and mean excess delay of tap powers (..., N) at delays (..., N).

    Sums run over the last axis; first_arrival broadcasts against delays.
    Both are NaN where the total power is zero. The moments are taken of
    the excess delay, which keeps the cancellation in E[x^2] - E[x]^2 far
    below a femtosecond (a single tap gives exactly 0).
    """
    excess = delays - first_arrival
    total = powers.sum(axis=-1)
    total = np.where(total > 0.0, total, np.nan)
    mean = (powers * excess).sum(axis=-1) / total
    second = (powers * excess ** 2).sum(axis=-1) / total
    rms = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return rms, mean


def rms_delay_spread(pdp: PowerDelayProfile) -> float:
    """Square root of the second central moment of the delay profile."""
    return pdp._moments[0]


def mean_excess_delay(pdp: PowerDelayProfile) -> float:
    """Power-weighted mean delay relative to the first arrival."""
    return pdp._moments[1]


# ---------------------------------------------------------------------------
# Receiver sweeps
# ---------------------------------------------------------------------------

def _receiver_rows(counts: np.ndarray):
    """(receivers, row indices (receivers, n)) for each row count n > 0.

    Gathering x[..., rows] lays each receiver's n rows out as one dense last
    axis, so a .sum over it adds them in the same order as for that receiver
    alone.
    """
    starts = np.cumsum(counts) - counts
    for n in sorted(set(counts.tolist()) - {0}):
        receivers = np.flatnonzero(counts == n)
        yield receivers, starts[receivers, None] + np.arange(n)


def _sweep_block(ctx: tuple, job: Tuple[np.ndarray, np.ndarray]) -> tuple:
    """Powers (dBm) and delay moments (s) of a block of receiver positions.

    ctx is (env, tx, systems, frequencies, polarization, max_order,
    atmospheric loss in dB/m), job the block's (receivers, rx boresights).
    Each result is an array indexed [receiver, system, frequency]. The tap
    factors are evaluated once for the block; amplitudes are formed per
    row-count group, a chunk of at most _BLOCK_CELLS cells at a time. A
    receiver's values depend only on its own rows, so results merge
    identically for any block, chunk and worker count.
    """
    env, tx, systems, frequencies, pol, max_order, atmos = ctx
    rx, rx_boresight = job
    table = trace_receivers(env, tx, rx, max_order, pol)
    b = rx_boresight[table.receiver]
    geo = np.array([_geo(table, sys, b) for sys in systems])
    prop = _prop(table, frequencies, atmos)
    # The amplitudes need only the delays and the rows per receiver.
    delays, counts = table.delay, table.counts()
    del table
    shape = (len(systems), len(frequencies), len(rx))
    coherent = np.zeros(shape)
    rms = np.full(shape, math.nan)
    excess = np.full(shape, math.nan)
    for receivers, rows in _receiver_rows(counts):
        step = max(1, _BLOCK_CELLS // (len(systems) * len(frequencies) * rows.shape[1]))
        for i in range(0, len(receivers), step):
            chunk, r = receivers[i:i + step], rows[i:i + step]
            # C order, so each receiver's rows are summed as a dense last axis.
            a = np.multiply(geo[:, None, r], prop[:, r], order="C")  # (S, F, receivers, n)
            coherent[..., chunk] = np.abs(a.sum(axis=-1)) ** 2
            d = delays[r]
            rms[..., chunk], excess[..., chunk] = _delay_moments(
                d, np.abs(a) ** 2, d.min(axis=-1, keepdims=True))
    # No rows (no coverage) leaves zero power: NO_COVERAGE and NaN moments.
    power = np.full(shape, NO_COVERAGE)
    covered = ~(coherent <= 0.0)
    power[covered] = watts_to_dbm(coherent[covered])
    return tuple(np.moveaxis(x, -1, 0) for x in (power, rms, excess))


def _block_receivers(candidates: int, max_order: int, carriers: int) -> int:
    """Receivers per trace block under _TRACE_BYTES, at least one."""
    pair_bytes = _SEGMENT_BYTES * (max_order + 1) + _CARRIER_BYTES * carriers
    return max(1, _TRACE_BYTES // (candidates * pair_bytes))


def run_sweep_grid(env: Environment,
                   systems: Sequence[AntennaSystem],
                   frequencies: Sequence[float],
                   n_samples: int = 1024,
                   rx_start: float = 1.0,
                   rx_height: float = 1.5,
                   tx: Vec3 = (0.0, 0.0, 2.0),
                   polarization: Polarization = Polarization.TE,
                   max_order: int = 2,
                   workers: int = 1,
                   atmospheric: bool = False) -> SweepGrid:
    """Evaluate every (position, system, frequency) combination of a sweep.

    Positions are traced in blocks of receivers, and each block's paths
    serve all systems and frequencies. With workers > 1 blocks are evaluated
    in a process pool; results are merged in position order, so the output
    is identical for any worker count.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if not systems:
        raise ValueError("at least one antenna system is required")
    if not frequencies:
        raise ValueError("at least one frequency is required")
    if not 0.0 < rx_start < env.axis_length:
        raise ValueError(
            f"rx_start must be in (0, {env.axis_length}), got {rx_start}")
    if math.isfinite(env.height) and not 0.0 < rx_height < env.height:
        raise ValueError(
            f"rx_height must be in (0, {env.height}), got {rx_height}")

    tx = vec3(tx)
    systems = tuple(systems)
    frequencies = tuple(CarrierConfig(float(f)).frequency for f in frequencies)
    distances = np.linspace(rx_start, env.axis_length, n_samples)
    rx = np.array([env.axis_point(float(s), height=rx_height) for s in distances])
    rx_boresight = np.array([neg(env.axis_direction(float(s))) for s in distances])
    atmos = ATMOSPHERIC_LOSS_DB_PER_M if atmospheric else 0.0
    block = partial(_sweep_block, (env, tx, systems, frequencies, polarization, max_order, atmos))
    size = _block_receivers(candidate_count(env, tx, max_order), max_order, len(frequencies))
    starts = range(0, n_samples, size)
    jobs = [(rx[i:i + size], rx_boresight[i:i + size]) for i in starts]

    # Each block's results go straight into their slice of the grid.
    grid = tuple(np.empty((n_samples, len(systems), len(frequencies))) for _ in range(3))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for i, results in zip(starts, (pool.map if pool else map)(block, jobs)):
            for out, x in zip(grid, results):
                out[i:i + size] = x

    power, rms, excess = grid
    return SweepGrid(
        environment=env.name,
        distances=distances,
        systems=systems,
        frequencies=frequencies,
        power_dbm=power,
        rms_spread=rms,
        mean_excess=excess,
    )


def delay_spread_table(envs: Sequence[Environment],
                       systems: Sequence[AntennaSystem],
                       frequencies: Sequence[float],
                       aggregate: str = "mean",
                       **sweep) -> DelaySpreadTable:
    """Sweep-aggregated RMS delay spread per (environment, system, frequency).

    Each environment is swept by run_sweep_grid, which takes the remaining
    keywords unchanged (n_samples, rx_start, rx_height, tx, polarization,
    max_order, workers, atmospheric) with its own defaults. Positions
    without coverage are excluded from the aggregate; aggregate is "mean"
    (default) or "median" over the per-position spreads.
    """
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    values = np.empty((len(envs), len(systems), len(frequencies)))
    for i, env in enumerate(envs):
        grid = run_sweep_grid(env, systems, frequencies, **sweep)
        for s in range(len(systems)):
            for f in range(len(frequencies)):
                col = grid.rms_spread[:, s, f]
                col = col[np.isfinite(col)]
                if col.size == 0:
                    values[i, s, f] = math.nan
                    continue
                agg = np.mean(col) if aggregate == "mean" else np.median(col)
                values[i, s, f] = float(agg) * 1e9
    return DelaySpreadTable(
        environments=tuple(e.name for e in envs),
        system_labels=tuple(s.kind for s in systems),
        frequencies=tuple(float(f) for f in frequencies),
        values_ns=values,
        aggregate=aggregate,
    )
