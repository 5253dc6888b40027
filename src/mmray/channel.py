"""Narrowband power, wideband impulse response, delay statistics, sweeps.

Each traced path becomes one complex tap. The coherent phasor sum of the
taps gives the narrowband received power; tap powers versus delay give the
power delay profile and its moments (mean excess delay, RMS delay spread).
The carrier enters a tap in two places only, the factor lambda/4pi and the
phase k L, so one kernel turns the rows of a tracer PathTable into
carrier-free factors: a real gain g per antenna system (antenna gains,
reflections, slab magnitudes, 1/d, atmospheric loss) and the optical length
L (path length plus each slab's sqrt(eps_r) t_eff). Tap powers are one
profile up to (lambda/4pi)^2, so delay moments are taken once per system.
A sweep traces receivers along the duct centerline in blocks of
consecutive positions. Each block back-traces only the image-tree
candidates whose sweep window (tracer._sweep_windows) meets its positions,
from the receivers whose direct ray crosses no metal slab, and takes as
many positions as keep the bytes of those (candidate, receiver) pairs, of
its receivers and of its results under a budget; the tracer counts a
pair's trace words (tracer._pair_words), _block_bytes the kernel's. Its
trace forms no bounce records. One block function, a pure function of its
receivers, its candidates and the settings, forms the gains once, then
the outputs its sweep names: "power" and "moments" for a grid, "moments"
for a delay-spread table and "power" for `mmray sweep`. One loop maps it
over the blocks for any worker count. The per-path functions take a list
of PathContribution; the list enumerate_paths returns carries its table
and a memo, so each system's gains, each carrier's phases and the delay
order are formed once per list, and a call finds its (system, carrier)
cell with one lookup; other sequences go through from_paths.
impulse_response's taps carry the sorted delay and power arrays they were
made from, which power_delay_profile reads in place of the tap objects.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
    _Carrier,
    _check_order,
    _lit,
    _pair_words,
    _slab_arrays,
    _slab_factors,
    _sweep_windows,
    _trace_rows,
    enumerate_paths,
)

# Sea-level 60 GHz oxygen absorption is ~0.00116 dB/m; negligible over tens
# of metres and off by default, but available for longer ducts.
ATMOSPHERIC_LOSS_DB_PER_M = 0.00116

# Sentinel power for fully blocked receiver positions.
NO_COVERAGE = float("-inf")

# A sweep works under two budgets. Receivers are traced in blocks that hold
# at most _TRACE_BYTES (1.75 MiB) of arrays, counted by _block_bytes from
# the arrays a block holds: per block, per (candidate, lit receiver) pair
# and per receiver, results included. Larger blocks cut the fixed cost per
# trace but raise the peak memory of a sweep.
_TRACE_BYTES = 7 << 18
# Within a block, phases and amplitudes are formed for at most _BLOCK_CELLS
# complex (system, carrier, path) cells at a time (128 KB).
_BLOCK_CELLS = 1 << 13


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def _dbm(milliwatts: np.ndarray) -> np.ndarray:
    """10 log10 of an array of milliwatts, in place."""
    np.log10(milliwatts, out=milliwatts)
    milliwatts *= 10.0
    return milliwatts


def watts_to_dbm(watts: float) -> float:
    """dBm of watts, NO_COVERAGE if <= 0."""
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


class ChannelTap(NamedTuple):
    """One resolvable multipath component of the impulse response."""

    delay: float        # seconds
    amplitude: complex  # sqrt-watt units, carries the propagation phase
    power: float        # |amplitude|^2, watts


class TapList(_Carrier):
    """impulse_response's taps, which carry the arrays they were made from:
    the delays (sorted) and the tap powers. arrays is None once the list no
    longer holds the taps it was made with, in their order."""

    arrays = property(_Carrier.carried)


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
    where undefined. The grid `mmray sweep` writes has powers only, and
    None for the delay statistics.
    """

    environment: str
    distances: np.ndarray
    systems: Tuple[AntennaSystem, ...]
    frequencies: Tuple[float, ...]
    power_dbm: np.ndarray
    rms_spread: Optional[np.ndarray]
    mean_excess: Optional[np.ndarray]


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

def _geo(table: PathTable, sys: AntennaSystem, away) -> np.ndarray:
    """The antenna and reflection factor of one system's gains, (rows,):
    geo_i = sqrt(T_R a_t a_r) * refl_i. away is the reversed rx boresight
    -b, one direction or one per row (rows, 3), or None for the system's
    own boresight (b its reverse). The receiving gain, of -arrival about b,
    is taken as that of arrival about -b: each term of the pattern's dot
    product only changes sign, so the bits are the same, and no arrival
    is negated."""
    return (np.sqrt(gain(sys, table.departure)
                    * gain(sys, table.arrival, sys.boresight if away is None else away))
            * table.reflection * math.sqrt(sys.tx_power_watts))


def _path_factors(table: PathTable,
                  atmospheric_loss_db_per_m: float) -> Tuple[np.ndarray, np.ndarray]:
    """The carrier-free factors of every row, (rows,) each: the real
    h_i = prod(1 - r^2) * atm(d_i) / d_i and the optical length
    L_i = d_i + sum sqrt(eps_r) t_eff, both over the row's slab crossings."""
    d = optical = table.length
    amp = np.ones_like(d)
    rows = table.crossing_row
    if len(rows):
        slabs, crossed = _slab_arrays(table.slabs), table.crossing_slab
        t, extra = _slab_factors(slabs.eps_r.take(crossed), slabs.thickness.take(crossed),
                                 table.crossing_angle, table.polarization)
        # Each row's crossings are contiguous and in path order.
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        amp[rows[first]] = np.multiply.reduceat(t, first)
        optical = d.copy()
        optical[rows[first]] += np.add.reduceat(extra, first)
    h = amp / d
    if atmospheric_loss_db_per_m > 0.0:
        h *= 10.0 ** (-atmospheric_loss_db_per_m * d / 20.0)
    return h, optical


def _phase(frequencies: np.ndarray, optical: np.ndarray) -> np.ndarray:
    """exp(-j k L), the carrier's one phase factor, of carriers broadcast
    against optical lengths."""
    x = -1j * (2.0 * math.pi * frequencies / SPEED_OF_LIGHT) * optical
    return np.exp(x, out=x)


def _wavelength_factor(frequencies: np.ndarray) -> np.ndarray:
    """(lambda/4pi)^2 of an array of carriers."""
    return (SPEED_OF_LIGHT / (4.0 * math.pi) / frequencies) ** 2


def _coherent(amps: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Coherent power in watts, (lambda/4pi)^2 |sum a|^2, of amplitudes
    a = g exp(-j k L) summed over the last axis; factor, the carriers'
    _wavelength_factor, broadcasts against the sums."""
    return np.abs(amps.sum(axis=-1)) ** 2 * factor


def _memo(cache: dict, key, make):
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
    return value


def _cell(paths: Sequence[PathContribution], sys: AntennaSystem, frequency: float,
          rx_boresight, atmospheric_loss_db_per_m: float) -> Tuple[PathTable, dict, tuple]:
    """The table of paths, its memo, and the cell of one system and carrier:
    the real gains g = geo * h and the phases exp(-j k L), (rows,) each, and
    the carrier's _wavelength_factor, (1,).

    A traced list keeps its memo, one dict under tagged keys: the cells
    per (system, rx boresight, atmospheric loss, carrier), and what they
    are formed from, the path factors per atmospheric loss, g per (system,
    rx boresight, atmospheric loss) and the phases and factor per carrier.
    Any other sequence is made a table, with a memo of its own.
    """
    table = paths.table if isinstance(paths, PathList) else None
    table, memo = (PathTable.from_paths(paths), {}) if table is None else (table, paths.memo)
    if rx_boresight is not None and type(rx_boresight) is not tuple:
        rx_boresight = tuple(np.ravel(rx_boresight).tolist())
    atmos = atmospheric_loss_db_per_m
    key = ("cell", sys, rx_boresight, atmos, frequency)
    cell = memo.get(key)
    if cell is None:
        if not atmos >= 0.0:
            raise ValueError(f"atmospheric_loss_db_per_m must be >= 0, got {atmos}")
        h, optical = _memo(memo, ("factors", atmos), lambda: _path_factors(table, atmos))
        away = None if rx_boresight is None else neg(rx_boresight)
        g = _memo(memo, ("gain", sys, rx_boresight, atmos), lambda: _geo(table, sys, away) * h)
        carrier = np.array([frequency])
        phase, factor = _memo(memo, ("carrier", frequency),
                              lambda: (_phase(carrier, optical), _wavelength_factor(carrier)))
        cell = memo[key] = (g, phase, factor)
    return table, memo, cell


def _delay_order(table: PathTable) -> tuple:
    """The rows' stable delay order, the sorted delays, and these as floats.
    Every tap list of the table carries the one read-only array."""
    delays = table.delay
    order = delays.argsort(kind="stable")
    delays = delays[order]
    delays.flags.writeable = False
    return order, delays, delays.tolist()


def received_power(paths: Sequence[PathContribution],
                   sys: AntennaSystem,
                   carrier: CarrierConfig,
                   rx_boresight: Optional[Vec3] = None,
                   atmospheric_loss_db_per_m: float = 0.0) -> float:
    """Coherent narrowband received power in dBm.

    R = (lambda/4pi)^2 * |sum_i g_i exp(-j k L_i)|^2, with the real
    g_i = sqrt(T_R a_t a_r) refl_i prod(1 - r^2) atm(d_i) / d_i and the
    optical length L_i = d_i + sum sqrt(eps_r) t_eff over the path's slab
    crossings. An empty path list (blocked receiver) returns the
    NO_COVERAGE sentinel rather than raising.
    """
    if not paths:
        return NO_COVERAGE
    _, _, (g, phase, factor) = _cell(paths, sys, carrier.frequency, rx_boresight,
                                     atmospheric_loss_db_per_m)
    # A batch of one receiver, so the sum takes the sweep's array path.
    watts = _coherent((g * phase)[None], factor)
    return watts_to_dbm(float(watts[0]))


def impulse_response(paths: Sequence[PathContribution],
                     sys: AntennaSystem,
                     carrier: CarrierConfig,
                     rx_boresight: Optional[Vec3] = None,
                     atmospheric_loss_db_per_m: float = 0.0) -> List[ChannelTap]:
    """One complex tap per traced path, sorted by delay: amplitude
    (lambda/4pi) g_i exp(-j k L_i) and power ((lambda/4pi) g_i)^2.

    Summing the tap amplitudes coherently reproduces received_power. The
    taps are a TapList, which carries their delays and powers as arrays
    for power_delay_profile.
    """
    if not paths:
        return []
    table, memo, (g, phase, _) = _cell(paths, sys, carrier.frequency, rx_boresight,
                                       atmospheric_loss_db_per_m)
    order, delays, delay_list = _memo(memo, ("delays",), lambda: _delay_order(table))
    amps = SPEED_OF_LIGHT / (4.0 * math.pi) / carrier.frequency * g[order]
    powers = amps * amps
    # tuple.__new__ makes each tap without the Python-level ChannelTap.__new__.
    return TapList((delays, powers), map(partial(tuple.__new__, ChannelTap), zip(
        delay_list, (amps * phase[order]).tolist(), powers.tolist())))


# ---------------------------------------------------------------------------
# Power delay profile and its moments
# ---------------------------------------------------------------------------

def power_delay_profile(taps: Sequence[ChannelTap],
                        bin_width: float = 0.0) -> PowerDelayProfile:
    """Normalized power versus delay; bin_width 0 keeps exact tap delays.

    Taps are taken in delay order, ties in their given order. An intact
    TapList is read from the arrays it carries, already in that order; any
    other sequence of taps is read tap by tap and sorted. With a positive
    bin_width, tap powers are summed within consecutive bins starting at
    the first arrival and each bin is placed at the power-weighted
    centroid of its taps.
    """
    if not taps:
        raise ValueError("cannot build a power delay profile from zero taps")
    if not bin_width >= 0.0:
        raise ValueError(f"bin_width must be >= 0, got {bin_width}")
    arrays = taps.arrays if isinstance(taps, TapList) else None
    if arrays is None:
        delays, powers = np.array([(t.delay, t.power) for t in taps], float).T
        order = delays.argsort(kind="stable")
        delays, powers = delays[order], powers[order]
    else:  # already in delay order: a stable argsort would keep it
        delays, powers = arrays
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
    # [()] keeps a single profile's moments numpy scalars, not 0-d arrays.
    total = np.where(total > 0.0, total, np.nan)[()]
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
    """(receivers, row indices (receivers, n)) for each row count n > 0:
    gathering x[..., rows] lays each receiver's n rows out as one dense last
    axis, so a .sum over it adds them in the same order as for it alone."""
    starts = np.cumsum(counts) - counts
    for n in sorted(set(counts.tolist()) - {0}):
        receivers = np.flatnonzero(counts == n)
        yield receivers, starts[receivers, None] + np.arange(n)


def _sweep_block(ctx: tuple, job: tuple) -> tuple:
    """A sweep's block: the receivers' results that ctx's outputs name, in
    this order: "power", the coherent powers (dBm) [receiver, system,
    frequency]; "moments", the RMS delay spread and mean excess delay (s)
    [receiver, system]. ctx is (outputs, env, tx, systems, frequencies,
    polarization, max_order, atmospheric loss in dB/m), job the block's
    (receivers, the centerline direction at each, which is their reversed
    boresight, stacked candidates to back-trace). The block traces once
    and forms the path factors and each system's gains g once. A
    receiver's values depend only on its own rows, so results merge
    identically for any block and worker count."""
    outputs, env, tx, systems, frequencies, pol, max_order, atmos = ctx
    rx, direction, live = job
    table = _trace_rows(env, tx, rx, max_order, pol, live)
    h, optical = _path_factors(table, atmos)
    away = direction.take(table.receiver, 0)
    g = np.empty((len(systems), len(h)))
    for s, sys in enumerate(systems):
        np.multiply(_geo(table, sys, away), h, out=g[s])
    groups = list(_receiver_rows(table.counts()))
    results = ()
    if "power" in outputs:
        power = _powers(g, optical, groups, np.array(frequencies), len(rx))
        results += (np.moveaxis(power, -1, 0),)
    if "moments" in outputs:
        results += tuple(x.T for x in _moments(table, g, groups))
    return results


def _moments(table: PathTable, g: np.ndarray, groups: list) -> np.ndarray:
    """The RMS delay spread and mean excess delay (s) of g^2, (2, systems,
    receivers), NaN without rows."""
    delays = table.delay
    moments = np.full((2, len(g), len(table.rx)), math.nan)
    for receivers, rows in groups:
        d = delays[rows]
        moments[..., receivers] = _delay_moments(d, g[:, rows] ** 2, d.min(axis=-1, keepdims=True))
    return moments


def _powers(g: np.ndarray, optical: np.ndarray, groups: list, freqs: np.ndarray,
            receivers: int) -> np.ndarray:
    """Coherent powers (dBm), (systems, frequencies, receivers), NO_COVERAGE
    without rows; phases formed in chunks of at most _BLOCK_CELLS cells."""
    coherent = np.zeros((len(g), len(freqs), receivers))
    factor = _wavelength_factor(freqs[:, None])
    for group, rows in groups:
        step = max(1, _BLOCK_CELLS // (len(g) * len(freqs) * rows.shape[1]))
        for i in range(0, len(group), step):
            chunk, r = group[i:i + step], rows[i:i + step]
            # C order, so each receiver's rows are summed as a dense last axis.
            a = np.multiply(g[:, None, r], _phase(freqs[:, None, None], optical[r]), order="C")
            coherent[..., chunk] = _coherent(a, factor)  # a is (S, F, receivers, n)
    coherent *= 1000.0
    with np.errstate(divide="ignore"):  # no rows (no coverage): zero power, NO_COVERAGE
        return _dbm(coherent)


def _block_bytes(env: Environment, tx: Vec3, max_order: int, systems: int,
                 results: int) -> Tuple[int, int, int]:
    """The bytes a sweep block holds at its peak, as (per block, per pair,
    per receiver), from the 8-byte words of the arrays it holds. A
    (candidate, lit receiver) pair is counted as if it were traced into a
    row, at the most of what the trace holds for it (tracer._pair_words)
    and what the channel kernel holds: the row's table fields (10), its
    path factors (2) and rx boresight (3), a gain per system, the gains'
    temporaries (12), and with slabs a crossing (3) and the optical length
    (1). A receiver holds its position twice, its index, its row count and
    first row (9) and the block's results, `results` floats; a block holds
    numpy's iteration buffers for strided operands (64 KiB). The kernel's
    chunk arrays, at most 2 x 16 B x _BLOCK_CELLS = 256 KiB of amplitudes
    and phases, are not counted, so a block with few rows can hold more
    than its count."""
    words = max(_pair_words(env, tx, max_order), 27 + systems + (4 if env.obstacles else 0))
    return 1 << 16, 8 * words, 8 * (9 + results)


def _trace_jobs(env: Environment, tx: Vec3, max_order: int, distances: np.ndarray,
                rx: np.ndarray, direction: np.ndarray, height: float,
                block_bytes: Tuple[int, int, int]) -> tuple:
    """The trace blocks of a sweep: (slices, jobs). A block holds consecutive
    positions and back-traces only the candidates whose sweep window holds
    one of them, from the receivers whose direct ray crosses no metal slab.
    From its first position it takes the most positions that fit
    _TRACE_BYTES, at least one, counting block_bytes (per block, per pair,
    per receiver): its pairs are those candidates times those lit
    receivers."""
    lo, hi = _sweep_windows(env, tx, max_order, height)
    first = np.searchsorted(distances, lo)            # first position in a window
    stop = np.searchsorted(distances, hi, "right")    # one past its last
    stop[first >= stop] = 0                           # no position in it
    lit = np.zeros(len(distances) + 1, int)           # lit positions before each
    lit[1 + _lit(_slab_arrays(env.obstacles), tx, rx)] = 1
    lit = lit.cumsum()
    fixed, pair, receiver = block_bytes
    slices, jobs, i = [], [], 0
    while i < len(distances):
        # Bytes of the blocks [i, end) for every end: live candidates grow with end.
        ends = np.arange(i + 1, len(distances) + 1)
        live = np.searchsorted(np.sort(first[stop > i]), ends)
        held = fixed + live * (lit[ends] - lit[i]) * pair + (ends - i) * receiver
        end = i + max(1, int(np.count_nonzero(held <= _TRACE_BYTES)))
        live = np.flatnonzero((stop > i) & (first < end))
        slices.append(slice(i, end))
        jobs.append((rx[i:end], direction[i:end], live))
        i = end
    return slices, jobs


def _sweep_plan(outputs: Tuple[str, ...], env: Environment, systems: Sequence[AntennaSystem],
                frequencies: Sequence[float], n_samples: int = 1024, rx_start: float = 1.0,
                rx_height: float = 1.5, tx: Vec3 = (0.0, 0.0, 2.0),
                polarization: Polarization = Polarization.TE, max_order: int = 2,
                workers: int = 1, atmospheric: bool = False) -> tuple:
    """_sweep's checks and its trace blocks: (distances, systems,
    frequencies, _sweep_block bound to the sweep's outputs and settings,
    slices, jobs)."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples!r}")
    if not systems:
        raise ValueError("at least one antenna system is required")
    if not frequencies:
        raise ValueError("at least one frequency is required")
    if not 0.0 < rx_start < env.axis_length:
        raise ValueError(f"rx_start must be in (0, {env.axis_length}), got {rx_start}")
    if math.isfinite(env.height) and not 0.0 < rx_height < env.height:
        raise ValueError(f"rx_height must be in (0, {env.height}), got {rx_height}")
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")

    tx, systems = vec3(tx), tuple(systems)
    frequencies = tuple(CarrierConfig(float(f)).frequency for f in frequencies)
    distances = np.linspace(rx_start, env.axis_length, n_samples)
    rx, direction = env._axis(distances, rx_height)
    atmos = ATMOSPHERIC_LOSS_DB_PER_M if atmospheric else 0.0
    # Floats per receiver: the delay moments 2 per system, the powers 1 per cell.
    results = len(systems) * (2 * ("moments" in outputs)
                              + len(frequencies) * ("power" in outputs))
    _check_order(max_order)
    slices, jobs = _trace_jobs(env, tx, int(max_order), distances, rx, direction, rx_height,
                               _block_bytes(env, tx, int(max_order), len(systems), results))
    block = partial(_sweep_block, (outputs, env, tx, systems, frequencies, polarization,
                                   max_order, atmos))
    return distances, systems, frequencies, block, slices, jobs


def _sweep(outputs: Tuple[str, ...], env: Environment, systems: Sequence[AntennaSystem],
           frequencies: Sequence[float], workers: int = 1, **sweep) -> tuple:
    """The sweep front end of run_sweep_grid, delay_spread_table and `mmray
    sweep`, forming the outputs _sweep_block names: returns (distances,
    systems, frequencies, the blocks' results merged in position order)."""
    distances, systems, frequencies, block, slices, jobs = _sweep_plan(
        outputs, env, systems, frequencies, workers=workers, **sweep)
    # Each block's results go into their slice of arrays shaped as the first's.
    arrays = ()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for part, results in zip(slices, (pool.map if pool else map)(block, jobs)):
            arrays = arrays or tuple(np.empty((len(distances),) + x.shape[1:]) for x in results)
            for out, x in zip(arrays, results):
                out[part] = x
    return distances, systems, frequencies, arrays


def run_sweep_grid(env: Environment, systems: Sequence[AntennaSystem],
                   frequencies: Sequence[float], n_samples: int = 1024,
                   rx_start: float = 1.0, rx_height: float = 1.5,
                   tx: Vec3 = (0.0, 0.0, 2.0), polarization: Polarization = Polarization.TE,
                   max_order: int = 2, workers: int = 1,
                   atmospheric: bool = False) -> SweepGrid:
    """Evaluate every (position, system, frequency) combination of a sweep.

    Positions are traced in blocks of receivers, and each block's paths
    serve all systems and frequencies. With workers > 1 blocks are evaluated
    in a process pool; results are merged in position order, so the output
    is identical for any worker count. The delay moments do not depend on
    the carrier, so they are repeated across the frequency axis.
    """
    distances, systems, frequencies, (power, *moments) = _sweep(
        ("power", "moments"), env, systems, frequencies, n_samples=n_samples,
        rx_start=rx_start, rx_height=rx_height, tx=tx, polarization=polarization,
        max_order=max_order, workers=workers, atmospheric=atmospheric)
    rms, excess = (np.repeat(x[..., None], len(frequencies), -1) for x in moments)
    return SweepGrid(env.name, distances, systems, frequencies, power, rms, excess)


def delay_spread_table(envs: Sequence[Environment],
                       systems: Sequence[AntennaSystem],
                       frequencies: Sequence[float],
                       aggregate: str = "mean",
                       **sweep) -> DelaySpreadTable:
    """Sweep-aggregated RMS delay spread per (environment, system, frequency).

    Each environment is swept as by run_sweep_grid, with its keywords,
    checks and defaults (n_samples, rx_start, rx_height, tx, polarization,
    max_order, workers, atmospheric), but a block is only traced and its
    delay moments taken. Spreads do not depend on the carrier, so each
    (environment, system) is aggregated once for every frequency. Positions
    without coverage are excluded; aggregate is "mean" (default) or
    "median" over the per-position spreads.
    """
    if not envs:
        raise ValueError("at least one environment is required")
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    values = np.full((len(envs), len(systems), len(frequencies)), math.nan)
    for i, env in enumerate(envs):
        rms, _ = _sweep(("moments",), env, systems, frequencies, **sweep)[3]
        for s, col in enumerate(rms.T):
            col = col[np.isfinite(col)]
            if col.size:
                values[i, s] = float(np.mean(col) if aggregate == "mean" else np.median(col)) * 1e9
    return DelaySpreadTable(tuple(e.name for e in envs), tuple(s.kind for s in systems),
                            tuple(float(f) for f in frequencies), values, aggregate)
