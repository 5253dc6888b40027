"""The benchmark's workloads: seeded inputs, timed requests and output checks.

Each workload is a closed loop with one caller. `prepare` runs untimed: it
checks the shipped scenarios against CSV digests recorded in
reference.json, evaluates the seeded inputs once, checks those results and
keeps them as the expected output of every timed request. A request that
raises or whose output differs counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import shutil
import traceback
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from mmray import channel, cli, tracer

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WIDEBAND = tuple(60e9 + 1e9 * k for k in range(31))  # 60-90 GHz, 1 GHz step
PDP_ENVIRONMENTS = {
    # Axial ranges with a line-of-sight path, so every PDP is defined: the
    # bent duct's first leg ends at 22 m and the lift cabin at 20 m is metal.
    "straight_tunnel": (1.0, 43.5),
    "bent_tunnel": (1.0, 20.0),
    "plain_corridor": (1.0, 43.5),
    "obstacle_corridor": (1.0, 19.5),
}
PDP_QUERIES_PER_ENV = 128
POOL_WORKERS = 2
# The grid and the per-call functions sum in different orders; delay moments
# lose digits to cancellation when one path dominates, so their tolerance has
# a one-femtosecond floor.
POWER_TOL_DB = 1e-9
DELAY_REL_TOL = 1e-9
DELAY_ABS_TOL_S = 1e-15


@dataclass
class Request:
    """One timed call a caller waits for, with the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # error message, or None if correct
    positions: int
    cells_per_path: int  # systems x carriers evaluated per traced path


class Ledger:
    """Attempted and failed operation counts, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, label: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {error}")

    def call(self, label: str, fn: Callable[[], object],
             check: Optional[Callable[[object], Optional[str]]] = None):
        """Run an untimed operation; returns its output, or None if it failed."""
        try:
            out = fn()
        except Exception:
            self.record(label, traceback.format_exc(limit=3))
            return None
        error = check(out) if check is not None else None
        self.record(label, error)
        return None if error else out


class Reference:
    """CSV digests recorded for the shipped scenarios, by file name."""

    def __init__(self) -> None:
        self.digests: Dict[str, str] = json.loads(REFERENCE.read_text())

    def check(self, prefix: str, suffix: str = ".csv"
              ) -> Callable[[Dict[str, str]], Optional[str]]:
        """A check against every recorded file named prefix...suffix; a missing one fails."""
        expected = {k: v for k, v in self.digests.items()
                    if k.startswith(prefix) and k.endswith(suffix)}

        def check(actual: Dict[str, str]) -> Optional[str]:
            if not expected:
                return f"reference.json records no file {prefix}*{suffix}"
            return compare(actual, expected)
        return check


def digests(files: Sequence[Path]) -> Dict[str, str]:
    return {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for f in files}


def compare(actual: Dict[str, str], expected: Dict[str, str]) -> Optional[str]:
    bad = sorted(k for k in set(actual) | set(expected)
                 if actual.get(k) != expected.get(k))
    return f"CSV bytes differ from the expected output: {', '.join(bad)}" if bad else None


def load_config(name: str) -> cli.ScenarioConfig:
    return cli.parse_scenario((SCENARIOS / f"{name}.yaml").read_text())


def jitter_tx(config: cli.ScenarioConfig, rng: random.Random) -> cli.ScenarioConfig:
    """Move the transmitter inside the cross-section, keeping it at the duct mouth."""
    tx = (0.0, rng.uniform(-0.4, 0.4), rng.uniform(1.6, 2.1))
    return replace(config, sweep=replace(config.sweep, tx_position=tx))


def sweep_grid(config: cli.ScenarioConfig) -> channel.SweepGrid:
    """The grid behind `mmray sweep`, for the checks the CSV cannot show."""
    s = config.sweep
    return channel.run_sweep_grid(
        cli.build_environment(config.environment), cli.build_systems(config),
        config.frequencies, n_samples=s.n_samples, rx_start=s.rx_start,
        rx_height=s.rx_height, tx=s.tx_position,
        polarization=tracer.Polarization(config.physics.polarization),
        max_order=config.physics.max_order,
        atmospheric=config.physics.atmospheric_loss_on)


def grid_error(grid: channel.SweepGrid) -> Optional[str]:
    """No NaN or inf anywhere except the NOCOV sentinel and its undefined moments."""
    nocov = grid.power_dbm == channel.NO_COVERAGE
    if not np.all(np.isfinite(grid.power_dbm) | nocov):
        return "power has NaN or inf that is not the NOCOV sentinel"
    for label, values in (("rms spread", grid.rms_spread),
                          ("mean excess delay", grid.mean_excess)):
        if not np.all(np.isfinite(values[~nocov])):
            return f"{label} is not finite at a covered position"
        if not np.all(np.isnan(values[nocov])):
            return f"{label} is defined at a NOCOV position"
    return None


def table_error(result) -> Optional[str]:
    _, path = result
    for line in Path(path).read_text().splitlines()[1:]:
        if not all(math.isfinite(float(cell)) for cell in line.split(",")[1:]):
            return f"non-finite delay spread in {Path(path).name}: {line}"
    return None


class Workload:
    """Seeded inputs and requests of one workload."""

    scenarios: Sequence[str] = ()

    def __init__(self, seed: int, out: Path, ledger: Ledger, reference: Reference):
        self.rng = random.Random(seed)
        self.out = out
        self.ledger = ledger
        self.reference = reference
        self._runs = itertools.count()

    def fresh_dir(self) -> Path:
        """A new output directory per request: rewriting an existing CSV in
        place can wait on the file system's flush of its old contents, which
        adds ~0.1 s per sweep on ext4 and varies with other disk traffic."""
        return self.out / "run" / str(next(self._runs))

    def prepare(self) -> None:
        raise NotImplementedError

    def requests(self) -> List[Request]:
        """One pass: the requests repeated in order until the run's time is up."""
        raise NotImplementedError

    def pool_requests(self) -> List[Request]:
        """Requests timed at one and at POOL_WORKERS workers for the pool speed-up."""
        return []


def _cells(config: cli.ScenarioConfig) -> int:
    return len(config.systems) * len(config.frequencies)


def _sweeps(configs, fresh_dir: Callable[[], Path], workers: int) -> List[Path]:
    out = fresh_dir()
    files = []
    for config in configs:
        files += cli.run_sweep_command(config, out, workers)
    return files


def _same_files(expected: Dict[str, str], files: Sequence[Path]) -> Optional[str]:
    error = compare(digests(files), expected)
    shutil.rmtree(Path(files[0]).parent)
    return error


class SweepTunnels(Workload):
    """The paper's main output: both tunnel sweeps at 1024 x 3 x 3 with CSVs.

    It also runs the process-pool path, untimed or in the traced run only:
    on a 2-core machine shared with other work, a timed pool sweep varied by
    more than the bound the benchmark allows between runs.
    """

    scenarios = ("straight_tunnel", "bent_tunnel")

    def prepare(self) -> None:
        for name in self.scenarios:
            self.ledger.call(
                f"reference sweep {name}",
                lambda: digests(cli.run_sweep_command(load_config(name),
                                                      self.out / "reference")),
                self.reference.check(f"sweep_{name}_"))
        self.configs = [jitter_tx(load_config(n), self.rng) for n in self.scenarios]
        self.expected: Dict[str, Dict[str, str]] = {}  # per scenario
        for config in self.configs:
            name = config.environment.name
            grid = self.ledger.call(f"seeded grid {name}", partial(sweep_grid, config),
                                    grid_error)
            labels = [s.label for s in config.systems]
            self.expected[name] = {} if grid is None else digests(
                cli.write_sweep_csvs(grid, labels, self.out / "expected"))
        # CSV bytes must not depend on the worker count.
        for request in self.pool_requests()[1:]:
            self.ledger.call(request.label, request.run, request.check)

    def _sweep(self, configs, workers: int) -> Request:
        expected = {}
        for config in configs:
            expected.update(self.expected[config.environment.name])
        return Request(f"sweep workers={workers}" if len(configs) == 1 else "sweep tunnels",
                       partial(_sweeps, configs, self.fresh_dir, workers),
                       partial(_same_files, expected),
                       positions=sum(c.sweep.n_samples for c in configs),
                       cells_per_path=_cells(configs[0]))

    def requests(self) -> List[Request]:
        return [self._sweep(self.configs, 1)]

    def pool_requests(self) -> List[Request]:
        return [self._sweep(self.configs[:1], 1), self._sweep(self.configs[:1], POOL_WORKERS)]


def _tables(configs, fresh_dir: Callable[[], Path]) -> List[Path]:
    out = fresh_dir()
    return [cli.run_table_command(c, out)[1] for c in configs]


class WidebandCorridor(Workload):
    """Delay-spread tables of both corridors at 31 carriers: kernel-bound."""

    scenarios = ("plain_corridor", "obstacle_corridor")

    def prepare(self) -> None:
        for name in self.scenarios:
            config = replace(load_config(name), frequencies=WIDEBAND)
            self.ledger.call(
                f"reference table {name}",
                lambda: digests([cli.run_table_command(config, self.out / "reference")[1]]),
                self.reference.check(f"delay_spread_{name}.csv"))
        self.configs = [replace(jitter_tx(load_config(n), self.rng), frequencies=WIDEBAND)
                        for n in self.scenarios]
        self.expected: Dict[str, str] = {}
        for config in self.configs:
            result = self.ledger.call(
                f"seeded table {config.environment.name}",
                partial(cli.run_table_command, config, self.out / "expected"),
                table_error)
            if result is not None:
                self.expected.update(digests([result[1]]))

    def requests(self) -> List[Request]:
        return [Request("wideband tables", partial(_tables, self.configs, self.fresh_dir),
                        partial(_same_files, self.expected),
                        positions=sum(c.sweep.n_samples for c in self.configs),
                        cells_per_path=_cells(self.configs[0]))]


@dataclass(frozen=True)
class Query:
    env: object
    tx: tuple
    rx: tuple
    rx_boresight: tuple
    distance: float
    height: float
    on_axis: bool
    systems: tuple
    carriers: tuple
    polarization: object
    max_order: int


def pdp_query(q: Query) -> tuple:
    """The README path for one receiver: paths once, then PDP statistics per system x carrier."""
    paths = tracer.enumerate_paths(q.env, q.tx, q.rx, max_order=q.max_order,
                                   polarization=q.polarization)
    out = []
    for system in q.systems:
        for carrier in q.carriers:
            taps = channel.impulse_response(paths, system, carrier,
                                            rx_boresight=q.rx_boresight)
            pdp = channel.power_delay_profile(taps)
            out.append((channel.received_power(paths, system, carrier,
                                               rx_boresight=q.rx_boresight),
                        channel.rms_delay_spread(pdp),
                        channel.mean_excess_delay(pdp)))
    return tuple(out)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(DELAY_ABS_TOL_S, DELAY_REL_TOL * max(abs(a), abs(b)))


def query_error(q: Query, result: tuple) -> Optional[str]:
    """Cross-check one query against the sweep grid (on axis) or its own taps."""
    if not all(math.isfinite(v) for row in result for v in row):
        return "non-finite power or delay statistic"
    if q.on_axis:
        grid = channel.run_sweep_grid(
            q.env, q.systems, [c.frequency for c in q.carriers], n_samples=2,
            rx_start=q.distance, rx_height=q.height, tx=q.tx,
            polarization=q.polarization, max_order=q.max_order)
        for k, (power, rms, excess) in enumerate(result):
            s, f = divmod(k, len(q.carriers))
            if abs(power - grid.power_dbm[0, s, f]) > POWER_TOL_DB:
                return f"received_power {power} != sweep grid {grid.power_dbm[0, s, f]}"
            if not (_close(rms, grid.rms_spread[0, s, f])
                    and _close(excess, grid.mean_excess[0, s, f])):
                return "delay statistics differ from the sweep grid"
        return None
    paths = tracer.enumerate_paths(q.env, q.tx, q.rx, max_order=q.max_order,
                                   polarization=q.polarization)
    for k, (power, _, _) in enumerate(result):
        s, f = divmod(k, len(q.carriers))
        taps = channel.impulse_response(paths, q.systems[s], q.carriers[f],
                                        rx_boresight=q.rx_boresight)
        coherent = channel.watts_to_dbm(abs(sum(t.amplitude for t in taps)) ** 2)
        if abs(power - coherent) > POWER_TOL_DB:
            return f"received_power {power} != coherent tap sum {coherent}"
    return None


class PdpQueries(Workload):
    """Per-position queries (README path, `mmray pdp`) across all four environments."""

    scenarios = tuple(PDP_ENVIRONMENTS)

    def prepare(self) -> None:
        out = self.out / "reference"
        for name in self.scenarios:
            config = load_config(name)
            for d in config.output.pdp_positions:
                self.ledger.call(f"reference pdp {name} {d:g} m",
                                 lambda: digests(cli.run_pdp_command(config, d, out)),
                                 self.reference.check(f"pdp_{name}_", f"_{d:g}m.csv"))
        self.queries: List[Query] = []
        for name, (lo, hi) in PDP_ENVIRONMENTS.items():
            config = jitter_tx(load_config(name), self.rng)
            env = cli.build_environment(config.environment)
            systems = cli.build_systems(config)
            carriers = tuple(channel.CarrierConfig(f) for f in config.frequencies)
            for k in range(PDP_QUERIES_PER_ENV):
                d = self.rng.uniform(lo, hi)
                h = self.rng.uniform(0.6, 2.0)
                lateral = 0.0 if k % 2 == 0 else self.rng.uniform(-0.6, 0.6)
                axis = env.axis_direction(d)
                rx = env.axis_point(d, height=h)
                if lateral:
                    rx = (rx[0] - lateral * axis[1], rx[1] + lateral * axis[0], rx[2])
                self.queries.append(Query(
                    env, config.sweep.tx_position, rx, tuple(-c for c in axis), d, h,
                    not lateral, systems, carriers,
                    tracer.Polarization(config.physics.polarization),
                    config.physics.max_order))
        self.expected = [self.ledger.call(f"seeded pdp {q.env.name} {q.rx}",
                                          partial(pdp_query, q), partial(query_error, q))
                         for q in self.queries]

    def requests(self) -> List[Request]:
        def same_as(expected, result) -> Optional[str]:
            return None if result == expected else "differs from the first evaluation"
        return [Request(f"pdp {q.env.name} #{k}", partial(pdp_query, q),
                        partial(same_as, self.expected[k]), positions=1,
                        cells_per_path=len(q.systems) * len(q.carriers))
                for k, q in enumerate(self.queries)]


WORKLOADS = {
    "sweep_tunnels": SweepTunnels,
    "wideband_corridor": WidebandCorridor,
    "pdp_queries": PdpQueries,
}
