"""Command-line driver: scenario files, sweeps, PDP dumps, tables, plot scripts.

Scenario files are YAML documents with a strict schema (unknown keys are
rejected, every error names the offending key path). All outputs are plain
CSV; plotting is delegated to an emitted gnuplot script so the package has
no graphics dependencies. Commands:

    sweep     power-vs-distance CSV per (environment, frequency)
    pdp       power delay profile CSV at one receiver distance
    table     sweep-aggregated RMS delay spread table
    plot      gnuplot script rendering previously written CSVs
    validate  scene invariant check for the configured environment
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from .antenna import KINDS, AntennaSystem, make_system, preset_parameters
from .channel import (
    ATMOSPHERIC_LOSS_DB_PER_M,
    CarrierConfig,
    DelaySpreadTable,
    SweepGrid,
    delay_spread_table,
    impulse_response,
    mean_excess_delay,
    power_delay_profile,
    rms_delay_spread,
    run_sweep_grid,
)
from .geometry import Vec3, neg
from .scene import BUILDERS, METAL, Environment, Material, ObstacleSlab, validate_environment
from .tracer import MAX_ORDER, Polarization, enumerate_paths

DEFAULT_FREQUENCIES = (60.0e9, 70.0e9, 80.0e9)


class ScenarioError(ValueError):
    """Scenario document violates the schema; message names the key path."""


class CommandError(RuntimeError):
    """Command-level failure (missing file, unwritable output, bad range)."""


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstacleSpec:
    """Scenario-level description of one transverse slab."""

    name: str
    position: float
    thickness: float = 0.1
    eps_r: float = 1.0
    metal: bool = False


@dataclass(frozen=True)
class EnvironmentConfig:
    name: str = "straight_tunnel"
    overrides: Tuple[Tuple[str, Union[float, bool]], ...] = ()
    obstacles: Optional[Tuple[ObstacleSpec, ...]] = None


@dataclass(frozen=True)
class SystemConfig:
    label: str
    kind: str
    tx_power_dbm: float
    peak_gain_dbi: float
    boresight: Vec3 = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class SweepConfig:
    n_samples: int = 1024
    rx_start: float = 1.0
    rx_height: float = 1.5
    tx_position: Vec3 = (0.0, 0.0, 2.0)


@dataclass(frozen=True)
class PhysicsConfig:
    polarization: str = "te"
    atmospheric_loss_on: bool = False
    max_order: int = 2


@dataclass(frozen=True)
class OutputConfig:
    csv_dir: str = "out"
    pdp_positions: Tuple[float, ...] = (10.0,)
    pdp_bin_width: float = 0.0
    plot: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    environment: EnvironmentConfig = EnvironmentConfig()
    systems: Tuple[SystemConfig, ...] = ()
    frequencies: Tuple[float, ...] = DEFAULT_FREQUENCIES
    sweep: SweepConfig = SweepConfig()
    physics: PhysicsConfig = PhysicsConfig()
    output: OutputConfig = OutputConfig()


# ---------------------------------------------------------------------------
# Strict parsing helpers
# ---------------------------------------------------------------------------

def _require_mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(mapping: dict, allowed: Sequence[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(
                f"{path}: unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _as_float(value, path: str) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ScenarioError(f"{path}: expected a finite number, got {value!r}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    return value


def _as_point(value, path: str) -> Tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{path}: expected [x, y, z], got {value!r}")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _builder_params(name: str) -> dict:
    return dict(inspect.signature(BUILDERS[name]).parameters)


def _parse_environment(node, path: str) -> EnvironmentConfig:
    mapping = _require_mapping(node, path)
    _check_keys(mapping, ("name", "overrides", "obstacles"), path)
    name = _as_str(mapping.get("name", "straight_tunnel"), f"{path}.name")
    if name not in BUILDERS:
        raise ScenarioError(
            f"{path}.name: unknown environment {name!r} "
            f"(known: {', '.join(sorted(BUILDERS))})")
    params = _builder_params(name)

    overrides = []
    for key, value in _require_mapping(mapping.get("overrides"),
                                       f"{path}.overrides").items():
        kpath = f"{path}.overrides.{key}"
        if key == "obstacles" or key not in params:
            raise ScenarioError(f"{kpath}: not a parameter of {name!r}")
        if isinstance(params[key].default, bool):
            overrides.append((key, _as_bool(value, kpath)))
            continue
        fval = _as_float(value, kpath)
        if "eps_r" in key and fval < 1.0:
            raise ScenarioError(f"{kpath}: relative permittivity must be >= 1")
        if key in ("length", "width", "height", "thickness") and fval <= 0.0:
            raise ScenarioError(f"{kpath}: must be > 0")
        overrides.append((key, fval))

    obstacles = None
    if "obstacles" in mapping:
        if "obstacles" not in params:
            raise ScenarioError(
                f"{path}.obstacles: environment {name!r} does not take obstacles")
        raw = mapping["obstacles"]
        if not isinstance(raw, list):
            raise ScenarioError(f"{path}.obstacles: expected a list")
        obstacles = tuple(
            _parse_obstacle(entry, f"{path}.obstacles[{i}]")
            for i, entry in enumerate(raw))
    return EnvironmentConfig(name=name, overrides=tuple(sorted(overrides)),
                             obstacles=obstacles)


def _parse_obstacle(node, path: str) -> ObstacleSpec:
    mapping = _require_mapping(node, path)
    _check_keys(mapping, ("name", "position", "thickness", "eps_r", "metal"), path)
    if "name" not in mapping or "position" not in mapping:
        raise ScenarioError(f"{path}: 'name' and 'position' are required")
    thickness = _as_float(mapping.get("thickness", 0.1), f"{path}.thickness")
    if thickness <= 0.0:
        raise ScenarioError(f"{path}.thickness: must be > 0")
    eps = _as_float(mapping.get("eps_r", 1.0), f"{path}.eps_r")
    if eps < 1.0:
        raise ScenarioError(f"{path}.eps_r: relative permittivity must be >= 1")
    return ObstacleSpec(
        name=_as_str(mapping["name"], f"{path}.name"),
        position=_as_float(mapping["position"], f"{path}.position"),
        thickness=thickness,
        eps_r=eps,
        metal=_as_bool(mapping.get("metal", False), f"{path}.metal"),
    )


def _parse_system(node, path: str) -> SystemConfig:
    if isinstance(node, str):
        return _preset_system_config(node, path)
    mapping = _require_mapping(node, path)
    _check_keys(mapping, ("preset", "kind", "tx_power_dbm", "peak_gain_dbi",
                          "label", "boresight"), path)
    kind = None
    if "kind" in mapping:
        kind = _as_str(mapping["kind"], f"{path}.kind")
        if kind not in KINDS:
            raise ScenarioError(
                f"{path}.kind: unknown antenna kind {kind!r} "
                f"(known: {', '.join(sorted(KINDS))})")
    if "preset" in mapping:
        base = _preset_system_config(_as_str(mapping["preset"], f"{path}.preset"), path)
    elif kind is not None:
        base = _preset_system_config(kind, path)
    else:
        raise ScenarioError(f"{path}: either 'preset' or 'kind' is required")
    if kind is not None:
        base = replace(base, kind=kind)
    if "tx_power_dbm" in mapping:
        base = replace(base, tx_power_dbm=_as_float(mapping["tx_power_dbm"],
                                                    f"{path}.tx_power_dbm"))
    if "peak_gain_dbi" in mapping:
        base = replace(base, peak_gain_dbi=_as_float(mapping["peak_gain_dbi"],
                                                     f"{path}.peak_gain_dbi"))
    if "label" in mapping:
        base = replace(base, label=_as_str(mapping["label"], f"{path}.label"))
    if "boresight" in mapping:
        base = replace(base, boresight=_as_point(mapping["boresight"],
                                                 f"{path}.boresight"))
    return base


def _preset_system_config(name: str, path: str) -> SystemConfig:
    """Scenario entry for a preset; the preset name doubles as its label."""
    try:
        kind, power, peak = preset_parameters(name)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return SystemConfig(label=name, kind=kind, tx_power_dbm=power,
                        peak_gain_dbi=peak)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document; empty input yields the defaults.

    The schema is strict: unknown keys, wrong types, and physically
    invalid values all raise ScenarioError with the offending key path.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    mapping = _require_mapping(doc, "scenario")
    _check_keys(mapping, ("environment", "systems", "frequencies", "sweep",
                          "physics", "output"), "scenario")

    environment = _parse_environment(mapping.get("environment"), "environment")

    if "systems" in mapping:
        raw = mapping["systems"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("systems: expected a non-empty list")
        systems = tuple(_parse_system(entry, f"systems[{i}]")
                        for i, entry in enumerate(raw))
    else:
        systems = tuple(_preset_system_config(label, "systems")
                        for label in ("system1", "system2", "system3"))
    labels = [s.label for s in systems]
    if len(set(labels)) != len(labels):
        raise ScenarioError(f"systems: duplicate labels {labels}")

    if "frequencies" in mapping:
        raw = mapping["frequencies"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("frequencies: expected a non-empty list")
        frequencies = []
        for i, value in enumerate(raw):
            f = _as_float(value, f"frequencies[{i}]")
            if f <= 0.0:
                raise ScenarioError(f"frequencies[{i}]: must be > 0")
            frequencies.append(f)
        frequencies = tuple(frequencies)
    else:
        frequencies = DEFAULT_FREQUENCIES

    sweep_map = _require_mapping(mapping.get("sweep"), "sweep")
    _check_keys(sweep_map, ("n_samples", "rx_start", "rx_height", "tx_position"),
                "sweep")
    n_samples = _as_int(sweep_map.get("n_samples", 1024), "sweep.n_samples")
    if n_samples < 2:
        raise ScenarioError(f"sweep.n_samples: must be >= 2, got {n_samples}")
    rx_start = _as_float(sweep_map.get("rx_start", 1.0), "sweep.rx_start")
    if rx_start <= 0.0:
        raise ScenarioError("sweep.rx_start: must be > 0")
    rx_height = _as_float(sweep_map.get("rx_height", 1.5), "sweep.rx_height")
    if rx_height <= 0.0:
        raise ScenarioError("sweep.rx_height: must be > 0")
    sweep = SweepConfig(
        n_samples=n_samples,
        rx_start=rx_start,
        rx_height=rx_height,
        tx_position=_as_point(sweep_map.get("tx_position", [0.0, 0.0, 2.0]),
                              "sweep.tx_position"),
    )

    phys_map = _require_mapping(mapping.get("physics"), "physics")
    _check_keys(phys_map, ("polarization", "atmospheric_loss_on", "max_order"),
                "physics")
    pol = _as_str(phys_map.get("polarization", "te"), "physics.polarization").lower()
    if pol not in ("te", "tm"):
        raise ScenarioError(f"physics.polarization: expected 'te' or 'tm', got {pol!r}")
    max_order = _as_int(phys_map.get("max_order", 2), "physics.max_order")
    if not 0 <= max_order <= MAX_ORDER:
        raise ScenarioError(f"physics.max_order: must be in 0..{MAX_ORDER}, got {max_order}")
    physics = PhysicsConfig(
        polarization=pol,
        atmospheric_loss_on=_as_bool(phys_map.get("atmospheric_loss_on", False),
                                     "physics.atmospheric_loss_on"),
        max_order=max_order,
    )

    out_map = _require_mapping(mapping.get("output"), "output")
    _check_keys(out_map, ("csv_dir", "pdp_positions", "pdp_bin_width", "plot"),
                "output")
    positions = out_map.get("pdp_positions", [10.0])
    if not isinstance(positions, list):
        raise ScenarioError("output.pdp_positions: expected a list")
    pdp_positions = tuple(_as_float(v, f"output.pdp_positions[{i}]")
                          for i, v in enumerate(positions))
    bin_width = _as_float(out_map.get("pdp_bin_width", 0.0), "output.pdp_bin_width")
    if bin_width < 0.0:
        raise ScenarioError("output.pdp_bin_width: must be >= 0")
    output = OutputConfig(
        csv_dir=_as_str(out_map.get("csv_dir", "out"), "output.csv_dir"),
        pdp_positions=pdp_positions,
        pdp_bin_width=bin_width,
        plot=_as_bool(out_map.get("plot", False), "output.plot"),
    )

    return ScenarioConfig(environment=environment, systems=systems,
                          frequencies=frequencies, sweep=sweep,
                          physics=physics, output=output)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-dict form of a config, parseable back to an equal config."""
    env: dict = {"name": config.environment.name}
    if config.environment.overrides:
        env["overrides"] = {k: v for k, v in config.environment.overrides}
    if config.environment.obstacles is not None:
        env["obstacles"] = [
            {"name": o.name, "position": o.position, "thickness": o.thickness,
             "eps_r": o.eps_r, "metal": o.metal}
            for o in config.environment.obstacles]
    return {
        "environment": env,
        "systems": [
            {"label": s.label, "kind": s.kind, "tx_power_dbm": s.tx_power_dbm,
             "peak_gain_dbi": s.peak_gain_dbi, "boresight": list(s.boresight)}
            for s in config.systems],
        "frequencies": list(config.frequencies),
        "sweep": {
            "n_samples": config.sweep.n_samples,
            "rx_start": config.sweep.rx_start,
            "rx_height": config.sweep.rx_height,
            "tx_position": list(config.sweep.tx_position),
        },
        "physics": {
            "polarization": config.physics.polarization,
            "atmospheric_loss_on": config.physics.atmospheric_loss_on,
            "max_order": config.physics.max_order,
        },
        "output": {
            "csv_dir": config.output.csv_dir,
            "pdp_positions": list(config.output.pdp_positions),
            "pdp_bin_width": config.output.pdp_bin_width,
            "plot": config.output.plot,
        },
    }


def serialize_scenario(config: ScenarioConfig) -> str:
    return yaml.safe_dump(scenario_to_dict(config), sort_keys=True)


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------

def build_environment(config: EnvironmentConfig) -> Environment:
    builder = BUILDERS[config.name]
    kwargs = {k: v for k, v in config.overrides}
    if config.obstacles is not None:
        kwargs["obstacles"] = [
            ObstacleSlab(o.name, o.position, o.thickness,
                         METAL if o.metal else Material(o.name, o.eps_r))
            for o in config.obstacles]
    return builder(**kwargs)


def build_systems(config: ScenarioConfig) -> Tuple[AntennaSystem, ...]:
    return tuple(
        make_system(s.kind, s.tx_power_dbm, s.peak_gain_dbi, s.boresight)
        for s in config.systems)


def _polarization(config: ScenarioConfig) -> Polarization:
    return Polarization.TE if config.physics.polarization == "te" else Polarization.TM


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _ghz(frequency: float) -> str:
    return f"{frequency / 1e9:g}"


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}") from exc


def write_sweep_csvs(grid: SweepGrid, labels: Sequence[str],
                     out_dir: Path) -> List[Path]:
    """One CSV per frequency: distance column plus a power column per system.

    Values print with 4 decimals; a power of NO_COVERAGE or NaN prints NOCOV.
    """
    paths = []
    header = "distance_m," + ",".join(f"power_dBm_{lbl}" for lbl in labels)
    row = "\n" + ",".join(["%.4f"] * (len(labels) + 1))
    for f, freq in enumerate(grid.frequencies):
        values = np.column_stack([grid.distances, grid.power_dbm[:, :len(labels), f]])
        body = "".join([row % tuple(r) for r in values.tolist()])
        # %.4f writes NO_COVERAGE as -inf and NaN as nan; distances are finite.
        body = body.replace("-inf", "NOCOV").replace("nan", "NOCOV")
        path = out_dir / f"sweep_{grid.environment}_{_ghz(freq)}GHz.csv"
        _write_text(path, header + body + "\n")
        paths.append(path)
    return paths


def run_sweep_command(config: ScenarioConfig,
                      out_dir: Optional[Path] = None,
                      workers: int = 1) -> List[Path]:
    """Full receiver sweep; writes one CSV per configured frequency."""
    env = build_environment(config.environment)
    systems = build_systems(config)
    grid = run_sweep_grid(
        env, systems, config.frequencies,
        n_samples=config.sweep.n_samples,
        rx_start=config.sweep.rx_start,
        rx_height=config.sweep.rx_height,
        tx=config.sweep.tx_position,
        polarization=_polarization(config),
        max_order=config.physics.max_order,
        workers=workers,
        atmospheric=config.physics.atmospheric_loss_on,
    )
    out = Path(out_dir) if out_dir is not None else Path(config.output.csv_dir)
    files = write_sweep_csvs(grid, [s.label for s in config.systems], out)
    if config.output.plot:
        files.append(emit_plot_script(files, out / "plots.gp"))
    return files


def run_pdp_command(config: ScenarioConfig,
                    rx_distance: float,
                    out_dir: Optional[Path] = None) -> List[Path]:
    """Power delay profile at one receiver distance, per system and frequency.

    Each CSV lists (absolute delay s, excess delay s, normalized power) with
    mean excess delay and RMS delay spread footers in ns.
    """
    env = build_environment(config.environment)
    if not config.sweep.rx_start < rx_distance <= env.axis_length:
        raise CommandError(
            f"rx distance {rx_distance} m outside "
            f"({config.sweep.rx_start}, {env.axis_length}] m")
    systems = build_systems(config)
    pol = _polarization(config)
    rx = env.axis_point(rx_distance, height=config.sweep.rx_height)
    rx_boresight = neg(env.axis_direction(rx_distance))
    paths = enumerate_paths(env, config.sweep.tx_position, rx,
                            max_order=config.physics.max_order,
                            polarization=pol)
    if not paths:
        raise CommandError(f"no coverage at {rx_distance} m in {env.name}")
    atmos = (ATMOSPHERIC_LOSS_DB_PER_M if config.physics.atmospheric_loss_on
             else 0.0)
    out = Path(out_dir) if out_dir is not None else Path(config.output.csv_dir)

    files = []
    for sys_cfg, system in zip(config.systems, systems):
        for freq in config.frequencies:
            taps = impulse_response(paths, system, CarrierConfig(freq),
                                    rx_boresight=rx_boresight,
                                    atmospheric_loss_db_per_m=atmos)
            pdp = power_delay_profile(taps, config.output.pdp_bin_width)
            lines = ["delay_s,excess_delay_s,normalized_power"]
            for delay, power in pdp.taps:
                lines.append(f"{delay:.9e},{delay - pdp.first_arrival:.9e},"
                             f"{power:.6e}")
            lines.append(f"mean_excess_delay_ns={mean_excess_delay(pdp) * 1e9:.4f}")
            lines.append(f"rms_delay_spread_ns={rms_delay_spread(pdp) * 1e9:.4f}")
            path = out / (f"pdp_{env.name}_{sys_cfg.label}_{_ghz(freq)}GHz_"
                          f"{rx_distance:g}m.csv")
            _write_text(path, "\n".join(lines) + "\n")
            files.append(path)
    if config.output.plot:
        files.append(emit_plot_script(files, out / "pdp_plots.gp"))
    return files


def format_delay_table(table: DelaySpreadTable, environment: str) -> str:
    """Fixed-width text rendition: antenna rows, frequency columns, ns cells."""
    i = table.environments.index(environment)
    lines = [f"RMS delay spread (ns), {environment}, aggregate={table.aggregate}"]
    header = f"{'antenna':<12}" + "".join(
        f"{_ghz(f) + ' GHz':>10}" for f in table.frequencies)
    lines.append(header)
    for j, label in enumerate(table.system_labels):
        row = f"{label:<12}" + "".join(
            f"{table.values_ns[i, j, k]:>10.2f}"
            for k in range(len(table.frequencies)))
        lines.append(row)
    return "\n".join(lines)


def run_table_command(config: ScenarioConfig,
                      out_dir: Optional[Path] = None,
                      workers: int = 1,
                      aggregate: str = "mean") -> Tuple[str, Path]:
    """Delay spread table for the configured environment; text plus CSV."""
    env = build_environment(config.environment)
    table = delay_spread_table(
        [env], build_systems(config), config.frequencies,
        n_samples=config.sweep.n_samples,
        rx_start=config.sweep.rx_start,
        rx_height=config.sweep.rx_height,
        tx=config.sweep.tx_position,
        polarization=_polarization(config),
        max_order=config.physics.max_order,
        workers=workers,
        aggregate=aggregate,
    )
    text = format_delay_table(table, env.name)
    out = Path(out_dir) if out_dir is not None else Path(config.output.csv_dir)
    lines = ["antenna," + ",".join(f"rms_ns_{_ghz(f)}GHz"
                                   for f in table.frequencies)]
    for j, label in enumerate(table.system_labels):
        cells = [f"{table.values_ns[0, j, k]:.2f}"
                 for k in range(len(table.frequencies))]
        lines.append(label + "," + ",".join(cells))
    path = out / f"delay_spread_{env.name}.csv"
    _write_text(path, "\n".join(lines) + "\n")
    return text, path


# ---------------------------------------------------------------------------
# Plot script emission
# ---------------------------------------------------------------------------

def emit_plot_script(csv_paths: Sequence[Union[str, Path]],
                     out_path: Union[str, Path, None] = None) -> Path:
    """Write a gnuplot script rendering the given CSVs to PNGs.

    Sweep CSVs become power-vs-distance line plots (NOCOV samples appear as
    gaps); PDP CSVs become stem plots on a log power axis.
    """
    paths = [Path(p) for p in csv_paths]
    if not paths:
        raise CommandError("no CSV inputs given")
    for p in paths:
        if not p.is_file():
            raise CommandError(f"input CSV not found: {p}")
    if out_path is None:
        out_path = paths[0].parent / "plots.gp"
    out_path = Path(out_path)

    chunks = [
        "# Generated plotting script; run with: gnuplot <this file>",
        'set datafile separator ","',
        'set datafile missing "NOCOV"',
        "set grid",
        "set term pngcairo size 1100,700",
    ]
    for p in paths:
        stem = p.stem
        png = p.with_suffix(".png").name
        if stem.startswith("sweep_"):
            with open(p) as fh:
                header = fh.readline().strip().split(",")
            series = []
            for col, name in enumerate(header[1:], start=2):
                title = name.replace("power_dBm_", "")
                series.append(f"'{p}' using 1:{col} with lines title '{title}'")
            chunks += [
                "",
                f"set output '{png}'",
                f"set title '{stem}'",
                "set xlabel 'Tx-Rx distance (m)'",
                "set ylabel 'received power (dBm)'",
                "unset logscale y",
                "plot " + ", \\\n     ".join(series),
            ]
        elif stem.startswith("pdp_"):
            chunks += [
                "",
                f"set output '{png}'",
                f"set title '{stem}'",
                "set xlabel 'excess delay (ns)'",
                "set ylabel 'normalized power'",
                "set logscale y",
                "set yrange [1e-7:2]",
                f"plot '{p}' using ($2*1e9):3 with impulses lw 2 "
                "title 'power delay profile'",
            ]
        else:
            chunks += [
                "",
                f"set output '{png}'",
                f"set title '{stem}'",
                "unset logscale y",
                "set ylabel 'RMS delay spread (ns)'",
                "set style data histograms",
                "set style fill solid 0.6",
                f"plot for [col=2:*] '{p}' using col:xtic(1) title columnheader",
            ]
    _write_text(out_path, "\n".join(chunks) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmray",
        description="Image-method ray tracing for indoor mm-wave channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--scenario", help="YAML scenario file")
        p.add_argument("--env", help="environment builder name override")
        return p

    def run(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        scenario(p)
        p.add_argument("--freq", help="comma-separated frequencies in Hz")
        p.add_argument("--system", help="comma-separated antenna preset names")
        p.add_argument("--polarization", choices=("te", "tm"))
        p.add_argument("--out", help="output directory")
        return p

    def pooled(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        run(p)
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")
        return p

    pooled(sub.add_parser("sweep", help="power-vs-distance CSV sweep"))
    p_pdp = run(sub.add_parser("pdp", help="power delay profile at one distance"))
    p_pdp.add_argument("--rx", type=float,
                       help="receiver distance in m (default: scenario list)")
    p_tab = pooled(sub.add_parser("table", help="RMS delay spread table"))
    p_tab.add_argument("--aggregate", choices=("mean", "median"), default="mean")
    p_plot = sub.add_parser("plot", help="emit gnuplot script for CSVs")
    p_plot.add_argument("inputs", nargs="+", help="CSV files to plot")
    p_plot.add_argument("--out", help="script path (default: alongside CSVs)")
    scenario(sub.add_parser("validate", help="check scene invariants"))
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if getattr(args, "workers", 1) < 1:
        raise CommandError(f"--workers: must be >= 1, got {args.workers}")
    if getattr(args, "scenario", None):
        path = Path(args.scenario)
        if not path.is_file():
            raise CommandError(f"scenario file not found: {path}")
        config = parse_scenario(path.read_text())
    else:
        config = parse_scenario("")

    if getattr(args, "env", None):
        if args.env not in BUILDERS:
            raise CommandError(
                f"unknown environment {args.env!r} "
                f"(known: {', '.join(sorted(BUILDERS))})")
        config = replace(config, environment=EnvironmentConfig(name=args.env))
    if getattr(args, "freq", None):
        freqs = []
        for tok in args.freq.split(","):
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value > 0.0):
                raise CommandError(f"--freq: bad frequency {tok!r}")
            freqs.append(value)
        config = replace(config, frequencies=tuple(freqs))
    if getattr(args, "system", None):
        systems = tuple(_preset_system_config(tok.strip(), "--system")
                        for tok in args.system.split(","))
        config = replace(config, systems=systems)
    if getattr(args, "polarization", None):
        config = replace(config,
                         physics=replace(config.physics,
                                         polarization=args.polarization))
    if getattr(args, "out", None):
        config = replace(config,
                         output=replace(config.output, csv_dir=args.out))
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            script = emit_plot_script(args.inputs, args.out)
            print(script)
            return 0

        config = _load_config(args)
        if args.command == "sweep":
            for path in run_sweep_command(config, workers=args.workers):
                print(path)
        elif args.command == "pdp":
            distances = ([args.rx] if args.rx is not None
                         else list(config.output.pdp_positions))
            for rx_distance in distances:
                for path in run_pdp_command(config, rx_distance):
                    print(path)
        elif args.command == "table":
            text, path = run_table_command(config, workers=args.workers,
                                           aggregate=args.aggregate)
            print(text)
            print(path)
        elif args.command == "validate":
            env = build_environment(config.environment)
            report = validate_environment(env)
            if not report.ok:
                for violation in report.violations:
                    print(f"violation: {violation}", file=sys.stderr)
                return 1
            print(f"{env.name}: ok ({len(env.surfaces)} surfaces, "
                  f"{len(env.obstacles)} obstacles)")
        return 0
    except (ScenarioError, CommandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
