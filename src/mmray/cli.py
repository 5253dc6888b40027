"""Command-line driver: scenario files, sweeps, PDP dumps, tables, plot scripts.

Scenario files are YAML documents with a strict schema (unknown keys are
rejected, every error names the offending key path). The frozen config
dataclasses below are that schema: their fields are the allowed keys, their
defaults fill missing keys, their types select the value parsers, their
metadata holds the range rules, and `dataclasses.asdict` serializes them.
`sweep` and `table` hand the library the same sweep settings. All outputs
are plain CSV; plotting is delegated to an emitted gnuplot script so the
package has no graphics dependencies. Commands:

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
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Literal, Optional, Sequence, Tuple,
                    Union, get_args, get_origin, get_type_hints)

import numpy as np
import yaml

from . import channel
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

def _checked(ok: Callable[[Any], bool], message: str, default: Any = MISSING):
    """Field whose parsed value must satisfy ok; message may show the value as {}."""
    return field(default=default, metadata={"ok": ok, "message": message})


def _positive(default: Any = MISSING):
    return _checked(lambda v: v > 0.0, "must be > 0", default)


@dataclass(frozen=True)
class ObstacleSpec:
    """Scenario-level description of one transverse slab."""

    name: str
    position: float
    thickness: float = _positive(0.1)
    eps_r: float = _checked(lambda v: v >= 1.0, "relative permittivity must be >= 1", 1.0)
    metal: bool = False


@dataclass(frozen=True)
class EnvironmentConfig:
    name: str = _checked(lambda n: n in BUILDERS,
                         f"unknown environment {{!r}} (known: {', '.join(sorted(BUILDERS))})",
                         "straight_tunnel")
    overrides: Tuple[Tuple[str, Union[float, bool]], ...] = ()
    obstacles: Optional[Tuple[ObstacleSpec, ...]] = None


@dataclass(frozen=True)
class SystemConfig:
    label: str
    kind: str = _checked(lambda k: k in KINDS,
                         f"unknown antenna kind {{!r}} (known: {', '.join(sorted(KINDS))})")
    tx_power_dbm: float
    peak_gain_dbi: float
    boresight: Vec3 = (1.0, 0.0, 0.0)


def _preset_system_config(name: str, path: str) -> SystemConfig:
    """Scenario entry for a preset; the preset name doubles as its label."""
    try:
        kind, power, peak = preset_parameters(name)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return SystemConfig(label=name, kind=kind, tx_power_dbm=power,
                        peak_gain_dbi=peak)


@dataclass(frozen=True)
class SweepConfig:
    n_samples: int = _checked(lambda n: n >= 2, "must be >= 2, got {}", 1024)
    rx_start: float = _positive(1.0)
    rx_height: float = _positive(1.5)
    tx_position: Vec3 = (0.0, 0.0, 2.0)


@dataclass(frozen=True)
class PhysicsConfig:
    polarization: Literal["te", "tm"] = "te"
    atmospheric_loss_on: bool = False
    max_order: int = _checked(lambda n: 0 <= n <= MAX_ORDER,
                              f"must be in 0..{MAX_ORDER}, got {{}}", 2)


@dataclass(frozen=True)
class OutputConfig:
    csv_dir: str = "out"
    pdp_positions: Tuple[float, ...] = (10.0,)
    pdp_bin_width: float = _checked(lambda v: v >= 0.0, "must be >= 0", 0.0)
    plot: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    environment: EnvironmentConfig = EnvironmentConfig()
    systems: Tuple[SystemConfig, ...] = tuple(
        _preset_system_config(label, "systems") for label in ("system1", "system2", "system3"))
    frequencies: Tuple[float, ...] = _positive(DEFAULT_FREQUENCIES)
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


def _check_keys(mapping: dict, allowed: Iterable[str], path: str) -> None:
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


@lru_cache(maxsize=None)
def _schema(cls) -> Dict[str, Tuple[Any, Field]]:
    """Field name -> (resolved type, field) of a config dataclass, in field order."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f) for f in fields(cls)}


def _parse_value(hint, rule, value, path: str):
    """Parse one value by its field type, then check it against the field's rule.

    A `Tuple[X, ...]` field takes a non-empty list and checks each item.
    """
    if get_origin(hint) is tuple and get_args(hint)[-1] is Ellipsis:
        if not isinstance(value, list) or not value:
            raise ScenarioError(f"{path}: expected a non-empty list")
        return tuple(_parse_value(get_args(hint)[0], rule, v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if get_origin(hint) is Literal:
        value = _as_str(value, path).lower()
        if value not in get_args(hint):
            allowed = " or ".join(repr(a) for a in get_args(hint))
            raise ScenarioError(f"{path}: expected {allowed}, got {value!r}")
        return value
    value = (_PARSERS[hint](value, path) if hint in _PARSERS
             else _parse_section(hint, value, path))
    if "ok" in rule and not rule["ok"](value):
        raise ScenarioError(f"{path}: {rule['message'].format(value)}")
    return value


def _parse_field(cls, name: str, value, path: str):
    hint, spec = _schema(cls)[name]
    return _parse_value(hint, spec.metadata, value, path)


def _parse_fields(cls, mapping: dict, prefix: str) -> dict:
    """Parsed values of the fields of cls that mapping sets, in field order."""
    return {name: _parse_field(cls, name, mapping[name], prefix + name)
            for name in _schema(cls) if name in mapping}


def _parse_section(cls, node, path: str):
    mapping = _require_mapping(node, path)
    _check_keys(mapping, _schema(cls), path)
    required = [f.name for f in fields(cls) if f.default is MISSING]
    if not all(name in mapping for name in required):
        raise ScenarioError(f"{path}: {' and '.join(map(repr, required))} are required")
    return cls(**_parse_fields(cls, mapping, path + "."))


def _builder_params(name: str) -> dict:
    return dict(inspect.signature(BUILDERS[name]).parameters)


def _parse_environment(node, path: str) -> EnvironmentConfig:
    mapping = _require_mapping(node, path)
    _check_keys(mapping, _schema(EnvironmentConfig), path)
    name = _parse_field(EnvironmentConfig, "name",
                        mapping.get("name", EnvironmentConfig.name), f"{path}.name")
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
        if key in ("length", "width", "height") and fval <= 0.0:
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
            _parse_section(ObstacleSpec, entry, f"{path}.obstacles[{i}]")
            for i, entry in enumerate(raw))
    return EnvironmentConfig(name=name, overrides=tuple(sorted(overrides)),
                             obstacles=obstacles)


def _parse_system(node, path: str) -> SystemConfig:
    """A preset name, or a mapping of SystemConfig keys on a preset or kind."""
    if isinstance(node, str):
        return _preset_system_config(node, path)
    mapping = _require_mapping(node, path)
    _check_keys(mapping, [*_schema(SystemConfig), "preset"], path)
    values = _parse_fields(SystemConfig, mapping, path + ".")
    if "preset" in mapping:
        base = _preset_system_config(_as_str(mapping["preset"], f"{path}.preset"), path)
    elif "kind" in values:
        base = _preset_system_config(values["kind"], path)
    else:
        raise ScenarioError(f"{path}: either 'preset' or 'kind' is required")
    return replace(base, **values)


_PARSERS = {int: _as_int, float: _as_float, bool: _as_bool, str: _as_str, Vec3: _as_point,
            EnvironmentConfig: _parse_environment, SystemConfig: _parse_system}


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
    _check_keys(mapping, _schema(ScenarioConfig), "scenario")
    config = ScenarioConfig(**_parse_fields(ScenarioConfig, mapping, ""))
    labels = [s.label for s in config.systems]
    if len(set(labels)) != len(labels):
        raise ScenarioError(f"systems: duplicate labels {labels}")
    return config


def _plain(value):
    """asdict output with tuples as lists, which YAML's safe dumper writes."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-dict form of a config, parseable back to an equal config.

    Overrides are written as a mapping and omitted when empty; obstacles
    are omitted when None (the builder's stock set).
    """
    doc = _plain(asdict(config))
    env = doc["environment"]
    if env.pop("overrides"):
        env["overrides"] = dict(config.environment.overrides)
    if env["obstacles"] is None:
        del env["obstacles"]
    return doc


def serialize_scenario(config: ScenarioConfig) -> str:
    return yaml.safe_dump(scenario_to_dict(config), sort_keys=True)


# ---------------------------------------------------------------------------
# Config -> domain objects
# ---------------------------------------------------------------------------

def build_environment(config: EnvironmentConfig) -> Environment:
    """The configured builder's scene; a value it rejects names environment.overrides."""
    builder = BUILDERS[config.name]
    kwargs = {k: v for k, v in config.overrides}
    if config.obstacles is not None:
        kwargs["obstacles"] = [
            ObstacleSlab(o.name, o.position, o.thickness,
                         METAL if o.metal else Material(o.name, o.eps_r))
            for o in config.obstacles]
    try:
        return builder(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"environment.overrides: {exc}") from exc


def build_systems(config: ScenarioConfig) -> Tuple[AntennaSystem, ...]:
    return tuple(
        make_system(s.kind, s.tx_power_dbm, s.peak_gain_dbi, s.boresight)
        for s in config.systems)


def _sweep_settings(config: ScenarioConfig) -> dict:
    """run_sweep_grid's keywords for the scenario, shared by `sweep` and `table`."""
    return dict(
        n_samples=config.sweep.n_samples,
        rx_start=config.sweep.rx_start,
        rx_height=config.sweep.rx_height,
        tx=config.sweep.tx_position,
        polarization=Polarization(config.physics.polarization),
        max_order=config.physics.max_order,
        atmospheric=config.physics.atmospheric_loss_on,
    )


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


# Magnitudes at and above which a cell is formatted by '%.4f' itself. Below
# it |x| * 1e4 < 2^50, where floats are at most 1/8 apart, so a product not
# within an ulp of a half integer rounds to the integer x * 1e4 rounds to.
_FAST_CELL = 1e11
# The four ASCII digits of 0..9999, one uint32 each.
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T
                               + ord("0")).view(np.uint32)[:, 0]


def _csv_rows(values: np.ndarray) -> str:
    """The rows of values (rows, columns) as CSV lines, each cell as '%.4f'
    formats it, with -inf and NaN as NOCOV, in one numpy pass.

    A cell is q = rint(x * 1e4) written as digits, '.', four digits, with
    '-' if x has its sign bit set (so -0.0 and tiny negatives give
    -0.0000). rint of the rounded product equals the correct rounding of
    x to four decimals unless the product is within an ulp of a half
    integer; such cells, and those too large or not finite, are formatted
    by '%.4f'. Each cell is a right-aligned field of equal width, padded
    with zero bytes, which are dropped at the end; the fields are built a
    byte position at a time, across all cells.
    """
    x = np.asarray(values, float)
    flat = x.ravel()
    small = np.abs(flat) < _FAST_CELL  # NaN fails it too
    y = np.where(small, flat, 0.0) * 1e4
    q = np.rint(y)
    fast = small & (0.5 - np.abs(y - q) > np.abs(y) * 2.0 ** -52)  # |y| 2^-52 >= its ulp
    whole, frac = np.divmod(np.abs(np.where(fast, q, 0.0)).astype(np.int64), 10000)
    nocov = np.isnan(flat) | (flat == -math.inf)
    slow = {i: "%.4f" % v for i, v in zip(np.flatnonzero(~fast & ~nocov).tolist(),
                                         flat[~fast & ~nocov].tolist())}
    digits = len(str(int(whole.max(initial=0))))
    width = max([digits + 7] + [len(t) + 1 for t in slow.values()])
    field = np.zeros((width, len(flat)), np.uint8)  # [byte position, cell]
    # Integer digits, from groups of four, end before the '.', four digits
    # and the separator; zeros before the first digit shown are dropped,
    # and the sign goes just before it.
    groups, first = -(-digits // 4), width - 6 - digits
    ints = np.concatenate([_DIGITS[whole // 10 ** (4 * k) % 10000].view(np.uint8).reshape(-1, 4).T
                           for k in range(groups - 1, -1, -1)])[4 * groups - digits:]
    shown = whole >= 10 ** np.arange(digits - 1, -1, -1)[:, None]
    shown[-1] = True
    field[first:first + digits] = ints * shown
    lead = shown.copy()
    lead[1:] &= ~shown[:-1]
    lead &= np.signbit(flat) & fast
    field[first - 1:first - 1 + digits] |= lead.view(np.uint8) * np.uint8(ord("-"))
    field[width - 6] = ord(".")
    field[width - 5:width - 1] = _DIGITS[frac].view(np.uint8).reshape(-1, 4).T
    field[width - 1] = ord(",")
    field[width - 1, x.shape[1] - 1::x.shape[1]] = ord("\n")
    nocov = np.flatnonzero(nocov)
    field[:width - 1, nocov] = np.frombuffer(b"NOCOV".rjust(width - 1, b"\0"), np.uint8)[:, None]
    for i, text in slow.items():
        field[:width - 1, i] = np.frombuffer(text.encode().rjust(width - 1, b"\0"), np.uint8)
    return field.T.tobytes().translate(None, b"\0").decode("ascii")


def write_sweep_csvs(grid: SweepGrid, labels: Sequence[str],
                     out_dir: Path) -> List[Path]:
    """One CSV per frequency: distance column plus a power column per system.

    Values print as '%.4f' prints them; a power of NO_COVERAGE or NaN
    prints NOCOV. Only the grid's distances and powers are read.
    """
    paths = []
    header = "distance_m," + ",".join(f"power_dBm_{lbl}" for lbl in labels) + "\n"
    for f, freq in enumerate(grid.frequencies):
        values = np.column_stack([grid.distances, grid.power_dbm[:, :len(labels), f]])
        path = out_dir / f"sweep_{grid.environment}_{_ghz(freq)}GHz.csv"
        _write_text(path, header + _csv_rows(values))
        paths.append(path)
    return paths


def run_sweep_command(config: ScenarioConfig,
                      out_dir: Optional[Path] = None,
                      workers: int = 1) -> List[Path]:
    """Full receiver sweep; writes one CSV per configured frequency. It forms
    the powers alone, as run_sweep_grid with its checks and defaults: the
    CSVs hold no delay statistics."""
    env = build_environment(config.environment)
    distances, systems, frequencies, (power,) = channel._sweep(
        ("power",), env, build_systems(config), config.frequencies, workers=workers,
        **_sweep_settings(config))
    grid = SweepGrid(env.name, distances, systems, frequencies, power, None, None)
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
    pol = Polarization(config.physics.polarization)
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
    table = delay_spread_table([env], build_systems(config), config.frequencies,
                               aggregate=aggregate, workers=workers,
                               **_sweep_settings(config))
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
        name = _parse_field(EnvironmentConfig, "name", args.env, "--env")
        config = replace(config, environment=EnvironmentConfig(name=name))
    if getattr(args, "freq", None):
        freqs = _parse_field(ScenarioConfig, "frequencies", args.freq.split(","), "--freq")
        config = replace(config, frequencies=freqs)
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
