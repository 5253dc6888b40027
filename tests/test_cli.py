"""Scenario parsing and command-line entry points."""

import inspect
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmray import channel, cli, system_preset
from mmray.antenna import KINDS
from mmray.channel import SweepGrid, run_sweep_grid
from mmray.cli import (
    BUILDERS, DEFAULT_FREQUENCIES, EnvironmentConfig, ObstacleSpec, OutputConfig,
    PhysicsConfig, ScenarioConfig, ScenarioError, SweepConfig, SystemConfig,
    build_environment, build_systems, emit_plot_script, main, parse_scenario,
    run_pdp_command, run_sweep_command, run_table_command, serialize_scenario,
    write_sweep_csvs,
)
from mmray.tracer import MAX_ORDER


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------

def test_empty_scenario_uses_defaults():
    cfg = parse_scenario("")
    assert cfg.environment.name == "straight_tunnel"
    assert [s.label for s in cfg.systems] == ["system1", "system2", "system3"]
    assert cfg.frequencies == DEFAULT_FREQUENCIES
    assert cfg.sweep.n_samples == 1024
    assert cfg.physics.polarization == "te"
    assert cfg.physics.max_order == 2


def test_empty_scenario_is_the_dataclass_defaults():
    assert parse_scenario("") == ScenarioConfig()


def test_scenario_defaults_are_the_library_defaults():
    """Every sweep setting a default scenario passes equals run_sweep_grid's own default."""
    library = {name: p.default
               for name, p in inspect.signature(run_sweep_grid).parameters.items()}
    scenario = cli._sweep_settings(ScenarioConfig())
    assert set(scenario) == {"n_samples", "rx_start", "rx_height", "tx", "polarization",
                             "max_order", "atmospheric"}
    assert scenario == {name: library[name] for name in scenario}


def test_quoted_scientific_notation_frequencies():
    cfg = parse_scenario("frequencies: ['60e9', '70e9']\n")
    assert cfg.frequencies == (60e9, 70e9)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        parse_scenario("environmnt: {name: straight_tunnel}\n")


def test_unknown_override_names_the_key():
    text = """
environment:
  name: straight_tunnel
  overrides: {epsilon_typo: 5.0}
"""
    with pytest.raises(ScenarioError, match="epsilon_typo"):
        parse_scenario(text)


def test_bad_permittivity_rejected():
    text = """
environment:
  name: straight_tunnel
  overrides: {eps_r: 0.2}
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_system_shorthand_and_mapping():
    text = """
systems:
  - system2
  - {kind: horn, tx_power_dbm: 12.0, peak_gain_dbi: 15.0, label: narrow}
"""
    cfg = parse_scenario(text)
    assert cfg.systems[0].kind == "omni"
    assert cfg.systems[1].label == "narrow"
    systems = build_systems(cfg)
    assert systems[1].peak_gain_dbi == 15.0


def test_unknown_system_preset_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("systems: [system9]\n")


def test_preset_with_unknown_kind_names_the_key():
    with pytest.raises(ScenarioError,
                       match=r"systems\[0\]\.kind: unknown antenna kind 'dish'"):
        parse_scenario("systems: [{preset: system1, kind: dish}]\n")


@pytest.mark.parametrize("order", [MAX_ORDER + 1, -1])
def test_max_order_outside_the_tracer_cap_rejected(order):
    with pytest.raises(ScenarioError, match=r"physics\.max_order"):
        parse_scenario(f"physics: {{max_order: {order}}}\n")


def test_roundtrip_through_serializer():
    text = """
environment:
  name: bent_tunnel
  overrides: {bend_angle_deg: 30.0}
systems: [system1, system3]
frequencies: [60e9]
sweep: {n_samples: 64, rx_start: 2.0}
physics: {polarization: tm, max_order: 1}
output: {csv_dir: results}
"""
    once = parse_scenario(text)
    again = parse_scenario(serialize_scenario(once))
    assert once == again


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PERMITTIVITY = st.floats(min_value=1.0, allow_infinity=False)
POINT = st.tuples(FINITE, FINITE, FINITE)
NAME = st.text("abz019_ -.:#", min_size=1, max_size=8)


@st.composite
def environments(draw):
    name = draw(st.sampled_from(sorted(BUILDERS)))
    params = inspect.signature(BUILDERS[name]).parameters
    keys = draw(st.lists(st.sampled_from(sorted(set(params) - {"obstacles"})), unique=True))
    overrides = tuple(sorted(
        (k, draw(st.booleans() if isinstance(params[k].default, bool) else PERMITTIVITY))
        for k in keys))
    obstacles = None
    if "obstacles" in params:
        obstacle = st.builds(ObstacleSpec, name=NAME, position=FINITE, thickness=POSITIVE,
                             eps_r=PERMITTIVITY, metal=st.booleans())
        obstacles = draw(st.none() | st.lists(obstacle, max_size=3).map(tuple))
    return EnvironmentConfig(name=name, overrides=overrides, obstacles=obstacles)


SCENARIOS = st.builds(
    ScenarioConfig,
    environment=environments(),
    systems=st.lists(st.builds(SystemConfig, label=NAME, kind=st.sampled_from(KINDS),
                               tx_power_dbm=FINITE, peak_gain_dbi=FINITE, boresight=POINT),
                     min_size=1, max_size=3, unique_by=lambda s: s.label).map(tuple),
    frequencies=st.lists(POSITIVE, min_size=1, max_size=4).map(tuple),
    sweep=st.builds(SweepConfig, n_samples=st.integers(min_value=2), rx_start=POSITIVE,
                    rx_height=POSITIVE, tx_position=POINT),
    physics=st.builds(PhysicsConfig, polarization=st.sampled_from(["te", "tm"]),
                      atmospheric_loss_on=st.booleans(),
                      max_order=st.integers(0, MAX_ORDER)),
    output=st.builds(OutputConfig, csv_dir=NAME,
                     pdp_positions=st.lists(FINITE, min_size=1, max_size=3).map(tuple),
                     pdp_bin_width=st.floats(min_value=0.0, allow_infinity=False),
                     plot=st.booleans()),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SCENARIOS)
def test_every_valid_config_survives_the_serializer(config):
    assert parse_scenario(serialize_scenario(config)) == config


def test_environment_with_obstacles_builds():
    text = """
environment:
  name: obstacle_corridor
  obstacles:
    - {name: screen, position: 12.0, thickness: 0.05, eps_r: 2.5}
    - {name: plate, position: 18.0, thickness: 0.02, metal: true}
"""
    cfg = parse_scenario(text)
    env = build_environment(cfg.environment)
    assert [o.name for o in env.obstacles] == ["screen", "plate"]
    assert env.obstacles[1].material.is_conductor


def test_builder_override_passthrough():
    cfg = parse_scenario(
        "environment: {name: straight_tunnel, overrides: {width: 3.0}}\n")
    env = build_environment(cfg.environment)
    assert env.width == 3.0


SHIPPED = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenarios_parse_and_build(path):
    cfg = parse_scenario(path.read_text())
    env = build_environment(cfg.environment)
    systems = build_systems(cfg)
    assert env.surfaces and len(systems) == len(cfg.systems)


def test_shipped_obstacle_scenario_matches_stock_set():
    path = next(p for p in SHIPPED if p.stem == "obstacle_corridor")
    cfg = parse_scenario(path.read_text())
    from mmray import build_obstacle_corridor
    built = build_environment(cfg.environment)
    stock = build_obstacle_corridor()
    assert built.surfaces == stock.surfaces

    def physics(env):
        return [(o.name, o.position, o.thickness,
                 o.material.eps_r, o.material.is_conductor)
                for o in env.obstacles]

    assert physics(built) == physics(stock)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

SMALL = """
environment: {name: straight_tunnel}
systems: [system1]
frequencies: [60e9]
sweep: {n_samples: 16}
"""


def test_sweep_command_writes_csv(tmp_path):
    cfg = parse_scenario(SMALL)
    paths = run_sweep_command(cfg, out_dir=tmp_path)
    assert len(paths) == 1
    assert paths[0].name == "sweep_straight_tunnel_60GHz.csv"
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "distance_m,power_dBm_system1"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)
    float(first[1])  # parses as a number


def test_sweep_csv_marks_blocked_samples(tmp_path):
    text = """
environment: {name: obstacle_corridor}
systems: [system1]
frequencies: [60e9]
sweep: {n_samples: 40}
"""
    paths = run_sweep_command(parse_scenario(text), out_dir=tmp_path)
    body = paths[0].read_text()
    assert "NOCOV" in body


def test_sweep_csv_text_follows_the_per_cell_rule(tmp_path):
    inf, nan = float("inf"), float("nan")
    power = np.array([
        [[-inf, -73.3797184512], [nan, -12.34565]],
        [[-0.00004, 0.00005], [-12.34575, inf]],
        [[5e-5, -5e-5], [1234.56785, -inf]],
    ])  # [position, system, frequency]
    grid = SweepGrid("toy", np.array([1.0, 1.00005, 43.999949]),
                     tuple(system_preset(k) for k in ("system1", "system3")),
                     (60e9, 70.5e9), power, power * nan, power * nan)
    labels = ["banana", "-inf"]
    files = write_sweep_csvs(grid, labels, tmp_path)

    def cell(value):  # NO_COVERAGE or NaN -> NOCOV, otherwise 4 decimals
        return "NOCOV" if value == float("-inf") or math.isnan(value) else f"{value:.4f}"

    assert [f.name for f in files] == ["sweep_toy_60GHz.csv", "sweep_toy_70.5GHz.csv"]
    for f, path in enumerate(files):
        lines = ["distance_m,power_dBm_banana,power_dBm_-inf"]
        for i, d in enumerate(grid.distances.tolist()):
            lines.append(",".join([f"{d:.4f}"] + [cell(float(power[i, s, f])) for s in range(2)]))
        assert path.read_text() == "\n".join(lines) + "\n"
    assert files[0].read_text().splitlines()[2] == "1.0001,-0.0000,-12.3458"


@pytest.mark.parametrize("workers", [1, 2])
def test_the_sweep_command_forms_no_moments_and_writes_the_grid_s_bytes(
        tmp_path, monkeypatch, workers):
    """`mmray sweep` of each shipped scenario writes the bytes that
    write_sweep_csvs writes from run_sweep_grid, the bent duct's NOCOV rows
    included; on one worker a spy sees it take no delay moments, and then
    sees the grid take them."""
    calls, moments = [], channel._delay_moments
    monkeypatch.setattr(channel, "_delay_moments", lambda *args: calls.append(1) or moments(*args))
    nocov = []
    for path in SHIPPED:
        config = parse_scenario(path.read_text())
        files = run_sweep_command(config, tmp_path / "command" / path.stem, workers)
        assert not calls
        grid = run_sweep_grid(build_environment(config.environment), build_systems(config),
                              config.frequencies, workers=workers, **cli._sweep_settings(config))
        assert calls or workers > 1
        expected = write_sweep_csvs(grid, [s.label for s in config.systems],
                                    tmp_path / "grid" / path.stem)
        assert [f.name for f in files] == [f.name for f in expected]
        assert [f.read_bytes() for f in files] == [f.read_bytes() for f in expected]
        nocov += [path.stem for f in files if b"NOCOV" in f.read_bytes()]
        calls.clear()
    assert {"bent_tunnel", "obstacle_corridor"} <= set(nocov)


def _cell(value: float) -> str:
    return "NOCOV" if value == -math.inf or math.isnan(value) else "%.4f" % value


TIES = st.integers(-2 ** 40, 2 ** 40).map(lambda k: (2 * k + 1) / 32)  # x * 1e4 a half integer
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1e-9, -4.9e-5, 5e-5, -5e-5, 12.34565, -12.34575,
                     math.nan, -math.nan, math.inf, -math.inf]),
    TIES,
    TIES.map(lambda t: float(np.nextafter(t, math.inf))),
    TIES.map(lambda t: float(np.nextafter(t, -math.inf))),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k / 1e4 + 5e-5),  # near decimal ties
    st.floats(1e11, 1e300).flatmap(lambda v: st.sampled_from([v, -v, float(np.nextafter(1e11, 0))])),
    st.floats(-1e-3, 1e-3),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=1, max_size=12)))
def test_the_vectorized_csv_rows_equal_the_per_cell_rule(rows):
    values = np.array(rows, float)
    want = "".join(",".join(map(_cell, row)) + "\n" for row in values.tolist())
    assert cli._csv_rows(values) == want


def test_pdp_command_footers(tmp_path):
    cfg = parse_scenario(SMALL)
    paths = run_pdp_command(cfg, rx_distance=10.0, out_dir=tmp_path)
    assert len(paths) == 1
    text = paths[0].read_text()
    lines = text.splitlines()
    assert lines[0] == "delay_s,excess_delay_s,normalized_power"
    assert any(line.startswith("mean_excess_delay_ns=") for line in lines)
    assert any(line.startswith("rms_delay_spread_ns=") for line in lines)
    # normalized peak of exactly one
    peaks = [float(l.split(",")[2]) for l in lines[1:] if "," in l]
    assert max(peaks) == pytest.approx(1.0)


def test_pdp_command_rejects_out_of_range(tmp_path):
    cfg = parse_scenario(SMALL)
    with pytest.raises(cli.CommandError):
        run_pdp_command(cfg, rx_distance=99.0, out_dir=tmp_path)


def test_table_command_output(tmp_path):
    text = """
environment: {name: straight_tunnel}
systems: [system1, system3]
frequencies: [60e9]
sweep: {n_samples: 32}
"""
    rendered, path = run_table_command(parse_scenario(text), out_dir=tmp_path)
    assert "isotropic" in rendered and "horn" in rendered
    lines = path.read_text().splitlines()
    assert lines[0] == "antenna,rms_ns_60GHz"
    assert len(lines) == 3


def test_plot_script_for_sweep_csv(tmp_path):
    cfg = parse_scenario(SMALL)
    csvs = run_sweep_command(cfg, out_dir=tmp_path)
    script = emit_plot_script(csvs)
    text = script.read_text()
    assert "set datafile separator" in text
    assert 'missing "NOCOV"' in text
    assert csvs[0].name in text


def test_plot_script_missing_input_fails():
    with pytest.raises(cli.CommandError):
        emit_plot_script(["/nonexistent/sweep_foo_60GHz.csv"])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_scenario(tmp_path, body=SMALL):
    p = tmp_path / "scenario.yaml"
    p.write_text(body)
    return p


def test_main_sweep_roundtrip(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    rc = main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "sweep_straight_tunnel_60GHz.csv").exists()


def test_main_pdp(tmp_path):
    scn = _write_scenario(tmp_path)
    rc = main(["pdp", "--scenario", str(scn), "--rx", "10.0",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    files = list((tmp_path / "o").glob("pdp_*.csv"))
    assert len(files) == 1


def test_main_table(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    rc = main(["table", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "isotropic" in out


def test_main_validate(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    assert main(["validate", "--scenario", str(scn)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()


@pytest.mark.parametrize("body, flags, key", [
    ("frequencies: [.nan]", [], "frequencies[0]"),
    ("frequencies: [.inf]", [], "frequencies[0]"),
    ("sweep: {rx_start: .nan}", [], "sweep.rx_start"),
    ("sweep: {tx_position: [.nan, 0, 2]}", [], "sweep.tx_position[0]"),
    ("output: {pdp_bin_width: .inf}", [], "output.pdp_bin_width"),
    ("systems: [system1]", ["--freq", "nan"], "--freq"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, body, flags, key):
    scn = _write_scenario(tmp_path, body + "\n")
    out = tmp_path / "o"
    rc = main(["pdp", "--scenario", str(scn), "--rx", "10", "--out", str(out),
               *flags])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, flags, message", [
    ("sweep", "environment: {name: bent_tunnel, overrides: {bend_angle_deg: 95}}", [],
     "environment.overrides: bend angle must be in (0, 90) degrees, got 95.0"),
    ("pdp", "output: {pdp_positions: []}", [],
     "output.pdp_positions: expected a non-empty list"),
    ("validate", "", ["--env", "hyperloop"], "--env: unknown environment 'hyperloop'"),
    ("sweep", "environment: {name: obstacle_corridor, overrides: {wood_eps_r: 2.0, "
     "glass_eps_r: 9.0}, obstacles: [{name: door, position: 10.0, eps_r: 3.3}]}", [],
     "environment.overrides: wood_eps_r=2.0 has no effect"),
])
def test_rejected_values_name_the_key(tmp_path, capsys, command, body, flags, message):
    scn = _write_scenario(tmp_path, body + "\n")
    out = tmp_path / "o"
    rc = main([command, "--scenario", str(scn), *flags]
              + (["--out", str(out)] if command != "validate" else []))
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_and_table_sweep_with_the_same_settings(tmp_path, monkeypatch):
    """Both commands reach the sweep front end that run_sweep_grid and
    delay_spread_table share, with equal keywords."""
    calls = []
    original = channel._sweep

    def recording(block, env, systems, frequencies, **kwargs):
        calls.append(kwargs)
        return original(block, env, systems, frequencies, **kwargs)

    monkeypatch.setattr(channel, "_sweep", recording)
    cfg = parse_scenario(SMALL + "physics: {polarization: tm, atmospheric_loss_on: true}\n")
    run_sweep_command(cfg, out_dir=tmp_path)
    run_table_command(cfg, out_dir=tmp_path)
    assert len(calls) == 2
    assert calls[0] == calls[1]
    assert calls[0]["atmospheric"] is True


@pytest.mark.parametrize("command", ["sweep", "table"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(tmp_path, capsys, command, workers):
    scn = _write_scenario(tmp_path, "sweep: {n_samples: 16}\n")
    out = tmp_path / "o"
    rc = main([command, "--scenario", str(scn), "--out", str(out),
               "--workers", workers])
    assert rc == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "table"])
def test_a_worker_count_that_is_no_integer_is_rejected(tmp_path, capsys, command):
    scn = _write_scenario(tmp_path, "sweep: {n_samples: 16}\n")
    out = tmp_path / "o"
    with pytest.raises(SystemExit):
        main([command, "--scenario", str(scn), "--out", str(out), "--workers", "1.5"])
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
    config = parse_scenario(scn.read_text())
    run = run_sweep_command if command == "sweep" else run_table_command
    for workers in (0, -3, 1.5):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run(config, out, workers=workers)
    assert not out.exists()


def test_main_flag_overrides(tmp_path):
    scn = _write_scenario(tmp_path)
    rc = main(["sweep", "--scenario", str(scn), "--env", "free_space",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "sweep_free_space_60GHz.csv").exists()


def test_main_missing_scenario_fails(tmp_path, capsys):
    rc = main(["sweep", "--scenario", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_main_bad_scenario_fails(tmp_path, capsys):
    scn = tmp_path / "bad.yaml"
    scn.write_text("environment: {name: hyperloop}\n")
    rc = main(["sweep", "--scenario", str(scn)])
    assert rc == 1
    assert "hyperloop" in capsys.readouterr().err


def test_main_plot(tmp_path):
    scn = _write_scenario(tmp_path)
    main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    csv = tmp_path / "o" / "sweep_straight_tunnel_60GHz.csv"
    rc = main(["plot", str(csv), "--out", str(tmp_path / "o" / "p.gp")])
    assert rc == 0
    assert (tmp_path / "o" / "p.gp").exists()


def test_main_freq_flag_selects_the_carriers(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scn), "--freq", "70e9,80.5e9",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "sweep_straight_tunnel_70GHz.csv", "sweep_straight_tunnel_80.5GHz.csv"]
    assert capsys.readouterr().out.split() == [
        str(out / "sweep_straight_tunnel_70GHz.csv"), str(out / "sweep_straight_tunnel_80.5GHz.csv")]


def test_main_system_flag_selects_the_presets(tmp_path):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scn), "--system", "system3, system2",
                 "--out", str(out)]) == 0
    header = (out / "sweep_straight_tunnel_60GHz.csv").read_text().splitlines()[0]
    assert header == "distance_m,power_dBm_system3,power_dBm_system2"


def test_main_polarization_flag_sets_the_reflections(tmp_path):
    """--polarization tm writes what a TM scenario writes, which is not
    what the TE default writes."""
    runs = {}
    for name, body, flags in (("te", SMALL, []), ("flag", SMALL, ["--polarization", "tm"]),
                              ("tm", SMALL + "physics: {polarization: tm}\n", [])):
        (tmp_path / name).mkdir()
        scn = _write_scenario(tmp_path / name, body)
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / name / "o"),
                     *flags]) == 0
        runs[name] = (tmp_path / name / "o" / "sweep_straight_tunnel_60GHz.csv").read_text()
    assert runs["flag"] == runs["tm"] != runs["te"]


def test_main_pdp_without_rx_uses_the_scenario_positions(tmp_path, capsys):
    scn = _write_scenario(tmp_path, SMALL + "output: {pdp_positions: [5.0, 12.5]}\n")
    out = tmp_path / "o"
    assert main(["pdp", "--scenario", str(scn), "--out", str(out)]) == 0
    names = ["pdp_straight_tunnel_system1_60GHz_5m.csv",
             "pdp_straight_tunnel_system1_60GHz_12.5m.csv"]
    assert capsys.readouterr().out.split() == [str(out / n) for n in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


def test_main_validate_reports_each_violation(tmp_path, capsys):
    scn = _write_scenario(tmp_path, """
environment:
  name: obstacle_corridor
  obstacles:
    - {name: door, position: 10.0, thickness: 0.5}
    - {name: screen, position: 10.2}
    - {name: far, position: 50.0}
""")
    assert main(["validate", "--scenario", str(scn)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "violation: obstacles 'door' and 'screen' overlap",
        "violation: obstacle 'far': position outside the duct axis"]


@pytest.mark.parametrize("command, script", [("sweep", "plots.gp"), ("pdp", "pdp_plots.gp")])
def test_plot_output_writes_a_script_beside_the_csvs(tmp_path, capsys, command, script):
    scn = _write_scenario(tmp_path, SMALL + "frequencies: [60e9, 70e9]\noutput: {plot: true}\n")
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scn), "--out", str(out)]
                + (["--rx", "10"] if command == "pdp" else [])) == 0
    printed = capsys.readouterr().out.split()
    assert printed[-1] == str(out / script)
    text = (out / script).read_text()
    assert len(printed) == 3
    for csv in printed[:-1]:
        assert f"'{csv}'" in text and f"set output '{pathlib.Path(csv).stem}.png'" in text


def test_plot_script_for_pdp_and_table_csvs(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["pdp", "--scenario", str(scn), "--rx", "10", "--out", str(out)]) == 0
    assert main(["table", "--scenario", str(scn), "--out", str(out)]) == 0
    pdp = out / "pdp_straight_tunnel_system1_60GHz_10m.csv"
    table = out / "delay_spread_straight_tunnel.csv"
    capsys.readouterr()
    assert main(["plot", str(pdp), str(table), "--out", str(out / "p.gp")]) == 0
    assert capsys.readouterr().out.strip() == str(out / "p.gp")
    text = (out / "p.gp").read_text()
    assert f"plot '{pdp}' using ($2*1e9):3 with impulses" in text
    assert "set logscale y" in text and "set yrange [1e-7:2]" in text
    assert f"plot for [col=2:*] '{table}' using col:xtic(1) title columnheader" in text
    assert "set style data histograms" in text
    # the log axis of the PDP is switched off again for the table after it
    assert text.index("unset logscale y") > text.index("set logscale y")
