"""Deterministic image-method ray tracing for indoor mm-wave radio channels.

Models 60-90 GHz propagation in corridors and tunnels with up to two
specular reflections per ray, Fresnel wall interactions, transmissive
obstacle slabs, and three power-normalized antenna systems. Per receiver
it gives narrowband received power, channel impulse responses, power
delay profiles and delay spread statistics; run_sweep_grid and
delay_spread_table evaluate whole receiver sweeps. The runtime needs
only numpy and pyyaml.
"""

from .antenna import (
    BACK_LOBE_GAIN,
    AntennaSystem,
    gain,
    make_system,
    solve_pattern_exponent,
    system_preset,
)
from .channel import (
    ATMOSPHERIC_LOSS_DB_PER_M,
    NO_COVERAGE,
    CarrierConfig,
    ChannelTap,
    DelaySpreadTable,
    PowerDelayProfile,
    SweepGrid,
    dbm_to_watts,
    delay_spread_table,
    impulse_response,
    mean_excess_delay,
    power_delay_profile,
    received_power,
    rms_delay_spread,
    run_sweep_grid,
    watts_to_dbm,
)
from .cli import (
    ScenarioConfig,
    ScenarioError,
    build_environment,
    build_systems,
    parse_scenario,
    serialize_scenario,
)
from .scene import (
    BUILDERS,
    METAL,
    CenterlineSegment,
    Environment,
    Material,
    ObstacleSlab,
    Surface,
    ValidationReport,
    build_bent_tunnel,
    build_obstacle_corridor,
    build_plain_corridor,
    build_straight_tunnel,
    default_corridor_obstacles,
    free_space,
    validate_environment,
)
from .tracer import (
    SPEED_OF_LIGHT,
    Bounce,
    PathContribution,
    Polarization,
    SlabCrossing,
    enumerate_paths,
    fresnel_reflection,
    path_geometry,
    reflection_coefficient,
    slab_transmission,
)

__version__ = "0.1.0"

__all__ = [
    "ATMOSPHERIC_LOSS_DB_PER_M",
    "BACK_LOBE_GAIN",
    "BUILDERS",
    "METAL",
    "NO_COVERAGE",
    "SPEED_OF_LIGHT",
    "AntennaSystem",
    "Bounce",
    "CarrierConfig",
    "CenterlineSegment",
    "ChannelTap",
    "DelaySpreadTable",
    "Environment",
    "Material",
    "ObstacleSlab",
    "PathContribution",
    "Polarization",
    "PowerDelayProfile",
    "ScenarioConfig",
    "ScenarioError",
    "SlabCrossing",
    "Surface",
    "SweepGrid",
    "ValidationReport",
    "build_bent_tunnel",
    "build_environment",
    "build_obstacle_corridor",
    "build_plain_corridor",
    "build_straight_tunnel",
    "build_systems",
    "dbm_to_watts",
    "default_corridor_obstacles",
    "delay_spread_table",
    "enumerate_paths",
    "free_space",
    "fresnel_reflection",
    "gain",
    "impulse_response",
    "make_system",
    "mean_excess_delay",
    "parse_scenario",
    "path_geometry",
    "power_delay_profile",
    "received_power",
    "reflection_coefficient",
    "rms_delay_spread",
    "run_sweep_grid",
    "serialize_scenario",
    "slab_transmission",
    "solve_pattern_exponent",
    "system_preset",
    "validate_environment",
    "watts_to_dbm",
]
