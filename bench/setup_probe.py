"""Set-up probe, run in a fresh interpreter by run.py.

Does what every CLI run does before its first trace: import mmray, then per
scenario parse_scenario, build_environment and build_systems (which solves
the antenna pattern exponents). Prints one JSON line with the phase times.

    python3 bench/setup_probe.py straight_tunnel bent_tunnel
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmray"
if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"error: {PACKAGE} not found")
sys.path.insert(0, str(ROOT / "src"))

import mmray  # noqa: E402
from mmray import cli  # noqa: E402

if Path(mmray.__file__).resolve().parent != PACKAGE.resolve():
    sys.exit(f"error: imported mmray from {mmray.__file__}, not {PACKAGE}")
t_import = time.perf_counter()

phases = {"import_s": t_import - t_start, "parse_s": 0.0, "build_s": 0.0,
          "make_system_s": 0.0}
for name in sys.argv[1:]:
    text = (ROOT / "scenarios" / f"{name}.yaml").read_text()
    t0 = time.perf_counter()
    config = cli.parse_scenario(text)
    t1 = time.perf_counter()
    cli.build_environment(config.environment)
    t2 = time.perf_counter()
    cli.build_systems(config)
    t3 = time.perf_counter()
    phases["parse_s"] += t1 - t0
    phases["build_s"] += t2 - t1
    phases["make_system_s"] += t3 - t2
print(json.dumps(phases), flush=True)
