"""One cold set-up of a workload, timed in a fresh interpreter.

Usage: python3 bench/setup_probe.py CONFIG_JSON_LIST

Times importing hmslines from the checkout's src/, parse_config,
build_model and the line chart for each configuration.  Prints a JSON
pair: those seconds, and speed.spin_seconds() measured right after,
with which run.py scales them to reference speed.  run.py
starts it several times per run and reports the median as setup_s.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from speed import spin_seconds

configs = json.loads(sys.argv[1])
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = perf_counter()
from hmslines import lines, search  # noqa: E402

for raw in configs:
    config = search.parse_config(raw)
    model = search.build_model(config)
    if config.seed_point is not None:
        lines.TangentConeChart(model, list(config.seed_point))
seconds = perf_counter() - start
print(json.dumps([seconds, spin_seconds()]))
