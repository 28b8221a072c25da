"""Set-up time in a fresh interpreter: the CPU time (user + sys) of the
main thread to import greenant, then load and validate the given scenario
files. CPU time, so that time the virtual machine's host takes the core
away does not count; of the main thread, because numpy's import starts
BLAS threads that spin.
Prints `[CPU seconds, reference unit seconds, [[unit wall s, unit CPU s],
...]]` as JSON, with clock.py's pure-Python work units timed just before
and just after, which rate the machine's speed (units timed during the
imports run slow whatever that speed is).

    python3 perfbench/setup_probe.py SCENARIO.json [SCENARIO.json ...]
"""

import json
import sys
import time
from pathlib import Path

import clock

RATED_UNITS = 20

for _ in range(clock.WARM_UNITS):
    clock.work_unit()
units = [clock.work_unit() for _ in range(RATED_UNITS)]
t0 = time.thread_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from greenant.scenario import load_scenario_file  # noqa: E402

for path in sys.argv[1:]:
    load_scenario_file(path)
elapsed = time.thread_time() - t0
units += [clock.work_unit() for _ in range(RATED_UNITS)]
print(json.dumps([elapsed, clock.REFERENCE_PYTHON_S, units]))
