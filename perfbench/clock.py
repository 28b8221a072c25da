"""Machine-speed sampling, to take a shared machine's speed out of the
benchmark's times.

On a machine shared with other tenants the same Python code runs at two
speeds that alternate every few hundred ms to a few minutes (about 1.75x
apart on the 2-core virtual machine this was written on, independently on
each core, with CPU time moving with wall time), and the host sometimes
takes a core away. A median over one run cannot average that out, so raw
campaign times drift by 30% between runs.

While a measured call runs, a SIGALRM timer interrupts it every
INTERVAL_S and times one fixed work unit (`work_unit`): JSON, string and
dict work plus small numpy array operations, the two kinds of work the
program does. Worker processes forked during the call (the program's
process pool) sample their own core the same way and append their unit
times to a file. The mean unit time tracks the speed the call ran at.
`Samples` takes the units' own time off the call's wall and CPU times and
rescales each to the speed at which a unit takes its reference time. The
timers and handlers exist only while a measured call runs; program code
is not touched.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

INTERVAL_S = 0.025
#: Unit times at the uncontended speed of the machine this was tuned on.
#: They only set the scale: all times are reported at this reference speed.
REFERENCE_PYTHON_S = 0.0005
REFERENCE_NUMPY_S = 0.00005
WARM_UNITS = 20
WALL, CPU = 0, 1        # index into a unit's (wall, CPU) times

_DOC = {"items": [{"id": f"item-{i}", "pos": [i * 1.5, -i / 3.0], "tags": ["a", "b", str(i)],
                   "nested": {"k": i, "v": [j * 0.25 for j in range(8)]}} for i in range(60)]}

#: Directory that children forked during `sampling` write their units to,
#: and the numpy module their units use. Fork hooks cannot be unregistered,
#: so the one hook reads these.
_child_dir: Path | None = None
_child_numpy = None
_hook_registered = False


def work_unit(np=None) -> tuple[float, float]:
    """(wall, CPU) seconds to run a fixed mix of JSON, string formatting
    and dict work and, given the numpy module, a few small array
    operations. Wall time also counts time the virtual machine's host took
    the core away; CPU time does not."""
    w0, c0 = perf_counter(), thread_time()
    doc = json.loads(json.dumps(_DOC))
    labels = [f"ul:{it['id']}:{j}" for it in doc["items"] for j in range(6)]
    {lab: len(lab) for lab in labels}
    if np is not None:
        v = np.linspace(0.1, 1.0, 210)
        x = v
        for _ in range(6):
            x = np.clip(x * 1.01 / (x @ v + 1.0), 0.0, 2.0)
    return perf_counter() - w0, thread_time() - c0


@dataclass
class Samples:
    """(wall, CPU) unit times of this process and of each forked child."""

    reference_s: float
    units: list[tuple[float, float]] = field(default_factory=list)
    child_units: list[list[tuple[float, float]]] = field(default_factory=list)

    def scaled_wall(self, elapsed_s: float) -> float:
        """Wall time `elapsed_s` without the units' time, at the reference
        speed. A unit in any of the lanes delays about 1/lanes of the work."""
        lanes = self._lanes()
        if not lanes[0]:
            return elapsed_s
        return (elapsed_s - self._units_total(WALL) / len(lanes)) * self.speed(WALL)

    def scaled_cpu(self, cpu_s: float) -> float:
        """CPU time `cpu_s` of all processes without the units' own CPU
        time, at the reference speed."""
        return (cpu_s - self._units_total(CPU)) * self.speed(CPU)

    def speed(self, clock: int) -> float:
        """Mean speed of the lanes relative to the reference (1.0 when a
        unit takes its reference time) by the WALL or CPU clock.

        The program's work ran in the children when there were any (a
        process pool), else here. Each lane is rated by its own mean unit
        time, and lanes' throughputs add up. 1.0 without samples.
        """
        lanes = self._lanes()
        if not lanes[0]:
            return 1.0
        return sum(self.reference_s * len(lane) / sum(u[clock] for u in lane)
                   for lane in lanes) / len(lanes)

    def _lanes(self) -> list[list[tuple[float, float]]]:
        return [c for c in self.child_units if c] or [self.units]

    def _units_total(self, clock: int) -> float:
        return sum(u[clock] for lane in [self.units, *self.child_units] for u in lane)


def _sample_in_child() -> None:
    if _child_dir is None:
        return
    path = _child_dir / f"units-{os.getpid()}.txt"
    np = _child_numpy

    def on_alarm(signum, frame):
        wall, cpu = work_unit(np)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{wall!r} {cpu!r}\n")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


@contextlib.contextmanager
def sampling(child_dir: Path | None = None):
    """Sample the machine's speed until the block exits; with
    `child_dir`, an empty directory, also in children forked meanwhile."""
    global _child_dir, _child_numpy, _hook_registered
    if not _hook_registered:
        os.register_at_fork(after_in_child=_sample_in_child)
        _hook_registered = True
    import numpy as np      # not at module level: the set-up probe times numpy's import

    samples = Samples(REFERENCE_PYTHON_S + REFERENCE_NUMPY_S)
    for _ in range(WARM_UNITS):     # a fresh interpreter runs the first units slower
        work_unit(np)

    def on_alarm(signum, frame):
        samples.units.append(work_unit(np))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    _child_dir, _child_numpy = child_dir, np
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        _child_dir = None
        signal.signal(signal.SIGALRM, previous)
        for f in sorted(child_dir.glob("units-*.txt")) if child_dir else ():
            samples.child_units.append([tuple(map(float, line.split()))
                                        for line in f.read_text(encoding="utf-8").splitlines()])
            f.unlink()
