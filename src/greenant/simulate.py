"""Monte Carlo snapshot loop over one or more scenarios of the same world.

A snapshot is one random placement of mobiles plus one converged power
control solve per scenario. A single run is a campaign of one scenario,
a paired comparison one of two, a green-count sweep one of nested green
lists, fullest last. The scenarios of a campaign differ only in their
greens, and every earlier scenario's greens are also in the last one
(check_pairable, once per campaign), so what they share is computed
once, from the last scenario: one drop, one channel table and one
association (`draw_snapshot`, which the CLI's gain dump calls too).
The drop is one `Drop` of read-only arrays that every layer reads whole.
Each earlier scenario reads its own receive-point columns of that
table. Each run is solved under its own radio.combining, in
lockstep to the same number of power control iterations. That last
point matters because every run iterates monotonically upward from
p_min; comparing at a common iteration count is what makes the per-MS
power ordering exact instead of blurred by the stopping rule.

`run_campaign` is the one way in, for a single snapshot too. It runs
in tasks, each a contiguous range of snapshot indices: the whole
campaign at jobs=1, one range per worker otherwise. A task hands
powerctl's solve_snapshots a generator of its snapshots and a slot
count (up to STACK_LINKS stacked links); a snapshot is drawn,
tabulated and associated only when a solver slot frees for it, so a
task holds the tables of at most one stack. Each snapshot's results
are the bits of its solve alone, so neither the slot count, the order
in which snapshots stop, nor the number of workers changes any output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .powerctl import PowerControlResult, associate, solve_snapshots
from .propagation import LinkGainMatrix, build_gain_matrix
from .scenario import Drop, Scenario, drop_mobiles, strip_greens
from .seeds import derive_seed

#: Slot budget of a task's solver stack, in links (snapshots x mobiles x
#: receive points, summed over the runs): 0.5 MB per float64 stack. That
#: is 7 slots of the bundled pair and 48 of the 11-green map with 2
#: mobiles per sector. Against half this budget (3 and 24 slots),
#: perfbench read 16% less time per pair on hole-compare and 9% less on
#: hole-compare-j2, the same time on multi-green-egc, and about 1 MB more
#: peak memory (2-core shared x86-64 machine).
STACK_LINKS = 1 << 16


class PairingError(Exception):
    """The scenarios of a campaign are not one world with more or fewer greens."""


def snapshot_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"snapshot:{index}")


@dataclass(frozen=True)
class Snapshot:
    """One drop, solved under every scenario of the campaign, in order."""

    index: int
    seed: int
    mobiles: Drop
    association: np.ndarray         # serving sector per MS, see powerctl.associate
    runs: tuple[PowerControlResult, ...]

    def __setstate__(self, state: dict) -> None:
        # a worker's association comes back writeable from the pickle
        self.__dict__.update(state)
        self.association.flags.writeable = False


def draw_snapshot(scenarios: tuple[Scenario, ...], snap_seed: int
                  ) -> tuple[Drop, tuple[LinkGainMatrix, ...]]:
    """The drop of one snapshot and each scenario's table of it.

    The drop and the table are the last scenario's; a scenario that is
    not the last reads its own columns of that table.
    """
    table_scenario = scenarios[-1]
    mobiles = drop_mobiles(table_scenario, snap_seed)
    gm = build_gain_matrix(table_scenario, mobiles, snap_seed)
    return mobiles, tuple(gm if s is table_scenario else gm.restricted_to(s) for s in scenarios)


def _slot_count(scenarios: tuple[Scenario, ...]) -> int:
    """Snapshots in a task's solver stack, under STACK_LINKS."""
    s = scenarios[-1]
    n_ms = s.traffic.mobiles_per_sector * s.n_sectors()
    links = n_ms * sum(v.n_sectors() + len(v.greens) for v in scenarios)
    return max(1, STACK_LINKS // max(links, 1))


def _task(args) -> list[Snapshot]:
    """Snapshots start..stop-1, each drawn when a solver slot frees."""
    scenarios, seed, start, stop = args
    drawn = []

    def stream():
        for index in range(start, stop):
            snap_seed = snapshot_seed(seed, index)
            mobiles, tables = draw_snapshot(scenarios, snap_seed)
            serving = associate(tables[-1])
            drawn.append((index, snap_seed, mobiles, serving))
            yield mobiles, serving, tables

    solved = solve_snapshots(scenarios, stream(), slots=_slot_count(scenarios))
    return [Snapshot(*snap, runs) for snap, runs in zip(drawn, solved)]


def run_campaign(scenarios: tuple[Scenario, ...], seed: int, n_snapshots: int,
                 jobs: int = 1) -> list[Snapshot]:
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    for s in scenarios[:-1]:        # once, before any worker starts
        check_pairable(s, scenarios[-1])
    workers = min(max(jobs, 1), n_snapshots)
    if workers == 1:
        return _task((scenarios, seed, 0, n_snapshots))
    bounds = [n_snapshots * w // workers for w in range(workers + 1)]
    tasks = [(scenarios, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [snap for part in pool.map(_task, tasks) for snap in part]


def check_pairable(baseline: Scenario, green: Scenario) -> None:
    """The two scenarios may differ only in their green antenna lists, and
    every baseline green must also be in the green scenario, unchanged."""
    if strip_greens(baseline) != strip_greens(green):
        raise PairingError(
            "scenarios differ outside the green antenna section; paired "
            "comparison would not share randomness")
    greens = {g.id: g for g in green.greens}
    for g in baseline.greens:
        if greens.get(g.id) != g:
            raise PairingError(
                f"baseline green antenna '{g.id}' is not in the green scenario "
                f"as it is in the baseline; the green scenario must hold every "
                f"baseline green")
