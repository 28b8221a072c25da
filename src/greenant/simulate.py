"""Monte Carlo snapshot loop over one or more scenarios of the same world.

A snapshot is one random placement of mobiles plus one converged power
control solve per scenario. A single run is a campaign of one scenario,
a paired comparison one of two, a green-count sweep one of nested green
lists, fullest last. The scenarios of a campaign differ only in their
greens, and every earlier scenario's greens are also in the last one
(check_pairable), so what they share is computed once, from the last
scenario: one drop, one channel table and one association. Each earlier
scenario reads its own receive-point columns of that table. Each run is
solved under its own radio.combining, in lockstep to the same number of
power control iterations. That last point matters because every run
iterates monotonically upward from p_min; comparing at a common
iteration count is what makes the per-MS power ordering exact instead
of blurred by the stopping rule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .powerctl import Association, PowerControlResult, associate, solve_lockstep
from .propagation import build_gain_matrix
from .scenario import MobileStation, Scenario, drop_mobiles, strip_greens
from .seeds import derive_seed


class PairingError(Exception):
    """The scenarios of a campaign are not one world with more or fewer greens."""


def snapshot_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"snapshot:{index}")


@dataclass(frozen=True)
class Snapshot:
    """One drop, solved under every scenario of the campaign, in order."""

    index: int
    seed: int
    mobiles: tuple[MobileStation, ...]
    association: Association
    runs: tuple[PowerControlResult, ...]


def _check_campaign(scenarios: tuple[Scenario, ...]) -> None:
    for s in scenarios[:-1]:
        check_pairable(s, scenarios[-1])


def run_snapshot(scenarios: tuple[Scenario, ...], snap_seed: int, index: int = 0) -> Snapshot:
    """Solve one drop under every scenario, with shared randomness.

    Raises PairingError if an earlier scenario fails check_pairable
    against the last. The drop, the table and the association are the
    last scenario's; a scenario that is not the last reads its own
    columns of that table.
    """
    _check_campaign(scenarios)
    table_scenario = scenarios[-1]
    mobiles = drop_mobiles(table_scenario, snap_seed)
    gm = build_gain_matrix(table_scenario, mobiles, snap_seed)
    assoc = associate(gm)
    runs = tuple((s, gm if s is table_scenario else gm.restricted_to(s)) for s in scenarios)
    return Snapshot(index, snap_seed, tuple(mobiles), assoc,
                    solve_lockstep(runs, mobiles, assoc))


def _task(args) -> Snapshot:
    scenarios, seed, index = args
    return run_snapshot(scenarios, snapshot_seed(seed, index), index)


def run_campaign(scenarios: tuple[Scenario, ...], seed: int, n_snapshots: int,
                 jobs: int = 1) -> list[Snapshot]:
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    _check_campaign(scenarios)      # before any worker starts
    tasks = [(scenarios, seed, k) for k in range(n_snapshots)]
    if jobs <= 1 or n_snapshots == 1:
        return [_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_task, tasks))


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


def gather_tx_powers(snapshots, run: int = 0, pop_filter=None, kept=None) -> list[float]:
    """Concatenate filtered Tx powers (dBm) of one run across snapshots.

    `run` indexes the campaign's scenarios: 0 for a single run, 0
    (baseline) or 1 (green) for a pair. `kept` is the campaign's
    `metrics.kept_indices`, when the caller has already filtered it;
    otherwise pop_filter (default: everyone) is applied here.
    """
    from .metrics import NO_FILTER, kept_indices

    if kept is None:
        kept = kept_indices(snapshots, NO_FILTER if pop_filter is None else pop_filter)
    powers: list[float] = []
    for snap, idx in zip(snapshots, kept):
        powers.extend(snap.runs[run].tx_power_dbm[idx].tolist())
    return powers
