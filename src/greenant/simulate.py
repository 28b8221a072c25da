"""Monte Carlo snapshot loop, single-run and paired baseline-vs-green.

A snapshot is one random placement of mobiles plus one converged power
control solve. A paired snapshot computes what the two scenarios share
once: one drop, one channel table (the baseline solve reads its sector
columns) and one association. The two solves then run in lockstep to
the same number of power control iterations. That last point matters
because both iterate monotonically upward from p_min; comparing at a
common iteration count is what makes the per-MS power ordering exact
instead of blurred by the stopping rule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .powerctl import (Association, PowerControlResult, associate,
                       solve_paired_power_control, solve_power_control)
from .propagation import build_gain_matrix
from .scenario import MobileStation, Scenario, drop_mobiles, strip_greens
from .seeds import derive_seed


class PairingError(Exception):
    """The two scenarios of a pair differ outside their green antenna lists."""


def snapshot_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"snapshot:{index}")


@dataclass(frozen=True)
class SnapshotResult:
    index: int
    seed: int
    mobiles: tuple[MobileStation, ...]
    association: Association
    control: PowerControlResult


@dataclass(frozen=True)
class PairedSnapshot:
    index: int
    seed: int
    mobiles: tuple[MobileStation, ...]
    association: Association
    baseline: PowerControlResult
    green: PowerControlResult


def run_snapshot(s: Scenario, snap_seed: int, index: int = 0,
                 combining: str | None = None) -> SnapshotResult:
    mobiles = drop_mobiles(s, snap_seed)
    gm = build_gain_matrix(s, mobiles, snap_seed)
    assoc = associate(gm)
    control = solve_power_control(s, mobiles, gm, assoc, combining=combining)
    return SnapshotResult(index, snap_seed, tuple(mobiles), assoc, control)


def run_paired_snapshot(baseline: Scenario, green: Scenario, snap_seed: int,
                        index: int = 0, combining: str | None = None) -> PairedSnapshot:
    """Solve one snapshot under both scenarios with shared randomness.

    Raises PairingError if the scenarios fail check_pairable. Once they
    pass, neither the drop, the sector columns of the channel table nor
    the association can depend on the greens, so each is computed once,
    from the green scenario.
    """
    check_pairable(baseline, green)
    mobiles = drop_mobiles(green, snap_seed)
    gm = build_gain_matrix(green, mobiles, snap_seed)
    assoc = associate(gm)
    ctl_b, ctl_g = solve_paired_power_control(baseline, green, mobiles, gm, assoc,
                                              combining=combining)
    return PairedSnapshot(index, snap_seed, tuple(mobiles), assoc, ctl_b, ctl_g)


def _snapshot_task(args) -> SnapshotResult:
    s, seed, index, combining = args
    return run_snapshot(s, snapshot_seed(seed, index), index, combining)


def _paired_task(args) -> PairedSnapshot:
    baseline, green, seed, index, combining = args
    return run_paired_snapshot(baseline, green, snapshot_seed(seed, index),
                               index, combining)


def run_campaign(s: Scenario, seed: int, n_snapshots: int,
                 combining: str | None = None, jobs: int = 1) -> list[SnapshotResult]:
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    tasks = [(s, seed, k, combining) for k in range(n_snapshots)]
    if jobs <= 1 or n_snapshots == 1:
        return [_snapshot_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_snapshot_task, tasks))


def run_paired_campaign(baseline: Scenario, green: Scenario, seed: int,
                        n_snapshots: int, combining: str | None = None,
                        jobs: int = 1) -> list[PairedSnapshot]:
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    check_pairable(baseline, green)
    tasks = [(baseline, green, seed, k, combining) for k in range(n_snapshots)]
    if jobs <= 1 or n_snapshots == 1:
        return [_paired_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_paired_task, tasks))


def check_pairable(baseline: Scenario, green: Scenario) -> None:
    """The two scenarios may differ only in their green antenna lists."""
    if strip_greens(baseline) != strip_greens(green):
        raise PairingError(
            "scenarios differ outside the green antenna section; paired "
            "comparison would not share randomness")


def gather_tx_powers(snapshots, which: str = "control",
                     pop_filter=None) -> list[float]:
    """Concatenate filtered Tx powers (dBm) across snapshots.

    `which` picks the attribute holding the PowerControlResult: "control"
    for single runs, "baseline" or "green" for paired ones.
    """
    from .metrics import NO_FILTER, filter_population

    f = NO_FILTER if pop_filter is None else pop_filter
    powers: list[float] = []
    for snap in snapshots:
        powers.extend(filter_population(list(snap.mobiles), getattr(snap, which), f))
    return powers
