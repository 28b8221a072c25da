"""Closed-loop uplink power control over diversity branch sets.

Mobiles associate with the sector whose downlink pilot they receive the
strongest (green antennas are invisible to this step). Each sector's
uplink is received on a branch set: its own antenna plus every green
antenna attached to it. Per branch r the mobile sees

    S_r = p * g_r          I_r = sum_{j != ms} p_j * g_{j,r}

and the combined SINR is

    mrc        sum_r S_r / (I_r + N_r)
    selection  max_r S_r / (I_r + N_r)
    egc        (sum_r sqrt(S_r))^2 / sum_r (I_r + N_r)

The power-control fixed point is solved by the standard multiplicative
update p' = clamp(p * target / sinr(p)), iterated Jacobi-style from
all-p_min; the unclamped map satisfies the standard interference-function
axioms (positivity, monotonicity, scalability) for all three rules, so
the iteration increases monotonically toward the fixed point.

One kernel serves every rule and every caller (the solver, the single
update `power_update` and `effective_sinr`). It evaluates mobiles in
groups that share a branch-set width, so its Python loop runs once per
distinct width in the snapshot, not once per serving sector. Each group's
gains and noise are gathered once per solve. EGC's numerator is the
closed form (sum_r sqrt(S_r))^2 over the group's branch axis, except that
a single branch uses S itself, so width-1 EGC equals MRC and selection
exactly.

One solve loop, `solve_lockstep`, steps the runs of one drop (one
(scenario, table) pair each) together until every run has met tol_db,
so all of them stop at a common iteration count; `solve_power_control`
is its one-run form. Each run combines by its scenario's
radio.combining; only the kernel takes the rule as an argument.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .propagation import LinkGainMatrix
from .scenario import COMBINING_MODES, MobileStation, Scenario

log = logging.getLogger(__name__)

#: An MS pinned at p_max counts as outage only if it misses its target by
#: more than this margin, to avoid flagging MSs that land on the clamp.
OUTAGE_MARGIN_DB = 0.5

DEFAULT_TOL_DB = 0.01
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class Association:
    """Serving sector per MS: argmax of downlink pilot rx power."""

    serving_sector: tuple[str, ...]
    serving_index: np.ndarray       # column into the DL table
    dl_rx_dbm: np.ndarray           # pilot level at the serving sector


@dataclass(frozen=True)
class BranchSet:
    """Receive-point ids per sector: own antenna plus attached greens."""

    by_sector: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class PowerControlResult:
    tx_power_dbm: np.ndarray
    sinr_db: np.ndarray
    outage: np.ndarray
    iterations: int
    converged: bool


def associate(gm: LinkGainMatrix) -> Association:
    """DL-strongest association; ties break to the lowest sector id.

    Only the DL pilot table enters, so green antennas can never influence
    the serving sector.
    """
    dl = gm.dl_rx_dbm
    ids = gm.sector_ids
    # lexicographic rank of each id: declaration order can differ ("s10"
    # after "s2"), so the first tied column is not always the lowest id
    rank = np.empty(len(ids), dtype=int)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    tied = dl == dl.max(axis=1, keepdims=True)
    index = np.argmin(np.where(tied, rank, len(ids)), axis=1)
    return Association(
        serving_sector=tuple(ids[i] for i in index),
        serving_index=index,
        dl_rx_dbm=dl[np.arange(len(index)), index],
    )


def receive_branches(s: Scenario) -> BranchSet:
    """Branch sets per sector; a multi-attached green appears in each."""
    by_sector: dict[str, tuple[str, ...]] = {sid: (sid,) for sid in s.sector_ids()}
    for g in s.greens:
        for sid in g.attached_sectors:
            by_sector[sid] = by_sector[sid] + (g.id,)
    return BranchSet(by_sector=by_sector)


@dataclass(frozen=True)
class _Group:
    """Mobiles whose serving branch sets share one width, with their gathers.

    Row k of cols lists the receive-point columns that mobile rows[k] is
    combined over; gains_mw and noise_mw are those columns' linear gains
    (of mobile rows[k]) and noise floors, gathered once per solve.
    """

    rows: np.ndarray                # (m,)
    cols: np.ndarray                # (m, width)
    gains_mw: np.ndarray            # (m, width)
    noise_mw: np.ndarray            # (m, width)


@dataclass(frozen=True)
class _Problem:
    """Solver view of one snapshot: linear gains and per-MS branch columns.

    Mobiles are grouped by the width of their serving sector's branch
    set, not by sector. A snapshot has only a few distinct widths, so the
    kernel loops over those. Groups are not padded to one common width:
    numpy sums 8 or more terms pairwise, so padding a wide set next to
    narrower ones would regroup its sums and change the last bits of the
    MRC and EGC results.
    """

    gains_mw: np.ndarray            # (n_ms, n_rp)
    targets_lin: np.ndarray         # (n_ms,)
    groups: tuple[_Group, ...]
    p_min_mw: float
    p_max_mw: float


def _problem(gm: LinkGainMatrix, assoc: Association, branches: BranchSet,
             targets_db: np.ndarray, p_min_dbm: float, p_max_dbm: float) -> _Problem:
    cols = {sid: [gm.rp_index[rid] for rid in branches.by_sector[sid]]
            for sid in set(assoc.serving_sector)}
    by_width: dict[int, list[int]] = {}
    for i, sid in enumerate(assoc.serving_sector):
        by_width.setdefault(len(cols[sid]), []).append(i)
    gains_mw = 10.0 ** (gm.ul_gain_db / 10.0)
    noise_mw = 10.0 ** (gm.noise_dbm / 10.0)
    groups = []
    for ms_rows in by_width.values():
        rows = np.array(ms_rows, dtype=int)
        branch_cols = np.array([cols[assoc.serving_sector[i]] for i in ms_rows], dtype=int)
        groups.append(_Group(rows, branch_cols, gains_mw[rows[:, None], branch_cols],
                             noise_mw[branch_cols]))
    return _Problem(
        gains_mw=gains_mw,
        # scalar pow per element: numpy's vectorised power differs from it
        # in the last bit for some inputs, which shifts every iterate
        targets_lin=np.array([10.0 ** (float(t) / 10.0) for t in targets_db]),
        groups=tuple(groups),
        p_min_mw=10.0 ** (p_min_dbm / 10.0),
        p_max_mw=10.0 ** (p_max_dbm / 10.0),
    )


def _combined_sinr(powers_mw: np.ndarray, problem: _Problem, combining: str) -> np.ndarray:
    """Linear post-combining SINR per MS at its serving sector's branches."""
    total_rx = powers_mw @ problem.gains_mw         # per receive point
    out = np.empty(len(powers_mw))
    for g in problem.groups:
        signal = powers_mw[g.rows, None] * g.gains_mw
        interference = total_rx[g.cols] - signal
        den = interference + g.noise_mw
        if combining == "mrc":
            lin = (signal / den).sum(axis=1)
        elif combining == "selection":
            lin = (signal / den).max(axis=1)
        elif combining == "egc":
            # a single branch is S itself, exactly as under MRC and selection
            num = signal[:, 0] if signal.shape[1] == 1 else np.sqrt(signal).sum(axis=1) ** 2
            lin = num / den.sum(axis=1)
        else:
            raise ValueError(f"unknown combining mode '{combining}'")
        out[g.rows] = lin
    return out


def _update(powers_mw: np.ndarray, problem: _Problem, combining: str) -> np.ndarray:
    """p * target / sinr(p), clamped into [p_min, p_max]."""
    return np.clip(powers_mw * problem.targets_lin / _combined_sinr(powers_mw, problem, combining),
                   problem.p_min_mw, problem.p_max_mw)


def effective_sinr(ms: int, powers_mw: np.ndarray, gm: LinkGainMatrix,
                   assoc: Association, branches: BranchSet, combining: str) -> float:
    """Post-combining SINR (dB) of one MS for the given transmit powers."""
    powers_mw = np.asarray(powers_mw, dtype=float)
    problem = _problem(gm, assoc, branches, np.zeros(len(powers_mw)), -np.inf, np.inf)
    return float(10.0 * np.log10(_combined_sinr(powers_mw, problem, combining)[ms]))


def power_update(powers_mw: np.ndarray, targets_db: np.ndarray, gm: LinkGainMatrix,
                 assoc: Association, branches: BranchSet, combining: str,
                 limits_dbm: tuple[float, float] | None = None) -> np.ndarray:
    """One multiplicative power-control update, p * target / sinr(p).

    With limits_dbm the result is clamped into [p_min, p_max]; without,
    this is the raw interference-function map used by the axiom checks
    (the clamp into [0, inf] leaves positive powers unchanged).
    """
    lo, hi = limits_dbm if limits_dbm is not None else (-np.inf, np.inf)
    problem = _problem(gm, assoc, branches, targets_db, lo, hi)
    return _update(np.asarray(powers_mw, dtype=float), problem, combining)


def solve_lockstep(runs: tuple[tuple[Scenario, LinkGainMatrix], ...],
                   mobiles: list[MobileStation], assoc: Association,
                   tol_db: float = DEFAULT_TOL_DB, max_iter: int = DEFAULT_MAX_ITER,
                   n_iters: int | None = None) -> tuple[PowerControlResult, ...]:
    """Solve (scenario, table) runs of one drop in lockstep from all-p_min.

    Each run combines by its own scenario's radio.combining. Stops once
    every run's largest per-MS step has dropped below tol_db at least
    once, or after max_iter (exactly n_iters if given). Runs do not
    interact, so each ends at the iterate it alone would reach in as many
    steps. Every table must hold its own scenario's receive points only:
    the width of the gain array changes the last bits of `powers @ gains`.
    """
    rules = [s.radio.combining for s, _ in runs]
    for rule in rules:
        if rule not in COMBINING_MODES:
            raise ValueError(f"unknown combining mode '{rule}'")
    targets_db = np.array([m.sinr_target_db for m in mobiles])
    problems = [_problem(gm, assoc, receive_branches(s), targets_db,
                         s.radio.p_min_dbm, s.radio.p_max_dbm) for s, gm in runs]
    n = len(mobiles)
    powers = [np.full(n, p.p_min_mw) for p in problems]
    steps = [0.0] * len(runs)
    met = [False] * len(runs)
    iterations = 0
    for _ in range(max_iter if n_iters is None else n_iters):
        for i, problem in enumerate(problems):
            updated = _update(powers[i], problem, rules[i])
            steps[i] = (float(np.max(np.abs(10.0 * np.log10(updated / powers[i]))))
                        if n else 0.0)
            powers[i] = updated
            met[i] = met[i] or steps[i] < tol_db
        iterations += 1
        if n_iters is None and all(met):
            break
    if n_iters is None and not all(met):
        log.warning("power control did not converge in %d iterations", max_iter)
    results = []
    for problem, rule, p, step in zip(problems, rules, powers, steps):
        sinr_db = 10.0 * np.log10(_combined_sinr(p, problem, rule)) if n else np.empty(0)
        tx_dbm = 10.0 * np.log10(p) if n else np.empty(0)
        pinned = p >= problem.p_max_mw * (1.0 - 1e-12)
        outage = pinned & (sinr_db < targets_db - OUTAGE_MARGIN_DB)
        for arr in (tx_dbm, sinr_db, outage):
            arr.flags.writeable = False
        results.append(PowerControlResult(tx_dbm, sinr_db, outage, iterations, step < tol_db))
    return tuple(results)


def solve_power_control(s: Scenario, mobiles: list[MobileStation], gm: LinkGainMatrix,
                        assoc: Association, tol_db: float = DEFAULT_TOL_DB,
                        max_iter: int = DEFAULT_MAX_ITER, n_iters: int | None = None
                        ) -> PowerControlResult:
    """Solve the interference-coupled power-control fixed point (s's rule).

    Iterates the clamped update from all-p_min until the largest per-MS
    change drops below tol_db (or max_iter is hit; converged=False then).
    n_iters forces an exact iteration count instead.

    MSs pinned at p_max that still miss their target by more than
    OUTAGE_MARGIN_DB are flagged as outage.
    """
    return solve_lockstep(((s, gm),), mobiles, assoc, tol_db, max_iter, n_iters)[0]

