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
distinct width, not once per serving sector. Each group's gains and
noise are gathered once per solve. EGC's numerator is the closed form
(sum_r sqrt(S_r))^2 over the group's branch axis, except that a single
branch uses S itself, so width-1 EGC equals MRC and selection exactly.

One solve loop, `solve_snapshots`, solves snapshots of R runs (one
(scenario, table) pair each) in a stack of S slots, one snapshot per
slot, as R stacked problems: the per-receive-point totals are one
batched matmul over an (S, n, n_rp) gain stack, and the width groups
span all S slots. The runs of a snapshot step together until every one
has met tol_db, so they stop at a common iteration count; from then on
the snapshot's rows are frozen while the rest of the stack iterates.
Once half the slots have stopped, their results are emitted, the next
snapshots are loaded into the freed slots, and the stack is rebuilt, so
few iterations are spent on frozen rows; a rebuild costs about as much
as a few iterations, so it is batched rather than done at every stop.
The stack changes no bits: every elementwise operation and every
per-row reduction sees the operands of the snapshot's own solve, in the
same order, and each slice of the batched matmul is that snapshot's
`powers @ gains`. A single drop is a stack of S = 1. Each run combines
by its scenario's radio.combining; only the kernel takes the rule as an
argument.

The association is an index array: entry i is the column of mobile i's
serving sector in the table's sector_ids.

What depends only on a scenario is built once per scenario and read by
every problem: its branch table (`Scenario.branches`, one padded row of
receive-point columns per sector and a width per sector), its sectors'
tie-break rank (`ChannelArrays.sector_rank`), its noise floors in mW, and
its linear class targets (`Scenario.class_targets`). A drawn drop's
targets are its classes', so a slot reads those; any other targets (a
hand-placed drop, `power_update`'s callers) take a scalar pow each.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .propagation import LinkGainMatrix
from .scenario import COMBINING_MODES, BranchTable, Drop, Scenario

log = logging.getLogger(__name__)

#: An MS pinned at p_max counts as outage only if it misses its target by
#: more than this margin, to avoid flagging MSs that land on the clamp.
OUTAGE_MARGIN_DB = 0.5

DEFAULT_TOL_DB = 0.01
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class PowerControlResult:
    tx_power_dbm: np.ndarray
    sinr_db: np.ndarray
    outage: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        for arr in (self.tx_power_dbm, self.sinr_db, self.outage):
            arr.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # unpickling skips __post_init__, and its arrays come back writeable
        self.__dict__.update(state)
        self.__post_init__()


def associate(gm: LinkGainMatrix) -> np.ndarray:
    """Serving sector per MS, as a column of gm.sector_ids: the strongest
    DL pilot, ties broken to the lowest sector id.

    Only the DL pilot table enters, so green antennas can never influence
    the serving sector. The dtype is the smallest index type (uint8 up to
    256 sectors), since a worker sends every snapshot's association back.
    It is read-only, as it is shared by every run of the snapshot.
    """
    dl = gm.dl_rx_dbm
    # the lexicographic rank of each id, the scenario's: declaration order
    # can differ ("s10" after "s2"), so the first tied column is not
    # always the lowest id
    rank = gm.channel.sector_rank
    tied = dl == dl.max(axis=1, keepdims=True)
    serving = np.argmin(np.where(tied, rank, len(rank)), axis=1)
    serving = serving.astype(np.min_scalar_type(len(rank) - 1))
    serving.flags.writeable = False
    return serving


class _Group(NamedTuple):
    """Mobiles whose serving branch sets share one width, with their gathers.

    Row k of cols lists the entries of the stacked per-receive-point
    totals that mobile rows[k] is combined over; gains_mw and noise_mw
    are those receive points' linear gains (of mobile rows[k]) and noise
    floors, gathered once per solve.
    """

    rows: np.ndarray                # (m,) into the stacked mobiles
    cols: np.ndarray                # (m, width) into the stacked receive points
    gains_mw: np.ndarray            # (m, width)
    noise_mw: np.ndarray            # (m, width)


class _Problem(NamedTuple):
    """Solver view of S snapshots of one run: linear gains and branch columns.

    The snapshots share a scenario, so they have the same mobile count n
    and receive points; mobile i of snapshot s is stacked row s*n + i and
    receive point c is stacked column s*n_rp + c. Mobiles are grouped by
    the width of their serving sector's branch set, across snapshots, so
    the kernel loops over the few distinct widths. Groups are not padded
    to one common width: numpy sums 8 or more terms pairwise, so padding
    a wide set next to narrower ones would regroup its sums and change
    the last bits of the MRC and EGC results.
    """

    gains_mw: np.ndarray            # (S, n, n_rp)
    targets_lin: np.ndarray         # (S * n,)
    groups: tuple[_Group, ...]
    p_min_mw: float
    p_max_mw: float


def _linear_targets(targets_db: np.ndarray) -> np.ndarray:
    """10^(t/10) per target, flattened, from a scalar pow of each t.

    numpy's vectorised power differs from the scalar one in the last bit
    for some inputs, which would shift every iterate.
    """
    return np.array([10.0 ** (t / 10.0)
                     for t in np.asarray(targets_db, dtype=float).reshape(-1).tolist()],
                    dtype=float)


def _drop_targets(mobiles: Drop, s: Scenario) -> np.ndarray:
    """`_linear_targets` of the drop's targets. A drop whose every target
    is its service class's in s reads s's linear class targets, which are
    the same scalar pows; any other drop takes `_linear_targets`."""
    db, lin = s.class_targets
    voice = mobiles.voice.view(np.uint8)
    if np.array_equal(mobiles.target_db, db[voice]):
        return lin[voice]
    return _linear_targets(mobiles.target_db)


def _stacked_problem(tables: list[LinkGainMatrix], servings: list[np.ndarray],
                     branches: BranchTable, targets_lin: np.ndarray,
                     p_min_dbm: float, p_max_dbm: float) -> _Problem:
    """One run's problem over snapshots whose tables share receive points.

    servings[s] is the association of tables[s]. The branch columns come
    from the scenario's branch table, indexed by each mobile's serving
    sector, and a stable sort by width lists each width group's mobiles
    in stacked order, so nothing here is per mobile.
    """
    gm = tables[0]
    n, n_rp = gm.ul_gain_db.shape
    col_table = branches.cols
    flat_gains = np.concatenate([t.ul_gain_mw for t in tables])
    serving = np.concatenate(servings)
    ms_width = branches.widths[serving]
    order = np.argsort(ms_width, kind="stable")
    order_serving = serving[order]
    groups = []
    lo = 0
    for width, count in enumerate(np.bincount(ms_width).tolist()):
        if count:
            rows = order[lo:lo + count]
            cols = col_table[order_serving[lo:lo + count], :width]
            # receive point c of snapshot s is stacked column s * n_rp + c
            stacked = cols if len(tables) == 1 else cols + (rows // n * n_rp)[:, None]
            groups.append(_Group(rows, stacked, flat_gains[rows[:, None], cols],
                                 gm.channel.noise_mw[cols]))
            lo += count
    return _Problem(
        gains_mw=flat_gains.reshape(len(tables), n, n_rp),
        targets_lin=targets_lin,
        groups=tuple(groups),
        p_min_mw=10.0 ** (p_min_dbm / 10.0),
        p_max_mw=10.0 ** (p_max_dbm / 10.0),
    )


def _combined_sinr(powers_mw: np.ndarray, problem: _Problem, combining: str) -> np.ndarray:
    """Linear post-combining SINR per stacked MS at its serving sector's branches.

    The per-receive-point totals are one batched matmul; each snapshot's
    slice of it is bitwise the `powers @ gains` of that snapshot alone.
    """
    s, n, n_rp = problem.gains_mw.shape
    total_rx = np.matmul(powers_mw.reshape(s, 1, n), problem.gains_mw).reshape(s * n_rp)
    out = np.empty(len(powers_mw))
    for g in problem.groups:
        signal = powers_mw[g.rows, None] * g.gains_mw
        interference = total_rx[g.cols] - signal
        den = interference + g.noise_mw
        if combining == "mrc":
            lin = np.add.reduce(signal / den, axis=1)
        elif combining == "selection":
            lin = np.maximum.reduce(signal / den, axis=1)
        elif combining == "egc":
            # a single branch is S itself, exactly as under MRC and selection
            num = (signal[:, 0] if signal.shape[1] == 1
                   else np.add.reduce(np.sqrt(signal), axis=1) ** 2)
            lin = num / np.add.reduce(den, axis=1)
        else:
            raise ValueError(f"unknown combining mode '{combining}'")
        out[g.rows] = lin
    return out


def _update(powers_mw: np.ndarray, sinr: np.ndarray, problem: _Problem) -> np.ndarray:
    """p * target / sinr, with sinr the SINR at p, clamped into [p_min, p_max].

    The clamp is np.maximum then np.minimum rather than np.clip, which
    costs more per call; the two differ only on signed zeros, and
    p * target / sinr is never -0.0.
    """
    raw = powers_mw * problem.targets_lin / sinr
    return np.minimum(np.maximum(raw, problem.p_min_mw), problem.p_max_mw)


def effective_sinr(ms: int, powers_mw: np.ndarray, gm: LinkGainMatrix,
                   serving: np.ndarray, branches: BranchTable, combining: str) -> float:
    """Post-combining SINR (dB) of one MS for the given transmit powers."""
    powers_mw = np.asarray(powers_mw, dtype=float)
    problem = _stacked_problem([gm], [serving], branches, np.ones(len(powers_mw)),
                               -np.inf, np.inf)
    return float(10.0 * np.log10(_combined_sinr(powers_mw, problem, combining)[ms]))


def power_update(powers_mw: np.ndarray, targets_db: np.ndarray, gm: LinkGainMatrix,
                 serving: np.ndarray, branches: BranchTable, combining: str,
                 limits_dbm: tuple[float, float] | None = None) -> np.ndarray:
    """One multiplicative power-control update, p * target / sinr(p).

    With limits_dbm the result is clamped into [p_min, p_max]; without,
    this is the raw interference-function map used by the axiom checks
    (the clamp into [0, inf] leaves positive powers unchanged).
    """
    lo, hi = limits_dbm if limits_dbm is not None else (-np.inf, np.inf)
    problem = _stacked_problem([gm], [serving], branches, _linear_targets(targets_db), lo, hi)
    powers_mw = np.asarray(powers_mw, dtype=float)
    return _update(powers_mw, _combined_sinr(powers_mw, problem, combining), problem)


class _Slot(NamedTuple):
    """A snapshot in the solver stack."""

    index: int                      # its position in the input
    targets_db: np.ndarray          # (n,)
    serving: np.ndarray
    tables: tuple[LinkGainMatrix, ...]
    targets_lin: np.ndarray         # (n,)


def _stopped(iterations: np.ndarray, met: np.ndarray, limit: int, on_met: bool) -> np.ndarray:
    """Slots at their iteration limit or, if on_met, met in every run."""
    stopped = iterations >= limit
    return stopped | met.all(axis=0) if on_met else stopped


def _advance(powers_mw: np.ndarray, sinr: np.ndarray, problem: _Problem, size: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """One update of a stack of `size` slots from the SINR at powers_mw,
    and each slot's largest per-MS step in dB."""
    updated = _update(powers_mw, sinr, problem)
    step = np.abs(10.0 * np.log10(updated / powers_mw)).reshape(size, -1).max(axis=1, initial=0.0)
    return updated, step


def _results(problem: _Problem, powers_mw: np.ndarray, sinr: np.ndarray, targets_db: np.ndarray,
             iterations: np.ndarray, converged: np.ndarray) -> list[PowerControlResult]:
    """One run's results of stopped snapshots, from their (k, n) final
    powers and SINRs."""
    sinr_db = 10.0 * np.log10(sinr)
    tx_dbm = 10.0 * np.log10(powers_mw)
    pinned = powers_mw >= problem.p_max_mw * (1.0 - 1e-12)
    outage = pinned & (sinr_db < targets_db - OUTAGE_MARGIN_DB)
    return [PowerControlResult(tx_dbm[k], sinr_db[k], outage[k], it, ok)
            for k, (it, ok) in enumerate(zip(iterations.tolist(), converged.tolist()))]


def solve_snapshots(scenarios: tuple[Scenario, ...],
                    snapshots: Iterable[tuple[Drop, np.ndarray, tuple[LinkGainMatrix, ...]]],
                    tol_db: float = DEFAULT_TOL_DB, max_iter: int = DEFAULT_MAX_ITER,
                    n_iters: int | None = None, slots: int | None = None
                    ) -> list[tuple[PowerControlResult, ...]]:
    """Solve snapshots of R runs in a stack of up to `slots` snapshots, from all-p_min.

    Each snapshot is (mobiles, serving, tables), where tables[r] is
    scenarios[r]'s table of that drop and serving is `associate` of it;
    all snapshots hold the same number of mobiles. Snapshots are read
    from the iterable only as slots free, so a generator can draw each
    one when it is needed; without `slots`, all of them form one stack.
    Run r of every slot is one stacked problem under
    scenarios[r].radio.combining, so an iteration costs R kernel calls
    whatever the slot count. A snapshot stops once every run's largest
    per-MS step has dropped below tol_db at least once, or after its own
    max_iter iterations (exactly n_iters if given), so its runs share an
    iteration count. A stopped snapshot's rows stay frozen in the stack
    while the others iterate. Once half the slots have stopped, their
    results are emitted and the next snapshots take their slots, and
    the stack is rebuilt; when the iterable is drained, the stack
    shrinks each time a quarter of its slots have stopped. Kept slots
    carry their powers, last steps, met flags and iteration counts
    across a rebuild. Snapshots do not interact, so each ends with the
    bits of its solve alone, whichever snapshots share its stack. Every
    table must hold its own scenario's receive points only: the width of
    the gain array changes the last bits of `powers @ gains`.

    Returns, per snapshot and in input order, one PowerControlResult per run.
    """
    rules = [s.radio.combining for s in scenarios]
    for rule in rules:
        if rule not in COMBINING_MODES:
            raise ValueError(f"unknown combining mode '{rule}'")
    if slots is None:
        snapshots = list(snapshots)
        slots = len(snapshots)
    stream = iter(snapshots)
    limit = max_iter if n_iters is None else n_iters
    branches = [s.branches for s in scenarios]
    n_runs = len(scenarios)
    results: list[tuple[PowerControlResult, ...]] = []
    # the stack, in slot order: each slot's snapshot, and its solver state
    held: list[_Slot] = []
    powers = [np.empty(0) for _ in scenarios]     # per run, stacked
    steps = np.zeros((n_runs, 0))                 # per run and slot, last step
    met = np.zeros((n_runs, 0), dtype=bool)       # per run and slot, step below tol once
    iterations = np.zeros(0, dtype=int)           # per slot
    n = 0
    drained = False
    while True:
        loaded = 0
        while not drained and len(held) < max(slots, 1):
            snapshot = next(stream, None)
            if snapshot is None:
                drained = True
                break
            mobiles, serving, tables = snapshot
            if not results:
                n = len(mobiles)
            elif len(mobiles) != n:
                raise ValueError("stacked snapshots must hold the same number of mobiles")
            # a campaign's drop is its last scenario's (simulate.draw_snapshot)
            held.append(_Slot(len(results), mobiles.target_db, serving, tables,
                              _drop_targets(mobiles, scenarios[-1])))
            results.append(())
            loaded += 1
        if not held:
            return results
        size = len(held)
        powers = [np.concatenate([p, np.full(loaded * n, 10.0 ** (s.radio.p_min_dbm / 10.0))])
                  for p, s in zip(powers, scenarios)]
        steps = np.concatenate([steps, np.zeros((n_runs, loaded))], axis=1)
        met = np.concatenate([met, np.zeros((n_runs, loaded), dtype=bool)], axis=1)
        iterations = np.concatenate([iterations, np.zeros(loaded, dtype=int)])
        targets_lin = np.concatenate([h.targets_lin for h in held])
        problems = [_stacked_problem([h.tables[r] for h in held], [h.serving for h in held],
                                     branches[r], targets_lin,
                                     s.radio.p_min_dbm, s.radio.p_max_dbm)
                    for r, s in enumerate(scenarios)]
        batch = max(1, size // (4 if drained else 2))
        stopped = _stopped(iterations, met, limit, n_iters is None)
        while True:
            # at a stopped slot's final powers, this is its final SINR
            sinrs = [_combined_sinr(p, problem, rule)
                     for p, problem, rule in zip(powers, problems, rules)]
            done = stopped
            if not done.all():
                live = ~done
                frozen = np.repeat(done, n) if done.any() else None
                for r in range(n_runs):
                    updated, step = _advance(powers[r], sinrs[r], problems[r], size)
                    if frozen is not None:
                        updated = np.where(frozen, powers[r], updated)
                        step = np.where(live, step, steps[r])
                    powers[r] = updated
                    steps[r] = step
                met |= steps < tol_db
                iterations += live
                stopped = _stopped(iterations, met, limit, n_iters is None)
            if done.sum() >= batch:
                break
        emitted = np.flatnonzero(done)
        targets_db = np.array([held[j].targets_db for j in emitted])
        by_run = [_results(problem, p.reshape(size, n)[emitted], sinr.reshape(size, n)[emitted],
                           targets_db, iterations[emitted], step[emitted] < tol_db)
                  for problem, p, sinr, step in zip(problems, powers, sinrs, steps)]
        for j, runs in zip(emitted, zip(*by_run)):
            results[held[j].index] = runs
            if n_iters is None and not met[:, j].all():
                log.warning("power control did not converge in %d iterations", max_iter)
        del problems, sinrs             # freed before the next drops are drawn
        kept = ~done
        held = [h for h, keep in zip(held, kept) if keep]
        powers = [p.reshape(size, n)[kept].reshape(-1) for p in powers]
        steps, met, iterations = steps[:, kept], met[:, kept], iterations[kept]

