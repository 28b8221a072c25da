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
update `power_update` and `effective_sinr`). It lists every (mobile,
branch) link flat, with the links' gains and noise gathered once per
solve, so each rule is one pass over all links and one reduction per
mobile, whatever the branch-set widths. EGC's numerator is the closed
form (sum_r sqrt(S_r))^2, except that a single branch uses S itself, so
width-1 EGC equals MRC and selection exactly. A problem whose every
branch set has one branch (a run without greens) skips the reductions,
whose every value would be S / (I + N) of its one link.

One solve loop, `solve_snapshots`, solves snapshots of R runs (one
scenario each, the last one the fullest) in a stack of S slots, one
snapshot per slot, as R stacked problems: the per-receive-point totals
are one batched matmul over an (S, n, n_rp) gain stack, and the links of
all S slots are one flat list. The runs of a snapshot step together
until every one has met tol_db, so they stop at a common iteration
count; from then on the snapshot's rows are frozen while the rest of the
stack iterates. Once half the slots have stopped, their rows of the
returned `Campaign` record are written, and the stack is rebuilt from
its kept slots and one drawn block of as many new snapshots as slots
were freed; a rebuild costs about one iteration, so it is batched
rather than done at every stop. Each run's new rows are its columns of
the block's linear gains, the last scenario's, gathered straight into
its fresh stack; the block is dropped once copied in. The stack changes
no bits: every elementwise operation and every per-mobile reduction
sees the operands of the snapshot's own solve, in the same order, and
each slice of the batched matmul is that snapshot's `powers @ gains`. A
single drop is a stack of S = 1. Each run combines by its scenario's
radio.combining; only the kernel takes the rule as an argument.

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
from collections.abc import Callable
from dataclasses import dataclass, fields
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

#: Slot budget of a solver stack, in links (snapshots x mobiles x receive
#: points of the last, fullest scenario): 14 slots of the bundled pair and
#: 48 of the 11-green map with 2 mobiles per sector. Each process of a
#: campaign holds one stack, one gain array per run. Against counting the
#: receive points of every run (7 slots of the pair), perfbench read 10%
#: less time per pair on hole-compare, 5% less at --jobs 2 and about 2 MB
#: more peak memory (2-core shared x86-64).
STACK_LINKS = 1 << 16


@dataclass(frozen=True)
class Campaign:
    """Solved snapshots of R runs, as read-only arrays whose leading axis is
    the snapshot: row s is snapshot s, in input order.

    `drop` is the snapshots' drops stacked, a Drop of (S, n, 2) `xy` and
    (S, n) other fields (`len(drop)` is still the mobile count n), and
    `association` their (S, n) serving sectors (see `associate`). Per
    run r, `tx_power_dbm[:, r]`, `sinr_db[:, r]` and `outage[:, r]` are
    (S, n). `iterations` is (S,), since the runs of a snapshot stop
    together, and `converged` (S, R): whether the run's last step was
    below tol_db. Row-major order is snapshot order, then mobile order.
    """

    drop: Drop
    association: np.ndarray         # (S, n)
    tx_power_dbm: np.ndarray        # (S, R, n)
    sinr_db: np.ndarray             # (S, R, n)
    outage: np.ndarray              # (S, R, n) bool
    iterations: np.ndarray          # (S,)
    converged: np.ndarray           # (S, R) bool

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False


def associate(gm: LinkGainMatrix) -> np.ndarray:
    """Serving sector per MS, as a column of gm.sector_ids: the strongest
    DL pilot, ties broken to the lowest sector id.

    Only the DL pilot table enters, so green antennas can never influence
    the serving sector. The dtype is the smallest index type (uint8 up to
    256 sectors), since a forked child sends its range's associations back.
    It is read-only, as it is shared by every run of the snapshot. A
    block's tables give the block's associations, (k, n): each mobile
    reads its own row of pilots, the trailing axis.
    """
    dl = gm.dl_rx_dbm
    # the lexicographic rank of each id, the scenario's: declaration order
    # can differ ("s10" after "s2"), so the first tied column is not
    # always the lowest id
    rank = gm.channel.sector_rank
    tied = dl == dl.max(axis=-1, keepdims=True)
    serving = np.argmin(np.where(tied, rank, len(rank)), axis=-1)
    serving = serving.astype(np.min_scalar_type(len(rank) - 1))
    serving.flags.writeable = False
    return serving


class _Problem(NamedTuple):
    """Solver view of S snapshots of one run: linear gains and branch links.

    The snapshots share a scenario, so they have the same mobile count n
    and receive points; mobile i of snapshot s is stacked mobile s*n + i
    and receive point c is stacked column s*n_rp + c. A link is a mobile
    and one branch of its serving set, listed flat: mobile after mobile in
    stacked order, each one's branches in set order, so mobile m's links
    are one segment, from starts[m].
    """

    gains_mw: np.ndarray            # (S, n, n_rp)
    targets_lin: np.ndarray         # (S * n,)
    rows: np.ndarray                # (L,) the stacked mobile of each link
    cols: np.ndarray                # (L,) its stacked receive point
    link_gains_mw: np.ndarray       # (L,) the mobile's gain to that point
    noise_mw: np.ndarray            # (L,) that point's noise floor
    starts: np.ndarray              # (S * n,) each mobile's first link
    single: np.ndarray              # (S * n,) bool: a branch set of one
    narrow: bool                    # every branch set has one branch
    wide: tuple[tuple[np.ndarray, np.ndarray], ...]    # see _segment_sum
    p_min_mw: float
    p_max_mw: float


#: The fewest terms that numpy's add.reduce sums pairwise rather than in order.
_PAIRWISE_FROM = 8


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


def _stacked_problem(gains_mw: np.ndarray, serving: np.ndarray, branches: BranchTable,
                     noise_mw: np.ndarray, targets_lin: np.ndarray,
                     p_min_dbm: float, p_max_dbm: float) -> _Problem:
    """One run's problem over an (S, n, n_rp) stack of linear gains.

    serving is the (S, n) association of the stacked tables, and noise_mw
    the noise floor per receive point of their scenario. Each mobile's
    links are its serving sector's row of the scenario's branch table, up
    to that sector's width, listed by one repeat over the widths and one
    gather, so nothing here is per mobile.
    """
    size, n, n_rp = gains_mw.shape
    serving = np.asarray(serving, dtype=np.intp).reshape(-1)
    widths = branches.widths[serving]
    starts = np.cumsum(widths) - widths
    rows = np.repeat(np.arange(len(serving)), widths)
    # link k is entry k - starts[m] of its mobile m's serving sector's row
    at = (serving * branches.cols.shape[1] - starts)[rows] + np.arange(len(rows))
    cols = branches.cols.ravel()[at]
    return _Problem(
        gains_mw=gains_mw,
        targets_lin=targets_lin,
        rows=rows,
        # receive point c of snapshot s is stacked column s * n_rp + c
        cols=cols if size == 1 else cols + rows // n * n_rp,
        link_gains_mw=gains_mw.ravel()[rows * n_rp + cols],
        noise_mw=noise_mw[cols],
        starts=starts,
        single=widths == 1,
        narrow=len(rows) == len(serving),
        wide=tuple((mobiles, starts[mobiles, None] + np.arange(width))
                   for width in np.unique(widths[widths >= _PAIRWISE_FROM]).tolist()
                   for mobiles in [np.flatnonzero(widths == width)]),
        p_min_mw=10.0 ** (p_min_dbm / 10.0),
        p_max_mw=10.0 ** (p_max_dbm / 10.0),
    )


def _segment_sum(values: np.ndarray, problem: _Problem) -> np.ndarray:
    """Each mobile's sum over its links, with the bits of numpy's add.reduce
    over a row of them. bincount adds in order from 0.0, as the reduce does
    below _PAIRWISE_FROM terms. A wider segment is summed as a row of its
    width's (m, width) block of links (`wide`, its mobiles and the block),
    since the reduce sums those pairwise."""
    out = np.bincount(problem.rows, values, len(problem.starts))
    for mobiles, links in problem.wide:
        out[mobiles] = np.add.reduce(values[links], axis=1)
    return out


def _combined_sinr(powers_mw: np.ndarray, problem: _Problem, combining: str) -> np.ndarray:
    """Linear post-combining SINR per stacked MS at its serving sector's branches.

    The per-receive-point totals are one batched matmul; each snapshot's
    slice of it is bitwise the `powers @ gains` of that snapshot alone.
    Each rule then reduces every mobile's links in one pass.
    """
    s, n, n_rp = problem.gains_mw.shape
    total_rx = np.matmul(powers_mw.reshape(s, 1, n), problem.gains_mw).reshape(s * n_rp)
    signal = powers_mw[problem.rows] * problem.link_gains_mw
    den = (total_rx[problem.cols] - signal) + problem.noise_mw     # I + N
    if problem.narrow and combining in COMBINING_MODES:
        # one link per mobile, in mobile order: a sum of one term from 0.0,
        # a maximum of one, and EGC's S / (0.0 + den) are each signal / den
        return signal / den
    if combining == "mrc":
        return _segment_sum(signal / den, problem)
    if combining == "selection":
        return np.maximum.reduceat(signal / den, problem.starts)
    if combining == "egc":
        # a single branch is S itself, exactly as under MRC and selection
        num = np.where(problem.single, signal[problem.starts],
                       _segment_sum(np.sqrt(signal), problem) ** 2)
        return num / _segment_sum(den, problem)
    raise ValueError(f"unknown combining mode '{combining}'")


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
    problem = _stacked_problem(gm.ul_gain_mw[None], serving, branches, gm.channel.noise_mw,
                               np.ones(len(powers_mw)), -np.inf, np.inf)
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
    problem = _stacked_problem(gm.ul_gain_mw[None], serving, branches, gm.channel.noise_mw,
                               _linear_targets(targets_db), lo, hi)
    powers_mw = np.asarray(powers_mw, dtype=float)
    return _update(powers_mw, _combined_sinr(powers_mw, problem, combining), problem)


def _advance(powers_mw: np.ndarray, sinr: np.ndarray, problem: _Problem
             ) -> tuple[np.ndarray, np.ndarray]:
    """One update of a stack's (S, n) powers from the SINR at them, and
    each slot's largest per-MS step in dB."""
    updated = _update(powers_mw.reshape(-1), sinr, problem).reshape(powers_mw.shape)
    step = np.abs(10.0 * np.log10(updated / powers_mw)).max(axis=1, initial=0.0)
    return updated, step


def _refilled(stack: np.ndarray | None, kept: np.ndarray, new: np.ndarray,
              cols: np.ndarray | None = None) -> np.ndarray:
    """The stack's rows at `kept`, in order, then the new rows, as one
    C-ordered array of fresh memory: each row is copied once. With cols, a
    new row is its entries at cols on the trailing axis, gathered in place."""
    shape = new.shape[1:] if cols is None else (*new.shape[1:-1], len(cols))
    out = np.empty((len(kept) + len(new), *shape), new.dtype)
    if len(kept):
        np.take(stack, kept, axis=0, out=out[:len(kept)], mode="clip")
    if cols is None:
        out[len(kept):] = new
    else:
        np.take(new, cols, axis=-1, out=out[len(kept):], mode="clip")
    return out


def solve_snapshots(scenarios: tuple[Scenario, ...],
                    draw: Callable[[int, int], tuple[Drop, np.ndarray, np.ndarray]],
                    count: int, tol_db: float = DEFAULT_TOL_DB,
                    max_iter: int = DEFAULT_MAX_ITER) -> Campaign:
    """Solve snapshots 0..count-1 of R runs in a stack of snapshots, from all-p_min.

    `draw(lo, hi)` gives snapshots lo..hi-1 as one block (mobiles,
    serving, gains): a Drop of k = hi - lo drops of n mobiles each (n
    the same in every block), their (k, n) association (see `associate`)
    and the (k, n, n_rp) `ul_gain_mw` of the last scenario's tables. The
    stack has as many slots as fit in STACK_LINKS links of the last
    scenario (its mobiles per sector times its sectors times its receive
    points), and each call draws exactly the slots that are free: the
    whole stack at the first load, the stopped slots at each later one.
    Run r of every slot is one stacked problem under
    scenarios[r].radio.combining, so an iteration costs R kernel calls
    whatever the slot count. A snapshot stops once every run's largest
    per-MS step has dropped below tol_db at least once, or after its own
    max_iter iterations, so its runs share an iteration count. A stopped
    snapshot's rows stay frozen in the stack while the others iterate.
    Once half the slots have stopped, their results are written and the
    stack is rebuilt from its kept slots and a block of new snapshots;
    once every snapshot is drawn, the stack shrinks each time a quarter
    of its slots have stopped. Kept slots carry their gains, powers, last
    steps, met flags and iteration counts across a rebuild. Each run's
    stack is a fresh C-ordered array, its new rows gathered from the
    block at that run's columns (`ChannelArrays.columns_in`, once per
    campaign), and the block is then dropped. The pow is elementwise, so
    the gather has the bits of the run's own table's `ul_gain_mw`.
    Snapshots do not interact, so each ends with the bits of its solve
    alone, whichever snapshots share its stack: the width and layout of
    the gain array change the last bits of `powers @ gains`, so a run's
    stack holds its own receive points only.

    Returns the snapshots' `Campaign`, row s for snapshot s: its drop and
    association as drawn, and its runs' results. Each row is written in
    place, into arrays allocated once, at the first block.
    """
    rules = [s.radio.combining for s in scenarios]
    for rule in rules:
        if rule not in COMBINING_MODES:
            raise ValueError(f"unknown combining mode '{rule}'")
    if count < 1:
        raise ValueError("need at least one snapshot")
    last = scenarios[-1]
    links = last.traffic.mobiles_per_sector * last.n_sectors() * len(last.receive_points)
    slots = max(1, STACK_LINKS // max(links, 1))
    # each earlier run's receive points, as columns of the last one's table
    full = last.channel
    columns = [s.channel.columns_in(full) for s in scenarios[:-1]] + [None]
    branches = [s.branches for s in scenarios]
    n_runs = len(scenarios)
    record: dict[str, np.ndarray] = {}      # the drops' fields and association

    def load(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw snapshots lo..hi-1, write their record rows, and return
        their serving sectors, linear targets and the last run's linear gains."""
        mobiles, serving, gains_mw = draw(lo, hi)
        k, n = len(mobiles.building), len(mobiles)
        if k != hi - lo:
            raise ValueError(f"draw({lo}, {hi}) gave {k} snapshots, expected {hi - lo}")
        given = {f.name: getattr(mobiles, f.name) for f in fields(Drop)}
        given["association"] = serving
        if not record:
            record.update((name, np.empty((count, *a.shape[1:]), a.dtype))
                          for name, a in given.items())
        elif n != record["target_db"].shape[1]:
            raise ValueError(f"draw({lo}, {hi}) gave snapshots of {n} mobiles, expected "
                             f"{record['target_db'].shape[1]}: stacked snapshots must hold "
                             f"the same number of mobiles")
        for name, a in given.items():
            record[name][lo:hi] = a
        # a campaign's drop is its last scenario's
        return serving, _drop_targets(mobiles, last).reshape(k, n), gains_mw

    # the stack, slot by slot: each slot's input index, serving sectors,
    # linear targets and iteration count, per run its last step and
    # whether a step was below tol_db, and per run its gains and powers
    index = serving = targets = iterations = steps = met = None
    gains, powers = [None] * n_runs, [None] * n_runs
    kept = np.zeros(0, dtype=np.intp)
    lo, drained = 0, False
    while True:
        free = slots - len(kept)
        hi = min(lo + free, count)
        drained |= hi < lo + free
        if hi > lo:
            new_serving, new_targets, new_gains = load(lo, hi)
        else:       # every snapshot is drawn: the stack shrinks to its kept slots
            new_serving, new_targets, new_gains = serving[:0], targets[:0], gains[-1][:0]
        if lo == 0:
            n = new_targets.shape[1]
            tx_dbm, sinr_db = np.empty((count, n_runs, n)), np.empty((count, n_runs, n))
            outage = np.empty((count, n_runs, n), dtype=bool)
            converged = np.empty((count, n_runs), dtype=bool)
            iterations_at = np.empty(count, dtype=int)
        k = hi - lo
        index = _refilled(index, kept, np.arange(lo, hi))
        serving = _refilled(serving, kept, new_serving)
        targets = _refilled(targets, kept, new_targets)
        iterations = _refilled(iterations, kept, np.zeros(k, dtype=int))
        steps = _refilled(steps, kept, np.zeros((k, n_runs)))
        met = _refilled(met, kept, np.zeros((k, n_runs), dtype=bool))
        gains = [_refilled(g, kept, new_gains, cols) for g, cols in zip(gains, columns)]
        powers = [_refilled(p, kept, np.full((k, n), 10.0 ** (s.radio.p_min_dbm / 10.0)))
                  for p, s in zip(powers, scenarios)]
        del new_serving, new_targets, new_gains
        size = len(index)
        if not size:
            break
        problems = [_stacked_problem(g, serving, branches[r], s.channel.noise_mw,
                                     targets.reshape(-1), s.radio.p_min_dbm, s.radio.p_max_dbm)
                    for r, (g, s) in enumerate(zip(gains, scenarios))]
        batch = max(1, size // (4 if drained else 2))
        while True:
            # at a stopped slot's final powers, this is its final SINR
            sinrs = [_combined_sinr(p.reshape(-1), problem, rule)
                     for p, problem, rule in zip(powers, problems, rules)]
            done = (iterations >= max_iter) | met.all(axis=1)
            if not done.all():
                live = ~done
                frozen = done[:, None] if done.any() else None
                for r in range(n_runs):
                    updated, step = _advance(powers[r], sinrs[r], problems[r])
                    if frozen is not None:
                        updated = np.where(frozen, powers[r], updated)
                        step = np.where(live, step, steps[:, r])
                    powers[r] = updated
                    steps[:, r] = step
                met |= steps < tol_db
                iterations += live
            if done.sum() >= batch:
                break
        emitted = np.flatnonzero(done)
        at = index[emitted]
        targets_db = record["target_db"][at]
        for r, (problem, p, sinr) in enumerate(zip(problems, powers, sinrs)):
            final_mw = p[emitted]
            final_sinr_db = 10.0 * np.log10(sinr.reshape(size, n)[emitted])
            tx_dbm[at, r] = 10.0 * np.log10(final_mw)
            sinr_db[at, r] = final_sinr_db
            pinned = final_mw >= problem.p_max_mw * (1.0 - 1e-12)
            outage[at, r] = pinned & (final_sinr_db < targets_db - OUTAGE_MARGIN_DB)
            converged[at, r] = steps[emitted, r] < tol_db
        iterations_at[at] = iterations[emitted]
        for _ in np.flatnonzero(~met[emitted].all(axis=1)):
            log.warning("power control did not converge in %d iterations", max_iter)
        # freed before the next block is drawn, the loop's last run too
        del problems, sinrs, problem, sinr
        kept = np.flatnonzero(~done)
        lo = hi
    association = record.pop("association")
    return Campaign(Drop(**record), association, tx_dbm, sinr_db, outage, iterations_at, converged)
