"""Monte Carlo snapshot loop over one or more scenarios of the same world.

A snapshot is one random placement of mobiles plus one converged power
control solve per scenario. A single run is a campaign of one scenario,
a paired comparison one of two, a green-count sweep one of nested green
lists, fullest last. The scenarios of a campaign differ only in their
greens, and every earlier scenario's greens are also in the last one
(check_pairable, once per campaign), so what they share is computed
once, from the last scenario: one drop, one channel table and one
association. The drop is one `Drop` of read-only arrays that every
layer reads whole. Each run reads its own columns of that table and is
solved under its own radio.combining, in lockstep to the same number of power control iterations. That last
point matters because every run iterates monotonically upward from
p_min; comparing at a common iteration count is what makes the per-MS
power ordering exact instead of blurred by the stopping rule.

`run_campaign` is the one way in, for a single snapshot too. It runs
in tasks, each a contiguous range of snapshot indices: the whole
campaign at jobs=1, one range per worker otherwise. At jobs=N the
parent forks N-1 children, one per range after the first, runs the
first range itself, then reads each child's range from a one-way pipe
in range order. A child inherits its task by fork, so nothing is
pickled on the way in; its results come back as one pickled record of
stacked arrays (`Campaign`), or the exception it raised with its
traceback text does. The parent joins the ranges' records along their
snapshot axis, in order; at jobs=1 the task's record is the campaign's.
Where the fork start method does not exist, the campaign is one range
in the parent.

A task hands powerctl's solve_snapshots a `draw` callback, which the
solver calls each time it loads its stack, for exactly as many
consecutive snapshots as the stack has free slots: the whole stack
first, then the stopped slots at each refill. One pass computes a
draw's drops, tables and associations, each array with a leading block
axis; the solver gathers each run's columns of the block's linear gains
into its stack and drops the block, so a task holds one stack and,
while it loads, one block. The solver writes each snapshot's drop, association and results
into the task's record by index. Each snapshot's drop and gains are the
bits of its own draw, and its results the bits of its solve alone, so
neither the block size, the stack size, the order in which snapshots
stop, nor the number of workers changes any output.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import fields

import numpy as np

from .powerctl import Campaign, associate, solve_snapshots
from .propagation import LinkGainMatrix, build_gain_matrix
from .scenario import Drop, Scenario, drop_mobiles, strip_greens
from .seeds import derive_seed

#: Whether ranges after the first can run in forked children.
_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


class PairingError(Exception):
    """The scenarios of a campaign are not one world with more or fewer greens."""


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child,
    attached as that exception's __cause__ when the parent re-raises it."""


def snapshot_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"snapshot:{index}")


def draw_snapshot(scenarios: tuple[Scenario, ...], snap_seed: int
                  ) -> tuple[Drop, tuple[LinkGainMatrix, ...]]:
    """One snapshot's drop and each scenario's table of it, for the CLI's
    gain dump: the last scenario's, and each earlier one's columns of it."""
    mobiles = drop_mobiles(scenarios[-1], snap_seed)
    gm = build_gain_matrix(scenarios[-1], mobiles, snap_seed)
    return mobiles, tuple(gm if s is scenarios[-1] else gm.restricted_to(s) for s in scenarios)


def _task(args) -> Campaign:
    """The record of snapshots start..stop-1; each draw is the last
    scenario's drops, association and linear UL gains of the free slots."""
    scenarios, seed, start, stop = args

    def draw(lo, hi):
        seeds = [snapshot_seed(seed, start + index) for index in range(lo, hi)]
        mobiles = drop_mobiles(scenarios[-1], seeds)
        gm = build_gain_matrix(scenarios[-1], mobiles, seeds)
        return mobiles, associate(gm), gm.ul_gain_mw

    return solve_snapshots(scenarios, draw, stop - start)


def _joined(parts: list[Campaign]) -> Campaign:
    """The ranges' records as one, along the snapshot axis in range order."""
    def stacked(records):       # every array field, in field order
        return [np.concatenate([getattr(r, f.name) for r in records])
                for f in fields(records[0]) if f.name != "drop"]
    return Campaign(Drop(*stacked([p.drop for p in parts])), *stacked(parts))


def _child(task, conn) -> None:
    """A forked child's body: run one range and send (ok, value) once."""
    try:
        reply = (True, _task(task))
    except Exception as exc:
        reply = (False, (exc, "".join(traceback.format_exception(exc))))
    conn.send(reply)
    conn.close()


def _receive(child, conn, task) -> Campaign:
    """The record a child sent, or its exception re-raised here, once
    the child has exited."""
    try:
        reply = conn.recv()
    except EOFError:
        reply = None
    child.join()
    if reply is None:
        _, _, lo, hi = task
        raise RuntimeError(f"snapshot worker for snapshots {lo}..{hi - 1} exited with "
                           f"code {child.exitcode} before sending its results")
    ok, value = reply
    if ok:
        return value
    exc, text = value
    raise exc from WorkerTraceback(text)


def run_campaign(scenarios: tuple[Scenario, ...], seed: int, n_snapshots: int,
                 jobs: int = 1) -> Campaign:
    """Snapshots 0..n_snapshots-1 of the scenarios at `seed`, as one record."""
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    for s in scenarios[:-1]:        # once, before any worker starts
        check_pairable(s, scenarios[-1])
    workers = min(max(jobs, 1), n_snapshots) if _CAN_FORK else 1
    bounds = [n_snapshots * w // workers for w in range(workers + 1)]
    tasks = [(scenarios, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        return _task(tasks[0])
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for task in tasks[1:]:
            conn, child_end = fork.Pipe(duplex=False)
            child = fork.Process(target=_child, args=(task, child_end), daemon=True)
            children.append((child, conn, task))
            child.start()
            child_end.close()   # so a later fork does not hold it open
        parts = [_task(tasks[0])]
        parts += (_receive(*c) for c in children)
    finally:    # a child is still running only when this campaign fails
        for child, conn, _ in children:
            if child.is_alive():
                child.terminate()
            if child.pid is not None:
                child.join()
            conn.close()
    return _joined(parts)


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
