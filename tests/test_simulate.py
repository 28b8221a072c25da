"""Snapshot orchestration: seeding, pairing guarantees, and campaigns."""

import dataclasses
import logging
import math
import multiprocessing
import os
import pickle
import re
import signal
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from greenant import powerctl, simulate
from greenant.metrics import NO_FILTER, PopulationFilter, population_mask
from greenant.powerctl import associate, solve_snapshots
from greenant.propagation import build_gain_matrix
from greenant.scenario import InfeasibleDropError, drop_mobiles
from greenant.simulate import (
    PairingError,
    WorkerTraceback,
    check_pairable,
    run_campaign,
    snapshot_seed,
)

from conftest import (SCENARIO_DIR, act_from, bundled_doc, counting_builds, drawn, drop_bits,
                      jacobi, load_doc, multi_green_doc, snapshots, two_cell_doc,
                      wide_green_doc)


def solved_alone(scenarios, seed, index):
    """Snapshot `index` of a campaign at `seed`, as a task of that one snapshot."""
    return snapshots(simulate._task((scenarios, seed, index, index + 1)), seed, index)[0]


def solved(scenarios, drops, **kwargs):
    """Per snapshot of `solve_snapshots` over the list `drops`, its runs."""
    return [snap.runs for snap in snapshots(solve_snapshots(scenarios, drawn(drops), len(drops),
                                                            **kwargs))]


def gather_tx_powers(c, run, mask):
    """One run's powers of the mobiles in `mask`, as the CLI reads them."""
    return c.tx_power_dbm[:, run][mask].tolist()


def test_snapshot_seeds_are_distinct_and_stable():
    seeds = [snapshot_seed(1, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [snapshot_seed(1, k) for k in range(100)]
    assert snapshot_seed(2, 0) != snapshot_seed(1, 0)


def test_run_snapshot_is_deterministic(two_cell):
    a = solved_alone((two_cell,), 9, 0)
    b = solved_alone((two_cell,), 9, 0)
    assert drop_bits(a.mobiles) == drop_bits(b.mobiles)
    assert np.array_equal(a.runs[0].tx_power_dbm, b.runs[0].tx_power_dbm)
    assert a.association.tobytes() == b.association.tobytes()


def test_snapshots_differ_across_indices(two_cell):
    a = solved_alone((two_cell,), 9, 0)
    b = solved_alone((two_cell,), 9, 1)
    assert not np.array_equal(a.mobiles.xy, b.mobiles.xy)


def test_campaign_is_order_preserving_and_seeded(two_cell):
    snaps = snapshots(run_campaign((two_cell,), seed=3, n_snapshots=4))
    assert [sn.index for sn in snaps] == [0, 1, 2, 3]
    again = snapshots(run_campaign((two_cell,), seed=3, n_snapshots=4))
    for x, y in zip(snaps, again):
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)


def test_parallel_campaign_matches_serial(two_cell):
    serial = snapshots(run_campaign((two_cell,), seed=5, n_snapshots=4, jobs=1))
    parallel = snapshots(run_campaign((two_cell,), seed=5, n_snapshots=4, jobs=2))
    for x, y in zip(serial, parallel):
        assert x.index == y.index
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)
        assert np.array_equal(x.runs[0].sinr_db, y.runs[0].sinr_db)


@pytest.mark.parametrize("jobs", [1, 2])
def test_snapshot_drops_are_read_only(two_cell, jobs):
    """Every run and caller shares a snapshot's drop, a worker's too."""
    drop = run_campaign((two_cell,), seed=5, n_snapshots=2, jobs=jobs).drop
    for arr in (drop.xy, drop.building, drop.voice, drop.target_db):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_snapshot_results_and_association_are_read_only(two_cell, two_cell_green, jobs):
    """A worker's results and association are as read-only as the serial ones."""
    c = run_campaign((two_cell, two_cell_green), seed=5, n_snapshots=2, jobs=jobs)
    for f in ("association", "tx_power_dbm", "sinr_db", "outage", "iterations", "converged"):
        with pytest.raises(ValueError):
            getattr(c, f)[0] = 0


def test_campaign_rejects_zero_snapshots(two_cell):
    with pytest.raises(ValueError):
        run_campaign((two_cell,), seed=1, n_snapshots=0)


def test_paired_snapshot_shares_drops_and_association():
    base = load_doc(two_cell_doc())
    green = load_doc(two_cell_doc(with_green=True))
    pair = solved_alone((base, green), 1, 0)
    assert pair.runs[0].iterations == pair.runs[1].iterations
    solo = solved_alone((base,), 1, 0)
    assert drop_bits(pair.mobiles) == drop_bits(solo.mobiles)
    assert pair.association.tobytes() == solo.association.tobytes()


def _reference_paired_snapshot(baseline, green, snap_seed, index=0):
    """Two drops, two tables, two associations, and plain Jacobi iterates
    from p_min of the run that stopped first, to the other's count; also
    says whether it re-solved."""
    mobiles_b = drop_mobiles(baseline, snap_seed)
    mobiles_g = drop_mobiles(green, snap_seed)
    if drop_bits(mobiles_b) != drop_bits(mobiles_g):
        raise PairingError(f"snapshot {index}: mobile drops differ between runs")
    gm_b = build_gain_matrix(baseline, mobiles_b, snap_seed)
    gm_g = build_gain_matrix(green, mobiles_g, snap_seed)
    n_sec = len(gm_b.sector_ids)
    if gm_b.sector_ids != gm_g.sector_ids:
        raise PairingError(f"snapshot {index}: sector sets differ between runs")
    if not np.array_equal(gm_b.ul_gain_db, gm_g.ul_gain_db[:, :n_sec]):
        raise PairingError(f"snapshot {index}: sector uplink gains differ between runs")
    if not np.array_equal(gm_b.dl_rx_dbm, gm_g.dl_rx_dbm):
        raise PairingError(f"snapshot {index}: downlink powers differ between runs")
    serving_b = associate(gm_b)
    serving_g = associate(gm_g)
    if serving_b.tobytes() != serving_g.tobytes():
        raise PairingError(f"snapshot {index}: serving sectors differ between runs")

    ctl_b = solved((baseline,), [(mobiles_b, serving_b, gm_b)])[0][0]
    ctl_g = solved((green,), [(mobiles_g, serving_g, gm_g)])[0][0]
    resolved = ctl_b.iterations != ctl_g.iterations
    if resolved:
        k = max(ctl_b.iterations, ctl_g.iterations)
        if ctl_b.iterations < k:
            ctl_b = jacobi(baseline, mobiles_b, gm_b, serving_b, k)
        else:
            ctl_g = jacobi(green, mobiles_g, gm_g, serving_g, k)
    pair = SimpleNamespace(index=index, seed=snap_seed, mobiles=mobiles_b,
                           association=serving_b, runs=(ctl_b, ctl_g))
    return pair, resolved


@pytest.mark.parametrize("dl_mode", ["independent", "reciprocal"])
@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_paired_snapshot_matches_two_drop_resolve_reference(combining, dl_mode):
    """One drop, one table, one association and a lockstep solve give the
    bits of the two-drop, two-table run with its re-solve."""
    resolved = 0
    for attached in (["A1"], ["A1", "B1"]):
        docs = [two_cell_doc(with_green=g, sigma=8.0, targets=(-15.0, -6.0),
                             mobiles_per_sector=6) for g in (False, True)]
        docs[1]["greens"][0]["attached_sectors"] = attached
        for doc in docs:
            doc["radio"]["dl_shadowing_mode"] = dl_mode
            doc["radio"]["combining"] = combining
        base, green = load_doc(docs[0]), load_doc(docs[1])
        for k in range(5):
            seed = snapshot_seed(23, k)
            pair = solved_alone((base, green), 23, k)
            ref, did_resolve = _reference_paired_snapshot(base, green, seed, k)
            resolved += did_resolve
            assert drop_bits(pair.mobiles) == drop_bits(ref.mobiles)
            assert pair.association.tobytes() == ref.association.tobytes()
            for got, want in zip(pair.runs, ref.runs, strict=True):
                assert np.array_equal(got.tx_power_dbm, want.tx_power_dbm)
                assert np.array_equal(got.sinr_db, want.sinr_db)
                assert np.array_equal(got.outage, want.outage)
                assert got.iterations == want.iterations
                assert got.converged == want.converged
    assert resolved > 0     # the reference's re-solve path was exercised


@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_baseline_greens_read_from_a_wider_table_match_own_table_solve(combining):
    """A baseline with its own green, paired with a scenario that declares
    22 more greens before it: the baseline run reads its three columns of a
    25-column table by id and gets the bits of Jacobi iterates on its own
    table to the pair's count. At this width a solve on the full table
    differs in the last bits."""
    docs = [two_cell_doc(with_green=True, sigma=8.0, targets=(-15.0, -6.0),
                         mobiles_per_sector=6) for _ in range(2)]
    for doc in docs:
        doc["radio"]["combining"] = combining
    # positions inside the sites' span keep the derived clutter bounds equal
    docs[1]["greens"][:0] = [{"id": f"X{k}", "position": [100.0 + 80.0 * k, 0.0],
                              "attached_sectors": [["A1"], ["B1"], ["A1", "B1"]][k % 3]}
                             for k in range(22)]
    base, wide = load_doc(docs[0]), load_doc(docs[1])
    for k in range(5):
        seed = snapshot_seed(31, k)
        snap = solved_alone((base, wide), 31, k)
        mobiles = drop_mobiles(base, seed)
        gm = build_gain_matrix(base, mobiles, seed)
        assert drop_bits(snap.mobiles) == drop_bits(mobiles)
        own = jacobi(base, mobiles, gm, associate(gm), snap.runs[0].iterations)
        for f in ("tx_power_dbm", "sinr_db", "outage"):
            assert np.array_equal(getattr(snap.runs[0], f), getattr(own, f)), (k, f)


@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_nested_green_campaign_matches_own_table_solves(combining):
    """A campaign of 0..4 nested greens, fullest last, as a green-count
    sweep runs it: every run stops at the common iteration count and is
    the bits of Jacobi iterates on its own scenario's table to that count."""
    doc = two_cell_doc(with_green=True, sigma=8.0, targets=(-15.0, -6.0),
                       mobiles_per_sector=6)
    doc["greens"] += [{"id": f"X{k}", "position": [400.0 + 400.0 * k, 0.0],
                       "attached_sectors": [["A1"], ["B1"], ["A1", "B1"]][k]}
                      for k in range(3)]
    doc["radio"]["combining"] = combining
    full = load_doc(doc)
    variants = tuple(dataclasses.replace(full, greens=full.greens[:k])
                     for k in range(len(full.greens) + 1))
    stopped_alone_elsewhere = 0
    for snap in snapshots(run_campaign(variants, seed=37, n_snapshots=4), 37):
        assert len({r.iterations for r in snap.runs}) == 1
        for s, got in zip(variants, snap.runs, strict=True):
            mobiles = drop_mobiles(s, snap.seed)
            gm = build_gain_matrix(s, mobiles, snap.seed)
            assert drop_bits(snap.mobiles) == drop_bits(mobiles)
            serving = associate(gm)
            own = jacobi(s, mobiles, gm, serving, got.iterations)
            for f in ("tx_power_dbm", "sinr_db", "outage"):
                assert np.array_equal(getattr(got, f), getattr(own, f)), (snap.index, f)
            alone = solved((s,), [(mobiles, serving, gm)])[0][0]
            stopped_alone_elsewhere += alone.iterations != got.iterations
    assert stopped_alone_elsewhere > 0     # the lockstep moved some run's stop


def test_baseline_greens_must_be_in_the_green_scenario(two_cell, two_cell_green):
    with pytest.raises(PairingError, match="'G'"):
        check_pairable(two_cell_green, two_cell)
    moved = dataclasses.replace(two_cell_green.greens[0], position=(1500.0, 0.0))
    other = dataclasses.replace(two_cell_green, greens=(moved,))
    with pytest.raises(PairingError, match="'G'"):
        run_campaign((other, two_cell_green), seed=1, n_snapshots=1)


def test_green_run_never_transmits_more(two_cell, two_cell_green):
    for k in range(6):
        base, green = solved_alone((two_cell, two_cell_green), 17, k).runs
        assert np.all(green.tx_power_dbm <= base.tx_power_dbm + 1e-9)


def test_paired_campaign_requires_matching_scenarios(two_cell, two_cell_green):
    other = load_doc(two_cell_doc(targets=(-6.0, -6.0)))
    with pytest.raises(PairingError):
        check_pairable(other, two_cell_green)
    with pytest.raises(PairingError):
        run_campaign((other, two_cell_green), seed=1, n_snapshots=1)
    # identical non-green sections pair fine, the green scenario may add greens
    check_pairable(two_cell, two_cell_green)
    check_pairable(two_cell_green, two_cell_green)
    same = solved_alone((two_cell_green, two_cell_green), 1, 0)
    for f in ("tx_power_dbm", "sinr_db", "outage"):
        assert np.array_equal(getattr(same.runs[0], f), getattr(same.runs[1], f))


def test_pairing_errors_mention_the_divergence(two_cell, two_cell_green):
    radio = dataclasses.replace(two_cell.radio, p_max_dbm=30.0)
    other = dataclasses.replace(two_cell, radio=radio)
    with pytest.raises(PairingError, match="green antenna section"):
        check_pairable(other, two_cell_green)


def test_paired_campaign_runs_parallel(two_cell, two_cell_green):
    serial = snapshots(run_campaign((two_cell, two_cell_green), seed=2, n_snapshots=3))
    parallel = snapshots(run_campaign((two_cell, two_cell_green), seed=2, n_snapshots=3,
                                      jobs=2))
    for x, y in zip(serial, parallel):
        assert np.array_equal(x.runs[1].tx_power_dbm, y.runs[1].tx_power_dbm)
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)


def test_three_workers_return_every_snapshot_in_order(two_cell, two_cell_green):
    scenarios = (two_cell, two_cell_green)
    serial = run_campaign(scenarios, seed=3, n_snapshots=5)
    parallel = run_campaign(scenarios, seed=3, n_snapshots=5, jobs=3)
    assert [snap.index for snap in snapshots(parallel)] == [0, 1, 2, 3, 4]
    assert pickle.dumps(parallel) == pickle.dumps(serial)


def test_without_fork_every_range_runs_in_the_parent(two_cell, monkeypatch):
    serial = run_campaign((two_cell,), seed=3, n_snapshots=4)
    pids = []
    act_from(monkeypatch, 0, lambda index: pids.append(os.getpid()))
    monkeypatch.setattr(simulate, "_CAN_FORK", False)
    alone = run_campaign((two_cell,), seed=3, n_snapshots=4, jobs=2)
    assert pids == [os.getpid()] * 4
    assert pickle.dumps(alone) == pickle.dumps(serial)


def _infeasible(index):
    raise InfeasibleDropError(f"no room for the mobiles of snapshot {index}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_error_is_raised_with_its_type_and_message(two_cell, monkeypatch, jobs):
    act_from(monkeypatch, 2, _infeasible)     # only the second of two ranges fails
    with pytest.raises(InfeasibleDropError, match="^no room for the mobiles of snapshot 2$") as info:
        run_campaign((two_cell,), seed=1, n_snapshots=4, jobs=jobs)
    if jobs > 1:    # the worker's traceback is the cause
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "_infeasible" in str(info.value.__cause__)


def test_worker_that_exits_without_sending_is_a_runtime_error(two_cell, monkeypatch):
    act_from(monkeypatch, 2, lambda index: os._exit(3))
    with pytest.raises(RuntimeError, match="snapshots 2..3 exited with code 3"):
        run_campaign((two_cell,), seed=1, n_snapshots=4, jobs=2)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_the_parents_range_terminates_and_joins_the_workers(two_cell, monkeypatch,
                                                                      error):
    workers = []

    def act(index):
        if index >= 2:      # a worker's range: it would outlive the test
            time.sleep(60)
        workers.extend(multiprocessing.active_children())
        raise error("the parent's range failed")

    act_from(monkeypatch, 0, act)
    t0 = time.perf_counter()
    with pytest.raises(error, match="parent's range failed"):
        run_campaign((two_cell,), seed=1, n_snapshots=4, jobs=2)
    assert time.perf_counter() - t0 < 30
    assert len(workers) == 1
    assert workers[0].exitcode == -signal.SIGTERM


def test_gather_tx_powers_concatenates_in_snapshot_order(two_cell):
    c = run_campaign((two_cell,), seed=4, n_snapshots=3)
    flat = gather_tx_powers(c, 0, population_mask(c.drop))
    expected = [p for sn in snapshots(c) for p in sn.runs[0].tx_power_dbm]
    assert flat == expected


def test_gather_tx_powers_selects_run_and_filters(two_cell, two_cell_green):
    pairs = run_campaign((two_cell, two_cell_green), seed=6, n_snapshots=3)
    base = gather_tx_powers(pairs, 0, population_mask(pairs.drop))
    grn = gather_tx_powers(pairs, 1, population_mask(pairs.drop))
    assert len(base) == len(grn) == sum(len(p.mobiles) for p in snapshots(pairs))
    assert np.mean(base) >= np.mean(grn)

    disk = PopulationFilter(center=(1600.0, 0.0), radius_m=600.0)
    sub = gather_tx_powers(pairs, 1, population_mask(pairs.drop, disk))
    assert len(sub) < len(grn)
    assert set(sub) <= set(grn)

    everyone = gather_tx_powers(pairs, 1, population_mask(pairs.drop, NO_FILTER))
    assert everyone == grn


def test_gather_tx_powers_reads_precomputed_kept_indices(two_cell, two_cell_green):
    """One filter mask per campaign serves every run: powers gathered
    through it equal those filtered run by run, mobile by mobile."""
    pairs = run_campaign((two_cell, two_cell_green), seed=6, n_snapshots=3)
    disk = PopulationFilter(center=(1600.0, 0.0), radius_m=600.0)
    kept = population_mask(pairs.drop, disk)
    assert kept.sum(axis=1).tolist() != [len(p.mobiles) for p in snapshots(pairs)]
    for run in (0, 1):
        want = [float(p) for snap in snapshots(pairs)
                for xy, p in zip(snap.mobiles.xy.tolist(), snap.runs[run].tx_power_dbm)
                if math.dist(xy, disk.center) <= disk.radius_m]
        assert gather_tx_powers(pairs, run, kept) == want


# ---------------------------------------------------------------------------
# refilled stacks: every snapshot is the bits of its solve alone

#: Links of one snapshot of the bundled pair, as the stack counts them: 210
#: mobiles, each linked to the green scenario's 21 sectors + 1 green.
HOLE_PAIR_LINKS = 210 * 22

def _hole_pair(combining, docs=None):
    """The bundled pair, or the pair of `docs`, under one combining rule."""
    docs = docs or [bundled_doc("baseline.json"), bundled_doc("green.json")]
    for doc in docs:
        doc["radio"]["combining"] = combining
    return tuple(load_doc(doc) for doc in docs)


def _assert_same_result(got, want):
    for f in ("tx_power_dbm", "sinr_db", "outage"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert type(got.iterations) is int and type(got.converged) is bool


def _assert_same_snapshot(got, want):
    assert ((got.index, got.seed, drop_bits(got.mobiles))
            == (want.index, want.seed, drop_bits(want.mobiles)))
    assert got.association.tobytes() == want.association.tobytes()
    assert got.association.dtype == want.association.dtype
    for g, w in zip(got.runs, want.runs, strict=True):
        _assert_same_result(g, w)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_campaign_snapshots_are_bitwise_their_solves_alone(combining, jobs, monkeypatch):
    """Stacks of 1, 2 and 4 slots over 9 snapshots, so slots are refilled
    and the drained stack shrinks: every snapshot equals a task of it
    alone, and each run equals Jacobi iterates on its own scenario's table
    to the pair's iteration count. The worlds are the bundled pair, and
    green.json with 9 greens on one sector (a branch set of 10, summed
    pairwise) paired with its first 8 (a set of 9). Each load draws one
    block of its free slots, so the blocks are of 1 to 4 snapshots, and
    need not divide a range of 9, 4 or 3."""
    for docs in (None, [wide_green_doc(8), wide_green_doc(9)]):
        scenarios = _hole_pair(combining, docs)
        links = 210 * len(scenarios[-1].receive_points)
        assert max(s.branches.widths.max() for s in scenarios) == (2 if docs is None else 10)
        alone = [solved_alone(scenarios, 53, index) for index in range(9)]
        for snap in alone:
            for s, got in zip(scenarios, snap.runs):
                mobiles = drop_mobiles(s, snap.seed)
                gm = build_gain_matrix(s, mobiles, snap.seed)
                _assert_same_result(got, jacobi(s, mobiles, gm, associate(gm), got.iterations))
        for slots in (1, 2, 4):
            monkeypatch.setattr(powerctl, "STACK_LINKS", slots * links)
            sizes = counting_builds(monkeypatch)
            snaps = snapshots(run_campaign(scenarios, seed=53, n_snapshots=9, jobs=jobs), 53)
            assert max(sizes) == min(slots, 9 // jobs)     # the parent's range: 9, 4 or 3
            assert [sn.index for sn in snaps] == list(range(9))
            for snap, want in zip(snaps, alone, strict=True):
                _assert_same_snapshot(snap, want)


def test_solver_draws_exactly_its_free_slots(monkeypatch):
    """Each load draws one block of exactly the slots that are free: the
    draws tile 0..count-1 in order, the first is the whole stack of 3
    slots, and each later one is the number of snapshots emitted just
    before it (or what is left). A snapshot loaded after P passes of the
    loop (R kernel calls each) stops at pass P + its iterations, and is
    emitted at the first load after that pass. A campaign's task draws
    the same blocks, each with one drop, one table and one association
    call."""
    scenarios = _hole_pair("mrc")
    drops = _hole_drops(scenarios, 61, 10)
    draw, kernel = drawn(drops), powerctl._combined_sinr
    kernel_calls, loads = [], []

    def counted_kernel(*args):
        kernel_calls.append(1)
        return kernel(*args)

    def logged_draw(lo, hi):
        loads.append((lo, hi, len(kernel_calls) // len(scenarios)))
        return draw(lo, hi)

    monkeypatch.setattr(powerctl, "_combined_sinr", counted_kernel)
    monkeypatch.setattr(powerctl, "STACK_LINKS", 3 * HOLE_PAIR_LINKS)
    c = solve_snapshots(scenarios, logged_draw, len(drops))
    assert [(lo, hi) for lo, hi, _ in loads][:1] == [(0, 3)] and len(loads) > 3
    assert [lo for lo, _, _ in loads] == [0] + [hi for _, hi, _ in loads[:-1]]
    assert loads[-1][1] == len(drops)
    loaded_after = {i: passes for lo, hi, passes in loads for i in range(lo, hi)}
    stops = [loaded_after[i] + k for i, k in enumerate(c.iterations.tolist())]
    for (_, _, before), (lo, hi, passes) in zip(loads, loads[1:]):
        emitted = sum(before <= stop < passes for stop in stops)
        assert 0 < hi - lo == min(emitted, len(drops) - lo)

    calls = {"drop": [], "build": [], "associate": []}
    drop, build, assoc = simulate.drop_mobiles, simulate.build_gain_matrix, simulate.associate
    monkeypatch.setattr(simulate, "drop_mobiles",
                        lambda s, seeds: calls["drop"].append(len(seeds)) or drop(s, seeds))
    monkeypatch.setattr(simulate, "build_gain_matrix", lambda s, mobiles, seeds:
                        calls["build"].append(len(seeds)) or build(s, mobiles, seeds))
    monkeypatch.setattr(simulate, "associate",
                        lambda gm: calls["associate"].append(len(gm.ul_gain_db)) or assoc(gm))
    run_campaign(scenarios, seed=61, n_snapshots=len(drops))
    for sizes in calls.values():
        assert sizes == [hi - lo for lo, hi, _ in loads]


def test_no_drawn_block_outlives_its_rebuild(monkeypatch):
    """The stack keeps copies of a block's rows, not the block: from the
    first kernel call after the rebuild that loaded it, no drawn drop or
    field of it, association, table or linear gain array is alive."""
    scenarios = _hole_pair("mrc")
    refs, alive = [], []
    build, assoc, kernel = simulate.build_gain_matrix, simulate.associate, powerctl._combined_sinr

    def traced_build(s, mobiles, seeds):
        gm = build(s, mobiles, seeds)
        refs.extend(weakref.ref(a) for a in (mobiles, *vars(mobiles).values(), gm,
                                             gm.ul_gain_db, gm.dl_rx_dbm, gm.ul_gain_mw))
        return gm

    def traced_associate(gm):
        serving = assoc(gm)
        refs.append(weakref.ref(serving))
        return serving

    def checked_kernel(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return kernel(*args)

    monkeypatch.setattr(simulate, "build_gain_matrix", traced_build)
    monkeypatch.setattr(simulate, "associate", traced_associate)
    monkeypatch.setattr(powerctl, "_combined_sinr", checked_kernel)
    monkeypatch.setattr(powerctl, "STACK_LINKS", 3 * HOLE_PAIR_LINKS)
    sizes = counting_builds(monkeypatch)
    run_campaign(scenarios, seed=61, n_snapshots=10)
    assert len(sizes) > 3 * len(scenarios) and len(refs) > 3 * 9
    assert alive and set(alive) == {0}


def test_stack_is_sized_by_the_fullest_table(monkeypatch):
    """The budget counts the last scenario's table only: 14 slots of the
    bundled pair, 48 of the 11-green map, and a 3-run green-count sweep
    of that map gets the 48 slots of its fullest run alone."""
    world = load_doc(multi_green_doc())
    sweep = tuple(dataclasses.replace(world, greens=world.greens[:k]) for k in (0, 5, 11))
    # 65536 // (210 * 22) and 65536 // (42 * 32)
    for scenarios, slots in ((_hole_pair("mrc"), 14), ((world,), 48), (sweep, 48)):
        sizes = counting_builds(monkeypatch)
        run_campaign(scenarios, seed=7, n_snapshots=slots + 3)
        assert sizes[:len(scenarios)] == [slots] * len(scenarios)
        assert max(sizes) == slots


def test_each_run_stack_is_a_fresh_gather_of_its_columns(monkeypatch):
    """Every stack the solver builds, at the first load and at each
    refill, is one fresh C-ordered array per run, sharing memory with no
    other, and its rows are bitwise `restricted_to(s).ul_gain_mw` of the
    same drop's table: the layout sets the last bits of `powers @ gains`.
    Checked on a 3-run green-count sweep in a stack of 3 slots."""
    world = load_doc(multi_green_doc())
    scenarios = tuple(dataclasses.replace(world, greens=world.greens[:k]) for k in (0, 5, 11))
    last = scenarios[-1]
    own = []
    for k in range(10):
        seed = snapshot_seed(67, k)
        gm = build_gain_matrix(last, drop_mobiles(last, seed), seed)
        own.append([gm.restricted_to(s).ul_gain_mw.tobytes() for s in scenarios])
    stacks, build = [], powerctl._stacked_problem

    def recorded(gains_mw, *args):
        stacks.append(gains_mw)
        return build(gains_mw, *args)

    monkeypatch.setattr(powerctl, "_stacked_problem", recorded)
    links = last.traffic.mobiles_per_sector * last.n_sectors() * len(last.receive_points)
    monkeypatch.setattr(powerctl, "STACK_LINKS", 3 * links)
    run_campaign(scenarios, seed=67, n_snapshots=len(own))
    assert len(stacks) > 3 * len(scenarios) and max(map(len, stacks)) == 3
    seen = set()
    for at in range(0, len(stacks), len(scenarios)):
        runs = stacks[at:at + len(scenarios)]
        for r, gains in enumerate(runs):
            assert gains.flags.c_contiguous and gains.flags.owndata
            assert not any(np.shares_memory(gains, other) for other in runs[r + 1:])
        for slot in range(len(runs[-1])):
            index = next(i for i, rows in enumerate(own) if rows[-1] == runs[-1][slot].tobytes())
            assert [g[slot].tobytes() for g in runs] == own[index]
            seen.add(index)
    assert seen == set(range(len(own)))


def _hole_drops(scenarios, seed, count):
    drops = []
    for k in range(count):
        snap_seed = snapshot_seed(seed, k)
        mobiles = drop_mobiles(scenarios[1], snap_seed)
        gm = build_gain_matrix(scenarios[1], mobiles, snap_seed)
        drops.append((mobiles, associate(gm), gm))
    return drops


def test_refilled_stack_returns_input_order(monkeypatch):
    """Snapshots stop out of input order in a stack of 3 slots fed by a
    draw; the results come back in input order, each the bits of its
    solve alone, and the stack was refilled."""
    scenarios = _hole_pair("mrc")
    drops = _hole_drops(scenarios, 61, 10)
    alone = [solved(scenarios, [d])[0] for d in drops]
    iters = [runs[0].iterations for runs in alone]
    assert iters != sorted(iters)
    monkeypatch.setattr(powerctl, "STACK_LINKS", 3 * HOLE_PAIR_LINKS)
    sizes = counting_builds(monkeypatch)
    got = solved(scenarios, drops)
    assert max(sizes) == 3 and len(sizes) > 2 * len(scenarios)
    for g, w in zip(got, alone, strict=True):
        for r_got, r_want in zip(g, w, strict=True):
            _assert_same_result(r_got, r_want)


def test_refilled_snapshot_stops_at_its_own_max_iter(monkeypatch, caplog):
    """A snapshot loaded into a freed slot after the first one stopped runs
    its own max_iter iterations, past the stack's loop count at its load:
    it ends unconverged at max_iter, with one warning, and with the bits
    of its solve alone."""
    scenarios = _hole_pair("mrc")
    drops = _hole_drops(scenarios, 59, 8)
    natural = [solved(scenarios, [d])[0][0].iterations for d in drops]
    fast = min(range(len(drops)), key=natural.__getitem__)
    slow = max(range(len(drops)), key=natural.__getitem__)
    other = next(k for k in range(len(drops)) if k not in (fast, slow))
    max_iter = (natural[fast] + natural[slow]) // 2
    assert natural[fast] < max_iter < natural[slow]
    order = [drops[fast], drops[other], drops[slow]]
    alone = [solved(scenarios, [d], max_iter=max_iter)[0] for d in order]
    monkeypatch.setattr(powerctl, "STACK_LINKS", 2 * HOLE_PAIR_LINKS)
    sizes = counting_builds(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="greenant.powerctl"):
        got = solved(scenarios, order, max_iter=max_iter)
    warnings = [r for r in caplog.records if "did not converge" in r.getMessage()]
    failed = sum(not all(r.converged for r in runs) for runs in alone)
    assert len(warnings) == failed >= 1
    assert max(sizes) == 2
    assert len(sizes) > len(scenarios)      # the slow snapshot joined a rebuilt stack
    assert [r.iterations for r in got[2]] == [max_iter] * len(scenarios)
    assert not all(r.converged for r in got[2])
    for g, w in zip(got, alone, strict=True):
        for r_got, r_want in zip(g, w, strict=True):
            _assert_same_result(r_got, r_want)


def test_nonconverged_snapshot_in_a_stack_keeps_its_own_state(monkeypatch, caplog):
    """Under a max_iter that half the snapshots of a stack need more than,
    those end unconverged, with one warning each, and every snapshot,
    converged or not, is the bits of its solve alone."""
    scenarios = _hole_pair("mrc")
    drops = []
    for k in range(8):
        seed = snapshot_seed(59, k)
        mobiles = drop_mobiles(scenarios[1], seed)
        gm = build_gain_matrix(scenarios[1], mobiles, seed)
        drops.append((mobiles, associate(gm), gm))
    natural = sorted(solved(scenarios, [d])[0][0].iterations for d in drops)
    max_iter = natural[len(natural) // 2]
    alone = [solved(scenarios, [d], max_iter=max_iter)[0] for d in drops]
    failed = sum(not all(r.converged for r in runs) for runs in alone)
    assert 0 < failed < len(drops)
    monkeypatch.setattr(powerctl, "STACK_LINKS", len(drops) * HOLE_PAIR_LINKS)
    sizes = counting_builds(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="greenant.powerctl"):
        stacked = solved(scenarios, drops, max_iter=max_iter)
    assert max(sizes) == len(drops)     # one stack of every snapshot
    warnings = [r for r in caplog.records if "did not converge" in r.getMessage()]
    assert len(warnings) == failed
    for got, want in zip(stacked, alone, strict=True):
        for g, w in zip(got, want, strict=True):
            _assert_same_result(g, w)
        if not all(r.converged for r in got):
            assert [r.iterations for r in got] == [max_iter] * len(got)


def test_campaign_without_mobiles():
    scenarios = (load_doc(two_cell_doc(mobiles_per_sector=0)),
                 load_doc(two_cell_doc(with_green=True, mobiles_per_sector=0)))
    for jobs in (1, 2):
        snaps = snapshots(run_campaign(scenarios, seed=3, n_snapshots=5, jobs=jobs), 3)
        for snap in snaps:
            assert len(snap.mobiles) == 0
            _assert_same_snapshot(snap, solved_alone(scenarios, 3, snap.index))
            for run in snap.runs:
                assert run.tx_power_dbm.shape == (0,)
                assert (run.iterations, run.converged) == (1, True)


def test_readme_library_example_runs(monkeypatch, capsys):
    """The README's library example runs as written, from the repository
    root, and prints the green pair's mean and median power drop."""
    readme = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(SCENARIO_DIR.parent)
    exec(compile(code, "README.md", "exec"), {})
    mean_delta, median_delta = map(float, capsys.readouterr().out.split())
    assert mean_delta > 0.0 and median_delta > 0.0
