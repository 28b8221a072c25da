"""Snapshot orchestration: seeding, pairing guarantees, and campaigns."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from greenant import powerctl, simulate
from greenant.metrics import NO_FILTER, PopulationFilter, gather_tx_powers, kept_indices
from greenant.powerctl import associate, solve_snapshots
from greenant.propagation import build_gain_matrix
from greenant.scenario import drop_mobiles
from greenant.simulate import (
    PairingError,
    Snapshot,
    check_pairable,
    run_campaign,
    snapshot_seed,
)

from conftest import bundled_doc, drop_bits, load_doc, two_cell_doc


def solved_alone(scenarios, seed, index):
    """Snapshot `index` of a campaign at `seed`, as a task of that one snapshot."""
    return simulate._task((scenarios, seed, index, index + 1))[0]


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
    snaps = run_campaign((two_cell,), seed=3, n_snapshots=4)
    assert [sn.index for sn in snaps] == [0, 1, 2, 3]
    again = run_campaign((two_cell,), seed=3, n_snapshots=4)
    for x, y in zip(snaps, again):
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)


def test_parallel_campaign_matches_serial(two_cell):
    serial = run_campaign((two_cell,), seed=5, n_snapshots=4, jobs=1)
    parallel = run_campaign((two_cell,), seed=5, n_snapshots=4, jobs=2)
    for x, y in zip(serial, parallel):
        assert x.index == y.index
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)
        assert np.array_equal(x.runs[0].sinr_db, y.runs[0].sinr_db)


@pytest.mark.parametrize("jobs", [1, 2])
def test_snapshot_drops_are_read_only(two_cell, jobs):
    """Every run and caller shares a snapshot's drop, a worker's too."""
    for snap in run_campaign((two_cell,), seed=5, n_snapshots=2, jobs=jobs):
        for arr in (snap.mobiles.xy, snap.mobiles.building, snap.mobiles.voice,
                    snap.mobiles.target_db):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_snapshot_results_and_association_are_read_only(two_cell, two_cell_green, jobs):
    """A worker's results and association are as read-only as the serial ones."""
    for snap in run_campaign((two_cell, two_cell_green), seed=5, n_snapshots=2, jobs=jobs):
        arrays = [snap.association]
        arrays += [getattr(run, f) for run in snap.runs
                   for f in ("tx_power_dbm", "sinr_db", "outage")]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0


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
    """Two drops, two tables, two associations, and a re-solve from p_min
    of the run that stopped first; also says whether it re-solved."""
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

    drop_b = [(mobiles_b, serving_b, (gm_b,))]
    drop_g = [(mobiles_g, serving_g, (gm_g,))]
    ctl_b = solve_snapshots((baseline,), drop_b)[0][0]
    ctl_g = solve_snapshots((green,), drop_g)[0][0]
    resolved = ctl_b.iterations != ctl_g.iterations
    if resolved:
        k = max(ctl_b.iterations, ctl_g.iterations)
        if ctl_b.iterations < k:
            ctl_b = solve_snapshots((baseline,), drop_b, n_iters=k)[0][0]
        else:
            ctl_g = solve_snapshots((green,), drop_g, n_iters=k)[0][0]
    pair = Snapshot(index, snap_seed, mobiles_b, serving_b, (ctl_b, ctl_g))
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
    25-column table by id and gets the bits of a solve on its own table. At
    this width a solve on the full table differs in the last bits."""
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
        own = solve_snapshots((base,), [(mobiles, associate(gm), (gm,))],
                              n_iters=snap.runs[0].iterations)[0][0]
        for f in ("tx_power_dbm", "sinr_db", "outage"):
            assert np.array_equal(getattr(snap.runs[0], f), getattr(own, f)), (k, f)


@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_nested_green_campaign_matches_own_table_solves(combining):
    """A campaign of 0..4 nested greens, fullest last, as a green-count
    sweep runs it: every run stops at the common iteration count and is
    the bits of a solve on its own scenario's table at that count."""
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
    for snap in run_campaign(variants, seed=37, n_snapshots=4):
        assert len({r.iterations for r in snap.runs}) == 1
        for s, got in zip(variants, snap.runs, strict=True):
            mobiles = drop_mobiles(s, snap.seed)
            gm = build_gain_matrix(s, mobiles, snap.seed)
            assert drop_bits(snap.mobiles) == drop_bits(mobiles)
            drop = [(mobiles, associate(gm), (gm,))]
            own = solve_snapshots((s,), drop, n_iters=got.iterations)[0][0]
            for f in ("tx_power_dbm", "sinr_db", "outage"):
                assert np.array_equal(getattr(got, f), getattr(own, f)), (snap.index, f)
            alone = solve_snapshots((s,), drop)[0][0]
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
    serial = run_campaign((two_cell, two_cell_green), seed=2, n_snapshots=3)
    parallel = run_campaign((two_cell, two_cell_green), seed=2, n_snapshots=3, jobs=2)
    for x, y in zip(serial, parallel):
        assert np.array_equal(x.runs[1].tx_power_dbm, y.runs[1].tx_power_dbm)
        assert np.array_equal(x.runs[0].tx_power_dbm, y.runs[0].tx_power_dbm)


def test_gather_tx_powers_concatenates_in_snapshot_order(two_cell):
    snaps = run_campaign((two_cell,), seed=4, n_snapshots=3)
    flat = gather_tx_powers(snaps, 0, kept_indices(snaps))
    expected = [p for sn in snaps for p in sn.runs[0].tx_power_dbm]
    assert flat == expected


def test_gather_tx_powers_selects_run_and_filters(two_cell, two_cell_green):
    pairs = run_campaign((two_cell, two_cell_green), seed=6, n_snapshots=3)
    base = gather_tx_powers(pairs, 0, kept_indices(pairs))
    grn = gather_tx_powers(pairs, 1, kept_indices(pairs))
    assert len(base) == len(grn) == sum(len(p.mobiles) for p in pairs)
    assert np.mean(base) >= np.mean(grn)

    disk = PopulationFilter(center=(1600.0, 0.0), radius_m=600.0)
    sub = gather_tx_powers(pairs, 1, kept_indices(pairs, disk))
    assert len(sub) < len(grn)
    assert set(sub) <= set(grn)

    everyone = gather_tx_powers(pairs, 1, kept_indices(pairs, NO_FILTER))
    assert everyone == grn


def test_gather_tx_powers_reads_precomputed_kept_indices(two_cell, two_cell_green):
    """One filter pass per snapshot serves every run: powers gathered from
    kept_indices equal those filtered run by run, mobile by mobile."""
    pairs = run_campaign((two_cell, two_cell_green), seed=6, n_snapshots=3)
    disk = PopulationFilter(center=(1600.0, 0.0), radius_m=600.0)
    kept = kept_indices(pairs, disk)
    assert [len(k) for k in kept] != [len(p.mobiles) for p in pairs]
    for run in (0, 1):
        want = [float(p) for snap in pairs
                for xy, p in zip(snap.mobiles.xy.tolist(), snap.runs[run].tx_power_dbm)
                if math.dist(xy, disk.center) <= disk.radius_m]
        assert gather_tx_powers(pairs, run, kept) == want


# ---------------------------------------------------------------------------
# refilled stacks: every snapshot is the bits of its solve alone

def _hole_pair(combining):
    docs = [bundled_doc("baseline.json"), bundled_doc("green.json")]
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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("combining", ["mrc", "selection", "egc"])
def test_campaign_snapshots_are_bitwise_their_solves_alone(combining, jobs, monkeypatch):
    """Two solver slots of the bundled pair over 9 snapshots, so slots are
    refilled and the drained stack shrinks: every snapshot equals a task of
    it alone, and each run equals a solve on its own scenario's table at
    the pair's iteration count."""
    scenarios = _hole_pair(combining)
    # 210 mobiles, each linked to 21 sectors and to 21 sectors + 1 green
    monkeypatch.setattr(simulate, "STACK_LINKS", 2 * 210 * (21 + 22))
    assert simulate._slot_count(scenarios) == 2
    snaps = run_campaign(scenarios, seed=53, n_snapshots=9, jobs=jobs)
    assert [sn.index for sn in snaps] == list(range(9))
    for snap in snaps:
        _assert_same_snapshot(snap, solved_alone(scenarios, 53, snap.index))
        for s, got in zip(scenarios, snap.runs):
            mobiles = drop_mobiles(s, snap.seed)
            gm = build_gain_matrix(s, mobiles, snap.seed)
            own = solve_snapshots((s,), [(mobiles, associate(gm), (gm,))],
                                  n_iters=got.iterations)[0][0]
            _assert_same_result(got, own)


def _hole_drops(scenarios, seed, count):
    drops = []
    for k in range(count):
        snap_seed = snapshot_seed(seed, k)
        mobiles = drop_mobiles(scenarios[1], snap_seed)
        gm = build_gain_matrix(scenarios[1], mobiles, snap_seed)
        drops.append((mobiles, associate(gm), (gm.restricted_to(scenarios[0]), gm)))
    return drops


def _counting_builds(monkeypatch):
    """Record the snapshot count of every stacked problem the solver builds."""
    sizes = []
    build = powerctl._stacked_problem

    def counted(tables, *args):
        sizes.append(len(tables))
        return build(tables, *args)

    monkeypatch.setattr(powerctl, "_stacked_problem", counted)
    return sizes


def test_refilled_stack_returns_input_order(monkeypatch):
    """Snapshots stop out of input order in a stack of 3 slots fed from a
    generator; the results come back in input order, each the bits of its
    solve alone, and the stack was refilled."""
    scenarios = _hole_pair("mrc")
    drops = _hole_drops(scenarios, 61, 10)
    alone = [solve_snapshots(scenarios, [d])[0] for d in drops]
    iters = [runs[0].iterations for runs in alone]
    assert iters != sorted(iters)
    sizes = _counting_builds(monkeypatch)
    got = solve_snapshots(scenarios, iter(drops), slots=3)
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
    natural = [solve_snapshots(scenarios, [d])[0][0].iterations for d in drops]
    fast = min(range(len(drops)), key=natural.__getitem__)
    slow = max(range(len(drops)), key=natural.__getitem__)
    other = next(k for k in range(len(drops)) if k not in (fast, slow))
    max_iter = (natural[fast] + natural[slow]) // 2
    assert natural[fast] < max_iter < natural[slow]
    order = [drops[fast], drops[other], drops[slow]]
    alone = [solve_snapshots(scenarios, [d], max_iter=max_iter)[0] for d in order]
    sizes = _counting_builds(monkeypatch)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="greenant.powerctl"):
        got = solve_snapshots(scenarios, iter(order), max_iter=max_iter, slots=2)
    warnings = [r for r in caplog.records if "did not converge" in r.getMessage()]
    failed = sum(not all(r.converged for r in runs) for runs in alone)
    assert len(warnings) == failed >= 1
    assert len(sizes) > len(scenarios)      # the slow snapshot joined a rebuilt stack
    assert [r.iterations for r in got[2]] == [max_iter] * len(scenarios)
    assert not all(r.converged for r in got[2])
    for g, w in zip(got, alone, strict=True):
        for r_got, r_want in zip(g, w, strict=True):
            _assert_same_result(r_got, r_want)


def test_nonconverged_snapshot_in_a_stack_keeps_its_own_state(caplog):
    """Under a max_iter that half the snapshots of a stack need more than,
    those end unconverged, with one warning each, and every snapshot,
    converged or not, is the bits of its solve alone."""
    scenarios = _hole_pair("mrc")
    drops = []
    for k in range(8):
        seed = snapshot_seed(59, k)
        mobiles = drop_mobiles(scenarios[1], seed)
        gm = build_gain_matrix(scenarios[1], mobiles, seed)
        drops.append((mobiles, associate(gm), (gm.restricted_to(scenarios[0]), gm)))
    natural = sorted(solve_snapshots(scenarios, [d])[0][0].iterations for d in drops)
    max_iter = natural[len(natural) // 2]
    alone = [solve_snapshots(scenarios, [d], max_iter=max_iter)[0] for d in drops]
    failed = sum(not all(r.converged for r in runs) for runs in alone)
    assert 0 < failed < len(drops)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="greenant.powerctl"):
        stacked = solve_snapshots(scenarios, drops, max_iter=max_iter)
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
        snaps = run_campaign(scenarios, seed=3, n_snapshots=5, jobs=jobs)
        for snap in snaps:
            assert len(snap.mobiles) == 0
            _assert_same_snapshot(snap, solved_alone(scenarios, 3, snap.index))
            for run in snap.runs:
                assert run.tx_power_dbm.shape == (0,)
                assert (run.iterations, run.converged) == (1, True)
