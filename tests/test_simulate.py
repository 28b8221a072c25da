"""Snapshot orchestration: seeding, pairing guarantees, and campaigns."""

import dataclasses

import numpy as np
import pytest

from greenant.metrics import NO_FILTER, PopulationFilter
from greenant.powerctl import associate, solve_power_control
from greenant.propagation import build_gain_matrix
from greenant.scenario import drop_mobiles
from greenant.simulate import (
    PairedSnapshot,
    PairingError,
    check_pairable,
    gather_tx_powers,
    run_campaign,
    run_paired_campaign,
    run_paired_snapshot,
    run_snapshot,
    snapshot_seed,
)

from conftest import load_doc, two_cell_doc


def test_snapshot_seeds_are_distinct_and_stable():
    seeds = [snapshot_seed(1, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [snapshot_seed(1, k) for k in range(100)]
    assert snapshot_seed(2, 0) != snapshot_seed(1, 0)


def test_run_snapshot_is_deterministic(two_cell):
    a = run_snapshot(two_cell, snapshot_seed(9, 0))
    b = run_snapshot(two_cell, snapshot_seed(9, 0))
    assert [m.position for m in a.mobiles] == [m.position for m in b.mobiles]
    assert np.array_equal(a.control.tx_power_dbm, b.control.tx_power_dbm)
    assert a.association.serving_sector == b.association.serving_sector


def test_snapshots_differ_across_indices(two_cell):
    a = run_snapshot(two_cell, snapshot_seed(9, 0))
    b = run_snapshot(two_cell, snapshot_seed(9, 1))
    assert [m.position for m in a.mobiles] != [m.position for m in b.mobiles]


def test_campaign_is_order_preserving_and_seeded(two_cell):
    snaps = run_campaign(two_cell, seed=3, n_snapshots=4)
    assert [sn.index for sn in snaps] == [0, 1, 2, 3]
    again = run_campaign(two_cell, seed=3, n_snapshots=4)
    for x, y in zip(snaps, again):
        assert np.array_equal(x.control.tx_power_dbm, y.control.tx_power_dbm)


def test_parallel_campaign_matches_serial(two_cell):
    serial = run_campaign(two_cell, seed=5, n_snapshots=4, jobs=1)
    parallel = run_campaign(two_cell, seed=5, n_snapshots=4, jobs=2)
    for x, y in zip(serial, parallel):
        assert x.index == y.index
        assert np.array_equal(x.control.tx_power_dbm, y.control.tx_power_dbm)
        assert np.array_equal(x.control.sinr_db, y.control.sinr_db)


def test_campaign_rejects_zero_snapshots(two_cell):
    with pytest.raises(ValueError):
        run_campaign(two_cell, seed=1, n_snapshots=0)


def test_paired_snapshot_shares_drops_and_association():
    base = load_doc(two_cell_doc())
    green = load_doc(two_cell_doc(with_green=True))
    pair = run_paired_snapshot(base, green, snapshot_seed(1, 0))
    assert pair.baseline.iterations == pair.green.iterations
    solo = run_snapshot(base, snapshot_seed(1, 0))
    assert [m.position for m in pair.mobiles] == [m.position for m in solo.mobiles]
    assert pair.association.serving_sector == solo.association.serving_sector


def _reference_paired_snapshot(baseline, green, snap_seed, index=0, combining=None):
    """Two drops, two tables, two associations, and a re-solve from p_min
    of the run that stopped first; also says whether it re-solved."""
    mobiles_b = drop_mobiles(baseline, snap_seed)
    mobiles_g = drop_mobiles(green, snap_seed)
    if mobiles_b != mobiles_g:
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
    assoc_b = associate(gm_b)
    assoc_g = associate(gm_g)
    if assoc_b.serving_sector != assoc_g.serving_sector:
        raise PairingError(f"snapshot {index}: serving sectors differ between runs")

    ctl_b = solve_power_control(baseline, mobiles_b, gm_b, assoc_b, combining=combining)
    ctl_g = solve_power_control(green, mobiles_g, gm_g, assoc_g, combining=combining)
    resolved = ctl_b.iterations != ctl_g.iterations
    if resolved:
        k = max(ctl_b.iterations, ctl_g.iterations)
        if ctl_b.iterations < k:
            ctl_b = solve_power_control(baseline, mobiles_b, gm_b, assoc_b,
                                        combining=combining, n_iters=k)
        else:
            ctl_g = solve_power_control(green, mobiles_g, gm_g, assoc_g,
                                        combining=combining, n_iters=k)
    pair = PairedSnapshot(index, snap_seed, tuple(mobiles_b), assoc_b, ctl_b, ctl_g)
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
        base, green = load_doc(docs[0]), load_doc(docs[1])
        for k in range(5):
            seed = snapshot_seed(23, k)
            pair = run_paired_snapshot(base, green, seed, k, combining)
            ref, did_resolve = _reference_paired_snapshot(base, green, seed, k, combining)
            resolved += did_resolve
            assert pair.mobiles == ref.mobiles
            assert pair.association.serving_sector == ref.association.serving_sector
            for got, want in ((pair.baseline, ref.baseline), (pair.green, ref.green)):
                assert np.array_equal(got.tx_power_dbm, want.tx_power_dbm)
                assert np.array_equal(got.sinr_db, want.sinr_db)
                assert np.array_equal(got.outage, want.outage)
                assert got.iterations == want.iterations
                assert got.converged == want.converged
    assert resolved > 0     # the reference's re-solve path was exercised


def test_green_run_never_transmits_more(two_cell, two_cell_green):
    for k in range(6):
        pair = run_paired_snapshot(two_cell, two_cell_green, snapshot_seed(17, k))
        assert np.all(pair.green.tx_power_dbm <= pair.baseline.tx_power_dbm + 1e-9)


def test_paired_campaign_requires_matching_scenarios(two_cell, two_cell_green):
    other = load_doc(two_cell_doc(targets=(-6.0, -6.0)))
    with pytest.raises(PairingError):
        check_pairable(other, two_cell_green)
    with pytest.raises(PairingError):
        run_paired_campaign(other, two_cell_green, seed=1, n_snapshots=1)
    # identical non-green sections pair fine, greens themselves may differ
    check_pairable(two_cell, two_cell_green)
    check_pairable(two_cell_green, two_cell_green)


def test_pairing_errors_mention_the_divergence(two_cell, two_cell_green):
    radio = dataclasses.replace(two_cell.radio, p_max_dbm=30.0)
    other = dataclasses.replace(two_cell, radio=radio)
    with pytest.raises(PairingError, match="green antenna section"):
        check_pairable(other, two_cell_green)


def test_paired_campaign_runs_parallel(two_cell, two_cell_green):
    serial = run_paired_campaign(two_cell, two_cell_green, seed=2, n_snapshots=3)
    parallel = run_paired_campaign(two_cell, two_cell_green, seed=2, n_snapshots=3,
                                   jobs=2)
    for x, y in zip(serial, parallel):
        assert np.array_equal(x.green.tx_power_dbm, y.green.tx_power_dbm)
        assert np.array_equal(x.baseline.tx_power_dbm, y.baseline.tx_power_dbm)


def test_gather_tx_powers_concatenates_in_snapshot_order(two_cell):
    snaps = run_campaign(two_cell, seed=4, n_snapshots=3)
    flat = gather_tx_powers(snaps)
    expected = [p for sn in snaps for p in sn.control.tx_power_dbm]
    assert flat == expected


def test_gather_tx_powers_selects_run_and_filters(two_cell, two_cell_green):
    pairs = run_paired_campaign(two_cell, two_cell_green, seed=6, n_snapshots=3)
    base = gather_tx_powers(pairs, which="baseline")
    grn = gather_tx_powers(pairs, which="green")
    assert len(base) == len(grn) == sum(len(p.mobiles) for p in pairs)
    assert np.mean(base) >= np.mean(grn)

    disk = PopulationFilter(center=(1600.0, 0.0), radius_m=600.0)
    sub = gather_tx_powers(pairs, which="green", pop_filter=disk)
    assert len(sub) < len(grn)
    assert set(sub) <= set(grn)

    everyone = gather_tx_powers(pairs, which="green", pop_filter=NO_FILTER)
    assert everyone == grn
