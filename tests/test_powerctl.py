"""Power control: association, branch sets, combining rules, and the
fixed-point solver with its closed-form and linear-algebra oracles."""

import numpy as np
import pytest

from greenant.powerctl import (
    _combined_sinr,
    _problem,
    associate,
    effective_sinr,
    power_update,
    receive_branches,
    solve_power_control,
)
from greenant.scenario import (
    AntennaPattern,
    GreenAntenna,
    MobileStation,
    RadioParams,
    Scenario,
    Sector,
    Site,
)

from conftest import make_tables, random_instance

NOISE_MW = 10.0 ** (-104.0 / 10.0)


def solver_scenario(n_sectors, attach=None, p_min=-50.0, p_max=24.0):
    """Bare scenario whose sector/green ids line up with make_tables."""
    sites = tuple(
        Site(id=f"site{k}", position=(0.0, 0.0),
             sectors=(Sector(id=f"s{k}", azimuth_deg=0.0, antenna=AntennaPattern()),))
        for k in range(n_sectors)
    )
    greens = []
    for gid in sorted({g for gids in (attach or {}).values() for g in gids}):
        secs = tuple(sid for sid, gids in attach.items() if gid in gids)
        greens.append(GreenAntenna(id=gid, position=(0.0, 0.0),
                                   antenna=AntennaPattern(), attached_sectors=secs))
    return Scenario(sites=sites, greens=tuple(greens),
                    radio=RadioParams(p_min_dbm=p_min, p_max_dbm=p_max))


def mobile(i, target_db):
    return MobileStation(id=i, position=(0.0, 0.0), indoor=False, building_id=None,
                         service="data", sinr_target_db=float(target_db))


# ---------------------------------------------------------------------------
# association and branch sets

def test_associate_picks_strongest_downlink():
    gm, _, _ = make_tables([[-100.0, -90.0]], 2, serving=[1])
    assoc = associate(gm)
    assert assoc.serving_sector == ("s1",)
    assert assoc.dl_rx_dbm[0] == -60.0


def test_associate_breaks_ties_to_lowest_sector_id():
    gm, _, _ = make_tables([[-100.0, -100.0]], 2, serving=[0])
    gm.dl_rx_dbm.flags.writeable = True
    gm.dl_rx_dbm[0, :] = -70.0
    assert associate(gm).serving_sector == ("s0",)
    # "s10" is declared after "s2" but is the lower id; a first-index
    # argmax over the tied columns would pick "s2"
    gm, _, _ = make_tables([[-100.0] * 11] * 2, 11, serving=[0, 0])
    gm.dl_rx_dbm.flags.writeable = True
    gm.dl_rx_dbm[0, [2, 10]] = -50.0
    gm.dl_rx_dbm[1, [3, 7]] = -50.0
    assoc = associate(gm)
    assert assoc.serving_sector == ("s10", "s3")
    assert assoc.serving_index.tolist() == [10, 3]
    assert assoc.dl_rx_dbm.tolist() == [-50.0, -50.0]


def test_receive_branches_reflect_attachment(two_cell_green):
    bs = receive_branches(two_cell_green)
    assert bs.by_sector["A1"] == ("A1", "G")
    assert bs.by_sector["B1"] == ("B1",)


def test_multi_attached_green_appears_in_both_sets():
    s = solver_scenario(2, attach={"s0": ["g0"], "s1": ["g0"]})
    bs = receive_branches(s)
    assert bs.by_sector["s0"] == ("s0", "g0")
    assert bs.by_sector["s1"] == ("s1", "g0")


# ---------------------------------------------------------------------------
# combining rules

def test_two_equal_branches_mrc_adds_3db():
    gm, assoc, branches = make_tables([[-104.0, -104.0]], 1, serving=[0],
                                      attach={"s0": ["g0"]})
    p = np.array([1.0])     # 0 dBm, so each branch sits at exactly 0 dB SINR
    assert effective_sinr(0, p, gm, assoc, branches, "mrc") == pytest.approx(3.0103, abs=1e-3)
    assert effective_sinr(0, p, gm, assoc, branches, "selection") == pytest.approx(0.0, abs=1e-9)
    assert effective_sinr(0, p, gm, assoc, branches, "egc") == pytest.approx(3.0103, abs=1e-3)


def test_single_branch_all_rules_agree_exactly():
    rng = np.random.default_rng(404)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ul = rng.uniform(-120.0, -80.0, size=(n, 2))
        gm, assoc, branches = make_tables(ul, 2, serving=rng.integers(0, 2, size=n))
        p = rng.uniform(0.001, 100.0, size=n)
        for i in range(n):
            mrc = effective_sinr(i, p, gm, assoc, branches, "mrc")
            sel = effective_sinr(i, p, gm, assoc, branches, "selection")
            egc = effective_sinr(i, p, gm, assoc, branches, "egc")
            assert mrc == sel == egc


def test_interference_lowers_sinr():
    gm, assoc, branches = make_tables([[-100.0], [-100.0]], 1, serving=[0, 0])
    alone = effective_sinr(0, np.array([1.0, 1e-30]), gm, assoc, branches, "mrc")
    loaded = effective_sinr(0, np.array([1.0, 1.0]), gm, assoc, branches, "mrc")
    assert loaded < alone


def test_egc_cross_terms_match_closed_form():
    """(sqrt(S1)+sqrt(S2))^2 / (den1+den2), checked by hand."""
    gm, assoc, branches = make_tables([[-100.0, -106.0]], 1, serving=[0],
                                      attach={"s0": ["g0"]})
    p = np.array([2.0])
    s1 = 2.0 * 10.0 ** (-10.0)
    s2 = 2.0 * 10.0 ** (-10.6)
    expected = 10 * np.log10((np.sqrt(s1) + np.sqrt(s2)) ** 2 / (2 * NOISE_MW))
    assert effective_sinr(0, p, gm, assoc, branches, "egc") == pytest.approx(expected, rel=1e-12)


def per_sector_sinr(powers_mw, gm, assoc, branches, combining):
    """Reference for the kernel: the combining rules evaluated with one
    np.ix_ block per serving sector, in the same arithmetic order."""
    gains = 10.0 ** (gm.ul_gain_db / 10.0)
    noise = 10.0 ** (gm.noise_dbm / 10.0)
    total_rx = powers_mw @ gains
    out = np.empty(len(powers_mw))
    by_serving = {}
    for i, sid in enumerate(assoc.serving_sector):
        by_serving.setdefault(sid, []).append(i)
    for sid, rows in by_serving.items():
        cols = np.array([gm.rp_index[rid] for rid in branches.by_sector[sid]], dtype=int)
        rows = np.array(rows, dtype=int)
        signal = powers_mw[rows, None] * gains[np.ix_(rows, cols)]
        den = (total_rx[cols][None, :] - signal) + noise[cols][None, :]
        if combining == "mrc":
            lin = (signal / den).sum(axis=1)
        elif combining == "selection":
            lin = (signal / den).max(axis=1)
        else:
            num = signal.sum(axis=1)
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    num = num + 2.0 * np.sqrt(signal[:, a] * signal[:, b])
            lin = num / den.sum(axis=1)
        out[rows] = lin
    return out


def wide_instance(rng):
    """One sector with 8-11 branches beside narrower ones, several sectors
    sharing a width, and a green attached to two sectors."""
    n_sec = int(rng.integers(3, 7))
    widths = [int(rng.integers(7, 11))] + [int(rng.integers(0, 4)) for _ in range(n_sec - 1)]
    attach, n_green = {}, 0
    for k, width in enumerate(widths):
        for _ in range(width):
            attach.setdefault(f"s{k}", []).append(f"g{n_green}")
            n_green += 1
    attach.setdefault("s1", []).append("g0")
    n_ms = int(rng.integers(n_sec, 40))
    ul = rng.uniform(-130.0, -70.0, size=(n_ms, n_sec + n_green))
    serving = np.concatenate([np.arange(n_sec), rng.integers(0, n_sec, size=n_ms - n_sec)])
    return make_tables(ul, n_sec, serving, attach=attach)


def test_kernel_is_bitwise_equal_to_per_sector_evaluation():
    rng = np.random.default_rng(97)
    instances = [random_instance(rng)[:3] for _ in range(40)]
    instances += [wide_instance(rng) for _ in range(40)]
    for gm, assoc, branches in instances:
        n = len(gm.ms_ids)
        p = 10.0 ** rng.uniform(-5.0, 2.4, size=n)
        problem = _problem(gm, assoc, branches, np.zeros(n), -np.inf, np.inf)
        for mode in ("mrc", "selection", "egc"):
            expected = per_sector_sinr(p, gm, assoc, branches, mode)
            assert np.array_equal(_combined_sinr(p, problem, mode), expected)


# ---------------------------------------------------------------------------
# the update map

def test_update_is_a_fixed_point_at_target():
    gm, assoc, branches = make_tables([[-100.0]], 1, serving=[0])
    p_star = 10.0 ** (-0.4)     # gamma*N/g at 0 dB target, in mW
    nxt = power_update(np.array([p_star]), np.array([0.0]), gm, assoc, branches, "mrc")
    assert nxt[0] == pytest.approx(p_star, rel=1e-12)


def test_update_raises_by_exactly_the_shortfall():
    gm, assoc, branches = make_tables([[-100.0], [-108.0]], 1, serving=[0, 0])
    p = np.array([0.5, 2.0])
    sinr_db = effective_sinr(0, p, gm, assoc, branches, "mrc")
    nxt = power_update(p, np.array([sinr_db + 3.0, 0.0]), gm, assoc, branches, "mrc")
    assert 10 * np.log10(nxt[0] / p[0]) == pytest.approx(3.0, abs=1e-9)


def test_step_clamps_to_limits():
    gm, assoc, branches = make_tables([[-140.0]], 1, serving=[0])
    p = np.array([10.0 ** 2.4])  # p_max
    nxt = power_update(p, np.array([20.0]), gm, assoc, branches, "mrc",
                       limits_dbm=(-50.0, 24.0))
    assert 10 * np.log10(nxt[0]) == pytest.approx(24.0)


def test_update_axioms_hold_on_random_instances():
    """Positivity, monotonicity, scalability; the acceptance battery is wider."""
    rng = np.random.default_rng(11)
    rel = 1e-9
    for _ in range(15):
        gm, assoc, branches, targets = random_instance(rng)
        n = len(gm.ms_ids)
        for mode in ("mrc", "selection", "egc"):
            p = rng.uniform(1e-5, 10.0, size=n)
            q = p * (1.0 + rng.uniform(0.0, 2.0, size=n))
            up = power_update(p, targets, gm, assoc, branches, mode)
            uq = power_update(q, targets, gm, assoc, branches, mode)
            assert np.all(up > 0)
            assert np.all(up <= uq * (1.0 + rel))
            alpha = 1.0 + rng.uniform(0.1, 3.0)
            ua = power_update(alpha * p, targets, gm, assoc, branches, mode)
            assert np.all(ua <= alpha * up * (1.0 + rel))


def test_update_is_jacobi_order_independent():
    rng = np.random.default_rng(23)
    gm, assoc, branches, targets = random_instance(rng, max_ms=12)
    n = len(gm.ms_ids)
    perm = rng.permutation(n)
    p = rng.uniform(1e-4, 5.0, size=n)
    up = power_update(p, targets, gm, assoc, branches, "mrc")

    ul_p = gm.ul_gain_db[perm]
    n_sec = len(gm.sector_ids)
    serving_p = [gm.sector_index[assoc.serving_sector[i]] for i in perm]
    attach = {sid: list(rids[1:]) for sid, rids in branches.by_sector.items() if len(rids) > 1}
    gm2, assoc2, branches2 = make_tables(ul_p, n_sec, serving_p, attach=attach)
    up2 = power_update(p[perm], targets[perm], gm2, assoc2, branches2, "mrc")
    assert np.allclose(up2, up[perm], rtol=1e-10)


def test_added_branch_never_raises_the_mrc_update():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gm, assoc, branches, targets = random_instance(rng, green_prob=1.0)
        if all(len(r) == 1 for r in branches.by_sector.values()):
            continue
        bare = type(branches)(by_sector={sid: rids[:1]
                                         for sid, rids in branches.by_sector.items()})
        p = rng.uniform(1e-4, 10.0, size=len(gm.ms_ids))
        for mode in ("mrc", "selection"):
            with_green = power_update(p, targets, gm, assoc, branches, mode)
            without = power_update(p, targets, gm, assoc, bare, mode)
            assert np.all(with_green <= without * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# solver closed forms (the three textbook cases)

def test_solver_single_ms_closed_form():
    s = solver_scenario(1)
    gm, assoc, _ = make_tables([[-100.0]], 1, serving=[0])
    res = solve_power_control(s, [mobile(0, 0.0)], gm, assoc)
    assert res.tx_power_dbm[0] == pytest.approx(-4.0, abs=1e-9)
    assert res.converged and not res.outage[0]
    assert res.sinr_db[0] == pytest.approx(0.0, abs=1e-9)


def test_solver_symmetric_pair_closed_form():
    s = solver_scenario(2)
    gm, assoc, _ = make_tables([[-100.0, -110.0], [-110.0, -100.0]], 2, serving=[0, 1])
    res = solve_power_control(s, [mobile(0, 0.0), mobile(1, 0.0)], gm, assoc,
                              tol_db=1e-9)
    expected = 10 * np.log10(NOISE_MW / (1e-10 - 1e-11))
    assert expected == pytest.approx(-3.5423, abs=5e-4)
    assert res.tx_power_dbm == pytest.approx([expected, expected], abs=1e-6)


def test_solver_infeasible_pair_pins_and_flags_outage():
    """Cross gain equal to serving gain at a 0 dB target cannot be met."""
    s = solver_scenario(2)
    gm, assoc, _ = make_tables([[-120.0, -120.0], [-120.0, -120.0]], 2, serving=[0, 1])
    res = solve_power_control(s, [mobile(0, 0.0), mobile(1, 0.0)], gm, assoc)
    assert res.tx_power_dbm == pytest.approx([24.0, 24.0], abs=1e-9)
    assert res.outage.all()
    assert np.all(res.sinr_db < -0.5)


# ---------------------------------------------------------------------------
# solver behavior

def test_iterates_increase_monotonically_from_pmin():
    rng = np.random.default_rng(57)
    gm, assoc, branches, targets = random_instance(rng, max_ms=10, max_sectors=3)
    p = np.full(len(gm.ms_ids), 10.0 ** (-5.0))
    for _ in range(40):
        nxt = power_update(p, targets, gm, assoc, branches, "mrc",
                           limits_dbm=(-50.0, 24.0))
        assert np.all(nxt >= p * (1.0 - 1e-12))
        p = nxt


def test_solver_matches_linear_system_oracle():
    """Feasible single-branch instances solve p = gamma*(N + G p) exactly."""
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 10:
        n = int(rng.integers(1, 5))
        ul = rng.uniform(-120.0, -90.0, size=(n, n))
        serving = np.arange(n)
        targets = rng.uniform(-10.0, 6.0, size=n)
        gains = 10.0 ** (ul / 10.0)
        gamma = 10.0 ** (targets / 10.0)
        # row i: gamma_i * g_ji / g_ii for j != i
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    a[i, j] = gamma[i] * gains[j, i] / gains[i, i]
        if n > 1 and np.max(np.abs(np.linalg.eigvals(a))) > 0.8:
            continue
        checked += 1
        b = gamma * NOISE_MW / np.diag(gains)
        direct = np.linalg.solve(np.eye(n) - a, b)

        gm, assoc, branches = make_tables(ul, n, serving)
        p = np.full(n, 1e-9)
        for _ in range(2000):
            nxt = power_update(p, targets, gm, assoc, branches, "mrc")
            if np.max(np.abs(10 * np.log10(nxt / p))) < 1e-9:
                p = nxt
                break
            p = nxt
        assert np.max(np.abs(p - direct) / direct) < 1e-6


def test_nonconvergence_is_reported_not_raised():
    s = solver_scenario(2)
    gm, assoc, _ = make_tables([[-100.0, -101.0], [-101.0, -100.0]], 2, serving=[0, 1])
    res = solve_power_control(s, [mobile(0, 6.0), mobile(1, 6.0)], gm, assoc,
                              max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_forced_iteration_count_is_exact():
    s = solver_scenario(1)
    gm, assoc, _ = make_tables([[-100.0]], 1, serving=[0])
    res = solve_power_control(s, [mobile(0, 0.0)], gm, assoc, n_iters=7)
    assert res.iterations == 7
    assert res.converged


def test_results_respect_power_limits():
    rng = np.random.default_rng(83)
    s = solver_scenario(3)
    gm, assoc, _ = make_tables(rng.uniform(-130.0, -80.0, size=(8, 3)), 3,
                               serving=rng.integers(0, 3, size=8))
    res = solve_power_control(s, [mobile(i, 5.0) for i in range(8)], gm, assoc)
    assert np.all(res.tx_power_dbm >= -50.0 - 1e-9)
    assert np.all(res.tx_power_dbm <= 24.0 + 1e-9)
    # outage only ever at the upper clamp, short of target by the margin
    for i in np.flatnonzero(res.outage):
        assert res.tx_power_dbm[i] == pytest.approx(24.0)
        assert res.sinr_db[i] < 5.0 - 0.5
