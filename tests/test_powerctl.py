"""Power control: association, branch sets, combining rules, and the
fixed-point solver with its closed-form and linear-algebra oracles."""

from dataclasses import replace

import numpy as np
import pytest

from greenant import powerctl
from greenant.powerctl import (
    _combined_sinr,
    _drop_targets,
    _linear_targets,
    _stacked_problem,
    associate,
    effective_sinr,
    power_update,
    solve_snapshots,
)
from greenant.scenario import (
    AntennaPattern,
    GreenAntenna,
    RadioParams,
    Scenario,
    Sector,
    Site,
)

from greenant.propagation import build_gain_matrix
from greenant.scenario import drop_mobiles
from greenant.simulate import snapshot_seed

from conftest import (
    branch_ids,
    bundled_doc,
    drawn,
    load_doc,
    make_tables,
    multi_green_doc,
    own_antennas,
    place,
    random_instance,
    snapshots,
    two_cell_doc,
)

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


def mobiles(*targets_db):
    """A drop of mobiles at the origin with these SINR targets."""
    return place(*[(0.0, 0.0)] * len(targets_db), target_db=np.array(targets_db, dtype=float))


def solve_alone(s, drop, gm, serving, **kwargs):
    """One run of one drop: a stack of one snapshot."""
    solved = solve_snapshots((s,), drawn([(drop, serving, gm)]), 1, **kwargs)
    return snapshots(solved)[0].runs[0]


def stacked_problem(tables, servings, branches, targets_lin, p_min_dbm, p_max_dbm):
    """`_stacked_problem` of tables and their associations, stacked in order."""
    return _stacked_problem(np.stack([t.ul_gain_mw for t in tables]), np.stack(servings),
                            branches, tables[0].channel.noise_mw, targets_lin,
                            p_min_dbm, p_max_dbm)


# ---------------------------------------------------------------------------
# association and branch sets

def test_associate_picks_strongest_downlink():
    gm, _, _ = make_tables([[-100.0, -90.0]], 2, serving=[1])
    serving = associate(gm)
    assert serving.tolist() == [1]
    assert gm.dl_rx_dbm[0, serving[0]] == gm.dl_rx_dbm[0].max() == -60.0


def test_association_is_the_smallest_index_dtype():
    """uint8 up to 256 sectors, uint16 beyond, holding the columns of an
    int64 argmax of the pilots, last column included."""
    for n_sec, dtype in ((2, np.uint8), (300, np.uint16)):
        want = np.arange(40) * (n_sec - 1) // 39
        gm, _, _ = make_tables(np.zeros((40, n_sec)), n_sec, serving=want)
        got = associate(gm)
        assert got.dtype == dtype
        assert got.tolist() == np.argmax(gm.dl_rx_dbm, axis=1).tolist() == want.tolist()


def test_associate_breaks_ties_to_lowest_sector_id():
    gm, _, _ = make_tables([[-100.0, -100.0]], 2, serving=[0])
    gm.dl_rx_dbm.flags.writeable = True
    gm.dl_rx_dbm[0, :] = -70.0
    assert associate(gm).tolist() == [0]
    # "s10" is declared after "s2" but is the lower id; a first-index
    # argmax over the tied columns would pick "s2"
    gm, _, _ = make_tables([[-100.0] * 11] * 2, 11, serving=[0, 0])
    gm.dl_rx_dbm.flags.writeable = True
    gm.dl_rx_dbm[0, [2, 10]] = -50.0
    gm.dl_rx_dbm[1, [3, 7]] = -50.0
    serving = associate(gm)
    assert [gm.sector_ids[k] for k in serving] == ["s10", "s3"]
    assert serving.tolist() == [10, 3]
    assert gm.dl_rx_dbm[[0, 1], serving].tolist() == [-50.0, -50.0]


def test_receive_branches_reflect_attachment(two_cell_green):
    bs = branch_ids(two_cell_green.branches, two_cell_green.receive_points)
    assert bs["A1"] == ("A1", "G")
    assert bs["B1"] == ("B1",)


def test_multi_attached_green_appears_in_both_sets():
    s = solver_scenario(2, attach={"s0": ["g0"], "s1": ["g0"]})
    bs = branch_ids(s.branches, s.receive_points)
    assert bs["s0"] == ("s0", "g0")
    assert bs["s1"] == ("s1", "g0")


# ---------------------------------------------------------------------------
# combining rules

def test_two_equal_branches_mrc_adds_3db():
    gm, serving, branches = make_tables([[-104.0, -104.0]], 1, serving=[0],
                                      attach={"s0": ["g0"]})
    p = np.array([1.0])     # 0 dBm, so each branch sits at exactly 0 dB SINR
    assert effective_sinr(0, p, gm, serving, branches, "mrc") == pytest.approx(3.0103, abs=1e-3)
    assert effective_sinr(0, p, gm, serving, branches, "selection") == pytest.approx(0.0, abs=1e-9)
    assert effective_sinr(0, p, gm, serving, branches, "egc") == pytest.approx(3.0103, abs=1e-3)


def test_single_branch_all_rules_agree_exactly():
    rng = np.random.default_rng(404)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        ul = rng.uniform(-120.0, -80.0, size=(n, 2))
        gm, serving, branches = make_tables(ul, 2, serving=rng.integers(0, 2, size=n))
        p = rng.uniform(0.001, 100.0, size=n)
        for i in range(n):
            mrc = effective_sinr(i, p, gm, serving, branches, "mrc")
            sel = effective_sinr(i, p, gm, serving, branches, "selection")
            egc = effective_sinr(i, p, gm, serving, branches, "egc")
            assert mrc == sel == egc


def test_interference_lowers_sinr():
    gm, serving, branches = make_tables([[-100.0], [-100.0]], 1, serving=[0, 0])
    alone = effective_sinr(0, np.array([1.0, 1e-30]), gm, serving, branches, "mrc")
    loaded = effective_sinr(0, np.array([1.0, 1.0]), gm, serving, branches, "mrc")
    assert loaded < alone


def test_egc_cross_terms_match_closed_form():
    """(sqrt(S1)+sqrt(S2))^2 / (den1+den2), checked by hand."""
    gm, serving, branches = make_tables([[-100.0, -106.0]], 1, serving=[0],
                                      attach={"s0": ["g0"]})
    p = np.array([2.0])
    s1 = 2.0 * 10.0 ** (-10.0)
    s2 = 2.0 * 10.0 ** (-10.6)
    expected = 10 * np.log10((np.sqrt(s1) + np.sqrt(s2)) ** 2 / (2 * NOISE_MW))
    assert effective_sinr(0, p, gm, serving, branches, "egc") == pytest.approx(expected, rel=1e-12)


def per_sector_sinr(powers_mw, gm, serving, branches, combining):
    """Reference for the kernel: the combining rules evaluated with one
    np.ix_ block per serving sector, in the same arithmetic order."""
    gains = 10.0 ** (gm.ul_gain_db / 10.0)
    noise = 10.0 ** (gm.noise_dbm / 10.0)
    total_rx = powers_mw @ gains
    out = np.empty(len(powers_mw))
    by_serving = {}
    for i, k in enumerate(serving):
        by_serving.setdefault(k, []).append(i)
    for k, rows in by_serving.items():
        cols = branches.cols[k, :branches.widths[k]]
        rows = np.array(rows, dtype=int)
        signal = powers_mw[rows, None] * gains[np.ix_(rows, cols)]
        den = (total_rx[cols][None, :] - signal) + noise[cols][None, :]
        if combining == "mrc":
            lin = (signal / den).sum(axis=1)
        elif combining == "selection":
            lin = (signal / den).max(axis=1)
        else:
            num = signal[:, 0] if len(cols) == 1 else np.sqrt(signal).sum(axis=1) ** 2
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
    for gm, serving, branches in instances:
        n = len(gm.ul_gain_db)
        p = 10.0 ** rng.uniform(-5.0, 2.4, size=n)
        problem = stacked_problem([gm], [serving], branches, np.ones(n), -np.inf, np.inf)
        for mode in ("mrc", "selection", "egc"):
            expected = per_sector_sinr(p, gm, serving, branches, mode)
            assert np.array_equal(_combined_sinr(p, problem, mode), expected)


def test_width_one_stack_skips_the_reductions_with_their_bits():
    """A stack whose every branch set has one branch (7 slots of
    baseline.json) is narrow: each rule there is signal / den of the
    mobile's one link, bit for bit the segment reductions that the same
    problem takes when not marked narrow. A stack of green.json, whose
    green gives one sector two branches, is not narrow and still reduces:
    every rule equals the per-sector reference of each snapshot."""
    rng = np.random.default_rng(107)
    for name in ("baseline.json", "green.json"):
        s = load_doc(bundled_doc(name))
        seeds = [snapshot_seed(47, k) for k in range(7)]
        tables = [build_gain_matrix(s, drop_mobiles(s, seed), seed) for seed in seeds]
        servings = [associate(gm) for gm in tables]
        n = len(servings[0])
        problem = stacked_problem(tables, servings, s.branches, np.ones(7 * n), -50.0, 24.0)
        assert problem.narrow == (name == "baseline.json")
        powers = 10.0 ** rng.uniform(-5.0, 2.4, size=(7, n))
        for mode in ("mrc", "selection", "egc"):
            got = _combined_sinr(powers.reshape(-1), problem, mode)
            general = _combined_sinr(powers.reshape(-1), problem._replace(narrow=False), mode)
            assert got.tobytes() == general.tobytes()
            for k, (gm, serving) in enumerate(zip(tables, servings)):
                want = per_sector_sinr(powers[k], gm, serving, s.branches, mode)
                assert got[k * n:(k + 1) * n].tobytes() == want.tobytes()


def test_bincount_adds_a_short_segment_as_the_reduce_does():
    """The kernel sums a segment of 1-7 links with a weighted np.bincount,
    which adds in input order from 0.0: that is numpy's add.reduce over a
    row of fewer than 8 terms, bit for bit. A numpy that sums fewer terms
    pairwise fails here rather than shifting the solver's last bits."""
    rng = np.random.default_rng(103)
    for width in range(1, powerctl._PAIRWISE_FROM):
        for m in (1, 2, 5, 40):
            for _ in range(50):
                block = 10.0 ** rng.uniform(-15.0, 3.0, size=(m, width))
                got = np.bincount(np.repeat(np.arange(m), width), block.reshape(-1), m)
                assert got.tobytes() == np.add.reduce(block, axis=1).tobytes()


def reference_links(gm, serving, branches, targets_db):
    """The per-mobile problem builder and the per-element scalar pow of the
    targets. The links are {name: array} of `_Problem`'s link fields:
    each mobile's (row, branch column, gain, noise floor) in mobile order,
    its first link and whether it has one branch, and `wide`, each width of
    8 or more as (its mobiles, their link indices)."""
    gains_mw = 10.0 ** (gm.ul_gain_db / 10.0)
    noise_mw = 10.0 ** (gm.noise_dbm / 10.0)
    links = {name: [] for name in ("rows", "cols", "link_gains_mw", "noise_mw", "starts",
                                   "single")}
    wide = {}
    for i, k in enumerate(serving.tolist()):
        cols = branches.cols[k, :branches.widths[k]].tolist()
        start = len(links["rows"])
        links["starts"].append(start)
        links["single"].append(len(cols) == 1)
        if len(cols) >= 8:
            mobiles, blocks = wide.setdefault(len(cols), ([], []))
            mobiles.append(i)
            blocks.append(list(range(start, start + len(cols))))
        for c in cols:
            links["rows"].append(i)
            links["cols"].append(c)
            links["link_gains_mw"].append(gains_mw[i, c])
            links["noise_mw"].append(noise_mw[c])
    links = {name: np.array(v, dtype=float if name.endswith("_mw") else None)
             for name, v in links.items()}
    links["wide"] = {w: (np.array(mobiles), np.array(blocks))
                     for w, (mobiles, blocks) in sorted(wide.items())}
    targets_lin = np.array([10.0 ** (float(t) / 10.0) for t in targets_db])
    return links, targets_lin


def multi_green_problems(n_snapshots=6):
    """(table, association, branches, targets) of multi-green map drops."""
    s = load_doc(multi_green_doc())
    out = []
    for k in range(n_snapshots):
        seed = snapshot_seed(43, k)
        drop = drop_mobiles(s, seed)
        gm = build_gain_matrix(s, drop, seed)
        out.append((gm, associate(gm), s.branches, drop.target_db))
    return out


def assert_same_links(problem, want):
    for name, value in want.items():
        if name != "wide":
            got = getattr(problem, name)
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
    assert [links.shape[1] for _, links in problem.wide] == list(want["wide"])
    for (mobiles, links), (want_mobiles, want_links) in zip(problem.wide, want["wide"].values()):
        assert np.array_equal(mobiles, want_mobiles) and np.array_equal(links, want_links)


def test_class_targets_are_bitwise_the_linear_targets(monkeypatch):
    """A drawn drop's targets are its scenario's class targets, so the
    solver reads the scenario's linear class targets, with the bits of
    `_linear_targets`; a drop with any other target (a hand-placed one)
    takes `_linear_targets` itself."""
    calls = []

    def counted(targets_db):
        calls.append(np.size(targets_db))       # a block of k drops is (k, n)
        return _linear_targets(targets_db)

    monkeypatch.setattr(powerctl, "_linear_targets", counted)
    rng = np.random.default_rng(29)
    doc = two_cell_doc(mobiles_per_sector=6)
    for k in range(40):
        voice, data = rng.uniform(-25.0, 25.0, size=2).round(int(rng.integers(0, 17)))
        doc["traffic"]["sinr_target_db"] = {"voice": voice, "data": data}
        doc["traffic"]["voice_fraction"] = rng.random()
        s = load_doc(doc)
        drop = drop_mobiles(s, snapshot_seed(31, k))
        got = _drop_targets(drop, s)
        assert got.tobytes() == _linear_targets(drop.target_db).tobytes()
    assert calls == []
    s = solver_scenario(2)
    gm, serving, _ = make_tables([[-100.0, -110.0], [-110.0, -100.0]], 2, serving=[0, 1])
    # hand-placed drops are data users: neither any target nor the voice
    # class's target is the class target of a data user
    for drop in (mobiles(-3.0, 5.0), mobiles(*[s.traffic.sinr_target_db["voice"]] * 2)):
        assert _drop_targets(drop, s).tobytes() == _linear_targets(drop.target_db).tobytes()
        assert calls.pop() == 2
        solve_alone(s, drop, gm, serving)
        assert calls == [2]
        calls.clear()
    # a drop of the scenario's data class, hand-placed, reads the class map
    drop = mobiles(*[s.traffic.sinr_target_db["data"]] * 2)
    solve_alone(s, drop, gm, serving)
    assert calls == []


def test_vectorised_problem_equals_per_mobile_builder():
    rng = np.random.default_rng(89)
    cases = [random_instance(rng) for _ in range(60)]
    cases += [(*wide_instance(rng), rng.uniform(-15.0, 9.0, size=40)) for _ in range(20)]
    cases = [(gm, serving, branches, targets[:len(gm.ul_gain_db)])
             for gm, serving, branches, targets in cases]
    cases += multi_green_problems()
    for gm, serving, branches, targets in cases:
        want, want_targets = reference_links(gm, serving, branches, targets)
        problem = stacked_problem([gm], [serving], branches, _linear_targets(targets),
                                  -50.0, 24.0)
        assert_same_links(problem, want)
        assert problem.targets_lin.tobytes() == want_targets.tobytes()


def test_stacked_problem_offsets_each_snapshots_groups():
    """Snapshot s of a stack holds its own links, after those of the
    snapshots before it, with rows shifted by s*n and columns by s*n_rp."""
    cases = multi_green_problems()
    tables, servings, branches = [c[0] for c in cases], [c[1] for c in cases], cases[0][2]
    targets = np.stack([c[3] for c in cases])
    stacked = stacked_problem(tables, servings, branches, _linear_targets(targets), -50.0, 24.0)
    n, n_rp = tables[0].ul_gain_db.shape
    assert stacked.gains_mw.shape == (len(cases), n, n_rp)
    first = 0       # the first link of snapshot s
    for s, (gm, serving, _, t) in enumerate(cases):
        want, want_targets = reference_links(gm, serving, branches, t)
        mine = slice(first, first + len(want["rows"]))
        mobiles = slice(s * n, (s + 1) * n)
        assert np.array_equal(stacked.rows[mine], want["rows"] + s * n)
        assert np.array_equal(stacked.cols[mine], want["cols"] + s * n_rp)
        assert stacked.link_gains_mw[mine].tobytes() == want["link_gains_mw"].tobytes()
        assert stacked.noise_mw[mine].tobytes() == want["noise_mw"].tobytes()
        assert np.array_equal(stacked.starts[mobiles], want["starts"] + first)
        assert np.array_equal(stacked.single[mobiles], want["single"])
        assert stacked.targets_lin[mobiles].tobytes() == want_targets.tobytes()
        first = mine.stop
    assert first == len(stacked.rows) and stacked.wide == ()


def stack_of(rng, n_snapshots, wide):
    """Tables of one shape and branch set, with their own gains and serving."""
    n_sec, n_ms = 4, 15
    attach = ({"s0": [f"g{k}" for k in range(9)], "s1": ["g0", "g9"]} if wide
              else {"s0": ["g0"], "s2": ["g1"]})
    n_rp = n_sec + (10 if wide else 2)
    tables = [make_tables(rng.uniform(-130.0, -70.0, size=(n_ms, n_rp)), n_sec,
                          rng.integers(0, n_sec, size=n_ms), attach=attach)
              for _ in range(n_snapshots)]
    return tables, 10.0 ** rng.uniform(-5.0, 2.4, size=(n_snapshots, n_ms))


def test_stacked_kernel_is_bitwise_per_snapshot():
    """The batched matmul and the cross-snapshot flat links give each
    snapshot the bits of its own kernel call, up to 11 branches wide."""
    rng = np.random.default_rng(101)
    for trial in range(30):
        tables, powers = stack_of(rng, int(rng.integers(2, 9)), wide=trial % 2 == 1)
        branches = tables[0][2]
        n = powers.shape[1]
        stacked = stacked_problem([t[0] for t in tables], [t[1] for t in tables], branches,
                                  np.ones(powers.size), -50.0, 24.0)
        for mode in ("mrc", "selection", "egc"):
            got = _combined_sinr(powers.reshape(-1), stacked, mode).reshape(powers.shape)
            for s, (gm, serving, _) in enumerate(tables):
                alone = stacked_problem([gm], [serving], branches, np.ones(n), -50.0, 24.0)
                assert np.array_equal(got[s], _combined_sinr(powers[s], alone, mode))


def test_egc_closed_form_matches_pairwise_expansion():
    """(sum_r sqrt(S_r))^2 equals sum_r S_r + 2 sum_{a<b} sqrt(S_a S_b) to
    rounding, on branch sets up to 11 branches wide."""
    rng = np.random.default_rng(61)
    for _ in range(40):
        gm, serving, branches = wide_instance(rng)
        n = len(gm.ul_gain_db)
        p = 10.0 ** rng.uniform(-5.0, 2.4, size=n)
        gains = 10.0 ** (gm.ul_gain_db / 10.0)
        noise = 10.0 ** (gm.noise_dbm / 10.0)
        total_rx = p @ gains
        expected = np.empty(n)
        for i, k in enumerate(serving):
            cols = branches.cols[k, :branches.widths[k]]
            signal = p[i] * gains[i, cols]
            den = (total_rx[cols] - signal + noise[cols]).sum()
            pairs = sum(np.sqrt(signal[a] * signal[b])
                        for a in range(len(cols)) for b in range(a + 1, len(cols)))
            expected[i] = (signal.sum() + 2.0 * pairs) / den
        problem = stacked_problem([gm], [serving], branches, np.ones(n), -np.inf, np.inf)
        assert _combined_sinr(p, problem, "egc") == pytest.approx(expected, rel=1e-12)


def test_single_branch_egc_is_bitwise_mrc():
    """At width 1, EGC is S / (I + N), which is MRC, bit for bit."""
    rng = np.random.default_rng(67)
    for _ in range(40):
        gm, serving, branches = wide_instance(rng)
        n = len(gm.ul_gain_db)
        p = 10.0 ** rng.uniform(-5.0, 2.4, size=n)
        bare = own_antennas(branches)
        problem = stacked_problem([gm], [serving], bare, np.ones(n), -np.inf, np.inf)
        egc = _combined_sinr(p, problem, "egc")
        assert np.array_equal(egc, _combined_sinr(p, problem, "mrc"))
        gains = 10.0 ** (gm.ul_gain_db / 10.0)
        total_rx = p @ gains
        col = branches.cols[serving, 0]
        signal = p * gains[np.arange(n), col]
        noise = 10.0 ** (gm.noise_dbm / 10.0)
        assert np.array_equal(egc, signal / ((total_rx[col] - signal) + noise[col]))


# ---------------------------------------------------------------------------
# the update map

def test_update_is_a_fixed_point_at_target():
    gm, serving, branches = make_tables([[-100.0]], 1, serving=[0])
    p_star = 10.0 ** (-0.4)     # gamma*N/g at 0 dB target, in mW
    nxt = power_update(np.array([p_star]), np.array([0.0]), gm, serving, branches, "mrc")
    assert nxt[0] == pytest.approx(p_star, rel=1e-12)


def test_update_raises_by_exactly_the_shortfall():
    gm, serving, branches = make_tables([[-100.0], [-108.0]], 1, serving=[0, 0])
    p = np.array([0.5, 2.0])
    sinr_db = effective_sinr(0, p, gm, serving, branches, "mrc")
    nxt = power_update(p, np.array([sinr_db + 3.0, 0.0]), gm, serving, branches, "mrc")
    assert 10 * np.log10(nxt[0] / p[0]) == pytest.approx(3.0, abs=1e-9)


def test_step_clamps_to_limits():
    gm, serving, branches = make_tables([[-140.0]], 1, serving=[0])
    p = np.array([10.0 ** 2.4])  # p_max
    nxt = power_update(p, np.array([20.0]), gm, serving, branches, "mrc",
                       limits_dbm=(-50.0, 24.0))
    assert 10 * np.log10(nxt[0]) == pytest.approx(24.0)


def test_update_axioms_hold_on_random_instances():
    """Positivity, monotonicity, scalability; the acceptance battery is wider."""
    rng = np.random.default_rng(11)
    rel = 1e-9
    for _ in range(15):
        gm, serving, branches, targets = random_instance(rng)
        n = len(gm.ul_gain_db)
        for mode in ("mrc", "selection", "egc"):
            p = rng.uniform(1e-5, 10.0, size=n)
            q = p * (1.0 + rng.uniform(0.0, 2.0, size=n))
            up = power_update(p, targets, gm, serving, branches, mode)
            uq = power_update(q, targets, gm, serving, branches, mode)
            assert np.all(up > 0)
            assert np.all(up <= uq * (1.0 + rel))
            alpha = 1.0 + rng.uniform(0.1, 3.0)
            ua = power_update(alpha * p, targets, gm, serving, branches, mode)
            assert np.all(ua <= alpha * up * (1.0 + rel))


def test_update_is_jacobi_order_independent():
    rng = np.random.default_rng(23)
    gm, serving, branches, targets = random_instance(rng, max_ms=12)
    n = len(gm.ul_gain_db)
    perm = rng.permutation(n)
    p = rng.uniform(1e-4, 5.0, size=n)
    up = power_update(p, targets, gm, serving, branches, "mrc")

    ul_p = gm.ul_gain_db[perm]
    n_sec = len(gm.sector_ids)
    serving_p = serving[perm]
    attach = {sid: list(rids[1:])
              for sid, rids in branch_ids(branches, gm.receive_points).items() if len(rids) > 1}
    gm2, serving2, branches2 = make_tables(ul_p, n_sec, serving_p, attach=attach)
    up2 = power_update(p[perm], targets[perm], gm2, serving2, branches2, "mrc")
    assert np.allclose(up2, up[perm], rtol=1e-10)


def test_added_branch_never_raises_the_mrc_update():
    rng = np.random.default_rng(31)
    for _ in range(20):
        gm, serving, branches, targets = random_instance(rng, green_prob=1.0)
        if (branches.widths == 1).all():
            continue
        bare = own_antennas(branches)
        p = rng.uniform(1e-4, 10.0, size=len(gm.ul_gain_db))
        for mode in ("mrc", "selection"):
            with_green = power_update(p, targets, gm, serving, branches, mode)
            without = power_update(p, targets, gm, serving, bare, mode)
            assert np.all(with_green <= without * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# solver closed forms (the three textbook cases)

def test_solver_single_ms_closed_form():
    s = solver_scenario(1)
    gm, serving, _ = make_tables([[-100.0]], 1, serving=[0])
    res = solve_alone(s, mobiles(0.0), gm, serving)
    assert res.tx_power_dbm[0] == pytest.approx(-4.0, abs=1e-9)
    assert res.converged and not res.outage[0]
    assert res.sinr_db[0] == pytest.approx(0.0, abs=1e-9)


def test_solver_symmetric_pair_closed_form():
    s = solver_scenario(2)
    gm, serving, _ = make_tables([[-100.0, -110.0], [-110.0, -100.0]], 2, serving=[0, 1])
    res = solve_alone(s, mobiles(0.0, 0.0), gm, serving, tol_db=1e-9)
    expected = 10 * np.log10(NOISE_MW / (1e-10 - 1e-11))
    assert expected == pytest.approx(-3.5423, abs=5e-4)
    assert res.tx_power_dbm == pytest.approx([expected, expected], abs=1e-6)


def test_solver_infeasible_pair_pins_and_flags_outage():
    """Cross gain equal to serving gain at a 0 dB target cannot be met."""
    s = solver_scenario(2)
    gm, serving, _ = make_tables([[-120.0, -120.0], [-120.0, -120.0]], 2, serving=[0, 1])
    res = solve_alone(s, mobiles(0.0, 0.0), gm, serving)
    assert res.tx_power_dbm == pytest.approx([24.0, 24.0], abs=1e-9)
    assert res.outage.all()
    assert np.all(res.sinr_db < -0.5)


# ---------------------------------------------------------------------------
# solver behavior

def test_iterates_increase_monotonically_from_pmin():
    rng = np.random.default_rng(57)
    gm, serving, branches, targets = random_instance(rng, max_ms=10, max_sectors=3)
    p = np.full(len(gm.ul_gain_db), 10.0 ** (-5.0))
    for _ in range(40):
        nxt = power_update(p, targets, gm, serving, branches, "mrc",
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

        gm, serving, branches = make_tables(ul, n, serving)
        p = np.full(n, 1e-9)
        for _ in range(2000):
            nxt = power_update(p, targets, gm, serving, branches, "mrc")
            if np.max(np.abs(10 * np.log10(nxt / p))) < 1e-9:
                p = nxt
                break
            p = nxt
        assert np.max(np.abs(p - direct) / direct) < 1e-6


def test_nonconvergence_is_reported_not_raised():
    s = solver_scenario(2)
    gm, serving, _ = make_tables([[-100.0, -101.0], [-101.0, -100.0]], 2, serving=[0, 1])
    res = solve_alone(s, mobiles(6.0, 6.0), gm, serving, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_results_respect_power_limits():
    rng = np.random.default_rng(83)
    s = solver_scenario(3)
    gm, serving, _ = make_tables(rng.uniform(-130.0, -80.0, size=(8, 3)), 3,
                               serving=rng.integers(0, 3, size=8))
    res = solve_alone(s, mobiles(*[5.0] * 8), gm, serving)
    assert np.all(res.tx_power_dbm >= -50.0 - 1e-9)
    assert np.all(res.tx_power_dbm <= 24.0 + 1e-9)
    # outage only ever at the upper clamp, short of target by the margin
    for i in np.flatnonzero(res.outage):
        assert res.tx_power_dbm[i] == pytest.approx(24.0)
        assert res.sinr_db[i] < 5.0 - 0.5


# ---------------------------------------------------------------------------
# solver input checks

def test_solver_rejects_an_unknown_combining_rule():
    s = solver_scenario(1)
    s = replace(s, radio=replace(s.radio, combining="mimo"))
    gm, serving, _ = make_tables([[-100.0]], 1, serving=[0])
    with pytest.raises(ValueError, match="unknown combining mode 'mimo'"):
        solve_alone(s, mobiles(0.0), gm, serving)


def test_solver_rejects_snapshots_of_different_sizes(monkeypatch):
    """In a stack of one slot, a second snapshot of another mobile count
    than the first is refused, naming both counts."""
    s = solver_scenario(2)
    gm1, serving1, _ = make_tables([[-100.0, -110.0]], 2, serving=[0])
    gm2, serving2, _ = make_tables([[-100.0, -110.0], [-110.0, -100.0]], 2, serving=[0, 1])
    draw = drawn([(mobiles(0.0), serving1, gm1), (mobiles(0.0, 0.0), serving2, gm2)])
    monkeypatch.setattr(powerctl, "STACK_LINKS", 1)
    with pytest.raises(ValueError, match=r"draw\(1, 2\) gave snapshots of 2 mobiles, expected 1: "
                                         r"stacked snapshots must hold the same number of mobiles"):
        solve_snapshots((s,), draw, 2)


def test_solver_rejects_a_block_of_the_wrong_shape(monkeypatch):
    """A draw that gives more or fewer snapshots than it was asked for is
    refused, naming both counts."""
    s = solver_scenario(1)
    gm, serving, _ = make_tables([[-100.0]], 1, serving=[0])
    short = drawn([(mobiles(0.0), serving, gm)] * 2)
    with pytest.raises(ValueError, match=r"draw\(0, 3\) gave 2 snapshots, expected 3"):
        solve_snapshots((s,), short, 3)
    monkeypatch.setattr(powerctl, "STACK_LINKS", 1)
    with pytest.raises(ValueError, match=r"draw\(0, 1\) gave 2 snapshots, expected 1"):
        solve_snapshots((s,), lambda lo, hi: short(0, 2), 3)


def test_solver_rejects_a_count_below_one():
    s = solver_scenario(1)
    gm, serving, _ = make_tables([[-100.0]], 1, serving=[0])
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one snapshot"):
            solve_snapshots((s,), drawn([(mobiles(0.0), serving, gm)]), count)
    with pytest.raises(ValueError, match="at least one snapshot"):
        solve_snapshots((s,), drawn([]), 0)     # nothing is drawn
