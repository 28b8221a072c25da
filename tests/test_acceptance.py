"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible under pytest -s) with the measured numbers next to the bound it
must meet.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from greenant.cli import main
from greenant.metrics import PopulationFilter, compare_runs, population_mask
from greenant.powerctl import associate, power_update, solve_snapshots
from greenant.propagation import build_gain_matrix
from greenant.scenario import drop_mobiles, load_scenario_file, strip_greens
from greenant.simulate import run_campaign

import conftest
from conftest import (drawn, jacobi, load_doc, make_tables, place, random_instance, snapshots,
                      two_cell_doc)

NOISE_MW = 10.0 ** (-104.0 / 10.0)


def solved(scenarios, drops, **kwargs):
    """Per snapshot of `solve_snapshots` over the list `drops`, its runs."""
    return [snap.runs for snap in snapshots(solve_snapshots(scenarios, drawn(drops), len(drops),
                                                            **kwargs))]


def report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------

def test_update_map_axioms():
    """Positivity, monotonicity, scalability of the power update map."""
    rng = np.random.default_rng(2024)
    rel = 1e-9
    t0 = time.monotonic()
    violations = 0
    for _ in range(200):
        gm, assoc, branches, targets = random_instance(rng, max_ms=20, max_sectors=5)
        n = len(gm.ul_gain_db)
        for mode in ("mrc", "selection", "egc"):
            for _ in range(50):
                p = rng.uniform(1e-6, 50.0, size=n)
                q = p * (1.0 + rng.uniform(0.0, 3.0, size=n))
                alpha = 1.0 + rng.uniform(0.05, 4.0)
                up = power_update(p, targets, gm, assoc, branches, mode)
                uq = power_update(q, targets, gm, assoc, branches, mode)
                ua = power_update(alpha * p, targets, gm, assoc, branches, mode)
                if not np.all(up > 0.0):
                    violations += 1
                if not np.all(up <= uq * (1.0 + rel)):
                    violations += 1
                if not np.all(ua <= alpha * up * (1.0 + rel)):
                    violations += 1
    elapsed = time.monotonic() - t0
    report("update-map axioms",
           violations == 0 and elapsed < 10.0,
           f"{violations} violations over 200 instances x 3 modes x 50 pairs, "
           f"{elapsed:.1f}s (budget 10s)")


def test_fixed_point_matches_linear_solve():
    """Unclamped iteration agrees with the direct linear-system solution."""
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        ul = rng.uniform(-125.0, -85.0, size=(n, m))
        serving = rng.integers(0, m, size=n)
        targets = rng.uniform(-12.0, 6.0, size=n)
        gamma = 10.0 ** (targets / 10.0)
        gains = 10.0 ** (ul / 10.0)
        g_serv = gains[np.arange(n), serving]
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if j != i:
                    a[i, j] = gamma[i] * gains[j, serving[i]] / g_serv[i]
        if n > 1 and np.max(np.abs(np.linalg.eigvals(a))) > 0.8:
            continue
        checked += 1
        direct = np.linalg.solve(np.eye(n) - a, gamma * NOISE_MW / g_serv)

        gm, assoc, branches = make_tables(ul, m, serving)
        p = np.full(n, 1e-10)
        for _ in range(3000):
            nxt = power_update(p, targets, gm, assoc, branches, "mrc")
            done = np.max(np.abs(10.0 * np.log10(nxt / p))) < 1e-10
            p = nxt
            if done:
                break
        worst = max(worst, float(np.max(np.abs(p - direct) / direct)))
    elapsed = time.monotonic() - t0
    report("linear-solve oracle",
           worst <= 1e-6 and elapsed < 5.0,
           f"worst relative error {worst:.2e} over 100 instances "
           f"(bound 1e-6), {elapsed:.1f}s (budget 5s)")


def test_closed_form_solutions():
    """Single MS, symmetric pair, and the pinned infeasible pair."""
    from test_powerctl import mobiles, solver_scenario

    errs = []

    s1 = solver_scenario(1)
    gm, serving, _ = make_tables([[-100.0]], 1, serving=[0])
    r1 = solved((s1,), [(mobiles(0.0), serving, gm)])[0][0]
    errs.append(abs(r1.tx_power_dbm[0] - (-4.0)))

    s2 = solver_scenario(2)
    pair = mobiles(0.0, 0.0)
    gm, serving, _ = make_tables([[-100.0, -110.0], [-110.0, -100.0]], 2, serving=[0, 1])
    r2 = solved((s2,), [(pair, serving, gm)], tol_db=1e-6)[0][0]
    expected = 10.0 * np.log10(NOISE_MW / (1e-10 - 1e-11))
    errs.append(float(np.max(np.abs(r2.tx_power_dbm - expected))))

    gm, serving, _ = make_tables([[-120.0, -120.0], [-120.0, -120.0]], 2, serving=[0, 1])
    r3 = solved((s2,), [(pair, serving, gm)])[0][0]
    errs.append(float(np.max(np.abs(r3.tx_power_dbm - 24.0))))
    pinned_ok = bool(r3.outage.all())

    report("closed forms",
           max(errs) <= 0.01 and pinned_ok,
           f"errors {errs[0]:.2e} / {errs[1]:.2e} / {errs[2]:.2e} dB "
           f"(bound 0.01), outage flagged: {pinned_ok}")


def test_green_never_raises_any_mobile():
    """Paired snapshots: adding the green cannot raise anyone's power."""
    baseline = load_scenario_file(str(conftest.BASELINE_JSON))
    green = load_scenario_file(str(conftest.GREEN_JSON))
    t0 = time.monotonic()
    pairs = snapshots(run_campaign((baseline, green), seed=1, n_snapshots=50))
    elapsed = time.monotonic() - t0
    worst = max(float(np.max(p.runs[1].tx_power_dbm - p.runs[0].tx_power_dbm))
                for p in pairs)
    deltas = np.concatenate([p.runs[0].tx_power_dbm - p.runs[1].tx_power_dbm
                             for p in pairs])
    ok = worst <= 1e-9 and deltas.mean() >= 0.0 and np.median(deltas) >= 0.0
    report("green monotonicity",
           ok and elapsed < 30.0,
           f"worst per-MS raise {worst:.2e} dB (bound 1e-9) over 50 paired "
           f"snapshots, mean delta {deltas.mean():.2f} dB, median "
           f"{np.median(deltas):.2f} dB, {elapsed:.1f}s (budget 30s)")


def test_coverage_hole_study_reproduces_bands():
    """Indoor mobiles near the hole green: power drop lands in the bands."""
    baseline = load_scenario_file(str(conftest.BASELINE_JSON))
    green = load_scenario_file(str(conftest.GREEN_JSON))
    t0 = time.monotonic()
    pairs = run_campaign((baseline, green), seed=1, n_snapshots=200)
    f = PopulationFilter(center=green.greens[0].position, radius_m=300.0,
                         indoor_only=True)
    kept = population_mask(pairs.drop, f)
    b = pairs.tx_power_dbm[:, 0][kept]
    g = pairs.tx_power_dbm[:, 1][kept]
    rep = compare_runs(b, g, target_dbm=4.0, snapshots=200)
    elapsed = time.monotonic() - t0
    rise = rep.frac_below_target["green"] - rep.frac_below_target["baseline"]
    ok = (5.0 <= rep.mean_delta_db <= 12.0
          and 6.0 <= rep.median_delta_db <= 14.0
          and rise >= 0.20
          and elapsed < 60.0)
    report("coverage-hole study",
           ok,
           f"mean delta {rep.mean_delta_db:.2f} dB (band [5,12]), median "
           f"{rep.median_delta_db:.2f} dB (band [6,14]), fraction at or below "
           f"4 dBm {rep.frac_below_target['baseline']:.1%} -> "
           f"{rep.frac_below_target['green']:.1%} (rise >= 20pp), "
           f"{elapsed:.1f}s (budget 60s)")


def test_egc_can_raise_power_where_mrc_cannot():
    """A green deep in the neighbor cell helps MRC but hurts EGC."""
    base_s = load_doc(two_cell_doc(sigma=0.0))
    green_s = load_doc(two_cell_doc(sigma=0.0, with_green=True))
    mobiles = place((400.0, 0.0), (1700.0, 0.0))

    def solve_pair(combining):
        runs = {}
        for tag, s in (("base", base_s), ("green", green_s)):
            s = replace(s, radio=replace(s.radio, combining=combining))
            gm = build_gain_matrix(s, mobiles, seed=5)
            runs[tag] = (s, gm, associate(gm))
        k = max(solved((s,), [(mobiles, serving, gm)])[0][0].iterations
                for s, gm, serving in runs.values())
        results = {tag: jacobi(s, mobiles, gm, serving, k)
                   for tag, (s, gm, serving) in runs.items()}
        return results["green"].tx_power_dbm - results["base"].tx_power_dbm

    mrc_raise = float(np.max(solve_pair("mrc")))
    egc_raise = float(np.max(solve_pair("egc")))
    report("egc caveat",
           mrc_raise <= 1e-9 and egc_raise > 0.5,
           f"max raise under MRC {mrc_raise:.2e} dB (none allowed), under "
           f"EGC {egc_raise:.2f} dB (must exceed 0.5)")


def test_outputs_and_association_are_deterministic(tmp_path):
    """Byte-identical reports; greens never influence association."""
    def compare_into(prefix):
        code = main(["compare",
                     "--scenario", str(conftest.BASELINE_JSON),
                     "--green-scenario", str(conftest.GREEN_JSON),
                     "--snapshots", "3", "--seed", "33",
                     "--out", str(tmp_path / prefix)])
        assert code == 0
        return [(tmp_path / f"{prefix}{sfx}").read_bytes()
                for sfx in ("_cdf.csv", "_summary.csv", "_cdf.svg")]

    identical = compare_into("first") == compare_into("second")

    rng = np.random.default_rng(555)
    invariant = True
    for k in range(20):
        doc = random_scenario_doc(rng)
        s = load_doc(doc)
        mobiles = drop_mobiles(s, seed=int(rng.integers(1 << 30)))
        gm_seed = int(rng.integers(1 << 30))
        with_greens = associate(build_gain_matrix(s, mobiles, gm_seed))
        without = associate(build_gain_matrix(strip_greens(s), mobiles, gm_seed))
        if with_greens.tobytes() != without.tobytes():
            invariant = False
    report("determinism",
           identical and invariant,
           f"byte-identical reports: {identical}; association invariant to "
           f"greens on 20 random scenarios: {invariant}")


def random_scenario_doc(rng):
    n_sites = int(rng.integers(1, 4))
    sites = []
    sectors = []
    for i in range(n_sites):
        secs = []
        for j in range(int(rng.integers(1, 4))):
            sid = f"s{i}{j}"
            sectors.append(sid)
            secs.append({"id": sid, "azimuth_deg": float(rng.uniform(0, 360))})
        sites.append({"id": f"site{i}",
                      "position": [float(rng.uniform(-1500, 1500)),
                                   float(rng.uniform(-1500, 1500))],
                      "sectors": secs})
    greens = []
    for k in range(int(rng.integers(1, 3))):
        attach = [sectors[i] for i in
                  rng.choice(len(sectors), size=min(2, len(sectors)), replace=False)]
        greens.append({"id": f"g{k}",
                       "position": [float(rng.uniform(-1500, 1500)),
                                    float(rng.uniform(-1500, 1500))],
                       "antenna": {"kind": "omni", "gain_dbi": 5},
                       "attached_sectors": attach})
    return {"sites": sites, "greens": greens,
            "traffic": {"mobiles_per_sector": 3, "indoor_fraction": 0.0}}
