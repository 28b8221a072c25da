"""Population filters, CDFs, run comparison, and report files."""

import re
from dataclasses import fields

import numpy as np
import pytest

from greenant.metrics import (
    _H,
    _MB,
    _ML,
    _MR,
    _MT,
    _W,
    CDF_HEADER,
    NO_FILTER,
    PopulationFilter,
    compare_runs,
    emit_report,
    population_mask,
    solver_rows,
    tx_power_cdf,
    write_cdf_csv,
    write_cdf_svg,
    write_summary_csv,
)
from greenant.powerctl import Campaign
from greenant.scenario import Drop

from conftest import place


def tagged_mobiles():
    """Outdoor at 0 and 250 m, indoor (buildings 0 and 1) at 100 and 900 m."""
    return place((0.0, 0.0), (100.0, 0.0), (250.0, 0.0), (900.0, 0.0),
                 building=[-1, 0, -1, 1])


def record(drops, tx_power_dbm, outage=None, iterations=None, converged=None):
    """A hand-built campaign record: drops[s] is snapshot s's Drop and
    tx_power_dbm[s][r] run r's powers in it; by default nothing is in
    outage and every run converged in one iteration."""
    tx = np.asarray(tx_power_dbm, dtype=float)
    s, r, n = tx.shape
    return Campaign(
        Drop(*(np.stack([getattr(d, f.name) for d in drops]) for f in fields(Drop))),
        np.zeros((s, n), dtype=np.uint8), tx, np.zeros_like(tx),
        np.zeros(tx.shape, dtype=bool) if outage is None else np.array(outage, dtype=bool),
        np.ones(s, dtype=int) if iterations is None else np.array(iterations),
        np.ones((s, r), dtype=bool) if converged is None else np.array(converged, dtype=bool))


POWERS = [1.0, 2.0, 3.0, 4.0]


def filtered_powers(*f):
    """POWERS of the tagged mobiles kept by filter f (default: none), as
    the CLI reads them: one mask over the record's drop, then the run's
    powers under it."""
    c = record([tagged_mobiles()], [[POWERS]])
    return c.tx_power_dbm[:, 0][population_mask(c.drop, *f)].tolist()


def points(cdf):
    """A tx_power_cdf as (value, fraction) pairs of floats."""
    values, fractions = cdf
    return list(zip(values.tolist(), fractions.tolist()))


def test_no_filter_keeps_everyone_in_ms_order():
    assert filtered_powers() == [1.0, 2.0, 3.0, 4.0]
    assert filtered_powers(NO_FILTER) == [1.0, 2.0, 3.0, 4.0]


def test_disk_filter_uses_euclidean_distance():
    f = PopulationFilter(center=(0.0, 0.0), radius_m=250.0)
    assert filtered_powers(f) == [1.0, 2.0, 3.0]
    # the disk is closed: one ulp less drops the mobile at (250, 0)
    ulp_less = float(np.nextafter(250.0, 0.0))
    assert filtered_powers(PopulationFilter(center=(0.0, 0.0), radius_m=ulp_less)) == [1.0, 2.0]
    # a 3-4-5 diagonal from an off-origin center lies exactly on the boundary
    diagonal = place((160.0, 220.0))
    for radius, kept in ((250.0, [0]), (ulp_less, [])):
        f = PopulationFilter(center=(10.0, 20.0), radius_m=radius)
        assert np.flatnonzero(population_mask(diagonal, f)).tolist() == kept


def test_indoor_filter_composes_with_disk():
    f = PopulationFilter(center=(0.0, 0.0), radius_m=500.0, indoor_only=True)
    assert filtered_powers(f) == [2.0]


def test_indoor_only_without_disk():
    f = PopulationFilter(indoor_only=True)
    assert filtered_powers(f) == [2.0, 4.0]


def test_negative_radius_is_rejected():
    with pytest.raises(ValueError):
        filtered_powers(PopulationFilter(center=(0.0, 0.0), radius_m=-1.0))


def test_cdf_of_a_single_value():
    assert points(tx_power_cdf([5.0])) == [(5.0, 1.0)]


def test_cdf_merges_duplicates_and_ends_at_one():
    cdf = points(tx_power_cdf([3.0, 1.0, 3.0, 2.0]))
    assert [v for v, _ in cdf] == [1.0, 2.0, 3.0]
    assert cdf[-1][1] == 1.0
    fracs = [f for _, f in cdf]
    assert fracs == sorted(fracs)
    assert cdf[1] == (2.0, 0.5)


def test_cdf_rejects_empty_input():
    with pytest.raises(ValueError):
        tx_power_cdf([])


def test_compare_identical_runs_is_all_zeros():
    samples = [0.0, 3.0, -7.0, 12.0]
    rep = compare_runs(samples, list(samples), target_dbm=4.0)
    assert rep.mean_delta_db == pytest.approx(0.0)
    assert rep.median_delta_db == pytest.approx(0.0)
    assert rep.frac_below_target["baseline"] == rep.frac_below_target["green"]


def test_compare_reports_reduction_as_positive_delta():
    base = [10.0, 20.0]
    green = [4.0, 8.0]
    rep = compare_runs(base, green, target_dbm=5.0)
    assert rep.mean_delta_db == pytest.approx(9.0)
    assert rep.mean_dbm["baseline"] == pytest.approx(15.0)
    assert rep.mean_dbm["green"] == pytest.approx(6.0)
    assert rep.samples == {"baseline": 2, "green": 2}


def test_frac_below_target_is_inclusive():
    rep = compare_runs([4.0, 10.0], [4.0, 4.0], target_dbm=4.0)
    assert rep.frac_below_target["baseline"] == pytest.approx(0.5)
    assert rep.frac_below_target["green"] == pytest.approx(1.0)


def test_compare_rejects_empty_population():
    with pytest.raises(ValueError):
        compare_runs([], [1.0], target_dbm=4.0)


def test_cdf_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_cdf_csv({"run": tx_power_cdf([1.0, 2.0])}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CDF_HEADER == "run,power_dbm,cum_frac"
    assert lines[1] == "run,1.000000,0.500000"
    assert lines[2] == "run,2.000000,1.000000"
    assert len(lines) == 3


def test_summary_csv_format(tmp_path):
    path = tmp_path / "s.csv"
    write_summary_csv([("alpha", 1.0), ("beta", -2.5)], path)
    assert path.read_text() == "metric,value\nalpha,1.000000\nbeta,-2.500000\n"


def test_emit_report_writes_three_files_deterministically(tmp_path):
    rep = compare_runs([10.0, 20.0, 30.0], [5.0, 6.0, 7.0], target_dbm=4.0,
                       snapshots=3)

    first = emit_report(rep, str(tmp_path / "a"))
    assert [p.split("/")[-1] for p in first] == ["a_cdf.csv", "a_summary.csv", "a_cdf.svg"]
    blobs = [open(p, "rb").read() for p in first]

    second = emit_report(rep, str(tmp_path / "b"))
    assert blobs == [open(p, "rb").read() for p in second]

    summary = (tmp_path / "a_summary.csv").read_text().splitlines()
    assert summary[0] == "metric,value"
    metrics = dict(line.split(",") for line in summary[1:])
    assert metrics["snapshots"] == "3.000000"
    assert metrics["mean_delta_db"] == "14.000000"
    assert metrics["target_dbm"] == "4.000000"
    assert set(metrics) >= {"samples_baseline", "samples_green", "median_delta_db",
                            "frac_below_target_baseline", "frac_below_target_green"}


def test_svg_is_wellformed_step_plot(tmp_path):
    path = tmp_path / "plot.svg"
    write_cdf_svg({"baseline": tx_power_cdf([-10.0, 0.0, 10.0]),
                   "green": tx_power_cdf([-20.0, -5.0])}, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "baseline" in text and "green" in text
    assert text.rstrip().endswith("</svg>")


def test_unequal_sample_counts_are_allowed():
    # filter plumbing happens in population_mask; compare_runs only sees
    # flat samples, so unequal lengths must still work
    rep = compare_runs([1.0, 2.0, 3.0], [0.5, 1.5], target_dbm=4.0)
    assert rep.samples == {"baseline": 3, "green": 2}
    assert rep.mean_delta_db == pytest.approx(2.0 - 1.0)
    assert rep.median_delta_db == pytest.approx(2.0 - 1.0)


def test_solver_rows_sum_over_the_mask_per_run_and_snapshot():
    """3 snapshots x 2 runs: run 1 of snapshot 1 alone is unconverged, the
    runs' outage differs, and the indoor mask drops some mobiles. Each row
    reads its own axis: outage over (snapshot, mobile) of one run,
    iterations over snapshots, convergence over a snapshot's runs."""
    outdoor, indoor = -1, 0
    drops = [place(*[(0.0, 0.0)] * 4, building=b)
             for b in ([outdoor, indoor, outdoor, indoor], [indoor, outdoor, outdoor, outdoor],
                       [indoor] * 4)]
    outage = [[[0, 1, 1, 0], [0, 0, 0, 1]],
              [[0, 1, 0, 0], [1, 0, 0, 0]],
              [[1, 0, 0, 1], [0, 0, 0, 0]]]
    converged = [[True, True], [True, False], [True, True]]
    c = record(drops, np.zeros((3, 2, 4)), outage=outage, iterations=[5, 9, 4],
               converged=converged)
    mask = population_mask(c.drop, PopulationFilter(indoor_only=True))
    assert mask.sum(axis=1).tolist() == [2, 1, 4]
    rows = solver_rows(c, mask, ("baseline", "green"))
    assert rows == [("outage_frac_baseline", 3 / 7), ("outage_frac_green", 2 / 7),
                    ("iterations_mean", 6.0), ("iterations_max", 9.0),
                    ("nonconverged_snapshots", 1.0)]
    assert solver_rows(c, mask)[0] == ("outage_frac", 3 / 7)
    # both runs of snapshot 1 unconverged: still one snapshot, not two runs
    converged[1][0] = False
    c = record(drops, np.zeros((3, 2, 4)), outage=outage, iterations=[5, 9, 4],
               converged=converged)
    assert solver_rows(c, mask)[-1] == ("nonconverged_snapshots", 1.0)


@pytest.mark.parametrize("spec", ["%.2f", "%.6f"])
def test_percent_and_format_spec_agree_on_edge_values(spec):
    """The writers format through %; f-strings gave the same text."""
    edges = [0.005, 0.015, 0.025, 0.125, 0.375, 1.005, 2.675, 1e-6 / 2, 1.0000005,
             0.0000015, 123456.785, 1e16 + 2.0, 0.0, -0.0, 5e-324, -5e-324,
             2.2250738585072014e-308, 2.225073858507201e-308, 1e300, -1e300]
    edges += [-x for x in edges] + [float(np.nextafter(x, np.inf)) for x in edges]
    edges += np.random.default_rng(7).uniform(-500.0, 500.0, 1000).round(3).tolist()
    for x in edges:
        assert spec % x == format(x, spec[1:]), x


def test_svg_steps_are_the_per_point_formula(tmp_path):
    """The polyline points, evaluated as arrays, have the text of the
    step plot evaluated one point at a time on floats."""
    rng = np.random.default_rng(11)
    cdfs = {"baseline": tx_power_cdf(rng.normal(10.0, 8.0, 300).round(2)),
            "green": tx_power_cdf(np.append(rng.normal(2.0, 9.0, 200), [-50.0, 24.0]))}
    path = tmp_path / "plot.svg"
    write_cdf_svg(cdfs, path)
    got = re.findall(r'<polyline points="([^"]*)"', path.read_text())

    cdf_points = {run: points(cdf) for run, cdf in cdfs.items()}
    all_x = [x for pts in cdf_points.values() for x, _ in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    span = x_hi - x_lo
    x_lo -= 0.02 * span
    x_hi += 0.02 * span

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - y * (_H - _MT - _MB)

    want = []
    for pts in cdf_points.values():
        line = [f"{sx(x_lo):.2f},{sy(0):.2f}"]
        prev = 0.0
        for x, fr in pts:
            line += [f"{sx(x):.2f},{sy(prev):.2f}", f"{sx(x):.2f},{sy(fr):.2f}"]
            prev = fr
        line.append(f"{sx(x_hi):.2f},{sy(prev):.2f}")
        want.append(" ".join(line))
    assert got == want
