"""Population filters, CDFs, run comparison, and report files."""

from types import SimpleNamespace

import numpy as np
import pytest

from greenant.metrics import (
    CDF_HEADER,
    NO_FILTER,
    PopulationFilter,
    compare_runs,
    emit_report,
    gather_tx_powers,
    kept_indices,
    population_indices,
    tx_power_cdf,
    write_cdf_csv,
    write_cdf_svg,
    write_summary_csv,
)

from greenant.powerctl import PowerControlResult

from conftest import place


def tagged_mobiles():
    """Outdoor at 0 and 250 m, indoor (buildings 0 and 1) at 100 and 900 m."""
    return place((0.0, 0.0), (100.0, 0.0), (250.0, 0.0), (900.0, 0.0),
                 building=[-1, 0, -1, 1])


def result_of(powers_dbm):
    n = len(powers_dbm)
    return PowerControlResult(tx_power_dbm=np.asarray(powers_dbm, dtype=float),
                              sinr_db=np.zeros(n), outage=np.zeros(n, dtype=bool),
                              iterations=1, converged=True)


POWERS = result_of([1.0, 2.0, 3.0, 4.0])


def filtered_powers(*f):
    """POWERS of the tagged mobiles kept by filter f (default: none), as
    the CLI reads them: kept_indices, then gather_tx_powers."""
    snaps = [SimpleNamespace(mobiles=tagged_mobiles(), runs=(POWERS,))]
    return gather_tx_powers(snaps, 0, kept_indices(snaps, *f))


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
        assert population_indices(diagonal, f).tolist() == kept


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
    assert tx_power_cdf([5.0]) == [(5.0, 1.0)]


def test_cdf_merges_duplicates_and_ends_at_one():
    cdf = tx_power_cdf([3.0, 1.0, 3.0, 2.0])
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
    # filter plumbing happens in kept_indices and gather_tx_powers; compare_runs
    # only sees flat sample lists, so unequal lengths must still work
    rep = compare_runs([1.0, 2.0, 3.0], [0.5, 1.5], target_dbm=4.0)
    assert rep.samples == {"baseline": 3, "green": 2}
    assert rep.mean_delta_db == pytest.approx(2.0 - 1.0)
    assert rep.median_delta_db == pytest.approx(2.0 - 1.0)
