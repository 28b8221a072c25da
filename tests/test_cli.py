"""Command line interface: exit codes, output files, and determinism."""

import json

import numpy as np
import pytest

import greenant.metrics
import greenant.simulate
from greenant.cli import COMBINING_FLAGS, build_parser, main
from greenant.propagation import build_gain_matrix, write_gain_dump
from greenant.scenario import drop_mobiles, load_scenario_file
from greenant.simulate import run_campaign, snapshot_seed

from conftest import two_cell_doc


@pytest.fixture
def base_json(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(two_cell_doc()))
    return str(path)


@pytest.fixture
def green_json(tmp_path):
    path = tmp_path / "green.json"
    path.write_text(json.dumps(two_cell_doc(with_green=True)))
    return str(path)


@pytest.fixture
def greens_json(tmp_path):
    """The green two-cell world with three more greens after G."""
    doc = two_cell_doc(with_green=True, sigma=8.0)
    doc["greens"] += [{"id": f"X{k}", "position": [400.0 + 400.0 * k, 0.0],
                       "attached_sectors": [["A1"], ["B1"], ["A1", "B1"]][k]}
                      for k in range(3)]
    path = tmp_path / "greens.json"
    path.write_text(json.dumps(doc))
    return str(path)


def count_tables(monkeypatch):
    """Count gain tables built by the campaign and by the CLI's gain dump."""
    calls = []

    def counted(*args, _real=greenant.simulate.build_gain_matrix, **kwargs):
        calls.append(args[0])
        return _real(*args, **kwargs)

    monkeypatch.setattr(greenant.simulate, "build_gain_matrix", counted)
    return calls


def run_args(base_json, tmp_path, *extra):
    return ["run", "--scenario", base_json, "--snapshots", "2",
            "--out", str(tmp_path / "out"), *extra]


def test_run_succeeds_and_writes_outputs(base_json, tmp_path, capsys):
    assert main(run_args(base_json, tmp_path)) == 0
    cdf = (tmp_path / "out_cdf.csv").read_text().splitlines()
    assert cdf[0] == "run,power_dbm,cum_frac"
    assert all(line.startswith("run,") for line in cdf[1:])
    summary = (tmp_path / "out_summary.csv").read_text().splitlines()
    assert summary[0] == "metric,value"
    assert capsys.readouterr().err.startswith("run:")


@pytest.mark.parametrize("command", [
    ["run", "--dump-gains"],
    ["compare", "--filter-radius", "5000", "--green-scenario"],
    ["sweep", "--axis", "seed", "--values", "1,2"],
])
def test_out_prefix_may_name_a_new_directory(command, base_json, green_json, tmp_path):
    argv = [*command, green_json] if command[0] == "compare" else command
    out = tmp_path / "new" / "nested" / "o"
    assert main([*argv, "--scenario", base_json, "--snapshots", "1", "--out", str(out)]) == 0
    written = sorted(p.name for p in out.parent.iterdir())
    assert written == {"run": ["o_cdf.csv", "o_gains.csv", "o_summary.csv"],
                       "compare": ["o_cdf.csv", "o_cdf.svg", "o_summary.csv"],
                       "sweep": ["o_sweep.csv"]}[command[0]]


def test_missing_scenario_file_is_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--scenario", missing, "--snapshots", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nope.json" in err


def test_malformed_scenario_is_exit_2(base_json, tmp_path, capsys):
    for name, content in (("bad.json", b"{not json"), ("utf16.json", b"\xff\xfe{\x00}\x00")):
        bad = tmp_path / name
        bad.write_bytes(content)
        assert main(run_args(str(bad), tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(bad) in err
        # of the two files of a compare, the message names the malformed one
        assert main(["compare", "--scenario", base_json, "--green-scenario", str(bad),
                     "--snapshots", "1", "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and base_json not in err
        assert list(tmp_path.glob("out_*")) == list(tmp_path.glob("c_*")) == []


def test_invalid_scenario_is_exit_2(tmp_path, capsys):
    doc = two_cell_doc()
    doc["radio"]["p_min_dbm"] = 99.0
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--snapshots", "1"]) == 2


@pytest.mark.parametrize("section, table, key, value", [
    ("radio", "shadowing_sigma_db", "urban", float("nan")),
    ("traffic", "sinr_target_db", "voice", float("inf")),
])
def test_non_finite_scenario_number_is_exit_2(tmp_path, capsys, section, table, key, value):
    doc = two_cell_doc()
    doc[section][table][key] = value
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))     # json writes NaN / Infinity literals
    assert main(run_args(str(bad), tmp_path)) == 2
    assert f"{section}.{table}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out_cdf.csv").exists()


@pytest.mark.parametrize("section, key, value, path", [
    ("radio", "p_max_dbm", 4000.0, "radio.p_max_dbm"),
    ("radio", "p_min_dbm", -4000.0, "radio.p_min_dbm"),
    ("traffic", "sinr_target_db", {"voice": 4000.0}, "traffic.sinr_target_db.voice"),
])
def test_db_value_outside_the_float_range_is_exit_2(tmp_path, capsys, section, key, value, path):
    """10 ** (dB / 10) overflows above ~3083 dB and is 0.0 below ~-3240 dB:
    such a power or target is bad input, not a runtime failure or a nan row."""
    doc = two_cell_doc()
    doc[section][key] = value
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps(doc))
    assert main(run_args(str(bad), tmp_path)) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out_cdf.csv").exists()


def test_unpairable_compare_is_exit_3(base_json, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(two_cell_doc(targets=(-6.0, -6.0), with_green=True)))
    code = main(["compare", "--scenario", base_json,
                 "--green-scenario", str(other),
                 "--snapshots", "1", "--out", str(tmp_path / "c")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_compare_with_baseline_greens_missing_from_green_scenario_is_exit_3(
        base_json, green_json, tmp_path, capsys):
    code = main(["compare", "--scenario", green_json, "--green-scenario", base_json,
                 "--snapshots", "1", "--out", str(tmp_path / "c")])
    assert code == 3
    assert "'G'" in capsys.readouterr().err
    assert not (tmp_path / "c_summary.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--target-dbm", "nan"),
    ("--target-dbm", "inf"),
    ("--filter-center", "nan,0"),
    ("--filter-center", "0,-inf"),
    ("--filter-radius", "nan"),
    ("--filter-radius", "inf"),
])
def test_non_finite_flag_is_exit_2(base_json, tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(run_args(base_json, tmp_path, flag, value))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number" in err
    assert not (tmp_path / "out_cdf.csv").exists()


def test_negative_green_count_is_exit_2(green_json, tmp_path, capsys):
    code = main(["sweep", "--scenario", green_json, "--axis", "green_count",
                 "--values=-1,1", "--snapshots", "1", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "s_sweep.csv").exists()


def test_bad_flag_values_exit_via_argparse(base_json):
    for argv in (
        ["run", "--scenario", base_json, "--snapshots", "0"],
        ["run", "--scenario", base_json, "--combining", "mimo"],
        ["run", "--scenario", base_json, "--filter-center", "12"],
        ["run", "--scenario", base_json, "--filter-radius", "-5"],
        ["sweep", "--scenario", base_json, "--axis", "bandwidth"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["run"],
    ["compare", "--green-scenario"],    # baseline against itself: no green for a center
    ["sweep", "--axis", "seed"],
])
def test_filter_radius_without_center_is_exit_2(command, base_json, tmp_path, capsys):
    argv = [*command, base_json] if command[0] == "compare" else command
    code = main([*argv, "--scenario", base_json, "--snapshots", "1",
                 "--filter-radius", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--filter-radius" in err and "--filter-center" in err
    assert list(tmp_path.glob("o_*")) == []


def test_empty_filter_is_exit_2(base_json, tmp_path, capsys):
    code = main(run_args(base_json, tmp_path,
                         "--filter-center", "99000,99000", "--filter-radius", "10"))
    assert code == 2
    assert "excluded every mobile" in capsys.readouterr().err


def test_compare_outputs_are_byte_identical_across_runs(base_json, green_json, tmp_path):
    def compare_into(prefix):
        code = main(["compare", "--scenario", base_json,
                     "--green-scenario", green_json, "--snapshots", "3",
                     "--seed", "11", "--filter-radius", "5000",
                     "--out", str(tmp_path / prefix)])
        assert code == 0
        return [(tmp_path / f"{prefix}{sfx}").read_bytes()
                for sfx in ("_cdf.csv", "_summary.csv", "_cdf.svg")]

    assert compare_into("x") == compare_into("y")


def test_compare_prints_delta_line(base_json, green_json, tmp_path, capsys):
    main(["compare", "--scenario", base_json, "--green-scenario", green_json,
          "--snapshots", "2", "--filter-radius", "5000",
          "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert "mean delta" in err and "median delta" in err


def test_combining_flag_aliases(base_json, tmp_path):
    assert COMBINING_FLAGS["sel"] == "selection"
    assert main(run_args(base_json, tmp_path, "--combining", "sel")) == 0
    assert main(run_args(base_json, tmp_path, "--combining", "egc")) == 0


def test_sweep_green_count_writes_one_row_per_value(green_json, tmp_path):
    code = main(["sweep", "--scenario", green_json, "--axis", "green_count",
                 "--snapshots", "2", "--filter-radius", "5000",
                 "--out", str(tmp_path / "s")])
    assert code == 0
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,samples,mean_dbm,median_dbm,frac_below_target"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["green_count", "0"], ["green_count", "1"]]


def test_sweep_explicit_values(base_json, tmp_path):
    code = main(["sweep", "--scenario", base_json, "--axis", "seed",
                 "--values", "3,4", "--snapshots", "2",
                 "--out", str(tmp_path / "s")])
    assert code == 0
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["3", "4"]


def test_sweep_combining_covers_all_modes(base_json, tmp_path):
    code = main(["sweep", "--scenario", base_json, "--axis", "combining",
                 "--snapshots", "2", "--out", str(tmp_path / "s")])
    assert code == 0
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["mrc", "selection", "egc"]


def test_sweep_rejects_bad_values(base_json, tmp_path, capsys):
    code = main(["sweep", "--scenario", base_json, "--axis", "seed",
                 "--values", "a,b", "--snapshots", "1",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_dump_gains_writes_tables(base_json, green_json, tmp_path):
    assert main(run_args(base_json, tmp_path, "--dump-gains")) == 0
    gains = (tmp_path / "out_gains.csv").read_text().splitlines()
    assert gains[0] == "table,ms_id,point_id,value_db"

    code = main(["compare", "--scenario", base_json, "--green-scenario", green_json,
                 "--snapshots", "1", "--filter-radius", "5000",
                 "--out", str(tmp_path / "c"), "--dump-gains"])
    assert code == 0
    assert (tmp_path / "c_gains_baseline.csv").exists()
    assert (tmp_path / "c_gains_green.csv").exists()


def test_compare_dump_gains_builds_one_extra_table(greens_json, tmp_path, monkeypatch):
    """Snapshot 0's table is built once, from the green scenario; the
    baseline dump is its columns and equals a dump of the baseline's own table."""
    one_green = tmp_path / "one_green.json"
    one_green.write_text(json.dumps(two_cell_doc(with_green=True, sigma=8.0)))
    calls = count_tables(monkeypatch)
    code = main(["compare", "--scenario", str(one_green), "--green-scenario", greens_json,
                 "--snapshots", "2", "--seed", "5", "--filter-radius", "5000",
                 "--out", str(tmp_path / "c"), "--dump-gains"])
    assert code == 0
    assert len(calls) == 2 + 1
    snap_seed = snapshot_seed(5, 0)
    for tag, path in (("baseline", str(one_green)), ("green", greens_json)):
        s = load_scenario_file(path)
        write_gain_dump(build_gain_matrix(s, drop_mobiles(s, snap_seed), snap_seed),
                        str(tmp_path / f"own_{tag}.csv"))
        assert ((tmp_path / f"c_gains_{tag}.csv").read_bytes()
                == (tmp_path / f"own_{tag}.csv").read_bytes())


def test_sweep_has_no_dump_gains_flag(green_json, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", green_json, "--axis", "seed", "--snapshots", "1",
              "--out", str(tmp_path / "s"), "--dump-gains"])
    assert exc.value.code == 2
    assert not (tmp_path / "s_sweep.csv").exists()


def test_combining_sweep_rejects_combining_flag(base_json, tmp_path, capsys):
    code = main(["sweep", "--scenario", base_json, "--axis", "combining",
                 "--combining", "egc", "--snapshots", "1", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "--combining" in capsys.readouterr().err
    assert not (tmp_path / "s_sweep.csv").exists()


def test_green_count_sweep_builds_one_table_per_snapshot(greens_json, tmp_path,
                                                         monkeypatch):
    calls = count_tables(monkeypatch)
    code = main(["sweep", "--scenario", greens_json, "--axis", "green_count",
                 "--snapshots", "3", "--filter-radius", "5000",
                 "--out", str(tmp_path / "s")])
    assert code == 0
    assert len(calls) == 3
    assert all(len(s.greens) == 4 for s in calls)      # the fullest variant's table
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_green_count_sweep_rows_follow_the_given_order(greens_json, tmp_path):
    def sweep_rows(values, prefix):
        code = main(["sweep", "--scenario", greens_json, "--axis", "green_count",
                     "--values", values, "--snapshots", "2", "--filter-radius", "5000",
                     "--out", str(tmp_path / prefix)])
        assert code == 0
        return (tmp_path / f"{prefix}_sweep.csv").read_text().splitlines()[1:]

    ascending = sweep_rows("0,1", "a")
    descending = sweep_rows("1,0", "d")
    assert [ln.split(",")[1] for ln in descending] == ["1", "0"]
    assert descending == ascending[::-1]


@pytest.mark.parametrize("override", [[], ["--combining", "mrc"]])
def test_compare_of_files_with_different_rules_is_exit_3(base_json, tmp_path, capsys,
                                                         override):
    """The override must not make two files that differ in their rule pair."""
    doc = two_cell_doc(with_green=True)
    doc["radio"]["combining"] = "egc"
    egc = tmp_path / "egc.json"
    egc.write_text(json.dumps(doc))
    code = main(["compare", "--scenario", base_json, "--green-scenario", str(egc),
                 "--snapshots", "1", "--out", str(tmp_path / "c"), *override])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "c_summary.csv").exists()


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_population_filter_runs_once_per_snapshot(command, base_json, green_json,
                                                  greens_json, tmp_path, monkeypatch):
    """The runs of a snapshot and the solver rows share one filter pass."""
    calls = []

    def counted(mobiles, f, _real=greenant.metrics.population_indices):
        calls.append(len(mobiles))
        return _real(mobiles, f)

    monkeypatch.setattr(greenant.metrics, "population_indices", counted)
    argv = {"run": ["run", "--scenario", green_json, "--filter-center", "0,0"],
            "compare": ["compare", "--scenario", base_json, "--green-scenario", green_json],
            "sweep": ["sweep", "--scenario", greens_json, "--axis", "green_count"]}[command]
    assert main([*argv, "--snapshots", "3", "--filter-radius", "5000",
                 "--out", str(tmp_path / "p")]) == 0
    assert len(calls) == 3


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for argv in (["run", "--scenario", "x"],
                 ["compare", "--scenario", "x", "--green-scenario", "y"],
                 ["sweep", "--scenario", "x", "--axis", "seed"]):
        args = parser.parse_args(argv)
        assert callable(args.func)


def read_summary(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    return [(metric, float(value)) for metric, value in (line.split(",") for line in lines[1:])]


def test_summaries_report_outage_iterations_and_convergence(tmp_path):
    """The solver rows follow the statistics and match the campaign itself."""
    docs = {name: two_cell_doc(with_green=name == "green", sigma=8.0, mobiles_per_sector=5)
            for name in ("base", "green")}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    flags = ["--snapshots", "4", "--seed", "3", "--filter-radius", "1e9"]
    assert main(["compare", "--scenario", str(paths["base"]), "--green-scenario",
                 str(paths["green"]), *flags, "--out", str(tmp_path / "c")]) == 0
    assert main(["run", "--scenario", str(paths["green"]), *flags, "--filter-center", "0,0",
                 "--out", str(tmp_path / "r")]) == 0

    pairs = run_campaign(tuple(load_scenario_file(str(p)) for p in paths.values()), 3, 4)
    outage = [np.concatenate([p.runs[r].outage for p in pairs]).mean() for r in (0, 1)]
    iters = [p.runs[0].iterations for p in pairs]
    assert 0.0 < outage[1] < outage[0]
    solver = [("iterations_mean", np.mean(iters)), ("iterations_max", max(iters)),
              ("nonconverged_snapshots", 0.0)]

    compare_rows = read_summary(tmp_path / "c_summary.csv")
    assert [m for m, _ in compare_rows[:12]][-1] == "target_dbm"
    assert [m for m, _ in compare_rows[12:]] == [
        "outage_frac_baseline", "outage_frac_green", *(m for m, _ in solver)]
    assert [v for _, v in compare_rows[12:]] == pytest.approx(
        [*outage, *(v for _, v in solver)], abs=1e-6)

    # a run's draws are those of the campaign's last (green) scenario
    run_rows = read_summary(tmp_path / "r_summary.csv")
    alone = run_campaign((load_scenario_file(str(paths["green"])),), 3, 4)
    assert [m for m, _ in run_rows[5:]] == ["outage_frac", *(m for m, _ in solver)]
    assert dict(run_rows)["outage_frac"] == pytest.approx(
        np.concatenate([s.runs[0].outage for s in alone]).mean(), abs=1e-6)
    assert dict(run_rows)["iterations_max"] == max(s.runs[0].iterations for s in alone)
