"""Command line front end: single-scenario runs, paired baseline-vs-green
comparisons, and one-axis parameter sweeps.

The scenario names the combining rule; --combining rewrites it in each
loaded scenario, after `compare` has checked that the files pair as
written. Each sweep value is a scenario variant; green counts share one
campaign of nested green lists, so one drop and table per snapshot.

All products are files under the --out prefix; stdout stays empty and
progress goes to stderr. Exit codes are the machine contract:

    0  success
    1  runtime failure
    2  bad input (flags, scenario files, schema violations)
    3  pairing violation (compare scenarios differ outside `greens`, or a
       --scenario green is not in --green-scenario as it is)

--debug adds the traceback of a runtime failure (exit 1) to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .metrics import (PopulationFilter, compare_runs, emit_report, population_mask,
                      solver_rows, tx_power_cdf, write_cdf_csv, write_summary_csv)
from .propagation import write_gain_dump
from .scenario import Scenario, ScenarioError, load_scenario_file
from .simulate import (PairingError, check_pairable, draw_snapshot, run_campaign,
                       snapshot_seed)

#: Flag spellings accepted for --combining, mapped to the internal mode name.
COMBINING_FLAGS = {"mrc": "mrc", "sel": "selection", "selection": "selection",
                   "egc": "egc"}

#: Reporting area around a green antenna when no explicit filter is given.
DEFAULT_FILTER_RADIUS_M = 300.0

SWEEP_AXES = ("seed", "green_count", "combining")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _population_filter(args: argparse.Namespace,
                       default_center: tuple[float, float] | None = None) -> PopulationFilter:
    center = args.filter_center if args.filter_center is not None else default_center
    if center is None:
        if args.filter_radius is not None:
            raise ScenarioError("--filter-radius needs a center: give --filter-center "
                                "(compare and sweep default to the first green antenna)")
        return PopulationFilter(indoor_only=args.indoor_only)
    radius = args.filter_radius if args.filter_radius is not None else DEFAULT_FILTER_RADIUS_M
    return PopulationFilter(center=center, radius_m=radius, indoor_only=args.indoor_only)


def _check_population(mask: np.ndarray) -> None:
    """A ScenarioError naming why, if the population mask keeps no mobile."""
    if not mask.any():
        raise ScenarioError("the scenario drops no mobiles: traffic.mobiles_per_sector is 0"
                            if mask.shape[-1] == 0
                            else "population filter excluded every mobile")


def _stats_rows(powers: np.ndarray, target_dbm: float) -> list[tuple[str, float]]:
    return [
        ("samples", float(len(powers))),
        ("mean_dbm", float(powers.mean())),
        ("median_dbm", float(np.median(powers))),
        ("frac_below_target", float((powers <= target_dbm).mean())),
        ("target_dbm", target_dbm),
    ]


def _with_rule(s: Scenario, combining: str | None) -> Scenario:
    """s under the --combining rule, or as loaded when the flag is absent."""
    return s if combining is None else replace(s, radio=replace(s.radio, combining=combining))


def _dump_first_snapshot_gains(scenarios: tuple[Scenario, ...], seed: int,
                               paths: list[str]) -> None:
    """Snapshot 0's tables, drawn once more as the campaign draws them."""
    _, tables = draw_snapshot(scenarios, snapshot_seed(seed, 0))
    for gm, path in zip(tables, paths):
        write_gain_dump(gm, path)


def cmd_run(args: argparse.Namespace) -> int:
    s = _with_rule(load_scenario_file(args.scenario), args.combining)
    f = _population_filter(args)
    _progress(f"run: {args.snapshots} snapshots of {args.scenario} (seed {args.seed})")
    c = run_campaign((s,), args.seed, args.snapshots, jobs=args.jobs)
    mask = population_mask(c.drop, f)
    _check_population(mask)
    powers = c.tx_power_dbm[:, 0][mask]
    write_cdf_csv({"run": tx_power_cdf(powers)}, f"{args.out}_cdf.csv")
    write_summary_csv(_stats_rows(powers, args.target_dbm) + solver_rows(c, mask),
                      f"{args.out}_summary.csv")
    if args.dump_gains:
        _dump_first_snapshot_gains((s,), args.seed, [f"{args.out}_gains.csv"])
    _progress(f"run: wrote {args.out}_cdf.csv and {args.out}_summary.csv")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_scenario_file(args.scenario)
    green = load_scenario_file(args.green_scenario)
    # the files must pair as written: the override would hide a rule that differs
    check_pairable(baseline, green)
    baseline, green = _with_rule(baseline, args.combining), _with_rule(green, args.combining)
    f = _population_filter(args, green.greens[0].position if green.greens else None)
    _progress(f"compare: {args.snapshots} paired snapshots, "
              f"{args.scenario} vs {args.green_scenario} (seed {args.seed})")
    c = run_campaign((baseline, green), args.seed, args.snapshots, jobs=args.jobs)
    mask = population_mask(c.drop, f)
    _check_population(mask)
    report = compare_runs(c.tx_power_dbm[:, 0][mask], c.tx_power_dbm[:, 1][mask],
                          args.target_dbm, snapshots=args.snapshots)
    paths = emit_report(report, args.out, solver_rows(c, mask, ("baseline", "green")))
    if args.dump_gains:
        _dump_first_snapshot_gains((baseline, green), args.seed, [
            f"{args.out}_gains_baseline.csv", f"{args.out}_gains_green.csv"])
    _progress(f"compare: mean delta {report.mean_delta_db:+.2f} dB, "
              f"median delta {report.median_delta_db:+.2f} dB, "
              f"below {report.target_dbm:g} dBm "
              f"{report.frac_below_target['baseline']:.1%} -> "
              f"{report.frac_below_target['green']:.1%}")
    _progress("compare: wrote " + ", ".join(paths))
    return 0


def _sweep_values(axis: str, raw: str | None, seed: int, s: Scenario) -> list:
    if raw is not None:
        items = [v.strip() for v in raw.split(",") if v.strip()]
        if not items:
            raise ScenarioError("--values is empty")
        if axis in ("seed", "green_count"):
            try:
                ints = [int(v) for v in items]
            except ValueError as exc:
                raise ScenarioError(f"--values for {axis} must be integers: {exc}") from exc
            if axis == "green_count" and min(ints) < 0:
                raise ScenarioError(f"--values for green_count must be >= 0, got {min(ints)}")
            return ints
        modes = []
        for v in items:
            if v not in COMBINING_FLAGS:
                raise ScenarioError(f"--values for combining: unknown mode '{v}'")
            modes.append(COMBINING_FLAGS[v])
        return modes
    if axis == "seed":
        return [seed + k for k in range(5)]
    if axis == "green_count":
        return list(range(len(s.greens) + 1))
    return ["mrc", "selection", "egc"]


def cmd_sweep(args: argparse.Namespace) -> int:
    axis = args.axis
    if axis == "combining" and args.combining is not None:
        raise ScenarioError("--combining conflicts with --axis combining; use --values")
    s = _with_rule(load_scenario_file(args.scenario), args.combining)
    axis_values = _sweep_values(axis, args.values, args.seed, s)
    if axis == "green_count" and axis_values and max(axis_values) > len(s.greens):
        raise ScenarioError(
            f"green_count sweep up to {max(axis_values)} but the scenario "
            f"defines only {len(s.greens)} green antennas")

    f = _population_filter(args, s.greens[0].position if s.greens else None)
    if axis == "green_count":
        # nested green lists, fullest last: one drop and one table per snapshot
        counts = sorted(set(axis_values))
        _progress(f"sweep: green_count={','.join(map(str, counts))} as one campaign")
        nested = run_campaign(tuple(replace(s, greens=s.greens[:k]) for k in counts),
                              args.seed, args.snapshots, jobs=args.jobs)
        nested_mask = population_mask(nested.drop, f)
    rows = []
    for value in axis_values:
        if axis == "green_count":
            c, run, mask = nested, counts.index(value), nested_mask
        else:
            _progress(f"sweep: {axis}={value}")
            variant, seed = (s, value) if axis == "seed" else (_with_rule(s, value), args.seed)
            c, run = run_campaign((variant,), seed, args.snapshots, jobs=args.jobs), 0
            mask = population_mask(c.drop, f)
        _check_population(mask)
        powers = c.tx_power_dbm[:, run][mask]
        rows.append((value, dict(_stats_rows(powers, args.target_dbm))))

    path = f"{args.out}_sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,value,samples,mean_dbm,median_dbm,frac_below_target\n")
        for value, st in rows:
            fh.write(f"{axis},{value},{st['samples']:.0f},{st['mean_dbm']:.6f},"
                     f"{st['median_dbm']:.6f},{st['frac_below_target']:.6f}\n")
    _progress(f"sweep: wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _center_flag(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    try:
        return (_finite_float(parts[0]), _finite_float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected numbers: {exc}") from exc


def _combining_flag(text: str) -> str:
    """The mode a --combining spelling names; argparse rejects other text."""
    return COMBINING_FLAGS.get(text, text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonneg_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenant",
        description="Monte Carlo uplink power study with receive-only green antennas")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--seed", type=int, default=1, help="campaign seed (default 1)")
    common.add_argument("--snapshots", type=_positive_int, default=50,
                        help="number of Monte Carlo snapshots (default 50)")
    common.add_argument("--combining", type=_combining_flag, choices=sorted(COMBINING_FLAGS),
                        default=None, help="diversity combining rule (default: scenario's)")
    common.add_argument("--filter-center", type=_center_flag, default=None,
                        metavar="X,Y", help="report only mobiles near this point")
    common.add_argument("--filter-radius", type=_nonneg_float, default=None,
                        metavar="M", help=f"filter disk radius in meters "
                        f"(default {DEFAULT_FILTER_RADIUS_M:g} when a center applies)")
    common.add_argument("--indoor-only", action="store_true",
                        help="report only indoor mobiles")
    common.add_argument("--target-dbm", type=_finite_float, default=4.0,
                        help="reference Tx power for the below-target fraction (default 4)")
    common.add_argument("--out", default="out", help="output path prefix (default 'out')")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel snapshot workers (default 1)")
    common.add_argument("--debug", action="store_true",
                        help="on a runtime failure (exit 1), also print its traceback")
    dump = argparse.ArgumentParser(add_help=False)
    dump.add_argument("--dump-gains", action="store_true",
                      help="also write snapshot 0's channel tables as CSV")

    p_run = sub.add_parser("run", parents=[common, dump],
                           help="simulate one scenario and write its Tx power CDF")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[common, dump],
                           help="paired baseline-vs-green comparison")
    p_cmp.add_argument("--green-scenario", required=True,
                       help="the --scenario world with the same or more green antennas")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", parents=[common],
                           help="repeat a run across one axis")
    p_swp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_swp.add_argument("--values", default=None,
                       help="comma-separated axis values (sensible defaults per axis)")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)    # before the campaign
        return args.func(args)
    except PairingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime catch-all so exit codes stay meaningful
        if args.debug:      # a worker's own traceback comes first, as the cause
            traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
