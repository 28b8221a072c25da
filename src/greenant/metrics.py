"""Aggregation of a campaign's record into Tx-power CDFs and
baseline-vs-green comparison reports.

A population filter is one (S, n) mask over the campaign's stacked drop,
shared by every run: run r's kept powers are `c.tx_power_dbm[:, r][mask]`,
in snapshot order, then mobile order, and the solver rows are sums over
the same mask. All statistics run on dBm values directly (log-domain
averages), matching how power deltas are usually quoted. Outage MSs stay
in every sample at p_max rather than being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .powerctl import Campaign
from .scenario import Drop


@dataclass(frozen=True)
class PopulationFilter:
    """Restricts reported mobiles to a disk and/or to indoor users."""

    center: tuple[float, float] | None = None
    radius_m: float = math.inf
    indoor_only: bool = False


NO_FILTER = PopulationFilter()


def population_mask(drop: Drop, f: PopulationFilter = NO_FILTER) -> np.ndarray:
    """Which of the drop's mobiles pass the filter: a bool mask of the
    drop's shape, (n,) for one drop and (S, n) for a campaign's."""
    if f.radius_m < 0:
        raise ValueError("filter radius must be >= 0")
    keep = drop.indoor if f.indoor_only else np.ones(drop.building.shape, dtype=bool)
    if f.center is not None:
        offset = drop.xy - f.center
        keep &= np.hypot(offset[..., 0], offset[..., 1]) <= f.radius_m
    return keep


def solver_rows(c: Campaign, mask: np.ndarray,
                runs: tuple[str, ...] = ("",)) -> list[tuple[str, float]]:
    """Summary rows of the solver's state over a campaign.

    One `outage_frac[_<run>]` row per named run: the share of the mobiles
    in `mask` (`population_mask` of the campaign's drop) that end in
    outage. Then the mean and maximum power control iterations per
    snapshot (the runs of a snapshot share one count) and the number of
    snapshots in which some run did not converge.
    """
    n = np.count_nonzero(mask)
    rows = [(f"outage_frac_{name}" if name else "outage_frac",
             np.count_nonzero(c.outage[:, r][mask]) / n) for r, name in enumerate(runs)]
    return rows + [("iterations_mean", float(np.mean(c.iterations))),
                   ("iterations_max", float(c.iterations.max())),
                   ("nonconverged_snapshots",
                    float(np.count_nonzero(~c.converged.all(axis=1))))]


def tx_power_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF at the sorted distinct sample values (right-continuous
    steps): those values and the fraction of samples at or below each."""
    if len(samples) == 0:
        raise ValueError("cannot build a CDF from an empty sample list")
    values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    return values, np.cumsum(counts) / len(samples)


@dataclass(frozen=True)
class ComparisonReport:
    """Baseline-vs-green deltas over paired Monte Carlo samples."""

    mean_delta_db: float
    median_delta_db: float
    mean_dbm: dict[str, float]
    median_dbm: dict[str, float]
    frac_below_target: dict[str, float]
    target_dbm: float
    cdfs: dict[str, tuple[np.ndarray, np.ndarray]]     # tx_power_cdf per run
    samples: dict[str, int]
    snapshots: int


def compare_runs(baseline: np.ndarray, green: np.ndarray, target_dbm: float,
                 snapshots: int = 0) -> ComparisonReport:
    """Summary deltas between two paired sample populations.

    Positive deltas mean the green run transmits less. Fractions count
    samples at or below the target power, read off the CDF.
    """
    if len(baseline) == 0 or len(green) == 0:
        raise ValueError("cannot compare empty runs")
    b = np.asarray(baseline, dtype=float)
    g = np.asarray(green, dtype=float)
    return ComparisonReport(
        mean_delta_db=float(b.mean() - g.mean()),
        median_delta_db=float(np.median(b) - np.median(g)),
        mean_dbm={"baseline": float(b.mean()), "green": float(g.mean())},
        median_dbm={"baseline": float(np.median(b)), "green": float(np.median(g))},
        frac_below_target={
            "baseline": float((b <= target_dbm).mean()),
            "green": float((g <= target_dbm).mean()),
        },
        target_dbm=target_dbm,
        cdfs={"baseline": tx_power_cdf(baseline), "green": tx_power_cdf(green)},
        samples={"baseline": len(baseline), "green": len(green)},
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# report files

CDF_HEADER = "run,power_dbm,cum_frac"


def write_cdf_csv(cdfs: dict[str, tuple[np.ndarray, np.ndarray]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CDF_HEADER + "\n")
        for run, (values, fractions) in cdfs.items():
            fh.write("".join(f"{run},{power:.6f},{frac:.6f}\n"
                             for power, frac in zip(values.tolist(), fractions.tolist())))


def write_summary_csv(rows: list[tuple[str, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,value\n")
        for metric, value in rows:
            fh.write(f"{metric},{value:.6f}\n")


def emit_report(report: ComparisonReport, path_prefix: str,
                extra_rows: list[tuple[str, float]] = ()) -> list[str]:
    """Write the comparison CSVs and the plot of report.cdfs; returns the file paths.

    `extra_rows` (such as solver_rows) follow the report's own summary
    rows. Output is byte-deterministic for fixed inputs.
    """
    cdf_path = f"{path_prefix}_cdf.csv"
    summary_path = f"{path_prefix}_summary.csv"
    svg_path = f"{path_prefix}_cdf.svg"
    write_cdf_csv(report.cdfs, cdf_path)
    write_summary_csv([
        ("snapshots", float(report.snapshots)),
        ("samples_baseline", float(report.samples["baseline"])),
        ("samples_green", float(report.samples["green"])),
        ("mean_baseline_dbm", report.mean_dbm["baseline"]),
        ("mean_green_dbm", report.mean_dbm["green"]),
        ("mean_delta_db", report.mean_delta_db),
        ("median_baseline_dbm", report.median_dbm["baseline"]),
        ("median_green_dbm", report.median_dbm["green"]),
        ("median_delta_db", report.median_delta_db),
        ("frac_below_target_baseline", report.frac_below_target["baseline"]),
        ("frac_below_target_green", report.frac_below_target["green"]),
        ("target_dbm", report.target_dbm),
        *extra_rows,
    ], summary_path)
    write_cdf_svg(report.cdfs, svg_path)
    return [cdf_path, summary_path, svg_path]


# minimal hand-rolled SVG so plots are byte-deterministic
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def write_cdf_svg(cdfs: dict[str, tuple[np.ndarray, np.ndarray]], path: str) -> None:
    """Two-curve (or N-curve) step plot of empirical CDFs.

    sx and sy map plot coordinates to pixels, on a float or elementwise
    on an array: the same IEEE operations in the same order either way.
    """
    x_lo = float(min(values[0] for values, _ in cdfs.values()))
    x_hi = float(max(values[-1] for values, _ in cdfs.values()))
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    span = x_hi - x_lo
    x_lo -= 0.02 * span
    x_hi += 0.02 * span

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - y * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{sy(0):.2f}" x2="{_W - _MR}" y2="{sy(0):.2f}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{sy(0):.2f}" x2="{_ML}" y2="{sy(1):.2f}" stroke="black"/>',
    ]
    for k in range(5):
        frac = k / 4.0
        x = x_lo + frac * (x_hi - x_lo)
        parts.append(f'<line x1="{sx(x):.2f}" y1="{sy(0):.2f}" x2="{sx(x):.2f}" '
                     f'y2="{sy(0) + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{sx(x):.2f}" y="{sy(0) + 20:.2f}" '
                     f'text-anchor="middle">{x:.1f}</text>')
        parts.append(f'<line x1="{_ML - 5}" y1="{sy(frac):.2f}" x2="{_ML}" '
                     f'y2="{sy(frac):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 10}" y="{sy(frac) + 4:.2f}" '
                     f'text-anchor="end">{frac:.2f}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" '
                 f'text-anchor="middle">Tx power (dBm)</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">cumulative fraction</text>')

    for idx, (run, (values, fractions)) in enumerate(cdfs.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        # steps from (x_lo, 0) up through each value to (x_hi, 1)
        xs = sx(np.concatenate(([x_lo], np.repeat(values, 2), [x_hi])))
        ys = sy(np.repeat(np.concatenate(([0.0], fractions)), 2))
        points = np.column_stack((xs, ys)).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(points)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        y_leg = _MT + 16 + 18 * idx
        parts.append(f'<line x1="{_ML + 12}" y1="{y_leg}" x2="{_ML + 42}" y2="{y_leg}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + 48}" y="{y_leg + 4}">{run}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
