"""Aggregation of Monte Carlo snapshots into Tx-power CDFs and
baseline-vs-green comparison reports.

All statistics run on dBm values directly (log-domain averages), matching
how power deltas are usually quoted. Outage MSs stay in every sample at
p_max rather than being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Drop


@dataclass(frozen=True)
class PopulationFilter:
    """Restricts reported mobiles to a disk and/or to indoor users."""

    center: tuple[float, float] | None = None
    radius_m: float = math.inf
    indoor_only: bool = False


NO_FILTER = PopulationFilter()


def population_indices(mobiles: Drop, f: PopulationFilter = NO_FILTER) -> np.ndarray:
    """Indices of the mobiles passing the filter, in MS order (intp)."""
    if f.radius_m < 0:
        raise ValueError("filter radius must be >= 0")
    keep = mobiles.indoor if f.indoor_only else np.ones(len(mobiles), dtype=bool)
    if f.center is not None:
        keep &= np.hypot(*(mobiles.xy - f.center).T) <= f.radius_m
    return np.flatnonzero(keep)


def kept_indices(snapshots, f: PopulationFilter = NO_FILTER) -> list[np.ndarray]:
    """Per snapshot, the indices of its mobiles passing the filter.

    The runs of a snapshot share its mobiles, so one filter pass per
    snapshot serves every run's powers and the solver rows.
    """
    return [population_indices(snap.mobiles, f) for snap in snapshots]


def gather_tx_powers(snapshots, run: int, kept: list[np.ndarray]) -> list[float]:
    """Tx powers (dBm) of one run's kept mobiles, concatenated in snapshot order.

    `run` indexes the campaign's scenarios: 0 for a single run, 0
    (baseline) or 1 (green) for a pair. `kept` is the campaign's
    `kept_indices`.
    """
    powers: list[float] = []
    for snap, idx in zip(snapshots, kept):
        powers.extend(snap.runs[run].tx_power_dbm[idx].tolist())
    return powers


def solver_rows(snapshots, kept: list[np.ndarray],
                runs: tuple[str, ...] = ("",)) -> list[tuple[str, float]]:
    """Summary rows of the solver's state over a campaign.

    One `outage_frac[_<run>]` row per named run: the share of the mobiles
    kept by the population filter (`kept_indices`) that end in outage.
    Then the mean and maximum power control iterations per snapshot (the
    runs of a snapshot share one count) and the number of snapshots in
    which some run did not converge.
    """
    n = sum(map(len, kept))
    rows = []
    for r, name in enumerate(runs):
        hits = sum(int(np.count_nonzero(snap.runs[r].outage[idx]))
                   for snap, idx in zip(snapshots, kept))
        rows.append((f"outage_frac_{name}" if name else "outage_frac", hits / n))
    iters = [snap.runs[0].iterations for snap in snapshots]
    unconverged = sum(not all(run.converged for run in snap.runs) for snap in snapshots)
    return rows + [("iterations_mean", float(np.mean(iters))),
                   ("iterations_max", float(max(iters))),
                   ("nonconverged_snapshots", float(unconverged))]


def tx_power_cdf(samples: list[float]) -> list[tuple[float, float]]:
    """Empirical CDF at the sorted sample points (right-continuous steps)."""
    if len(samples) == 0:
        raise ValueError("cannot build a CDF from an empty sample list")
    values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    fractions = np.cumsum(counts) / len(samples)
    return [(float(v), float(c)) for v, c in zip(values, fractions)]


@dataclass(frozen=True)
class ComparisonReport:
    """Baseline-vs-green deltas over paired Monte Carlo samples."""

    mean_delta_db: float
    median_delta_db: float
    mean_dbm: dict[str, float]
    median_dbm: dict[str, float]
    frac_below_target: dict[str, float]
    target_dbm: float
    cdfs: dict[str, list[tuple[float, float]]]
    samples: dict[str, int]
    snapshots: int


def compare_runs(baseline: list[float], green: list[float], target_dbm: float,
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


def write_cdf_csv(cdfs: dict[str, list[tuple[float, float]]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CDF_HEADER + "\n")
        for run, cdf in cdfs.items():
            for power, frac in cdf:
                fh.write(f"{run},{power:.6f},{frac:.6f}\n")


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


def write_cdf_svg(cdfs: dict[str, list[tuple[float, float]]], path: str) -> None:
    """Two-curve (or N-curve) step plot of empirical CDFs."""
    all_x = [p for cdf in cdfs.values() for p, _ in cdf]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    span = x_hi - x_lo
    x_lo -= 0.02 * span
    x_hi += 0.02 * span

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
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

    for idx, (run, cdf) in enumerate(cdfs.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = [f"{sx(x_lo):.2f},{sy(0):.2f}"]
        prev = 0.0
        for x, fr in cdf:
            pts.append(f"{sx(x):.2f},{sy(prev):.2f}")
            pts.append(f"{sx(x):.2f},{sy(fr):.2f}")
            prev = fr
        pts.append(f"{sx(x_hi):.2f},{sy(prev):.2f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        y_leg = _MT + 16 + 18 * idx
        parts.append(f'<line x1="{_ML + 12}" y1="{y_leg}" x2="{_ML + 42}" y2="{y_leg}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + 48}" y="{y_leg + 4}">{run}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
