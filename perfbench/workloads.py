"""Benchmark workloads: the scenario files each one needs, the argv it hands
to `greenant.cli.main`, and the checks its output files must pass.

Why these three (one line each also sits in BENCHMARK.json):

- hole-compare: the paper's headline paired baseline-vs-green study at
  --jobs 1; channel draws (`propagation`/`seeds`) dominate and it is the
  only serial run of the paired path (two drops, two gain matrices,
  equality checks, common-iteration re-solves).
- hole-compare-j2: the same campaign at --jobs 2, the only workload that
  runs the `simulate` process pool (pickled tasks, worker start-up).
- multi-green-egc: 11 greens with 3-7 branches per sector and EGC, where
  the `powerctl` solve dominates and nothing is paired, so pairing
  optimisations are predicted not to move it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Pairs per compare call. At 30 pairs the acceptance bands hold on every
#: campaign seed of a 30-seed sweep (mean delta 8.4..11.2 dB, median delta
#: 7.3..10.5 dB), so a band miss means a real change, not sampling noise.
HOLE_SNAPSHOTS = 30
#: Snapshots per multi-green run call. Mean solver iterations over 300
#: snapshots still vary 25-27.6 between campaign seeds, so a run spreads
#: its calls over several seeds (see run.py).
MULTI_SNAPSHOTS = 150

#: Acceptance bands of the coverage-hole study (tests/test_acceptance.py).
MEAN_DELTA_BAND_DB = (5.0, 12.0)
MEDIAN_DELTA_BAND_DB = (6.0, 14.0)

MULTI_MOBILES_PER_SECTOR = 2
MULTI_TARGETS_DB = {"voice": -10.0, "data": -6.0}
MULTI_ATTACHED_SECTORS = 6


def multi_green_doc(green_doc: dict) -> dict:
    """The multi-green EGC scenario, derived from the bundled green.json.

    Every building without a green gets an omni green at its centre,
    attached to its MULTI_ATTACHED_SECTORS nearest sectors (by site
    distance, ties to the lower sector id). That gives 3-7 receive
    branches per sector on the bundled map.
    """
    doc = json.loads(json.dumps(green_doc))
    sectors = [(sec["id"], site["position"])
               for site in doc["sites"] for sec in site["sectors"]]
    taken = {tuple(g["position"]) for g in doc["greens"]}
    for b in doc["clutter"]["buildings"]:
        x0, y0, x1, y1 = b["rect"]
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        if any(math.isclose(cx, x) and math.isclose(cy, y) for x, y in taken):
            continue
        nearest = sorted(sectors, key=lambda s: (math.hypot(cx - s[1][0], cy - s[1][1]), s[0]))
        doc["greens"].append({
            "id": f"green-{b['id']}",
            "position": [cx, cy],
            "antenna": {"kind": "omni", "gain_dbi": 0.0},
            "attached_sectors": [sid for sid, _ in nearest[:MULTI_ATTACHED_SECTORS]],
        })
    doc["traffic"]["mobiles_per_sector"] = MULTI_MOBILES_PER_SECTOR
    doc["traffic"]["sinr_target_db"] = dict(MULTI_TARGETS_DB)
    doc["radio"]["combining"] = "egc"
    return doc


def output_files(prefix: str) -> list[Path]:
    """The report files a campaign call wrote under its --out prefix."""
    p = Path(prefix)
    return sorted(p.parent.glob(p.name + "_*"))


def digest(prefix: str) -> str:
    """sha256 over the output files' suffixes and bytes, in name order."""
    h = hashlib.sha256()
    for f in output_files(prefix):
        h.update(f.name[len(Path(prefix).name):].encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def read_summary(prefix: str) -> dict[str, float]:
    with open(f"{prefix}_summary.csv", encoding="utf-8", newline="") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


def read_cdf(prefix: str) -> list[tuple[str, float, float]]:
    with open(f"{prefix}_cdf.csv", encoding="utf-8", newline="") as fh:
        return [(r[0], float(r[1]), float(r[2])) for r in list(csv.reader(fh))[1:]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # greenant sub-command: "compare" or "run"
    jobs: int
    combining: str
    snapshots: int

    def scenario_files(self, root: Path, work: Path) -> list[str]:
        """Scenario paths for this workload, generating them under `work`."""
        scenarios = root / "scenarios"
        if self.command == "compare":
            return [str(scenarios / "baseline.json"), str(scenarios / "green.json")]
        from greenant.scenario import load_scenario

        text = json.dumps(multi_green_doc(json.loads((scenarios / "green.json").read_text())),
                          indent=1)
        load_scenario(text)     # validate before handing it to the CLI
        path = work / "multi_green.json"
        path.write_text(text, encoding="utf-8")
        return [str(path)]

    def argv(self, files: list[str], seed: int, out: str, jobs: int | None = None) -> list[str]:
        args = [self.command, "--scenario", files[0]]
        if self.command == "compare":
            args += ["--green-scenario", files[1]]
        return args + ["--seed", str(seed), "--snapshots", str(self.snapshots),
                       "--combining", self.combining,
                       "--jobs", str(self.jobs if jobs is None else jobs), "--out", out]

    def check(self, prefix: str, files: list[str]) -> list[str]:
        """Problems with the outputs under `prefix`; empty when they pass."""
        if self.command == "compare":
            return _check_bands(read_summary(prefix))
        return _check_run(prefix, files[0], self.snapshots)


def _check_bands(summary: dict[str, float]) -> list[str]:
    problems = []
    lo, hi = MEAN_DELTA_BAND_DB
    if not lo <= summary["mean_delta_db"] <= hi:
        problems.append(f"mean_delta_db {summary['mean_delta_db']:.3f} outside [{lo}, {hi}]")
    lo, hi = MEDIAN_DELTA_BAND_DB
    if not lo <= summary["median_delta_db"] <= hi:
        problems.append(f"median_delta_db {summary['median_delta_db']:.3f} outside [{lo}, {hi}]")
    if summary["frac_below_target_green"] < summary["frac_below_target_baseline"]:
        problems.append("green frac_below_target below the baseline's")
    return problems


def _check_run(prefix: str, scenario_file: str, snapshots: int) -> list[str]:
    """Every mobile reported, powers within the clamp, a proper CDF."""
    from greenant.scenario import load_scenario_file

    s = load_scenario_file(scenario_file)
    radio = s.radio
    expected_samples = snapshots * s.traffic.mobiles_per_sector * len(s.sector_ids())
    problems = []
    samples = read_summary(prefix)["samples"]
    if samples != expected_samples:
        problems.append(f"samples {samples:g}, expected {expected_samples}")
    rows = read_cdf(prefix)
    powers = [p for _, p, _ in rows]
    fracs = [f for _, _, f in rows]
    tol = 1e-6      # the CSV carries 6 decimals
    if not rows or min(powers) < radio.p_min_dbm - tol or max(powers) > radio.p_max_dbm + tol:
        problems.append(f"powers outside [{radio.p_min_dbm}, {radio.p_max_dbm}] dBm")
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        problems.append("CDF decreases")
    if not fracs or fracs[-1] != 1.0:
        problems.append("CDF does not end at 1.0")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("hole-compare", "compare", jobs=1, combining="mrc",
                 snapshots=HOLE_SNAPSHOTS),
        Workload("hole-compare-j2", "compare", jobs=2, combining="mrc",
                 snapshots=HOLE_SNAPSHOTS),
        Workload("multi-green-egc", "run", jobs=1, combining="egc",
                 snapshots=MULTI_SNAPSHOTS),
    )
}
