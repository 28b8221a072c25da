"""greenant benchmark: Monte Carlo campaign time, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script must sit in `perfbench/` of a source checkout; the program is
imported from that checkout's `src/` directory. Workloads are defined in `workloads.py`. The
campaign seed is --seed, so the same seed gives the same inputs.

Each workload calls `greenant.cli.main(argv)` in this process, in rounds,
until --seconds have passed. Round k runs campaign seed --seed + 1000 k,
so a run averages over several campaigns. Every call must exit 0 and pass
the workload's output checks, and calls with the same campaign seed must
write byte-identical files; a call that does not counts as failed. A
workload with --jobs > 1 starts each round with an untimed call at
--jobs 1, so its outputs must equal the serial ones. `failed / attempted`
is the failed fraction.

--trace 0 prints the end-to-end metrics:
  ms_per_snapshot      wall time of the timed calls / their snapshots
  cpu_ms_per_snapshot  same for user+sys CPU of this process and its children
  setup_s              median over fresh interpreters of the main thread's
                       CPU time to import greenant and load the workload's
                       scenarios
  peak_rss_mb          larger of this process's and its children's max RSS
A snapshot of a compare workload is one baseline/green pair. The three
times are scaled to a reference machine speed sampled during each
measured interval (clock.py), because the speed of a shared machine
drifts by up to 1.75x; the human-readable output also gives the raw wall
time.

--trace 1 alternates untraced and traced calls, all at --jobs 1, and prints
the per-layer metrics (see tracing.layer_metrics). Counts marked computed
come from array shapes and pickle sizes, not from measurement. Per-layer
times are raw, not scaled: compare shares within one traced run, or
counts, across runs. The spans are written to
.bench_build/perfbench/spans-<workload>-seed<N>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import clock
import tracing
from workloads import WORKLOADS, digest, output_files

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 11
MIN_ROUNDS = 3
SEED_STRIDE = 1000

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COMPUTED = ("propagation.links", "propagation.table_bytes", "simulate.task_bytes")


def _import_program():
    """Import greenant from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    needed = [src / "greenant" / "cli.py", ROOT / "scenarios" / "baseline.json",
              ROOT / "scenarios" / "green.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        sys.exit("perfbench: not a greenant checkout, missing " + ", ".join(missing))
    sys.path.insert(0, str(src))
    import greenant.cli

    if Path(greenant.cli.__file__).resolve().parent != src / "greenant":
        sys.exit(f"perfbench: imported greenant from {greenant.cli.__file__}, not {src}")
    return greenant.cli


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


class Campaign:
    """Calls `cli.main` for one workload and checks every call's outputs."""

    def __init__(self, cli, workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.files = workload.scenario_files(ROOT, work)
        self.units_dir = work / "units"
        self.units_dir.mkdir()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}     # campaign seed -> first call's outputs

    def call(self, seed: int, jobs: int, out_name: str, sample: bool = False):
        """One checked campaign call; returns (wall s, CPU s, clock.Samples).

        With `sample`, the machine speed is sampled during the call;
        otherwise the samples are None.
        """
        out = str(self.work / out_name)
        argv = self.workload.argv(self.files, seed, out, jobs)
        log = io.StringIO()
        with contextlib.redirect_stderr(log), \
                (clock.sampling(self.units_dir) if sample else contextlib.nullcontext()) as samples:
            c0 = _cpu_s()
            t0 = perf_counter()
            rc = self.cli.main(argv)
            wall = perf_counter() - t0
            cpu = _cpu_s() - c0
        problems = [f"exit code {rc}"] if rc != 0 else self.workload.check(out, self.files)
        if rc == 0:
            d = digest(out)
            if self.digests.setdefault(seed, d) != d:
                problems.append("outputs differ from the first call with this seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: call failed ({'; '.join(problems)}): {' '.join(argv)}\n"
                  + log.getvalue(), file=sys.stderr)
        return wall, cpu, samples


def _setup_s(files: list[str]) -> float:
    """Median set-up time of fresh interpreters, at the reference speed."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), *files], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        seconds, reference_s, units = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(seconds * clock.Samples(reference_s, units).speed(clock.CPU))
    return statistics.median(times)


def _task_bytes(workload, files: list[str], seed: int) -> int:
    """Computed: pickled size of one per-snapshot pool task as simulate builds it."""
    from greenant.scenario import load_scenario_file

    scenarios = [load_scenario_file(f) for f in files]
    return len(pickle.dumps((*scenarios, seed, 0, workload.combining)))


def _bytes_written(prefix: Path) -> int:
    return sum(f.stat().st_size for f in output_files(str(prefix)))


def _repeat(seconds: float, round_fn) -> None:
    """Run `round_fn` at least MIN_ROUNDS times, then while another round
    is expected to end within `seconds` of the start."""
    start = perf_counter()
    longest = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() + longest <= start + seconds:
        t0 = perf_counter()
        round_fn()
        longest = max(longest, perf_counter() - t0)
        rounds += 1


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cli = _import_program()
    workload = WORKLOADS[workload_name]
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_ROOT))
    try:
        camp = Campaign(cli, workload, work)
        n = workload.snapshots
        seeds = (seed + SEED_STRIDE * k for k in itertools.count())
        if not trace:
            raw, walls, cpus = [], [], []

            def timed_round():
                s = next(seeds)
                if workload.jobs != 1:
                    camp.call(s, 1, "ref")
                wall, cpu, samples = camp.call(s, workload.jobs, "run", sample=True)
                raw.append(wall)
                walls.append(samples.scaled_wall(wall))
                cpus.append(samples.scaled_cpu(cpu))

            _repeat(seconds, timed_round)
            metrics = {
                "ms_per_snapshot": 1e3 * sum(walls) / (n * len(walls)),
                "cpu_ms_per_snapshot": 1e3 * sum(cpus) / (n * len(cpus)),
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": _setup_s(camp.files),
            }
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            plain, traced, written = [], [], []

            def traced_round():
                s = next(seeds)
                plain.append(camp.call(s, 1, "run")[0])
                with tracing.patched(tracer):
                    traced.append(camp.call(s, 1, "run")[0])
                written.append(_bytes_written(work / "run"))

            _repeat(seconds, traced_round)
            metrics = tracing.layer_metrics(tracer, len(traced), len(traced) * n)
            metrics["simulate.task_bytes"] = _task_bytes(workload, camp.files, seed)
            metrics["metrics.bytes_written"] = statistics.median(written)
            metrics["trace.overhead"] = sum(traced) / sum(plain)
            metrics["trace.wall_ms"] = 1e3 * sum(traced) / (len(traced) * n)
            tracer.write(WORK_ROOT / f"spans-{workload_name}-seed{seed}.json")
            units = PER_LAYER_UNITS
        print(f"perfbench: {workload_name} seed {seed}: {camp.attempted} calls of {n} "
              f"snapshots, output digest {camp.digests.get(seed)}")
        if not trace:
            print(f"  raw wall ms_per_snapshot {1e3 * sum(raw) / (n * len(raw)):.6g} ms")
        for name, unit in units.items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"  {name:28s} {metrics[name]:14.6g} {unit}{note}")
        print(f"  {'failed_frac':28s} {camp.failed / camp.attempted:14.6g} "
              f"({camp.failed} of {camp.attempted} calls)")
        return {
            "correct": camp.failed == 0,
            "attempted": camp.attempted,
            "failed": camp.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
