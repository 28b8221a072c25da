"""Self-test of the benchmark harness at tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run with fewer
snapshots per call and asserts that:
- every metric BENCHMARK.json names is computed and reported, with its unit;
- every call passed its output checks;
- the traced run leaves every attribute of every greenant module as it
  was, wrapped ones included;
- the layers' self times add up to the traced wall time.
It also asserts that run.py exits non-zero without a result line in a
directory that holds only the benchmark, not the program.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY_SNAPSHOTS = {"compare": 10, "run": 5}
BENCHMARK = run.SPEC


def _module_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "greenant" or name.startswith("greenant.")
            for attr, value in vars(mod).items()}


def _check_result(result: dict, declared: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{where}: metrics {got} != declared {units}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def check_workload(name: str) -> None:
    w = run.WORKLOADS[name]
    run.WORKLOADS[name] = dataclasses.replace(w, snapshots=TINY_SNAPSHOTS[w.command])
    try:
        _check_result(run.measure(name, 1, 0.0, trace=False),
                      BENCHMARK["end_to_end"], f"{name} untraced")
        before = _module_attributes()
        wrapped = [(mod, attr, getattr(mod, attr))
                   for mod, attr in run.tracing.wrapped_attributes()]
        assert len(wrapped) >= 10, "most trace targets are missing from greenant"
        result = run.measure(name, 1, 0.0, trace=True)
        _check_result(result, BENCHMARK["per_layer"], f"{name} traced")
        for mod, attr, original in wrapped:
            assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"
        after = _module_attributes()
        changed = [k for k, v in before.items() if k not in after or after[k] is not v]
        assert not changed and set(after) == set(before), f"traced run changed {changed}"
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_ms = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        assert abs(self_ms / m["trace.wall_ms"] - 1.0) < 0.03, (self_ms, m["trace.wall_ms"])
    finally:
        run.WORKLOADS[name] = w


def check_refuses_without_program() -> None:
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*BENCHMARK["command"], "--workload", "hole-compare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "run.py succeeded without the program"
        assert '"metrics"' not in done.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        check_workload(name)
        print(f"selftest: {name} ok", file=sys.stderr)
    check_refuses_without_program()
    print("selftest: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
