"""Self-check of the benchmark on tiny boards.

    python3 perfbench/selfcheck.py

For every workload, `resume` included, it runs run.py at --size tiny,
untraced and traced, and asserts that
* the result line carries exactly the metrics BENCHMARK.json declares, with
  their units (end_to_end untraced, per_layer traced; the traced `resume`
  run adds the search.resume.* counters);
* every end-to-end metric of the workload is printed with its unit;
* a run with one oracle deliberately skewed (--wrong-oracle) reports more
  failed tasks and a larger failed_frac than the same run without it.
It also asserts that run.py exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")
RESUME_LAYERS = [{"name": f"search.resume.{name}", "unit": "count"}
                 for name in ("nodes_first", "nodes_second", "mismatches")]


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def printed_metrics(lines: list[str]) -> dict:
    found = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            found[match.group(1)] = (float(match.group(2)), match.group(3))
    return found


def check_result(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), {k for k in got if got[k] != want.get(k)})
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS), names
    for workload in workloads.ALL_WORKLOADS:
        rc, lines = bench(workload, 0)
        assert rc == 0, (workload, lines[-5:])
        honest = check_result(lines, spec["end_to_end"])
        printed = printed_metrics(lines)
        for name in run.COMMON_METRICS + run.WORKLOAD_METRICS[workload]:
            assert name in printed, (workload, name)
            assert printed[name][1] == run.unit_of(name), (workload, name, printed[name])
        assert any(line.startswith("task ") for line in lines), workload
        assert any(line.startswith("environment ") for line in lines), workload

        rc, lines = bench(workload, 1)
        assert rc == 0, (workload, lines[-5:])
        extra = RESUME_LAYERS if workload == workloads.RESUME else []
        check_result(lines, spec["per_layer"] + extra)

        rc, lines = bench(workload, 0, "--wrong-oracle")
        assert rc == 0, (workload, lines[-5:])
        skewed = check_result(lines, spec["end_to_end"])
        assert skewed["failed"] > honest["failed"], (workload, honest["failed"], skewed["failed"])
        assert not skewed["correct"]
        assert printed_metrics(lines)["failed_frac"][0] > printed["failed_frac"][0], workload
        print(f"selfcheck {workload}: ok (honest failed {honest['failed']}/{honest['attempted']}, "
              f"skewed oracle failed {skewed['failed']}/{skewed['attempted']})")

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        rc, lines = bench("verify", 0, cwd=bare)
        assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck bare directory: ok (exit non-zero, no result)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
