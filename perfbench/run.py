"""ramseykit benchmark runner.

    python3 perfbench/run.py --workload search-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. It is a single-process, closed-loop
batch runner with one task in flight: it generates the workload's inputs
from --seed, then runs the workload's task list (see workloads.py) pass
after pass for --seconds, always one whole pass at least.
Each task issues real `ramsey` subcommands through `ramseykit.cli.main` and
checks the envelopes against oracles. The `resume` workload, which
BENCHMARK.json does not list, runs the resume legs (see workloads.py).

--trace 0 measures untraced passes and reports the end-to-end metrics. After
the first pass it stops between tasks when the next task would overrun
--seconds, so the whole run is measured; wall_s and cpu_s sum the per-task
medians over every pass, whole or not.
--trace 1 alternates whole untraced and traced passes while another pair
fits (see tracing.py) and reports the per-layer metrics, including the
tracing overhead.

Every task's verdict, the environment block and every metric with its unit
are printed; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. A JSON copy of everything,
and in traced runs the spans, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "report.schema.json"
SETUP_REPEATS = 9
MODULES = ("cli", "search", "graphs", "regular", "extremal", "stability", "battery", "reports")

# End-to-end metrics printed per workload; BENCHMARK.json gates
# the subset every workload emits (setup_s, wall_s, cpu_s, peak_rss_mb).
COMMON_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "failed_frac")
WORKLOAD_METRICS = {
    "search-sparse": ("search_nodes", "nodes_per_s", "board_s.m_C5", "board_s.K3_9",
                      "board_s.K3_9_2w"),
    "search-dense": ("search_nodes", "nodes_per_s", "board_s.P6_8", "board_s.r_C7",
                     "board_s.C7_13_budget"),
    "verify": ("rows_per_s", "certs_per_s"),
    "resume": ("search_nodes", "nodes_per_s", "board_s.K3_9", "board_s.P6_8"),
}
GATED_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.ALL_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every board; used by selfcheck.py")
    p.add_argument("--wrong-oracle", action="store_true",
                   help="skew one oracle value; selfcheck.py asserts the gate reports it")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import ramseykit's layers and numpy from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    import importlib

    import numpy  # noqa: F401

    return {name: importlib.import_module(f"ramseykit.{name}") for name in MODULES}


def setup_probe(args) -> None:
    """Fresh-interpreter set-up: import the program and generate the inputs."""
    import_program()
    workloads.build(args.workload, args.seed, args.size)


def measure_setup(args) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters reaching ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(wl, index: int, runner, tracer=None, deadline=None, last=None) -> dict:
    """One pass over the task list; with a deadline, stop before a task whose
    latest time (in `last`) would end past it."""
    ctx: dict = {}
    results = []
    tasks = wl.tasks(index)
    t_pass, c_pass = time.perf_counter(), cpu_now()
    for task in tasks:
        if deadline is not None and time.perf_counter() + last.get(task.name, 0.0) > deadline:
            break
        if tracer is not None:
            tracer.task = task.name
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            measures, ok, detail = task.fn(runner, ctx), True, "ok"
        except workloads.Mismatch as err:
            measures, ok, detail = err.measures, False, str(err)
        except Exception as err:  # a command that raises is a failed task
            measures, ok, detail = {}, False, f"raised {type(err).__name__}: {err}"
        results.append(workloads.TaskResult(task.name, task.kind, ok, detail,
                                            time.perf_counter() - t0, cpu_now() - c0, measures))
    if tracer is not None:
        tracer.task = None
    return {"wall_s": time.perf_counter() - t_pass, "cpu_s": cpu_now() - c_pass,
            "results": results, "complete": len(results) == len(tasks),
            "spans": tracer.take() if tracer is not None else None}


def pass_metrics(workload: str, p: dict) -> dict:
    """Workload-specific end-to-end figures of one untraced pass."""
    res = {r.name: r for r in p["results"]}
    m = {}
    if workload != "verify":
        search = [r for r in p["results"] if r.kind == "search"]
        m["search_nodes"] = sum(r.measures.get("nodes", 0) for r in p["results"]
                                if r.kind in ("search", "parallel"))
        serial_s = sum(r.measures.get("board_s", 0) for r in search)
        nodes = sum(r.measures.get("nodes", 0) for r in search)
        m["nodes_per_s"] = nodes / serial_s if serial_s else 0.0
        for name in WORKLOAD_METRICS[workload]:
            if name.startswith("board_s."):
                m[name] = res[name[len("board_s."):]].measures.get("board_s", 0.0)
    else:
        lemma = [r for r in p["results"] if r.kind == "lemma"]
        certs = [r for r in p["results"] if r.kind == "cert"]
        lemma_s = sum(r.measures.get("seconds", 0) for r in lemma)
        cert_s = sum(r.measures.get("seconds", 0) for r in certs)
        m["rows_per_s"] = sum(r.measures.get("rows", 0) for r in lemma) / lemma_s if lemma_s else 0.0
        m["certs_per_s"] = sum(1 for r in certs if r.ok) / cert_s if cert_s else 0.0
    return m


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
         "search_nodes": "count", "nodes_per_s": "1/s", "rows_per_s": "1/s", "certs_per_s": "1/s"}


def unit_of(name: str) -> str:
    return "s" if name.startswith("board_s.") else UNITS[name]


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((SRC / "ramseykit").glob("*.py"))),
    }


def git_revision():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    missing = [str(p) for p in (SRC / "ramseykit" / "cli.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"run.py: not a ramseykit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.pop("RAMSEY_BUDGET_NODES", None)  # the program gets only flags and files
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    import jsonschema

    setup_s = measure_setup(args)
    mods = import_program()
    schema = json.loads(SCHEMA.read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    wl = workloads.build(args.workload, args.seed, args.size, args.wrong_oracle)
    runner = workloads.Runner(work, mods, validator)
    tracer = tracing.Tracer() if args.trace else None
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    last: dict = {}
    while True:
        cut_at = deadline if plain and tracer is None else None
        p = run_pass(wl, len(plain), runner, deadline=cut_at, last=last)
        if not p["results"]:
            break
        plain.append(p)
        last.update((r.name, r.seconds) for r in p["results"])
        report_pass("untraced", len(plain) - 1, p)
        if tracer is None:
            if not p["complete"] or time.perf_counter() >= deadline:
                break
            continue
        tracer.install()
        try:
            traced.append(run_pass(wl, len(traced), runner, tracer))
        finally:
            tracer.uninstall()
        report_pass("traced", len(traced) - 1, traced[-1])
        if time.perf_counter() + p["wall_s"] + traced[-1]["wall_s"] > deadline:
            break

    mark_node_mismatches(plain, traced)
    everything = [r for p in plain + traced for r in p["results"]]
    attempted = len(everything)
    failed = sum(1 for r in everything if not r.ok)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    by_task: dict = {}
    for r in (r for p in plain for r in p["results"]):
        by_task.setdefault(r.name, []).append(r)
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(r.seconds for r in rs) for rs in by_task.values()),
        "cpu_s": sum(statistics.median(r.cpu_s for r in rs) for rs in by_task.values()),
        "peak_rss_mb": usage / 1024.0,
        "failed_frac": failed / attempted,
    }
    whole = [p for p in plain if p["complete"]]
    per_pass = [pass_metrics(args.workload, p) for p in whole]
    for name in WORKLOAD_METRICS[args.workload]:
        e2e[name] = statistics.median(m[name] for m in per_pass)
    print(f"passes: {len(plain)} untraced ({len(whole)} whole), {len(traced)} traced; "
          f"tasks attempted {attempted}, failed {failed}")
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {unit_of(name)}")

    if tracer is not None:
        layers = tracing.combine_passes([tracing.layer_metrics(p["spans"], p["results"])
                                         for p in traced])
        layers["trace.wall_s"] = (statistics.median(p["wall_s"] for p in traced), "s")
        layers["trace.overhead_s"] = (layers["trace.wall_s"][0] - e2e["wall_s"], "s")
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit_of(name)} for name in GATED_METRICS}

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "environment": env,
        "args": vars(args),
        "end_to_end": {name: {"value": v, "unit": unit_of(name)} for name, v in e2e.items()},
        "metrics": metrics,
        "tasks": [{"pass": i, "mode": mode, "name": r.name, "ok": r.ok, "detail": r.detail,
                   "seconds": r.seconds, "cpu_s": r.cpu_s, "measures": r.measures}
                  for mode, passes in (("untraced", plain), ("traced", traced))
                  for i, p in enumerate(passes) for r in p["results"]],
    }, indent=1, sort_keys=True))
    if traced:
        tracing.write_spans(out_dir / f"{stem}.spans.jsonl", [p["spans"] for p in traced])

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_pass(mode: str, index: int, p: dict) -> None:
    for r in p["results"]:
        verdict = "PASS" if r.ok else "FAIL"
        print(f"task {mode}#{index} {r.name}: {verdict} {r.seconds:.3f}s  {r.detail}")
    print(f"pass {mode}#{index}: wall {p['wall_s']:.3f}s cpu {p['cpu_s']:.3f}s", flush=True)


def mark_node_mismatches(plain: list, traced: list) -> None:
    """Traced pass k must repeat the node counts of untraced pass k (same cuts)."""
    keys = ("nodes", "nodes_first", "nodes_second")
    for a, b in zip(plain, traced):
        for ra, rb in zip(a["results"], b["results"]):
            if rb.ok and any(ra.measures.get(k) != rb.measures.get(k) for k in keys):
                rb.ok, rb.detail = False, "node counts differ from the untraced pass"
                print(f"task traced {rb.name}: FAIL {rb.detail}")


if __name__ == "__main__":
    sys.exit(main())
