"""lowdisc benchmark.

    python3 perfbench/run.py --workload {presets,commands,all} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics: whole passes over
the workload's fixed op list, repeated while the time allows, one op at a
time and one subprocess at a time.  ``--trace 1`` replays one pass in
process four times, each in a fresh process, without and with the
per-layer wrappers of ``tracing.py``; the difference of their wall times
is ``trace.overhead_s``.  Every output is checked by ``gate.py`` against the
recorded output of the seed code.  The last line of standard output is one
JSON object; a report with the run context goes to ``.perfbench/reports``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

import gate
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench"
OP_TIMEOUT_S = 120
MIN_SETUPS = 5
POOL_MIN_OPS = 20
IMPORT_REPEATS = 3
# End-to-end metrics and their units; BENCHMARK.json holds their bounds.
END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "exact_share": "share",
}
MACHINE_KEYS = ("nproc", "cpus_allowed", "cpu_max", "python", "numpy", "machine")


# One thread per process: numpy's libraries start none of their own.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH="src", **THREAD_VARS)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------


def run_subprocess(op) -> tuple[int, str, str, float]:
    argv = [sys.executable, "-m", "lowdisc.cli", *op.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -9, "", f"timed out after {OP_TIMEOUT_S} s", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def run_in_process(op) -> tuple[int, str, str, float]:
    """``lowdisc.cli.main`` with the op's argv, looked up at call time so
    that a traced run goes through the wrapper."""
    from lowdisc import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught exception exits 1, as the console script would
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(ops, refs, in_process: bool) -> list[tuple[object, float, gate.Verdict]]:
    """One pass over the op list; checks run between ops, outside the timing."""
    state = gate.PassState()
    records = []
    for op in ops:
        rc, out, err, seconds = (run_in_process if in_process else run_subprocess)(op)
        try:
            verdict = gate.check(refs, op, rc, out, err, state)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            verdict = gate.Verdict("failed", f"unreadable output: {type(exc).__name__}: {exc}")
        records.append((op, seconds, verdict))
    return records


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, size: str, refs):
    """Inputs from the seed, then one untimed warm-up op."""
    ops = workloads.build_ops(workload, seed, size)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    if workload == "commands":
        recorded = refs.cli["experiment --preset halton-2-3"]["stdout"]
        Path(workloads.FIT_INPUT).write_text(recorded, encoding="utf-8")
    run_subprocess(workloads.WARMUP[workload])
    return ops


def self_command(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *extra]


def timed_setup(args) -> float:
    """Wall time of one complete set-up in a fresh process: start-up,
    imports, references, inputs and the warm-up op."""
    start = time.perf_counter()
    # No timeout here: with one, the wait polls with sleeps of up to 50 ms,
    # which quantizes the measurement.  The probe's only op has a timeout.
    subprocess.run(self_command(args, "--probe"), check=True, env=child_env())
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Measured and traced runs
# ---------------------------------------------------------------------------


def summarize(records) -> dict:
    counts = {"ok": 0, "failed": 0, "known-failure": 0, "unchecked": 0}
    exact = results = 0
    failures, known, unchecked = {}, {}, {}
    for op, _, verdict in records:
        counts[verdict.status] += 1
        exact += verdict.exact
        results += verdict.results
        bucket = {"failed": failures, "known-failure": known, "unchecked": unchecked}.get(verdict.status)
        if bucket is not None:
            bucket.setdefault(op.name, verdict.message)
    return {"counts": counts, "attempted": len(records), "exact": exact, "results": results,
            "failures": failures, "known_failures": known, "unchecked": unchecked}


def measure(args, refs) -> tuple[dict, dict, dict]:
    started = time.perf_counter()
    # Set-ups are timed between passes, so that their median spans the run
    # as the pass times do.
    setup_samples = [timed_setup(args)]
    ops = setup(args.workload, args.seed, args.size, refs)
    walls, records = [], []
    op_seconds: list[list[float]] = [[] for _ in ops]  # per op of the list, one per pass
    while True:
        done = run_pass(ops, refs, in_process=False)
        records += done
        walls.append(sum(seconds for _, seconds, _ in done))
        for samples, (_, seconds, _) in zip(op_seconds, done):
            samples.append(seconds)
        setup_samples.append(timed_setup(args))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) / 2 > args.seconds:
            break
    while len(setup_samples) < MIN_SETUPS:
        setup_samples.append(timed_setup(args))
    summary = summarize(records)
    counts = summary["counts"]
    # Percentiles of single op times.  With at least POOL_MIN_OPS ops per
    # pass they pool every op sample of the run; with fewer, a pooled
    # percentile falls on the extreme sample of one op, so each op
    # contributes its median across passes instead.
    pooled = len(ops) >= POOL_MIN_OPS
    if pooled:
        ms = [seconds * 1000 for samples in op_seconds for seconds in samples]
    else:
        ms = [statistics.median(samples) * 1000 for samples in op_seconds]
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, 0.9),
        "ops_per_s": (counts["ok"] + counts["unchecked"]) / sum(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_share": 1 - (counts["failed"] + counts["known-failure"]) / len(records),
        "exact_share": summary["exact"] / summary["results"] if summary["results"] else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {"passes": len(walls), "pass_walls_s": walls, "ops_per_pass": len(ops),
              "op_samples": len(walls) * len(ops),
              "op_percentiles_over": "op samples" if pooled else "per-op medians",
              "op_seconds": {f"{i} {op.name}": samples for i, (op, samples) in enumerate(zip(ops, op_seconds))},
              "setup_samples_s": setup_samples,
              "fail_share": (counts["failed"] + counts["known-failure"]) / len(records)}
    return metrics, summary, detail


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import lowdisc.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), check=True, timeout=OP_TIMEOUT_S)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def replay(args, refs) -> None:
    """Child of a traced run: one in-process pass, traced or not."""
    import tracing

    import lowdisc.cli  # noqa: F401  imported before timing, as in a process's start-up

    ops = setup(args.workload, args.seed, args.size, refs)
    tracer = tracing.Tracer()
    if args.replay:
        tracer.install()
    try:
        records = run_pass(ops, refs, in_process=True)
    finally:
        tracer.remove()
    out = {"wall_s": sum(seconds for _, seconds, _ in records), "summary": summarize(records)}
    if args.replay:
        spans_path = Path(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.json")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
        out["layers"] = tracer.metrics()
        out["spans_file"] = str(spans_path)
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


def traced(args, refs) -> tuple[dict, dict, dict]:
    """Untraced and traced replays in the order ABBA, so that a steady
    drift of machine speed cancels out of ``trace.overhead_s``."""
    import tracing

    replays = {0: [], 1: []}
    for i, flag in enumerate((0, 1, 1, 0)):
        path = Path(OUT_DIR, f"replay-{args.workload}-{i}.json")
        subprocess.run(self_command(args, "--replay", str(flag), "--out", str(path)),
                       check=True, env=child_env(), timeout=OP_TIMEOUT_S)
        replays[flag].append(json.loads(path.read_text()))
    plain, layered = replays[0], replays[1]
    layers = {name: statistics.mean(r["layers"][name] for r in layered) for name in layered[0]["layers"]}
    plain_walls = [r["wall_s"] for r in plain]
    traced_walls = [r["wall_s"] for r in layered]
    layers["cli.import_s"] = import_seconds()
    layers["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(plain_walls)
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    summary = summarize([])
    for part in (r["summary"] for r in plain + layered):
        for key in ("attempted", "exact", "results"):
            summary[key] += part[key]
        for key, count in part["counts"].items():
            summary["counts"][key] += count
        for key in ("failures", "known_failures", "unchecked"):
            summary[key].update(part[key])
    detail = {"untraced_walls_s": plain_walls, "traced_walls_s": traced_walls,
              "spans_file": layered[-1]["spans_file"],
              "computed_from_inputs": ["discrepancy.star_disc_exact.corners",
                                       "discrepancy.star_disc_bracket.cells"]}
    return metrics, summary, detail


# ---------------------------------------------------------------------------
# Context and reporting
# ---------------------------------------------------------------------------


def cgroup_cpu_max() -> str | None:
    """The CPU quota of the cgroup as ``cpu.max`` writes it ("max 100000"
    when unlimited), from cgroup v2 or else v1; None where neither exists."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.exists():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu")
    if (v1 / "cpu.cfs_quota_us").exists():
        quota = int((v1 / "cpu.cfs_quota_us").read_text())
        period = (v1 / "cpu.cfs_period_us").read_text().strip()
        return f"{'max' if quota < 0 else quota} {period}"
    return None


def run_context(seed: int) -> dict:
    commit = None
    if Path(".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted(Path("src/lowdisc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_max": cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def report(args, metrics: dict, summary: dict, detail: dict) -> dict:
    counts = summary["counts"]
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "context": run_context(args.seed), "metrics": metrics, "detail": detail,
        "attempted": summary["attempted"], "counts": counts, "failures": summary["failures"],
        "known_failures": summary["known_failures"], "unchecked": summary["unchecked"],
    }
    path = Path(OUT_DIR, "reports", f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"attempted={summary['attempted']} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for key, value in detail.items():
        if isinstance(value, (int, float, str)):
            print(f"  {key} = {value}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, message in summary["known_failures"].items():
        print(f"  known failure: {name}: {message}")
    for name, message in summary["unchecked"].items():
        print(f"  unchecked: {name}: {message}")
    for name, message in summary["failures"].items():
        print(f"  FAILED: {name}: {message}")
    print(f"  report: {path}")
    return {"correct": counts["failed"] == 0, "attempted": summary["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def run_one(args, refs) -> dict:
    if args.trace:
        return report(args, *traced(args, refs))
    return report(args, *measure(args, refs))


def run_all(args) -> int:
    """Every workload in a process of its own, so that RUSAGE_CHILDREN (peak
    RSS) and the module state of one workload do not reach the next; their
    result lines merge into one, with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = self_command(argparse.Namespace(**{**vars(args), "workload": workload}),
                               "--seconds", str(args.seconds), "--trace", str(args.trace))
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=child_env())
        print(proc.stdout, end="", flush=True)
        if proc.returncode:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/lowdisc/__init__.py").is_file():
        print(f"no lowdisc sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(THREAD_VARS)
    refs = gate.References()

    if args.probe:
        setup(args.workload, args.seed, args.size, refs)
        return 0
    if args.replay is not None:
        replay(args, refs)
        return 0
    print(json.dumps(run_one(args, refs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
