"""Benchmark for ddwl: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify-q5 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ddwl from `src/`.
The workloads are described in `workloads.py`.

--trace 0 runs the workload's plan, untraced, round(--seconds / the plan's
nominal seconds) times, at least once, and reports the end-to-end metrics:

* wall_norm: median over plans of the plan's wall time, first library call
  to last verdict, divided by the mean time of a fixed probe loop timed on
  the same core every 0.2 s during the plan (`SpeedProbe`). On a shared host
  the core's speed drifts by 20% and more within minutes, and the raw wall
  time drifts with it; the probe divides that drift out. The raw seconds are
  in the record line, and in the per-layer metric plan.wall_s;
* setup_s: median seconds for a fresh interpreter to import numpy and ddwl;
* peak_rss_mb: peak resident memory of this process.

--trace 1 runs the plan once untraced and once with every public function of
construction, srings, designs, coherent, isotest and suite wrapped in spans,
and reports per-layer self times, exact counts read from returned values and
the tracing overhead (traced minus untraced wall time).

Every plan checks its verdicts against the paper. Exact counts must repeat
across the repetitions of a run and across runs of the same source tree:
runs share a ledger under `.bench_build/perfbench/`, keyed by a hash of
`src/ddwl`, so a count that changes without a code change fails the run.
A failed verdict or count mismatch makes "correct" false and is counted in
"failed" against "attempted".

The last line of standard output is the result object; the line before it
is a record with the environment, verdict details, counts and per-plan times.
The spans of a traced run are written to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: verify_ddd runs a float matmul, and one BLAS
# thread keeps all of a plan's work on the core that SpeedProbe samples.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import fcntl
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 7
PROBE_INTERVAL = 0.2  # seconds
PROBE_LOOP = 20_000   # iterations, 1.2 to 1.9 ms on a 2-core x86-64 VM


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ddwl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_head() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return done.stdout.strip() if done.returncode == 0 else "unavailable: git failed"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "git_head": git_head(),
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters importing numpy and ddwl; the first,
    which may compile bytecode, is a warm-up and is dropped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import numpy, ddwl"]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times[1:]


class Ledger:
    """Exact counts per source tree, shared by the runs in one checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, counts: dict) -> list[str]:
        """Mismatches against the stored counts; new names are stored."""
        if not counts:
            return []
        stored = self.entries.setdefault(key, {})
        bad = []
        for name, value in counts.items():
            if name in stored and stored[name] != value:
                bad.append(f"{key} {name}: {stored[name]!r} before, {value!r} now")
            stored.setdefault(name, value)
        return bad

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Gate:
    """Collects verdicts and exact counts over the plans of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: tuple | None = None

    def add(self, outcome) -> None:
        self.attempted += len(outcome.verdicts)
        self.failures += [f"verdict {name} did not hold" for name in outcome.failed()]
        shape = (outcome.verdicts, outcome.counts, outcome.seeded_counts)
        if self.reference is None:
            self.reference = shape
            return
        self.attempted += 1
        if shape != self.reference:
            self.failures.append("verdicts or exact counts differ between plans of one run")

    def compare(self, mismatches: list[str]) -> None:
        self.attempted += 1
        if mismatches:
            self.failures.append("exact counts changed: " + "; ".join(mismatches))


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_INTERVAL seconds while a
    plan runs. The SIGALRM handler runs on the plan's own thread, so each
    sample sees the core the plan runs on, at that moment; a plan's wall time
    over the mean sample is its cost with the host's speed divided out."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()


def time_plan(plan, q, seed, expect):
    """(wall seconds, mean probe seconds, outcome) of one plan."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        outcome = plan(q, seed, expect)
        wall = time.perf_counter() - t0
    return wall, statistics.mean(probe.samples), outcome


def main(argv=None) -> int:
    if not (SRC / "ddwl" / "__init__.py").is_file():
        print(f"perfbench: no ddwl sources under {SRC}; run from a ddwl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]
    plan, q = workload.plan, workload.q
    expect = workloads.expectations(q)

    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # workloads never run concurrently
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        gate = Gate()
        record: dict = {"workload": args.workload, "q": q, "seed": args.seed, "trace": args.trace}

        if args.trace == 0:
            setup = measure_setup()
            walls, probes = [], []
            for _ in range(max(1, round(args.seconds / workload.plan_seconds))):
                wall, probe, outcome = time_plan(plan, q, args.seed, expect)
                walls.append(wall)
                probes.append(probe)
                gate.add(outcome)
            metrics = end_to_end_metrics(walls, probes, setup)
            record["plan_seconds"] = walls
            record["probe_seconds"] = probes
            record["setup_seconds"] = setup
            traced_counts = {}
        else:
            untraced_wall, _, outcome = time_plan(plan, q, args.seed, expect)
            gate.add(outcome)
            with spans.traced(workloads.LAYERS) as tracer:
                traced_wall, _, traced_outcome = time_plan(plan, q, args.seed, expect)
            gate.add(traced_outcome)
            metrics = layer_metrics(workloads, tracer, traced_outcome, traced_wall, untraced_wall)
            traced_counts = {name: int(tracer.counts[name]) for name in workloads.TRACED_COUNTS}
            record["plan_seconds"] = {"untraced": untraced_wall, "traced": traced_wall}
            trace_file = STATE / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, "spans": tracer.to_json()}))
            record["trace_file"] = str(trace_file.relative_to(ROOT))

        ledger = Ledger(STATE / "ledger.json")
        base = f"{env['src_sha256'][:16]}/{args.workload}"
        seeded = f"{base}/seed={args.seed}"
        gate.compare(ledger.check(base, outcome.counts))
        gate.compare(ledger.check(seeded, outcome.seeded_counts))
        if traced_counts:
            seeded_names = workload.seeded_tracer_counts
            gate.compare(ledger.check(base + "/traced", {
                k: v for k, v in traced_counts.items() if k not in seeded_names
            }))
            gate.compare(ledger.check(seeded + "/traced", {
                k: v for k, v in traced_counts.items() if k in seeded_names
            }))
        ledger.save()
        env["loadavg_after"] = os.getloadavg()

    record.update(
        env=env,
        failures=gate.failures,
        verdicts=outcome.verdicts,
        counts={**outcome.counts, **outcome.seeded_counts, **traced_counts},
        data=outcome.data,
    )
    for failure in gate.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(walls, probes, setup) -> dict:
    return {
        "wall_norm": (statistics.median(w / p for w, p in zip(walls, probes)), "probe"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(workloads, tracer, outcome, traced_wall, untraced_wall) -> dict:
    self_s = tracer.self_times()
    metrics = {
        f"{name}_s": (self_s.get(name, 0.0), "s") for _, _, name, _ in workloads.LAYERS
    }
    for name in workloads.TRACED_COUNTS:
        metrics[name] = (int(tracer.counts[name]), "count")
    metrics["construction.table_bytes"] = (int(tracer.counts["construction.table_bytes"]), "bytes")
    refine_s = self_s.get("coherent.wl_close", 0.0) + self_s.get("coherent.one_point_extension", 0.0)
    recolorings = tracer.counts["coherent.pair_recolorings"]
    metrics["coherent.pair_recolorings_per_s"] = (recolorings / refine_s if refine_s else 0.0, "1/s")
    for check in workloads.SUITE_CHECKS:
        metrics[f"suite.check.{check}_s"] = (float(outcome.check_timings.get(check, 0.0)), "s")
    metrics["plan.wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (traced_wall - tracer.top_level_seconds(), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
