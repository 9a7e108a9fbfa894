"""fourovern benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Every pass of the workload runs in a fresh interpreter (perfbench/rep.py)
so that no cache is warm from an earlier pass.  Passes repeat until S
seconds have been measured.  Every time is scaled to a reference machine
speed measured during the pass (rep.SpeedSampler).

With --trace 0 the last line of output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from passes that record spans (alternating with plain passes, which give
the tracing overhead).  All outputs pass the checks in gates.py before a
result is printed; a wrong output makes the command exit with 1, and a
missing package, a failed pass or one that overruns its ceiling with 2.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import isqrt
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

RUN_DEADLINE_S = 165  # the whole command, so that it ends within 180 s
PASS_CEILING_S = 90  # one pass; an unbounded oracle scan fails here
SETUP_SAMPLES = 9
MIN_TRACE_COVERAGE = 0.95
# Every reported time is scaled to a machine on which one iteration of the
# loop in rep.SpeedSampler takes this long (see README.md, "Speed scaling").
REFERENCE_PROBE_NS = 70.0

WINDOW_SIZE = 2000
HARD_LIMIT = 10**6
METHOD_TAGS = ("Even", "Mod3Is2", "Mod3Is0", "Mod4Is3", "PrimeLift", "Prime13Mod24",
               "Theorem4", "Theorem3Search", "Oracle", "NoDistinctSolution", "none")


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


class Clock:
    def __init__(self) -> None:
        self.t0 = time.monotonic()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.t0)


def run_child(argv: list[str], clock: Clock) -> None:
    """Run argv to completion within its ceiling.

    The child leads its own process group, so a pass that overruns is
    killed together with any pool workers it started.
    """
    timeout = min(PASS_CEILING_S, clock.remaining())
    if timeout <= 0:
        raise BenchError("run deadline reached before the next pass")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded its {timeout:.0f} s ceiling: {argv[2:]}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}: {err.strip()}")


def setup_seconds(work: Path, clock: Clock) -> list[float]:
    """Import time of the package in fresh interpreters, scaled, after one
    untimed import that writes the bytecode cache."""
    spec = {"kind": "import"}
    run_pass(spec, work / "import-warmup", clock)
    return [p["wall_s"] * scale(p)
            for p in (run_pass(spec, work / f"import-{i}", clock) for i in range(SETUP_SAMPLES))]


class Workload:
    """Inputs, passes and output checks of one named workload.

    main is the pass whose wall time gives throughput; latency, when set,
    is a separate solve() pass that gives per-call latency.
    """

    latency: dict | None = None

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work

    def prepare(self, clock: Clock) -> None:
        pass

    def before_pass(self, out_dir: Path) -> None:
        pass

    def check(self, rows: list[list[str]], sha256: str) -> list[int]:
        """Gate a main pass's records; return the n that reported Error."""
        raise NotImplementedError


class SweepWorkload(Workload):
    first, end, workers = 3, 100_000, 1
    attempted = 99_998

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.latency = {"kind": "solve", "start": self.first, "stop": self.end + 1}

    def main(self, out_dir: Path) -> dict:
        argv = ["sweep", "3", str(self.end), "--workers", str(self.workers),
                "--checkpoint", str(out_dir / "checkpoint.jsonl"),
                "--report", str(out_dir / "report.csv")]
        return {"kind": "cli", "argv": argv, "report": str(out_dir / "report.csv")}

    def base_checkpoint_bytes(self) -> int:
        return 0

    def check(self, rows, sha256):
        if sha256 != gates.SWEEP_1E5_CSV_SHA256:
            raise gates.GateError(f"sweep report sha256 {sha256} differs from the pinned one")
        errors = gates.check_rows(rows, range(3, self.end + 1))
        return [n for n in errors if n >= self.first]


class ResumePoolWorkload(SweepWorkload):
    """Resume [3, 1e5] with two workers from a checkpoint of [3, 50000]."""

    first, workers = 50_001, 2
    attempted = 50_000

    def prepare(self, clock):
        self.base = self.work / "base.jsonl"
        spec = {"kind": "cli", "report": str(self.work / "base.csv"),
                "argv": ["sweep", "3", str(self.first - 1), "--checkpoint", str(self.base),
                         "--report", str(self.work / "base.csv")]}
        run_pass(spec, self.work / "prepare", clock)

    def before_pass(self, out_dir):
        shutil.copyfile(self.base, out_dir / "checkpoint.jsonl")

    def base_checkpoint_bytes(self):
        return self.base.stat().st_size


class WindowWorkload(Workload):
    """solve(n) for WINDOW_SIZE consecutive n from an offset near 1e12 set by the seed."""

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.start = 10**12 + (seed % 10**6) * WINDOW_SIZE
        self.stop = self.start + WINDOW_SIZE
        self.attempted = WINDOW_SIZE

    def main(self, out_dir):
        return {"kind": "solve", "start": self.start, "stop": self.stop}

    def check(self, rows, sha256):
        primes = gates.primes_up_to(isqrt(self.stop) + 1)
        return gates.check_rows(rows, range(self.start, self.stop),
                                hard_of=lambda n: gates.is_hard(n, primes))


class HardClassWorkload(Workload):
    """solve(n) for every n <= 1e6 whose prime factors are all 1 (mod 24)."""

    def prepare(self, clock):
        self.ns = gates.hard_set(HARD_LIMIT)
        self.attempted = len(self.ns)
        self.ns_file = self.work / "hard_ns.json"
        self.ns_file.write_text(json.dumps(self.ns), encoding="utf-8")

    def main(self, out_dir):
        return {"kind": "solve", "ns_file": str(self.ns_file)}

    def check(self, rows, sha256):
        return gates.check_rows(rows, self.ns, hard_of=lambda n: True)


WORKLOADS = {
    "sweep_1e5": SweepWorkload,
    "sweep_resume_pool": ResumePoolWorkload,
    "window_1e12": WindowWorkload,
    "hard_class_1e6": HardClassWorkload,
}


def run_pass(spec: dict, out_dir: Path, clock: Clock, traced: bool = False,
             spans_file: Path | None = None) -> dict:
    """Run one pass of spec in a fresh interpreter; return its result.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, src=str(SRC), out_dir=str(out_dir), trace=traced,
                spans_file=str(spans_file) if spans_file else None)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    run_child([sys.executable, str(HERE / "rep.py"), str(spec_path)], clock)
    return json.loads((out_dir / "result.json").read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "seed": seed}


def measure(workload: Workload, seconds: float, trace: bool, clock: Clock,
            spans_file: Path) -> dict[str, list[dict]]:
    """Run rounds of passes until `seconds` have gone by; return the passes
    per phase, each with its output already checked against the first."""
    if trace:
        phases = {"main": False, "traced": True}
    else:
        phases = {"main": False}
        if workload.latency is not None:
            phases["latency"] = False
    passes: dict[str, list[dict]] = {phase: [] for phase in phases}
    t0 = time.monotonic()
    while not passes["main"] or time.monotonic() - t0 < seconds:
        for phase, traced in phases.items():
            out_dir = workload.work / f"{phase}-{len(passes[phase])}"
            spec = workload.latency if phase == "latency" else workload.main(out_dir)
            out_dir.mkdir(parents=True)
            if phase != "latency":
                workload.before_pass(out_dir)
            result = run_pass(spec, out_dir, clock, traced, spans_file)
            if phase != "latency":
                ck = out_dir / "checkpoint.jsonl"
                if ck.exists():
                    result["checkpoint_bytes"] = (ck.stat().st_size
                                                  - workload.base_checkpoint_bytes())
            first = passes[phase][0] if passes[phase] else None
            if first is not None:
                if result["output_sha256"] != first["output_sha256"]:
                    raise gates.GateError(f"{phase} pass {len(passes[phase])} output"
                                          " differs from the first pass")
                shutil.rmtree(out_dir)
            passes[phase].append(result)
    return passes


def scale(p: dict) -> float:
    """Factor that takes a pass's times to the reference machine speed.

    Medians, because a sample that the scheduler preempts reads several
    times too slow while costing the pass almost nothing.
    """
    return REFERENCE_PROBE_NS / statistics.median(p["sample_ns"])


def scaled_solve_ns(p: dict) -> list[float]:
    """A pass's solve() latencies, each scaled by the median of the four
    speed samples nearest the call: two before it and two after."""
    s = p["sample_ns"]
    local = [REFERENCE_PROBE_NS / statistics.median(s[max(k - 2, 0):k + 2])
             for k in range(len(s))]
    return [t * local[k] for t, k in zip(p["solve_ns"], p["solve_mark"])]


def scaled_median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] * scale(p) for p in passes)


def end_to_end(workload: Workload, passes, setup: list[float], errors: list[int]) -> dict:
    """Throughput over the summed wall time of the main passes, and latency
    percentiles over every solve() call timed in the run."""
    main = passes["main"]
    solve_ns = [t for p in passes.get("latency", main) for t in scaled_solve_ns(p)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_nps": (workload.attempted * len(main)
                           / sum(p["wall_s"] * scale(p) for p in main), "n/s"),
        "solve_p50_us": (statistics.median(solve_ns) / 1e3, "us"),
        "solve_p99_us": (statistics.quantiles(solve_ns, n=100)[98] / 1e3, "us"),
        "solved_frac": (1 - len(errors) / workload.attempted, "frac"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in main), "MB"),
    }


def per_layer(passes, rows: list[list[str]]) -> dict:
    main, traced = passes["main"], passes["traced"]
    metrics = {}
    for key in traced[0]["layers"]:
        if key.endswith("_calls"):
            unit, values = "count", [p["layers"][key] for p in traced]
        elif key.endswith("_frac"):
            unit, values = "frac", [p["layers"][key] for p in traced]
        else:
            unit, values = "s", [p["layers"][key] * scale(p) for p in traced]
        metrics[key] = (statistics.median(values), unit)
    coverage = metrics["trace_coverage_frac"][0]
    if coverage < MIN_TRACE_COVERAGE:
        raise BenchError(f"top-level spans cover only {coverage:.1%} of the traced wall time")
    metrics["sweep.checkpoint_bytes"] = (main[0].get("checkpoint_bytes", 0), "bytes")
    for key in ("parent_cpu_s", "pool_child_cpu_s"):
        metrics[f"sweep.{key}"] = (statistics.median(p.get(key, 0.0) * scale(p) for p in main), "s")
    counts = gates.method_counts(rows)
    unknown = set(counts) - set(METHOD_TAGS)
    if unknown:
        raise gates.GateError(f"unknown method tags {sorted(unknown)}")
    for tag in METHOD_TAGS:
        metrics[f"sweep.method_{tag}_count"] = (counts.get(tag, 0), "count")
    metrics["trace_overhead_frac"] = (
        scaled_median(traced, "wall_s") / scaled_median(main, "wall_s") - 1, "frac")
    return metrics


def check_outputs(workload: Workload, passes) -> tuple[list[list[str]], list[int]]:
    """Gate the first pass of every phase; return the main records and
    the n whose record is an Error."""
    main = passes["main"][0]
    rows = gates.read_rows(main["output"])
    errors = workload.check(rows, main["output_sha256"])
    if "latency" in passes:
        spec = workload.latency
        gates.check_rows(gates.read_rows(passes["latency"][0]["output"]),
                         range(spec["start"], spec["stop"]))
    if "traced" in passes and passes["traced"][0]["output_sha256"] != main["output_sha256"]:
        raise gates.GateError("tracing changed the records")
    return rows, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through run_child so that the running pass is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    clock = Clock()
    if not (SRC / "fourovern" / "__init__.py").is_file():
        print(f"error: no fourovern package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    spans_file = STATE / "spans" / f"{args.workload}.tsv"
    try:
        setup = [] if args.trace else setup_seconds(work, clock)
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare(clock)
        passes = measure(workload, args.seconds, bool(args.trace), clock, spans_file)
        rows, errors = check_outputs(workload, passes)
        metrics = (per_layer(passes, rows) if args.trace
                   else end_to_end(workload, passes, setup, errors))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except gates.GateError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Each distinct input counts once: every further pass recomputes the same
    # records (checked byte for byte), so the counts depend on the seed only,
    # not on how many passes fitted into the measured time.
    summary = {
        "correct": True,
        "attempted": workload.attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<18} {name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:<18} {'fail_frac':<40} {len(errors) / workload.attempted:>14.6g} frac")
    scales = [scale(p) for phase in passes.values() for p in phase]
    print(f"# passes: {', '.join(f'{k} {len(v)}' for k, v in passes.items())};"
          f" speed scale {min(scales):.3f}..{max(scales):.3f}")
    results = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(exist_ok=True)
    kept = {phase: [{k: v for k, v in p.items() if not k.startswith("solve_")}
                    for p in phase_passes]
            for phase, phase_passes in passes.items()}
    results.write_text(json.dumps({"env": env, "workload": args.workload, "summary": summary,
                                   "passes": kept}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
