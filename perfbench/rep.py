"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py SPEC_JSON

run.py writes the spec and starts this script once per pass, so that the
package's lru_caches and its process-global prime sieve start cold every
time.  The pass either times the package's import (spec kind "import"),
calls the CLI (kind "cli"), or calls solve() once per n and times each
call (kind "solve").  It writes the records as a
headerless n,method,x1,x2,x3,status,hard CSV and its measurements to
result.json, both in the spec's out_dir.  With "trace" set it records
spans around the package's public functions and adds per-layer metrics.
A SpeedSampler measures the machine's speed throughout the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics


class SpeedSampler:
    """Times a short fixed loop every PERIOD_S of wall time while a pass runs.

    On a shared host the machine's speed can drift by a third or more
    within seconds, in process CPU time as much as in wall time.  run.py
    scales each pass's times by these samples.  The loop runs in a SIGALRM handler
    in this process; `spent` is the wall time the handler took, which the
    timed regions subtract.  Forked pool workers do not inherit the timer.
    """

    PERIOD_S = 0.2
    ITERATIONS = 20_000

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.ITERATIONS):
            total += i % 7
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def ns_per_iteration(self) -> list[float]:
        return [t / self.ITERATIONS * 1e9 for t in self.samples]


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _csv_row(rec) -> str:
    fields = (rec.n, rec.method.value if rec.method else "", rec.x1, rec.x2, rec.x3)
    cells = ["" if f is None else str(f) for f in fields]
    return ",".join(cells + [rec.status.value, "true" if rec.hard else "false"]) + "\n"


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_dir = Path(spec["out_dir"])
    sys.path.insert(0, spec["src"])
    if spec["kind"] == "import":
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            import fourovern  # noqa: F401
            wall = time.perf_counter() - t0 - sampler.spent
        result = {"wall_s": wall, "sample_ns": sampler.ns_per_iteration()}
        (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0
    from fourovern import cli, sweep

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    result: dict = {}
    sampler = SpeedSampler()
    if spec["kind"] == "cli":
        output = Path(spec["report"])
        parent0, child0 = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
        with contextlib.redirect_stdout(io.StringIO()), sampler:
            t0 = time.perf_counter()
            code = cli.cli_main(spec["argv"])
            wall = time.perf_counter() - t0 - sampler.spent
        result["parent_cpu_s"] = _cpu_s(resource.RUSAGE_SELF) - parent0 - sampler.spent
        result["pool_child_cpu_s"] = _cpu_s(resource.RUSAGE_CHILDREN) - child0
        if code != 0:
            print(f"fourovern {' '.join(spec['argv'])} exited with {code}", file=sys.stderr)
            return 1
    else:
        if "ns_file" in spec:
            ns = json.loads(Path(spec["ns_file"]).read_text(encoding="utf-8"))
        else:
            ns = range(spec["start"], spec["stop"])
        solve = sweep.solve
        records = []
        append = records.append
        with sampler:
            if tracer is None:
                # per call: latency, and how many speed samples preceded it
                lat_ns, marks = [], []
                samples = sampler.samples
                clock = time.perf_counter_ns
                t0 = time.perf_counter()
                for n in ns:
                    mark, spent, c0 = len(samples), sampler.spent, clock()
                    append(solve(n))
                    lat_ns.append(clock() - c0 - round((sampler.spent - spent) * 1e9))
                    marks.append(mark)
                wall = time.perf_counter() - t0 - sampler.spent
                result["solve_ns"] = lat_ns
                result["solve_mark"] = marks
            else:
                t0 = time.perf_counter()
                for n in ns:
                    append(solve(n))
                wall = time.perf_counter() - t0 - sampler.spent
        output = out_dir / "records.csv"
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(_csv_row(rec) for rec in records)
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["wall_s"] = wall
    result["sample_ns"] = sampler.ns_per_iteration()
    result["peak_rss_mb"] = max(ru, ru_children) / 1024
    result["output"] = str(output)
    result["output_sha256"] = hashlib.sha256(output.read_bytes()).hexdigest()
    if tracer is not None:
        # spans include the sampler's handler time, so coverage counts it too
        result["layers"] = layer_metrics(tracer, wall + sampler.spent)
        tracer.write(Path(spec["spans_file"]))
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
