#!/usr/bin/env python3
"""Benchmark credaltrees end to end, or layer by layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload check-synth --seed 1 --seconds 20 --trace 0

Each workload runs in its own process, from one closed-loop client without
threads: the next request is sent when the previous one has returned.  A
request is one call into a public entry point (``cli.run``,
``check_subtree_perfect`` or ``fuzz_equivalence``), timed from outside, and
its output is checked against a reference.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without --workload, every workload runs in turn, each in a child process.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json), scaled to a
reference host speed that a fixed yardstick measures throughout the run
(see Yardstick).  --trace 1 runs a fixed list of requests, each once
untraced and once with boundary wrappers installed (spans.py), and reports
per-layer calls, total and self time, boundary counters and the tracing
overhead, as measured; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = workloads.ROOT / "src"
OUT = HERE / "out"

SETUPS = 25  # setup_s is the median of this many imports plus input builds
WARMUP_S = 3.0  # untimed requests first, so the heap has grown before timing
MAX_FAILURES_SHOWN = 20

# The host's speed drifts by up to 90% for seconds to minutes at a time,
# and CPU time tracks wall time, so neither clock alone gives steady
# figures.  A fixed stdlib-only yardstick runs every YARDSTICK_EVERY_S of
# the timed phases.  Each timed request or set-up is scaled by REFERENCE_S
# over the yardstick's time within YARDSTICK_NEAR_S of it
# (Yardstick.scale): it reads as on a host where one yardstick run takes
# REFERENCE_S.  The yardstick calls no credaltrees code, so a change to the
# program moves the figures and never the scale.
YARDSTICK_EVERY_S = 0.1
YARDSTICK_NEAR_S = 1.0
REFERENCE_S = 2.5e-3

# The fixed request list of a traced run: this many requests from the start.
TRACE_REQUESTS = {"corpus-cli": 260, "check-synth": 7, "fuzz-mixed": 140}

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load():
    """Import credaltrees afresh from this checkout's src/ and return it."""
    for name in [m for m in sys.modules if m.split(".")[0] == "credaltrees"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("credaltrees")
    importlib.import_module("credaltrees.cli")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"credaltrees was imported from {pkg.__file__}, not {SRC}")
    return pkg


def yardstick() -> tuple:
    """Fixed work in the style of the program, 2-5 ms on a shared 2.1 GHz
    Xeon: Fraction arithmetic and comparisons, and building and sorting
    tuples.  Of the kernels tried, it slows down most like the workloads
    (see perfbench/README.md)."""
    best, seen = Fraction(0), {}
    for i in range(1, 150):
        x = Fraction(i, 7 + i % 5) - Fraction(1, i)
        seen[x] = seen.get(x, 0) + 1
        y = x * Fraction(3, 4) + Fraction(1, 8)
        if y > best:
            best = y
    rows = sorted((i * 7919 % 1000, str(i), (i, i + 1)) for i in range(1800))
    return best, len(seen), rows[-1][1]


def trimmed_mean(values: list[float]) -> float:
    """The mean of the middle 80% of *values*."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Yardstick:
    """Runs the yardstick from a timer signal every YARDSTICK_EVERY_S, inside
    requests too, so the host's speed is sampled evenly in time."""

    expected = yardstick()

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.lengths: list[float] = []  # of each _tick, bookkeeping included
        self.wrong: list = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        result = yardstick()
        taken = time.perf_counter() - start
        if result != self.expected:
            self.wrong.append(result)
        self.starts.append(start)
        self.times.append(taken)
        self.lengths.append(time.perf_counter() - start)

    def __enter__(self) -> "Yardstick":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_EVERY_S, YARDSTICK_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:
            self._tick()
        if self.wrong:
            raise AssertionError(f"yardstick gave {self.wrong[0]}, not {self.expected}")

    def _between(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_right(self.starts, end))

    def without(self, start: float, end: float) -> float:
        """The time from *start* to *end*, less the yardstick runs that
        started in it.  The signal handler runs in this thread, so each of
        them also ended in it."""
        lo, hi = self._between(start, end)
        return end - start - sum(self.lengths[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured from *start* to *end* into
        reference time: REFERENCE_S over the trimmed mean of the yardstick
        runs within YARDSTICK_NEAR_S of that span.  A mean, not a median:
        the host switches between a fast and a slow state, and a mean grows
        with the share of time spent slow, as the program's times do."""
        lo, hi = self._between(start - YARDSTICK_NEAR_S, end + YARDSTICK_NEAR_S)
        return REFERENCE_S / trimmed_mean(self.times[lo:hi] or self.times)


def setup(workload: str, seed: int):
    """Import plus input construction, SETUPS times; the last result is used.

    Returns the package, the requests, and the median set-up time in
    seconds, raw and scaled to the reference host speed.
    """
    spans = []
    with Yardstick() as stick:
        for _ in range(SETUPS):
            gc.collect()  # the previous set-up's modules, so they do not pile up
            start = time.perf_counter()
            pkg = load()
            requests = workloads.WORKLOADS[workload](pkg, seed)
            spans.append((start, time.perf_counter()))
    raw = [stick.without(*span) for span in spans]
    scaled = [t * stick.scale(*span) for t, span in zip(raw, spans)]
    return pkg, requests, statistics.median(raw), statistics.median(scaled)


def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * percent // 100) - 1)]


def per_pass(latencies: list[float], size: int, percent: int) -> float:
    """The median over passes of the percentile of each pass of *size*
    requests.

    A run makes one pass or several, as the host's speed allows.  Pooled
    over passes, a percentile would move with their number: the 90th of two
    check-synth passes is the faster of two pointwise checks, of one pass
    the only one.  The median, not the mean, so that a spell of disk or
    cache contention, which the yardstick does not feel, does not move the
    figure unless it lasts half the run."""
    return statistics.median(percentile(latencies[i:i + size], percent)
                             for i in range(0, len(latencies), size))


class Loop:
    """Sends requests one after another and checks every output."""

    def __init__(self, requests):
        self.requests = requests
        self.spans: list[tuple[float, float]] = []  # start and end of each request
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def send(self, index: int) -> None:
        request = self.requests[index % len(self.requests)]
        start = time.perf_counter()
        try:
            output = request.call()
        except Exception as exc:  # a raising request is a failed request
            self.spans.append((start, time.perf_counter()))
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(f"{request.label}: raised {exc!r} at "
                                 f"{Path(where.filename).name}:{where.lineno}")
            return
        self.spans.append((start, time.perf_counter()))
        problem = request.check(output)
        if problem is not None:
            self.failures.append(problem)

    def for_seconds(self, seconds: float) -> int:
        """Whole passes over the request list, so every run measures the same
        mix, ending at the pass boundary nearest to *seconds*; at least one
        pass.  Returns the number of passes."""
        start = time.perf_counter()
        index = passes = 0
        while True:
            self.send(index)
            index += 1
            if index % len(self.requests) == 0:
                passes += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / passes / 2 >= seconds:
                    return passes


def warm_up(requests) -> None:
    """Untimed requests for WARMUP_S; their failures are counted again later."""
    loop, deadline = Loop(requests), time.perf_counter() + WARMUP_S
    index = 0
    while True:
        loop.send(index)
        index += 1
        if time.perf_counter() >= deadline:
            return


def end_to_end(workload: str, seed: int, seconds: float):
    _, requests, raw_setup_s, setup_s = setup(workload, seed)
    warm_up(requests)
    loop = Loop(requests)
    with Yardstick() as stick:
        passes = loop.for_seconds(seconds)
    lat = [stick.without(*span) for span in loop.spans]
    scaled = [t * stick.scale(*span) for t, span in zip(lat, loop.spans)]
    size = len(requests)
    raw = {
        "latency_p50_ms": per_pass(lat, size, 50) * 1e3,
        "latency_p90_ms": per_pass(lat, size, 90) * 1e3,
        "throughput_rps": len(lat) / sum(lat),
        "setup_s": raw_setup_s,
    }
    values = {
        "latency_p50_ms": per_pass(scaled, size, 50) * 1e3,
        "latency_p90_ms": per_pass(scaled, size, 90) * 1e3,
        "throughput_rps": len(scaled) / sum(scaled),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# {workload} seed {seed}: {len(lat)} requests in {passes} passes, "
          f"error_ratio {len(loop.failures) / len(lat):.6f}")
    low, high = percentile(stick.times, 10), percentile(stick.times, 90)
    print(f"# yardstick: {trimmed_mean(stick.times) * 1e3:.4f} ms over {len(stick.times)} runs "
          f"(10th-90th percentile {low * 1e3:.3f}-{high * 1e3:.3f}), "
          f"reference {REFERENCE_S * 1e3:g} ms; "
          "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    return dict(END_TO_END), values, [loop]


def traced(workload: str, seed: int):
    pkg, requests, _, _ = setup(workload, seed)
    warm_up(requests)
    count = TRACE_REQUESTS[workload]
    tracer = tracing.Tracer()
    plain, loop = Loop(requests), Loop(requests)

    def send_traced(index: int) -> None:
        tracer.request = index
        tracer.install(pkg)
        try:
            loop.send(index)
        finally:
            tracer.uninstall()

    # Each request runs untraced and traced back to back, alternating which
    # goes first, so the host's drifting speed cancels out of the overhead.
    for index in range(count):
        if index % 2:
            send_traced(index)
            plain.send(index)
        else:
            plain.send(index)
            send_traced(index)

    values = tracer.layer_metrics()
    untraced, traced_total = sum(plain.latencies), sum(loop.latencies)
    values["trace.requests"] = count
    values["trace.untraced_ms"] = untraced * 1e3
    values["trace.traced_ms"] = traced_total * 1e3
    values["trace.overhead_pct"] = (traced_total / untraced - 1) * 100
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.tsv"
    tracer.write(path)
    print(f"# {workload} seed {seed}: {count} traced requests, "
          f"{len(tracer.spans)} spans written to {path.relative_to(workloads.ROOT)}")
    return tracing.metric_units(), values, [plain, loop]


def report(units: dict, values: dict, loops: list) -> None:
    attempted = sum(len(loop.spans) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for line in failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {line}")
    if len(failures) > MAX_FAILURES_SHOWN:
        print(f"# ... and {len(failures) - MAX_FAILURES_SHOWN} more failures")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))


def run_all(args) -> int:
    """Every workload in turn, each in its own child process."""
    code = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    missing = [p for p in (SRC / "credaltrees", workloads.PROBLEMS) if not p.is_dir()]
    if missing:
        print(f"error: not a credaltrees checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.trace:
        units, values, loops = traced(args.workload, args.seed)
    else:
        units, values, loops = end_to_end(args.workload, args.seed, args.seconds)
    report(units, values, loops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
