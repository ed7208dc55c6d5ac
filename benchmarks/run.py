"""Closed-loop benchmark of skewseries.

Run from the repository root:

    python3 benchmarks/run.py --workload ring_zoo --seed 1 --seconds 10 --trace 0

One client in one process and one thread submits each op only after the
previous one returned.  The loop runs whole passes over the workload's op list,
at least two, until ``--seconds`` have gone by, so every run times the same mix
of ops.
Every output is checked (see workloads.py), and an op whose exact work counts
or output digest differ from its first run in the process counts as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass, which runs after one untraced pass of the same ops in
a process of its own.  The last line of output is one JSON object; the command
exits nonzero when any op failed.  See NOTES.md.
"""

import time


def kernel_once() -> float:
    """Seconds taken by a fixed pure-Python kernel; its time follows the
    machine's momentary speed."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(5000):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + i
        acc += len(table) & 3
    return time.perf_counter() - t0


def kernel_s() -> float:
    """The median of three kernel runs."""
    return sorted(kernel_once() for _ in range(3))[1]


# The speed of a shared host can swing by 1.8x for seconds at a time.  Every
# timed interval is therefore scaled by REFERENCE_KERNEL_S over the mean time
# of the kernel: run just before it, just after it, and every SAMPLE_S seconds
# while it runs (from a SIGALRM handler, whose time is taken out of the
# interval).  Times read as if the kernel took REFERENCE_KERNEL_S throughout.
# Raw times are printed as well.
REFERENCE_KERNEL_S = 0.001
SAMPLE_S = 0.05
KERNEL_AT_START = kernel_s()
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchout"
SETUP_PROBES = 3
WORKLOADS = ("ring_zoo", "property_checks", "series_harness", "long_series")


def scaled(seconds: float, kernels: list) -> float:
    return seconds * REFERENCE_KERNEL_S * len(kernels) / sum(kernels)


def timed_call(fn):
    """(result or None, traceback or None, raw seconds, scaled seconds) of fn()."""
    kernels = [kernel_s()]
    sampling = [0.0]

    def sample(signum, frame):
        t0 = time.perf_counter()
        kernels.append(kernel_once())
        sampling[0] += time.perf_counter() - t0

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t0 = time.perf_counter()
    result, error = None, None
    try:
        result = fn()
    except Exception:  # an op that raises is a failed op
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - sampling[0]
    kernels.append(kernel_s())
    return result, error, elapsed, scaled(elapsed, kernels)


def load_skewseries():
    """Import skewseries from this checkout's sources, and nowhere else."""
    init = SRC / "skewseries" / "__init__.py"
    if not init.is_file():
        sys.exit(f"benchmark: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import skewseries
    if Path(skewseries.__file__).resolve() != init.resolve():
        sys.exit(f"benchmark: imported skewseries from {skewseries.__file__}, not {init}")
    import workloads
    return workloads


def setup(workload: str, seed: int, workdir: Path):
    workloads = load_skewseries()
    return workloads, workloads.build(workload, seed, workdir)


def probe_setup(args) -> tuple[float, float]:
    """(raw, scaled) set-up time of a fresh process: import and build inputs."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, scaled_s = out.stdout.split()[-2:]
    return float(raw), float(scaled_s)


def run_pass(ops, reference: dict, failures: list, call=None):
    """Run every op once; return (raw seconds, scaled seconds, outcome) lists.

    ``reference`` holds each op's counts and digest from its first run; a later
    run that differs is a failure.
    """
    raw, scaled_s, outcomes = [], [], []
    for index, op in enumerate(ops):
        result, error, elapsed, elapsed_scaled = timed_call(
            (lambda op=op: call(op.key, op.call)) if call else op.call)
        raw.append(elapsed)
        scaled_s.append(elapsed_scaled)
        if error is None:
            try:
                outcome = op.verify(result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"{op.key}: raised\n{error}")
            outcomes.append(None)
            continue
        first = reference.setdefault(index, (outcome.counts, outcome.digest))
        if not outcome.ok:
            failures.append(f"{op.key}: {outcome.detail}")
        elif first != (outcome.counts, outcome.digest):
            outcome.ok = False
            failures.append(f"{op.key}: counts or digest differ from the first run "
                            f"{first} -> {(outcome.counts, outcome.digest)}")
        outcomes.append(outcome)
    return raw, scaled_s, outcomes


def pass_summary(workloads, ops, outcomes, workload: str, seed: int, failures: list):
    """Print the deterministic counts of a pass; check its library digests."""
    totals = {key: 0 for key in workloads.COUNT_KEYS}
    digest = hashlib.sha256()
    for op, outcome in zip(ops, outcomes):
        if outcome is None:
            continue
        for key in totals:
            totals[key] += outcome.counts.get(key, 0)
        if not isinstance(op, workloads.CliOp):
            digest.update(outcome.digest.encode())
    print("counts per pass: " + json.dumps(totals, sort_keys=True))
    library = digest.hexdigest()
    print(f"library output digest per pass: {library}")
    want = workloads.EXPECTED["library_digests"].get(workload, {}).get(str(seed))
    if want is not None and want != library:
        failures.append(f"library output digest {library} != stored {want} for seed {seed}")


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  It moves smoothly when ops near the quantile trade
    places between runs, where a single order statistic jumps."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # x_i weighs the Beta(a, b) mass on [i/n, (i+1)/n], by Simpson's rule.
    steps = 8
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(seconds: list) -> dict:
    ms = [x * 1000 for x in seconds]
    return {"ops_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
            "op_p50_ms": (hd_quantile(ms, 0.5), "ms"),
            "op_p90_ms": (hd_quantile(ms, 0.9), "ms")}


def print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, (value, unit) in metrics.items():
        print(f"{prefix}{name} {value:.6g} {unit}")


def result_line(failures, attempted, metrics) -> int:
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if failures else 0


def timed_run(args, workdir: Path) -> int:
    workloads, ops = setup(args.workload, args.seed, workdir)
    own_setup = time.perf_counter() - T0
    # Fresh processes set up again after this one has compiled the byte code.
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    print(f"setup in this process {own_setup:.3f} s; in fresh processes "
          f"{' '.join(f'{r:.3f}' for r, _ in setups)} s raw")

    reference, failures, raw, scaled_s = {}, [], [], []
    passes, start = 0, time.perf_counter()
    while passes < 2 or time.perf_counter() - start < args.seconds:
        pass_raw, pass_scaled, outcomes = run_pass(ops, reference, failures)
        if passes == 0:
            pass_summary(workloads, ops, outcomes, args.workload, args.seed, failures)
        raw += pass_raw
        scaled_s += pass_scaled
        passes += 1

    print(f"workload {args.workload} seed {args.seed}: {len(raw)} op samples in "
          f"{passes} passes of {len(ops)} ops, {sum(raw):.3f} s inside ops")
    print_metrics(latency_metrics(raw), prefix="raw ")
    metrics = latency_metrics(scaled_s)
    metrics["ok_ratio"] = (1 - len(failures) / len(raw), "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB")
    metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
    print_metrics(metrics)
    return result_line(failures, len(raw), metrics)


def traced_run(args, workdir: Path) -> int:
    workloads, ops = setup(args.workload, args.seed, workdir)
    import layertrace

    reference, failures = {}, []
    _, untraced, outcomes = run_pass(ops, reference, failures)
    pass_summary(workloads, ops, outcomes, args.workload, args.seed, failures)

    tracer = layertrace.Tracer()
    tracer.install(also=[workloads])
    gallery_before = tracer.gallery_cache.cache_info()

    def traced_call(key, fn):
        tracer.on = True
        try:
            return tracer.call_op(key, fn)
        finally:
            tracer.on = False

    _, traced, outcomes = run_pass(ops, reference, failures, call=traced_call)
    metrics = tracer.metrics(gallery_before)
    metrics["cli.report_bytes"] = (
        sum(o.counts.get("report_bytes", 0) for o in outcomes if o is not None), "bytes")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")

    dump = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(dump)
    print(f"workload {args.workload} seed {args.seed}: one untraced and one traced "
          f"pass of {len(ops)} ops; spans written to {dump.relative_to(ROOT)}")
    for note in layertrace.NOTES:
        print(f"note: {note}")
    print_metrics(metrics)
    return result_line(failures, 2 * len(ops), metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the raw and the scaled "
                             "seconds since process start")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_probe:
            setup(args.workload, args.seed, Path(tmp))
            elapsed = time.perf_counter() - T0
            print(f"{elapsed:.9f} {scaled(elapsed, [KERNEL_AT_START, kernel_s()]):.9f}")
            return 0
        if args.trace:
            return traced_run(args, Path(tmp))
        return timed_run(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
