"""Benchmark of record for mimo_d2d.

    python3 perfbench/run.py --workload campaign|joint-sca|mc-validate \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. One process runs one drop after another (one
client, closed loop, no concurrency) with BLAS pinned to one thread, for
about --seconds seconds, and checks every output. The last line of standard
output is the JSON result; the lines before it give each metric with its
unit and sample count, the failure share and the build stamp.

--trace 0 reports the end-to-end metrics. --trace 1 runs every drop twice,
untraced and then with spans recorded at the layer boundaries, and reports
the per-layer metrics, the span coverage and the tracing overhead. The two
passes must agree bit for bit. See perfbench/README.md.
"""

import os

# Pinned before numpy loads: on a 2-vCPU machine, competing OpenBLAS thread
# pools turned a 0.25 ms solve into 109 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = 3


def _use_checkout_sources():
    """Make mimo_d2d import from this checkout's sources, never from elsewhere."""
    if not (SRC / "mimo_d2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mimo_d2d sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _stamp():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _quantiles(values):
    """(median, 90th percentile) by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[-1]


def _setup(name, seed, scratch, scale="reference", traced=contextlib.nullcontext):
    """Import, an unchecked warm-up drop at warm scale, then the scenario
    builds (the timed drops check every output)."""
    import workloads
    cls = workloads.WORKLOADS[name]
    cls(seed, scratch, "warm").drop(0, contextlib.nullcontext)
    with traced():
        return cls(seed, scratch, scale)


def _setup_seconds(name, seed):
    """Median wall time from spawning a fresh interpreter until it has run
    the set-up and is ready for its first timed drop."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", name, "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode:
            sys.exit(f"perfbench: set-up probe failed ({child.returncode}): {line!r}")
    return statistics.median(times)


def run(name, seed, seconds, trace, scratch, scale="reference"):
    """Run one workload; returns (result dict, report lines)."""
    full = scale == "reference"
    setup_s = _setup_seconds(name, seed) if full and not trace else 0.0
    import mimo_d2d
    import spans
    import workloads
    tracer = spans.Tracer(mimo_d2d)
    workload = _setup(name, seed, scratch, scale,
                      tracer.installed if trace else contextlib.nullcontext)
    reference = {}
    if seed == DEFAULT_SEED and full:
        reference = json.loads((HERE / "reference.json").read_text())[name]

    plain, traced, counts, covered = [], [], [], 0.0
    start = time.perf_counter()
    for i in range(workloads.MAX_DROPS):
        if i and time.perf_counter() - start >= seconds:
            break
        plain.append(workload.drop(i, contextlib.nullcontext))
        if trace:
            mark = tracer.mark()
            traced.append(workload.drop(i, tracer.installed))
            covered += tracer.root_seconds(mark)
            counts.append(spans.drop_counts(tracer, mark, tracer.mark()))
            for op in plain[-1].ops:
                if traced[-1].fingerprint.get(op) != plain[-1].fingerprint.get(op):
                    plain[-1].fail(op, "traced pass differs from the untraced pass")

    lines = [f"# perfbench {name} seed={seed} seconds={seconds} trace={trace} "
             f"drops={len(plain)}", "# env " + json.dumps(_stamp())]
    for i, d in enumerate(plain):
        for key, want in reference.get(str(i), {}).items():
            got = d.values.get(key)
            abs_tol, rel_tol = workload.tolerance(key)
            if got is None or abs(got - want) > abs_tol + rel_tol * abs(want):
                d.fail(key, f"{key} = {got!r}, reference {want!r}")
        if trace:
            lines.append(f"# counts drop {i} " + json.dumps({**counts[i], "values": d.values}))
        for message in d.messages:
            lines.append(f"# FAILED drop {i} {message}")
    attempted = sum(len(d.seconds) for d in plain)
    failed = sum(len(d.failed) for d in plain)

    def case_seconds(drops):
        if workload.oracle_cases:
            return [s for d in drops for s in d.seconds]
        return [d.wall for d in drops]

    walls, cases = [d.wall for d in plain], case_seconds(plain)
    samples = {}
    if trace:
        metrics = spans.layer_metrics(
            tracer, len(traced), [d.wall for d in traced], walls,
            case_seconds(traced), cases, covered)
    else:
        drop_p50, drop_tail = _quantiles(walls)
        case_p50, case_tail = _quantiles(cases)
        metrics = {("drop_s.p50", "s"): drop_p50, ("drop_s.tail", "s"): drop_tail,
                   ("case_s.p50", "s"): case_p50, ("case_s.tail", "s"): case_tail,
                   ("setup_s", "s"): setup_s,
                   ("peak_rss_mb", "MB"):
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        samples = {"drop_s.p50": len(walls), "drop_s.tail": len(walls),
                   "case_s.p50": len(cases), "case_s.tail": len(cases),
                   "setup_s": SETUP_PROBES}
    for (key, unit), value in metrics.items():
        n = f" (n={samples[key]})" if key in samples else ""
        lines.append(f"{key} = {value:.6g} {unit}{n}")
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for (k, u), v in metrics.items()}}
    return result, lines


def selftest(scratch):
    """Every workload at desk scale, one drop, both trace modes; the metric
    names must match BENCHMARK.json and every check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, lines = run(w["name"], DEFAULT_SEED, 0, trace, scratch, scale="desk")
            got = set(result["metrics"]) - ({"setup_s"} if trace == 0 else set())
            want = names[trace] - ({"setup_s"} if trace == 0 else set())
            if got != want or not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: metrics {sorted(got ^ want)}, "
                                f"correct={result['correct']}\n" + "\n".join(lines))
    print("\n".join(problems) or "selftest ok")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("campaign", "joint-sca", "mc-validate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="desk-scale run of every workload, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _use_checkout_sources()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            _setup(args.workload, args.seed, scratch)
            print("ready", flush=True)
            return 0
        if args.selftest:
            return selftest(scratch)
        result, lines = run(args.workload, args.seed, args.seconds, args.trace, scratch)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
