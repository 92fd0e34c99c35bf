#!/usr/bin/env python3
"""Benchmark for circkrig: four workloads, end-to-end metrics, a traced run.

Run from the repository root; the package is imported from ``src``:

    python3 perfbench/run.py --workload fit-series --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a process of its own as one closed-loop client.
``--trace 0`` measures the end-to-end metrics BENCHMARK.json declares;
``--trace 1`` runs every op once untraced and once traced (alternating which
goes first) and reports the per-layer metrics, as means per op, plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit status is 0 only
when every output check passed.  Scratch files, results and span files go to
``.perfbench/`` under the repository root.
"""

import os
import sys

# BLAS threads are capped before numpy loads.  One thread, not one per CPU:
# on a 2-CPU machine shared with other jobs, two OpenBLAS threads made a
# 150-point series fit take a median 176 ms with outliers near 1 s, against
# 101 ms and at most 121 ms with one thread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fit-series", "fit-spline", "simulate", "verify")
# Fresh interpreters timed importing the package; setup_s is their median.
SETUP_SAMPLES = 5
SETUP_SNIPPET = ("import time; t0 = time.perf_counter(); "
                 "import circkrig, circkrig.cli; "
                 "print(time.perf_counter() - t0)")
# Ops keep running until a cycle of jobs ends, but never past this much
# wall time, so a run ends well inside three minutes.
MAX_LOOP_SECONDS = 120.0
# A run stops at this many failed ops; they are all listed with their cause.
MAX_FAILURES = 20


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup():
    """Median time to import circkrig and circkrig.cli in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "circkrig").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed, workload, n_ops):
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "circkrig_commit": _git_commit() or "unknown (not a git checkout)",
        "circkrig_src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_cap": BLAS_THREADS,
        "blas_thread_vars": BLAS_THREAD_VARS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "ops": n_ops,
    }


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_ops(workload, seconds, tracer, max_seconds=MAX_LOOP_SECONDS):
    """Closed loop over whole job cycles until ``seconds`` of op time.

    Without a tracer each op runs once.  With one, each op runs untraced and
    traced, alternating which goes first.  Returns the untraced latencies,
    the traced latencies, the failures and a log of (job, traced, ms).
    """
    plain, traced, failures, log = [], [], [], []
    start = time.perf_counter()
    for i, (job, cycle_end) in enumerate(workload.jobs()):
        passes = [False] if tracer is None else \
            [False, True] if i % 2 == 0 else [True, False]
        for with_trace in passes:
            workload.prepare(job)
            if with_trace:
                tracer.op_id += 1
                tracer.install()
            t0 = time.perf_counter()
            try:
                if with_trace:
                    with tracer.span("op"):
                        output = workload.run(job)
                else:
                    output = workload.run(job)
                error = None
            except (Exception, SystemExit) as exc:
                error = f"op raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall()
            (traced if with_trace else plain).append(elapsed)
            log.append([job.desc, with_trace, elapsed * 1e3])
            if error is None:
                try:
                    error = workload.check(job, output)
                except (Exception, SystemExit) as exc:
                    error = f"output check raised {type(exc).__name__}: {exc}"
            if with_trace:
                for key, value in workload.io_counts(job).items():
                    tracer.add(key, value)
            if error is not None:
                failures.append({"op": len(plain) + len(traced) - 1,
                                 "job": job.desc, "cause": error})
                if len(failures) >= MAX_FAILURES:
                    break
        busy = sum(plain) + sum(traced)
        wall = time.perf_counter() - start
        if (cycle_end and busy >= seconds) or wall >= max_seconds or \
                len(failures) >= MAX_FAILURES:
            break
    return plain, traced, failures, log


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("flops"):
        return "flop"
    if name.endswith(("bytes_max", "bytes_written")):
        return "B"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return {"ops_per_s": "1/s", "peak_rss_mb": "MB"}.get(name, "count")


def _declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import circkrig
    if Path(circkrig.__file__).resolve().parent != SRC / "circkrig":
        raise SystemExit(f"error: imported circkrig from {circkrig.__file__},"
                         f" not from {SRC}")
    import spans
    import workloads

    setup_s, setup_samples = measure_setup()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = spans.Tracer() if args.trace else None
        plain, traced, failures, log = run_ops(workload, args.seconds,
                                               tracer)
        run_failure = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   * 1024 / 1e6)

    attempted = len(plain) + len(traced)
    failed = len(failures)
    correct = failed == 0 and run_failure is None
    detail = {
        "ops": len(plain),
        "latency_p50_ms": statistics.median(plain) * 1e3,
        "latency_p90_ms": (_percentile(plain, 0.9) * 1e3
                           if len(plain) >= 100 else None),
        "latency_p90_note": (None if len(plain) >= 100 else
                             f"undefined: {len(plain)} ops, needs 100"),
        "fail_ratio": failed / attempted,
        "timed_wall_s": sum(plain),
        "op_log": log,
        "setup_samples_s": setup_samples,
        "failures": failures,
        "run_check": run_failure,
    }
    if args.trace:
        values = tracer.summary(len(traced))
        values["trace.overhead_ratio"] = sum(traced) / sum(plain) - 1.0
        detail["traced_wall_s"] = sum(traced)
        detail["absent_targets"] = tracer.absent
        detail["counter_errors"] = dict(tracer.counter_errors)
        detail["layer_self_share"] = {
            layer: values.get(f"{layer}.self_s", 0.0)
            / (sum(traced) / len(traced))
            for layer in (*spans.LAYERS, "op")}
        declared = _declared("per_layer")
    else:
        values = {
            "latency_p50_ms": detail["latency_p50_ms"],
            "ops_per_s": len(plain) / sum(plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        declared = _declared("end_to_end")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}

    record = {"provenance": provenance(args.seed, workload, attempted),
              "detail": detail, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        tracer.write(results / f"{stem}-spans.csv")

    # The table shows every value measured; the last line only the metrics
    # BENCHMARK.json declares.
    table = {name: (value, _unit(name)) for name, value in values.items()}
    table.update((name, (m["value"], m["unit"]))
                 for name, m in metrics.items())
    if not args.trace:
        table["latency_p90_ms"] = (
            (detail["latency_p90_ms"], "ms") if detail["latency_p90_ms"]
            else (detail["latency_p90_note"], ""))
        table["fail_ratio"] = (detail["fail_ratio"],
                               f"of {attempted} ops")
    for name in sorted(table) if args.trace else table:
        value, unit = table[name]
        shown = f"{value:>14.6g}" if isinstance(value, float) else value
        print(f"{args.workload:>10}  {name:<40} {shown} {unit}")
    for failure in failures:
        print(f"FAILED op {failure['op']} ({failure['job']}): "
              f"{failure['cause']}")
    if run_failure:
        print(f"FAILED run check: {run_failure}")
    print("provenance: " + json.dumps(record["provenance"]))
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process; prints every table."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        shown = [line for line in done.stdout.splitlines()
                 if line.startswith((f"{name:>10}  ", "FAILED"))]
        print("\n".join(shown) if shown else
              f"{name}: no result; stderr:\n{done.stderr}")
        if done.returncode != 0:
            status = 1
    return status


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "circkrig" / "__init__.py").is_file():
        print(f"error: no circkrig package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
