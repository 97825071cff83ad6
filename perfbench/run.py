"""mqdimer benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds the mqdimer sources under src/. Set-up
times `import mqdimer` in fresh interpreters. The run then performs the
workload's ops in a closed loop from one client until the ops have taken
--seconds, finishing the block in progress, and afterwards checks every
output. The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it list
every metric by name and unit, and the full run record goes to
perfbench/_records/. perfbench/README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / "perfbench" / "_records"
WORK = ROOT / "perfbench" / "_work"
WORKLOAD_NAMES = ("discord_evolved", "discord_generic", "sweep_closed_form", "cli_short")

#: fresh-interpreter imports per run; setup_s is their median
SETUP_IMPORTS = 3
#: fresh interpreters per floor measurement in a traced run
FLOOR_SAMPLES = 3
#: latency_p90_ms needs this many ops, so that ten samples lie beyond it
P90_MIN_OPS = 100

_TIMED_IMPORT = "import time; t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fresh_import_seconds(wls, ctx, module: str) -> float:
    child = wls.run_child(ctx, ["-c", _TIMED_IMPORT.format(mod=module)])
    if child.code != 0:
        raise RuntimeError(f"import {module} failed in a fresh interpreter:\n{child.stderr}")
    return float(child.stdout.strip())


def measure(wl, blocks, seconds: float, tr, replay: bool = False) -> list[tuple]:
    """Closed loop, one client: run ops until they have taken `seconds`, then
    finish the block. Returns (input, output, seconds) per op. With `replay`,
    each op is followed, outside its span and its time, by its replays."""
    done, busy = [], 0.0
    for block in blocks:
        for inp in block:
            tr.op_id = len(done)
            start = perf_counter()
            with tr.span(f"op.{wl.name}"):
                out = wl.op(inp, tr)
            elapsed = perf_counter() - start
            done.append((inp, out, elapsed))
            busy += elapsed
            if replay:
                wl.replay(inp, out, tr)
        if busy >= seconds:
            return done


def check_all(wl, done, label: str) -> dict[str, list[str]]:
    """Failure messages per failed op."""
    failures = {}
    for k, (inp, out, _) in enumerate(done):
        errs = wl.check(inp, out)
        if errs:
            failures[f"{label} {k}"] = errs
    return failures


def traced_run(wl, wls, ctx, seed, seconds, import_samples, record):
    """Half the time untraced, then the same ops traced, each followed by its
    replays. Layers the workload never reaches are timed on the first input
    of a workload that does, so that every per-layer metric has samples."""
    base = measure(wl, wl.blocks(wls.rng_for(seed, "inputs", wl.name)), seconds / 2.0, spans.NullTracer())
    failures = check_all(wl, base, "untraced op")
    tr = spans.Tracer()
    for s in import_samples:
        tr.add("init.import", s)
    for _ in range(FLOOR_SAMPLES):
        tr.add("init.numpy_import", fresh_import_seconds(wls, ctx, "numpy"))
        tr.add("init.python_start", wls.run_child(ctx, ["-c", "pass"]).wall_s)
    traced = measure(wl, [[inp for inp, _, _ in base]], 0.0, tr, replay=True)
    failures.update(check_all(wl, traced, "traced op"))
    probes = 0
    for other in wls.WORKLOADS.values():
        if other is not type(wl) and other.spans - tr.names():
            probe = other(ctx, seed)
            inp = next(probe.blocks(wls.rng_for(seed, "probe", other.name)))[0]
            tr.op_id = f"probe {other.name}"
            out = probe.op(inp, tr)
            probe.replay(inp, out, tr)
            probes += 1
            failures.update(check_all(probe, [(inp, out, None)], f"probe {other.name}"))
    overhead = sum(dt for *_, dt in traced) / sum(dt for *_, dt in base) - 1.0
    metrics, record["span_samples"] = spans.per_layer_metrics(tr, overhead)
    record["spans"] = tr.spans
    record["summary"] = wl.summary(base + traced)
    return len(base) + len(traced) + probes, failures, metrics


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        ref = ROOT / ".git" / rev.removeprefix("ref: ")
        if rev.startswith("ref: ") and ref.is_file():
            rev = ref.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_rev": rev,
        "seed": seed,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mqdimer" / "__init__.py").is_file():
        print(f"perfbench: no mqdimer sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import workloads as wls

    if not Path(sys.modules["mqdimer"].__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: mqdimer was not imported from {SRC}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    RECORDS.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ctx = wls.Context(work=Path(tempfile.mkdtemp(dir=WORK)), python=sys.executable, env=env)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(args.seed)}
    try:
        import_samples = [fresh_import_seconds(wls, ctx, "mqdimer") for _ in range(SETUP_IMPORTS)]
        record["setup_import_s"] = import_samples
        wl = wls.WORKLOADS[args.workload](ctx, args.seed)
        if args.trace:
            attempted, failures, metrics = traced_run(wl, wls, ctx, args.seed, args.seconds,
                                                      import_samples, record)
        else:
            done = measure(wl, wl.blocks(wls.rng_for(args.seed, "inputs", wl.name)), args.seconds,
                           spans.NullTracer())
            peak_rss_mb = wl.peak_rss_mb()
            failures = check_all(wl, done, "op")
            attempted = len(done)
            latencies = [dt for *_, dt in done]
            metrics = {
                "setup_s": metric(statistics.median(import_samples), "s"),
                "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
                "ops_per_s": metric(len(done) / sum(latencies), "1/s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            record["summary"] = wl.summary(done)
            # Not in the final line, whose metrics are the gated end-to-end set:
            # p90 needs P90_MIN_OPS ops, rows exist only in sweeps, and
            # failed_frac is 0 on a clean run.
            extra = {"latency_samples": metric(len(done), "count"),
                     "failed_frac": metric(len(failures) / attempted, "ratio")}
            if len(done) >= P90_MIN_OPS:
                extra["latency_p90_ms"] = metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
            if "rows" in record["summary"]:
                extra["rows_per_s"] = metric(record["summary"]["rows"] / sum(latencies), "1/s")
            record["more_metrics"] = extra
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(failures=failures, result=result)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for label, errs in failures.items():
        for e in errs:
            print(f"FAILED {label}: {e}")
    for name, m in {**metrics, **record.get("more_metrics", {})}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key, value in record["summary"].items():
        print(f"{key} = {value}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
