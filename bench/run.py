#!/usr/bin/env python3
"""qnav benchmark: end-to-end throughput and latency, per-layer self time.

    python3 bench/run.py --workload train-quantum --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

One workload per process. With --trace 0 it prints every end-to-end metric
by name, unit and sample count; with --trace 1 it wraps the public
functions and methods of the six qnav layers and prints per-layer numbers.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. `--workload all` runs every workload in a fresh process and exits
non-zero if any output check fails. See bench/README.md.
"""

import time

_START = time.perf_counter()  # setup_s counts from here: imports, scenes, model

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnav" / "__init__.py").is_file():
        print(f"bench: no qnav sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one BLAS thread, for this process and the processes it starts
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qnav

    if not Path(qnav.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported qnav from {qnav.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload != "all" and args.workload not in workloads.SPECS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.setup(args.workload, args.seed)
        setup_s = time.perf_counter() - _START
        workloads.probe_seconds()  # warm-up
        print(json.dumps({"setup_s": setup_s, "probe_s": workloads.probe_seconds()}))
        return 0
    if args.workload == "all":
        return run_all(args, workloads.SPECS)
    return run_one(args, workloads)


def child_cmd(args, workload, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def run_all(args, specs) -> int:
    """Each workload in a fresh process, so setup and peak memory are its own."""
    status = 0
    for name in specs:
        proc = subprocess.run(child_cmd(args, name), timeout=600)
        status = status or proc.returncode
    return status


def measure_setup(args) -> list:
    """(setup_s, probe_s) samples, each from a fresh process that imports numpy
    and qnav, generates the scenes and builds the model, then times the host
    probe once."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(child_cmd(args, args.workload, "--setup-probe"),
                              capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["probe_s"]))
    return samples


# ---------------------------------------------------------------------------
# environment capture


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# one workload


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json promises for this mode, if the file is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def show(name, value, unit, note=""):
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<32} {text:>12} {unit:<10} {note}")


def run_one(args, wl) -> int:
    setup_samples = [] if args.trace else measure_setup(args)
    inp = wl.setup(args.workload, args.seed)
    env_info = environment()
    spec = inp.spec
    train = spec.cap is not None
    print(f"== {spec.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {spec.why}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))

    # warm-up, and the reference for the determinism check
    reference = wl.EpisodeLog()
    record = wl.run_pass(inp, reference, None if train else inp.model, size=spec.check_size)

    log = wl.EpisodeLog()
    checks = {}
    if args.trace:
        metrics, extra = traced(args, wl, inp, log)
        checks.update(extra.pop("checks"))
    else:
        probe = wl.HostProbe()
        wl.run_pass(inp, log, inp.model, seconds=args.seconds, probe=probe)
        extra = {"probe_s": probe.samples, "probe_at": probe.at}

    ok, what = wl.check_repeat(inp, reference, log)
    checks["repeat"] = (ok, f"fingerprint of the {what} equals the warm-up run's")
    problems = wl.check_train(inp, reference, record, log) if train else wl.check_eval(inp, log)
    checks["outputs"] = (not problems, "; ".join(problems[:3]) or "rows and aggregates consistent")
    if spec.critic == "quantum":
        worst = wl.check_gradients(inp.model)
        checks["gradients"] = (worst <= wl.GRADCHECK_TOL,
                               f"max |adjoint - param-shift| = {worst:.3g} over "
                               f"{wl.GRADCHECK_STATES} hidden states")
    failed, attempted = log.failed(), log.attempted()
    checks["finished"] = (log.finished > 0 and log.crash is None,
                          log.crash or f"{log.finished} episodes finished")
    if not args.trace:
        metrics = end_to_end(args, wl, inp, log, setup_samples, failed, attempted, probe)
    declared = declared_metrics(args.trace)
    if declared is not None and set(declared) != set(metrics):
        checks["contract"] = (False, f"metrics differ from BENCHMARK.json: "
                                     f"{sorted(set(declared) ^ set(metrics))}")
    correct = all(ok for ok, _ in checks.values())
    fp_prefix = wl.fingerprint(inp, log, min(spec.check_size, log.finished))
    fp_run = wl.fingerprint(inp, log)
    print(f"  fingerprint(first {spec.check_size}) {fp_prefix[:16]}  "
          f"fingerprint(all {log.finished}) {fp_run[:16]}")
    for name, (ok, note) in checks.items():
        print(f"  check {name:<10} {'ok  ' if ok else 'FAIL'} {note}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({
            "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
            "environment": env_info, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics, "fingerprint_prefix": fp_prefix,
            "fingerprint": fp_run, "checks": {k: {"ok": ok, "note": n} for k, (ok, n) in checks.items()},
            "episodes": log.episodes[: log.finished], "durations_s": log.durations,
            "rows": log.rows, "setup_samples_s": setup_samples, **extra,
        }, fh, indent=1, default=str)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(args, wl, inp, log, setup_samples, failed, attempted, probe) -> dict:
    """Prints every end-to-end metric; returns the ones BENCHMARK.json names."""
    train = inp.spec.cap is not None
    ms = [d * 1e3 for d in log.durations]
    elapsed = log.elapsed
    steps_per_s = log.steps / elapsed if elapsed else 0.0
    episodes_per_s = log.finished / elapsed if elapsed else 0.0
    p50 = statistics.median(ms) if ms else 0.0
    tail_ms, tail_pct = tail(ms)
    setup_s = statistics.median(s for s, _ in setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = f"(steps={log.steps}, episodes={log.finished}, {elapsed:.3f} s)"
    tail_note = (f"(p{tail_pct:.4g}, n={len(ms)}, 10 beyond)" if tail_ms is not None
                 else f"(n={len(ms)}: needs more than 10 samples)")
    show("setup_s", setup_s, "s", f"(median of {len(setup_samples)} fresh processes)")
    if train:
        show("train_env_steps_per_s", steps_per_s, "1/s", counts)
        show("updates_per_s", episodes_per_s, "1/s", counts)
        show("update_ms_p50", p50, "ms", f"(n={len(ms)})")
        show("update_ms_tail", tail_ms, "ms", tail_note)
    else:
        show("eval_scenes_per_s", episodes_per_s, "1/s", counts)
        show("eval_env_steps_per_s", steps_per_s, "1/s", counts)
        show("scene_ms_p50", p50, "ms", f"(n={len(ms)})")
        show("scene_ms_tail", tail_ms, "ms", tail_note)
        mix = {o: sum(r["outcome"] == o for r in log.rows) for o in wl.OUTCOMES}
        print(f"  outcome mix {mix} over {len(log.rows)} scenes")
    show("failed_ratio", failed / attempted if attempted else 0.0, "ratio",
         f"(failed={failed}, attempted={attempted})")
    show("peak_rss_mb", rss_mb, "MB", "(this process)")
    # the gated timings, corrected to a host running the probe in NOMINAL_S
    fixed = probe.corrected(log.durations)
    fixed_s = sum(fixed)
    gated = {
        "setup_s": (statistics.median(s * wl.NOMINAL_S / p for s, p in setup_samples), "s"),
        "env_steps_per_s": (log.steps / fixed_s if fixed_s else 0.0, "1/s"),
        "episode_ms_p50": (statistics.median(fixed) * 1e3 if fixed else 0.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    slowdown = statistics.mean(probe.samples) / wl.NOMINAL_S if probe.samples else float("nan")
    print(f"  host-corrected (probe {wl.NOMINAL_S * 1e3:g} ms nominal; {len(probe.samples)} probes "
          f"in the run, mean {slowdown:.3f}x nominal):")
    for name, (value, unit) in gated.items():
        if name != "peak_rss_mb":
            show(name, value, unit)
    return gated


PER_LAYER_UNITS = {
    "self_us_per_step": "us", "calls_per_step": "calls/step", "us_per_step": "us",
    "value_read_ratio": "ratio", "values_computed": "count", "step_ms_p50": "ms",
    "us_p50": "us", "ms_p50": "ms", "plans_per_layout": "ratio", "plan_calls": "count",
    "overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def traced(args, wl, inp, log):
    """Traced pass for half of --seconds, then the same episodes untraced for
    the overhead, so a traced run takes about as long as an untraced one."""
    tracer = wl.tracing.Tracer(wl.LAYER_MODULES)
    plans = wl.PlanCounter()
    train = inp.spec.cap is not None
    start = time.perf_counter()
    with tracer, plans:
        wl.run_pass(inp, log, inp.model, seconds=args.seconds / 2, tracer=tracer)
    traced_s = time.perf_counter() - start

    repeat = wl.EpisodeLog()
    start = time.perf_counter()
    wl.run_pass(inp, repeat, None if train else inp.model, size=log.finished)
    untraced_s = time.perf_counter() - start

    table = tracer.table()
    metrics, bases = wl.layer_metrics(table, log, plans, traced_s, untraced_s)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{inp.spec.name}-seed{args.seed}"
    tracer.save(OUT_DIR / f"{stem}-spans.npz")
    (OUT_DIR / f"{stem}-spans-summary.json").write_text(wl.tracing.summary_json(table))

    steps = max(log.steps, 1)
    layer_ns = {layer: table.layer_self_ns(layer) for layer in table.layers}
    unaccounted_ns = traced_s * 1e9 - table.root_ns()
    total_ns = sum(layer_ns.values()) + unaccounted_ns
    print(f"  traced {log.finished} episodes, {log.steps} env steps, {bases['trace.spans']} spans "
          f"in {traced_s:.3f} s; untraced repeat {untraced_s:.3f} s")
    for layer, ns in list(layer_ns.items()) + [("(unaccounted)", unaccounted_ns)]:
        print(f"  self time {layer:<14} {ns / 1e3 / steps:12.3f} us/step {100 * ns / total_ns:6.1f} %")
    for name, value in metrics.items():
        show(name, value, unit_of(name))
    print(f"  bases: critic.values_read={bases['critic.values_read']} "
          f"critic.values_computed={bases['critic.values_computed']} "
          f"planner.plan_calls={bases['planner.plan_calls']} "
          f"planner.distinct_layouts={bases['planner.distinct_layouts']} env_steps={log.steps}")
    if bases["missing_span_names"]:
        print(f"  warning: no such span names: {bases['missing_span_names']}")
    same = wl.fingerprint(inp, log) == wl.fingerprint(inp, repeat)
    extra = {
        "bases": bases,
        "self_share": {k: v / total_ns for k, v in layer_ns.items()},
        "checks": {"untraced": (same, "traced and untraced passes have equal fingerprints")},
    }
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, extra


if __name__ == "__main__":
    sys.exit(main())
