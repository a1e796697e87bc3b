"""Benchmark of the minuscule engine: one workload per run, every output checked.

    python3 perfbench/run.py --workload {table-build,sieve,census} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ./src.
Passes of the workload's requests run until the next pass would overrun
--seconds (at least one pass; a traced run alternates untraced and traced
passes and makes at least two of each).  Each request is timed between
two runs of a fixed reference kernel (reference.py), and its cost is its
median time over that gauge across the untraced passes.  Set-up (import
plus poset construction) is timed afterwards in fresh interpreters, and
its median reported.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics, holding the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1).
The exit code is 0 when every check passed, 1 on any mismatch, 2 when the
checkout holds no sources.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, time

from spans import LAYERS, Tracer
from workloads import BUILD_SHAPES, WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "minuscule" / "data"
OUT = ROOT / ".perfbench"
SETUP_REPS = 15
# Set-up as a fresh interpreter pays it: the package's import, with the
# standard modules it pulls in, and the workload's posets.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minuscule, minuscule.cli
posets = [minuscule.parse_poset_spec(spec) for spec in sys.argv[2:]]
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, by relative path (bytecode caches excluded)."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256(json.dumps(tree_digest(SRC), sort_keys=True).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source,
    }


def measure_setup(workload_cls) -> float:
    """Median seconds of set-up over SETUP_REPS fresh interpreters (isolated mode)."""
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *workload_cls.SPECS],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(child.stdout))
    return median(times)


def run_passes(workload, tracer, seconds: float, traced: bool) -> list[dict]:
    passes = []
    start = perf_counter()
    while True:
        tracer.enabled = traced and len(passes) % 2 == 1
        t0 = perf_counter()
        requests = workload.run_pass()
        wall = perf_counter() - t0
        passes.append({"wall": wall, "traced": tracer.enabled, "requests": requests})
        if len(passes) == 1:
            # Peak memory of one pass: later passes may raise the process's
            # peak a little, and how many run depends on the machine's speed.
            passes[0]["rss_mb"] = peak_rss_mb()
        tracer.enabled = False
        longest = max(p["wall"] for p in passes[-2:])
        if len(passes) >= (4 if traced else 1) and perf_counter() - start + longest > seconds:
            return passes


def tail(latencies: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the maximum below 21 samples.

    With fewer than 21 samples that percentile falls at or below the median.
    """
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def end_to_end(passes, setup_s, rss_mb, workload) -> tuple[dict, dict]:
    """The gated metrics, and the named view of the same run.

    Every pass sends the same requests, and each request is timed between
    two runs of the reference kernel (its gauge).  A request's latency is
    its median time over the run's untraced passes, and its cost is its
    median time over its gauge: the latency in reference-kernel times.
    On a shared 2-vCPU VM the machine's speed drifted by up to 65% for a
    minute or more at a time; a request and its gauge drift together, so
    the cost repeats from run to run where the latency does not.  wall_ref, the gated metric, is
    the request list's cost, the sum of the costs; wall_s, printed, is the
    sum of the latencies.
    """
    plain = [p for p in passes if not p["traced"]]
    times: dict = {}
    costs: dict = {}
    for p in plain:
        for request, seconds, ref in p["requests"]:
            times.setdefault(request, []).append(seconds)
            costs.setdefault(request, []).append(seconds / ref)
    latency = {request: median(values) for request, values in times.items()}
    latencies = list(latency.values())
    n = len(latencies)
    metrics = {"wall_ref": sum(median(values) for values in costs.values()), "peak_rss_mb": rss_mb}
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    named = {
        "wall_s": (sum(latencies), f"s (sum of {n} request latencies, each the median of {len(plain)} passes)"),
        "p50_ms": (median(latencies) * 1e3, f"ms (median of {n} requests)"),
        "tail_ms": (tail(latencies) * 1e3, f"ms (10 of {n} requests beyond it)" if n >= 21 else f"ms (slowest of {n} requests)"),
    }
    if workload.name == "table-build":
        # The same shapes with 1 and with 2 workers; the small golden shapes are built with 1 only.
        w1 = sum(latency[f"build_w1 {spec}"] for spec in BUILD_SHAPES)
        w2 = sum(latency[f"build_w2 {spec}"] for spec in BUILD_SHAPES)
        named.update(build_w1_s=(w1, "s"), build_w2_s=(w2, "s"), scaling_w2=(w1 / w2, "x"))
    if workload.name == "sieve":
        named.update(
            query_p50_ms=named["p50_ms"],
            query_tail_ms=(named["tail_ms"][0], f"ms (p{100 * (n - 10) / n:.1f}, 10 of {n} queries beyond it)"),
        )
    if workload.name == "census":
        named["states_per_s"] = (workload.states_per_pass / named["wall_s"][0], "1/s")
    return metrics, named


def per_layer(loop_layers, passes, workload, probe) -> dict:
    """Per-layer metrics: busy time and calls per traced pass, tracing overhead, workload metrics."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for layer, (busy, calls) in loop_layers.items():
        metrics[f"{layer}.busy_s"] = busy / len(traced)
        metrics[f"{layer}.calls"] = calls / len(traced)
    metrics["trace.overhead_s"] = median(p["wall"] for p in traced) - median(p["wall"] for p in plain)
    metrics.update(workload.layer_metrics())
    metrics.update(probe)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minuscule" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    data_before = tree_digest(DATA)
    import minuscule as lib
    import minuscule.cli  # noqa: F401  (the same modules set-up imports)

    posets = workload_cls.make_posets(lib)
    if Path(lib.__file__).resolve().parent != SRC / "minuscule":
        print(f"error: imported minuscule from {lib.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time())}"
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer(run_id)
    checks = Checks()
    try:
        workload = workload_cls(lib, posets, ROOT, workdir, args.seed, tracer, checks)
        passes = run_passes(workload, tracer, args.seconds, bool(args.trace))
        if args.trace:
            loop_layers = tracer.layer_totals()
            tracer.enabled = True
            probe = workload.probe()
            tracer.enabled = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = None if args.trace else measure_setup(workload_cls)
    checks.expect(tree_digest(DATA) == data_before, "files under src/minuscule/data changed")

    env = environment(args)
    e2e, named = end_to_end(passes, setup_s, passes[0]["rss_mb"], workload)
    print(f"# workload {args.workload}: {len(passes)} passes, {sum(len(p['requests']) for p in passes)} requests")
    print("env " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"end_to_end {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"named {name} = {value:.6g} {unit}")
    failed = len(checks.mismatches)
    print(f"named failed_frac = {failed / max(1, checks.attempted):.6g} ({failed} of {checks.attempted} checked outputs)")

    if args.trace:
        layers = per_layer(loop_layers, passes, workload, probe)
        targets = workload.LAYER_METRICS
        produced = set(layers) - {f"{layer}.{what}" for layer in LAYERS for what in ("busy_s", "calls")}
        produced.discard("trace.overhead_s")
        if produced != set(targets):
            raise RuntimeError(f"per-layer metrics do not match the declaration: {sorted(produced ^ set(targets))}")
        for name in sorted(layers):
            target = targets.get(name, "")
            print(f"per_layer {name} = {layers[name]:.6g} {units[name]}" + (f"  -> {target}" if target else ""))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {**env, "per_layer": layers, "end_to_end": e2e})
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for message in checks.mismatches:
        print(f"mismatch: {message}", file=sys.stderr)
    result = {"correct": not checks.mismatches, "attempted": checks.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not checks.mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
