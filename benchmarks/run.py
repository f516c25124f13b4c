"""actplan benchmark: one seeded, closed-loop, single-process workload per run.

    python3 benchmarks/run.py --workload plan-bundled --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times whole passes over the workload's
units and prints the end-to-end metrics.  With ``--trace 1`` it runs every
unit twice, once plainly and once with spans around each call into the
package, and prints the per-layer metrics and the tracing overhead.  Either
way every result is checked against ``reference.py`` after the timed region,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts failed and refused operations.  ``correct`` is false when
a result disagrees with a reference in a way the package did not itself
report, such as an oracle minimum that differs from the literal one or an
output that differs from the numpy convolution.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 7

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "arena_ratio_geomean": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = ("netfile", "model", "planner", "report", "oracle", "exec", "sweep", "bench")
PER_LAYER_UNITS = {
    "netfile.parse_ms_p50": "ms", "netfile.parse_ms_tail": "ms", "netfile.files": "count",
    "model.min_offset_us_p50": "us", "model.min_offset_us_tail": "us",
    "model.min_offset_calls": "count", "model.min_offset_s": "s",
    "planner.plan_with_offsets_ms": "ms",
    "report.to_json_ms": "ms", "report.render_text_ms": "ms",
    "oracle.bruteforce_ms_p50": "ms", "oracle.bruteforce_ms_tail": "ms",
    "oracle.bruteforce_s": "s", "oracle.windows_per_s": "1/s", "oracle.words_per_s": "1/s",
    "oracle.verdict_match": "count", "oracle.verdict_conservative": "count",
    "oracle.verdict_unsafe": "count", "oracle.refused": "count", "oracle.slack_words": "words",
    "exec.reference_mmac_per_s": "MMAC/s", "exec.arena_checked_mmac_per_s": "MMAC/s",
    "exec.macs": "count", "exec.windows": "count", "exec.bit_exact": "count",
    "exec.clobbers": "count", "exec.mismatches": "count",
    "sweep.configs": "count", "sweep.gen_ms": "ms", "sweep.layer_sweep_s": "s",
    "sweep.exec_sweep_s": "s", "sweep.probe_clobber_ratio": "ratio",
    "plan.unchecked_layers": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s",
    "trace.overhead_pct": "%", "trace.spans": "count",
}

# Counters averaged per pass into per-layer metrics of the same name.
PER_PASS_COUNTS = (
    "oracle.verdict_match", "oracle.verdict_conservative",
    "oracle.verdict_unsafe", "oracle.refused", "oracle.slack_words", "exec.macs",
    "exec.windows", "exec.bit_exact", "exec.clobbers", "exec.mismatches",
    "sweep.configs", "plan.unchecked_layers",
)


class Refused:
    """Result of a unit the package refused as a whole (``SizeLimitError``)."""


class Crashed:
    def __init__(self, text):
        self.text = text


def measure_setup() -> list:
    """Seconds to ``import actplan`` in each of several fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import actplan; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_unit(wl, unit, tracer=None):
    """(result, seconds) of one unit; refusals and crashes become results."""
    from actplan import SizeLimitError

    start = perf_counter()
    try:
        if tracer is None:
            result = wl.run(unit)
        else:
            with tracer.span("bench.unit"):
                result = wl.run_traced(unit, tracer)
    except SizeLimitError:
        result = Refused()
    except Exception:  # the loop keeps going; the crash is counted and printed
        result = Crashed(traceback.format_exc())
        print(result.text, file=sys.stderr)
    return result, perf_counter() - start


def measure(wl, seconds: float, tracer=None):
    """Whole passes over the units until the next one would overrun ``seconds``.

    Returns the plain rows ``(pass, unit, result, seconds)`` and, when
    tracing, the traced rows of the same units.  Each unit then runs plainly
    and traced, in an order that alternates, so both see the same warm state.
    """
    from workloads import equal

    plain, traced = [], []
    first = {}  # a repeated result is kept once, so memory does not grow with passes
    start = perf_counter()
    last = 0.0
    p = 0
    while p == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        for i, unit in enumerate(wl.units(p)):
            order = (False, True) if tracer is None or (p + i) % 2 == 0 else (True, False)
            for with_trace in order[: 1 if tracer is None else 2]:
                result, dt = run_unit(wl, unit, tracer if with_trace else None)
                if unit in first and equal(first[unit], result):
                    result = first[unit]
                first.setdefault(unit, result)
                (traced if with_trace else plain).append((p, unit, result, dt))
        last = perf_counter() - t0
        p += 1
    return plain, traced


def classify(wl, unit, result):
    from workloads import Outcome

    n = wl.attempts(unit)
    if isinstance(result, Refused):
        return Outcome(attempted=n, refused=n)
    if isinstance(result, Crashed):
        return Outcome(attempted=n, failed=n, problems=[f"{unit}: exception"])
    return wl.check(unit, result)


def check_rows(wl, plain, traced):
    """Classify every plain result; compare traced results with plain ones."""
    from workloads import equal

    seen = {}
    totals = {"attempted": 0, "failed": 0, "refused": 0}
    counts = {}
    problems = []
    for _, unit, result, _ in plain:
        hit = seen.get(unit)
        if hit is None or not equal(hit[0], result):
            hit = (result, classify(wl, unit, result))
            problems += hit[1].problems
            seen[unit] = hit
        out = hit[1]
        totals["attempted"] += out.attempted
        totals["failed"] += out.failed
        totals["refused"] += out.refused
        for k, v in out.counts.items():
            counts[k] = counts.get(k, 0) + v
    by_key = {(p, u): r for p, u, r, _ in plain}
    for p, unit, result, _ in traced:
        if not equal(by_key[(p, unit)], result):
            problems.append(f"{unit}: traced result differs from the plain command's")
    ratios = [r for _, out in seen.values() for r in out.ratios]
    return totals, counts, problems, ratios


def throughput(wl, plain):
    """Operations per second of a pass made of each unit's fastest repetition.

    Other tenants of the host slow this process by up to half for seconds at
    a time, and contention only ever slows it.  So each unit's fastest
    repetition over the run's passes estimates its cost, and the median only
    the host's load; the median-based rate is returned for display.
    Returns (rate, median-based rate, passes behind each unit's figure).
    """
    times, ops = {}, {}
    for _, unit, result, dt in plain:
        n = wl.ops(unit, result)
        if n is not None:
            times.setdefault(unit, []).append(dt)
            ops[unit] = n
    if not times:  # nothing completed: every unit failed or was refused
        return 0.0, 0.0, 0
    total = sum(ops.values())
    return (total / sum(min(t) for t in times.values()),
            total / sum(statistics.median(t) for t in times.values()),
            min(len(t) for t in times.values()))


def layer_metrics(wl, tracer, plain, traced, counts, samples):
    from tracing import p50_tail

    passes = max(p for p, _, _, _ in plain) + 1
    m = {}

    def timing(prefix, span_names, scale, completed_only=False):
        d = [x for name in span_names for x in tracer.durations(name, completed_only)]
        p50, tail, q, n = p50_tail([x * scale for x in d])
        m[f"{prefix}_p50"], m[f"{prefix}_tail"] = p50, tail
        samples[f"{prefix}_p50"] = {"n": n}
        samples[f"{prefix}_tail"] = {"n": n, "percentile": q}
        return sum(d)

    def median_ms(name, span):
        d = tracer.durations(span)
        m[name] = statistics.median(d) * 1e3 if d else 0.0
        samples[name] = {"n": len(d)}

    for k in PER_PASS_COUNTS:
        m[k] = counts.get(k, 0) / passes
    m["netfile.files"] = (len(tracer.durations("netfile.parse_network_file"))
                          + len(tracer.durations("netfile.parse_network_text"))) / passes
    timing("netfile.parse_ms", ("netfile.parse_network_file", "netfile.parse_network_text"), 1e3)
    m["model.min_offset_s"] = timing("model.min_offset_us", ("model.min_offset",), 1e6) / passes
    m["model.min_offset_calls"] = len(tracer.durations("model.min_offset")) / passes
    median_ms("planner.plan_with_offsets_ms", "planner.plan_with_offsets")
    median_ms("report.to_json_ms", "report.plan_to_json")
    median_ms("report.render_text_ms", "report.render_plan_text")
    median_ms("sweep.gen_ms", "sweep.sweep_layer_configs")

    oracle_s = timing("oracle.bruteforce_ms", ("oracle.verify_layer",), 1e3, completed_only=True)
    m["oracle.bruteforce_s"] = oracle_s / passes
    m["oracle.windows_per_s"] = counts.get("oracle.windows", 0) / oracle_s if oracle_s else 0.0
    m["oracle.words_per_s"] = counts.get("oracle.words", 0) / oracle_s if oracle_s else 0.0

    ref_s = sum(tracer.durations("exec.execute_network_reference"))
    arena_s = sum(tracer.durations("exec.execute_network_in_arena", completed_only=True))
    m["exec.reference_mmac_per_s"] = counts.get("exec.macs", 0) / ref_s / 1e6 if ref_s else 0.0
    m["exec.arena_checked_mmac_per_s"] = (
        counts.get("exec.macs_completed", 0) / arena_s / 1e6 if arena_s else 0.0)

    m["sweep.layer_sweep_s"] = sum(tracer.durations("bench.layer_sweep")) / passes
    m["sweep.exec_sweep_s"] = sum(tracer.durations("sweep.run_exec_sweep")) / passes
    probes = counts.get("sweep.tight_probes", 0)
    m["sweep.probe_clobber_ratio"] = (
        counts.get("sweep.tight_probe_clobbers", 0) / probes if probes else 0.0)

    self_s = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0) / passes
    untraced = sum(dt for *_, dt in plain) / passes
    traced_s = sum(dt for *_, dt in traced) / passes
    m["trace.untraced_s"] = untraced
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
    m["trace.spans"] = len(tracer.spans)
    samples["passes"] = passes
    return m


def stamp(args, samples) -> dict:
    import numpy
    import yaml

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.machine())
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit(),
        "samples": samples,
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, tiny=False):
    """Run one workload; return (result object, printable lines, stamp)."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, args.seed, tiny)
    samples = {}
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        tracer = Tracer()
        plain, traced = measure(wl, args.seconds, tracer)
        totals, counts, problems, _ = check_rows(wl, plain, traced)
        metrics = layer_metrics(wl, tracer, plain, traced, counts, samples)
        units = PER_LAYER_UNITS
        out_dir = ROOT / "benchmarks" / "out"
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        setup = measure_setup()
        plain, _ = measure(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        totals, counts, problems, ratios = check_rows(wl, plain, [])
        rate, median_rate, n_rate = throughput(wl, plain)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": rate,
            "arena_ratio_geomean": (math.exp(statistics.fmean(math.log(r) for r in ratios))
                                    if ratios else 0.0),
            "peak_rss_mb": rss_mb,
        }
        units = E2E_UNITS
        samples.update(setup_s=len(setup), ops_per_s=n_rate, arena_ratio_geomean=len(ratios),
                       peak_rss_mb=1)
        lines += command_metrics(wl, metrics, plain, counts)
        lines.append(f"  {'ops_per_s at median unit times':<34} {median_rate:.6g} 1/s")
    attempted = totals["attempted"]
    failed = totals["failed"] + totals["refused"]
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:.6g} {units[name]}")
    lines.append(f"  failed_pct {100.0 * totals['failed'] / attempted:.4g} %   "
                 f"refused_pct {100.0 * totals['refused'] / attempted:.4g} %   "
                 f"({attempted} operations)")
    for text in problems[:20]:
        lines.append(f"  PROBLEM {text}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines, stamp(args, samples)


def command_metrics(wl, metrics, plain, counts) -> list:
    """The throughput under the name of the command the workload mirrors."""
    ops = metrics["ops_per_s"]
    if wl.name == "sweep-small":
        passes = max(p for p, _, _, _ in plain) + 1
        rows = [("sweep_s", 1.0 / ops, "s"),
                ("verify_layers_per_s",
                 counts.get("sweep.configs", 0) / passes / min(wl.layer_sweep_seconds), "1/s")]
    else:
        rows = {"plan-bundled": [("plans_per_s", ops, "1/s")],
                "verify-bundled": [("verify_layers_per_s", ops, "1/s")],
                "exec-mid": [("exec_mmac_per_s", ops / 1e6, "MMAC/s")]}[wl.name]
    return [f"  {name:<34} {value:.6g} {unit}" for name, value, unit in rows]


def self_check() -> int:
    """Run every workload once at tiny size in both modes; check the names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if want_e2e != E2E_UNITS or want_layer != PER_LAYER_UNITS:
        print("self-check: BENCHMARK.json and run.py name different metrics", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace)
            result, lines, _ = run(args, tiny=True)
            want = want_layer if trace else want_e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or result["attempted"] < 1:
                print("\n".join(lines), file=sys.stderr)
                print(f"self-check: {name} trace {trace} emitted {sorted(got)}", file=sys.stderr)
                return 1
            print(f"self-check: {name} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations, correct={result['correct']}")
    print("self-check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("plan-bundled", "verify-bundled",
                                               "sweep-small", "exec-mid"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run each workload once at tiny size and check every metric is emitted")
    args = parser.parse_args(argv)
    if not (SRC / "actplan" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, info = run(args)
    print("\n".join(lines))
    print("stamp: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
