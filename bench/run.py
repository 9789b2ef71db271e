"""Benchmark of the hmslines certifier: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout: hmslines is imported from ./src, and the
run fails (exit 1, no result) when that package is absent.  One process,
one thread, closed loop: each operation starts when the previous one has
returned, and operations repeat until S seconds have passed (at least
one).  Inputs come from the seed (see inputs.py); seed 0 is the shipped
demo configuration.

--trace 0 prints the end-to-end metrics: candidates_per_s (median over
operations), peak_rss_mb and setup_s (median of several cold set-ups in
fresh interpreters).  --trace 1 spends half the time untraced and half
with every layer wrapped by tracer.Tracer, prints the per-layer metrics
and the tracing overhead, and writes the spans to bench/out/.  Every
reported time is scaled to reference machine speed (see speed.py); the
info lines before the result give the raw wall times.

Every operation's outputs are checked (see workloads.py and oracles.py);
the last stdout line is the JSON result, and a failed check makes the
exit code 1.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
from speed import REFERENCE_S, SEGMENT_S, Clock
from tracer import EXTRA, LAYER_NAMES, NAME, Tracer, layer_totals
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PRECISION_LAYERS = (
    "hensel.hensel_factor_quartic",
    "search.intersection_points",
    "lines.cusp_proximity",
)


def import_hmslines():
    package = SRC / "hmslines"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no hmslines package at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import hmslines
    from hmslines import errors, lines, quartics, search

    if Path(hmslines.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported hmslines from {hmslines.__file__}, not {package}")
    return {"errors": errors, "lines": lines, "quartics": quartics, "search": search}


def setup_seconds(configs, probes):
    """Scaled median cold set-up time over `probes` fresh interpreters, and raw times."""
    raw, spins = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(configs)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        seconds, spin_s = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        spins.append(spin_s)
    return statistics.median(raw) * REFERENCE_S / statistics.median(spins), raw


def run_ops(workload, seconds, segment_s=SEGMENT_S):
    """Operations for `seconds` (at least one), timed raw and scaled."""
    ops, spans = [], []
    clock = Clock(segment_s)
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        clock.begin()
        op = workload.op(clock)
        op.wall_s, op.candidates, span = clock.end()
        if ops:  # only the first operation's outputs are kept for checks
            op.outputs = op.lines = None
        ops.append(op)
        spans.append(span)
    for op, span in zip(ops, spans):
        op.scaled_s = op.wall_s * clock.factor(span)
    return ops


def check(workload, ops, reference=None):
    errors = workload.errors(ops[0])
    if not ops[0].candidates:
        errors.append("no candidates were counted")
    digests = {op.digest for op in ops}
    if reference is not None:
        digests.add(reference)
    if len(digests) != 1:
        errors.append(f"repeats differ: {len(digests)} distinct output digests")
    return errors


def describe(label, ops):
    walls = ", ".join(f"{op.wall_s:.3f}" for op in ops)
    scaled = ", ".join(f"{op.scaled_s:.3f}" for op in ops)
    first = ops[0]
    text = (
        f"{label}: ops={len(ops)} raw wall_s=[{walls}] scaled wall_s=[{scaled}]"
        f" candidates={first.candidates}"
    )
    if first.undecided is not None:
        text += f" undecided={first.undecided}"
    text += f" sha256={first.digest}"
    if first.stats:
        text += f" stats={json.dumps(first.stats, sort_keys=True)}"
    return text


def end_to_end(workload, seconds, probes):
    setup, raw_setup = setup_seconds(workload.setup_configs, probes)
    ops = run_ops(workload, seconds)
    errors = check(workload, ops)
    rates = [op.candidates / op.scaled_s for op in ops]
    raw_rate = statistics.median(op.candidates / op.wall_s for op in ops)
    metrics = {
        "candidates_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
        "setup_s": (setup, "s"),
    }
    info = [
        describe("timed", ops),
        f"raw candidates_per_s: {raw_rate:.3f}",
        "raw setup_s samples: " + ", ".join(f"{s:.4f}" for s in raw_setup),
    ]
    return metrics, sum(op.candidates for op in ops), errors, info


def _percentile_ms(durations, q):
    if len(durations) < 2:
        return 1000 * (durations[0] if durations else 0.0)
    return 1000 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def per_layer(hms, workload, seconds, precision, trace_path):
    untraced = run_ops(workload, seconds / 2)
    tracer = Tracer(hms)
    with tracer.installed():
        # spins only between operations, so no span contains one
        traced = run_ops(workload, seconds / 2, segment_s=math.inf)
    errors = check(workload, traced, reference=untraced[0].digest)
    errors += [f"layer entry point not found: {layer}" for layer in tracer.missing]

    n = len(traced)
    candidates = max(traced[0].candidates, 1)
    traced_wall = statistics.median(op.scaled_s for op in traced)
    untraced_wall = statistics.median(op.scaled_s for op in untraced)
    # spans hold raw times; scale them like the operations that contain them
    factor = sum(op.scaled_s for op in traced) / sum(op.wall_s for op in traced)
    totals = layer_totals(tracer.spans)
    metrics = {}
    for layer in LAYER_NAMES:
        t = totals[layer]
        metrics[f"{layer}.self_s"] = (factor * t["self_s"] / n, "s")
        metrics[f"{layer}.calls"] = (t["calls"] / n, "count")
        metrics[f"{layer}.errors"] = (t["errors"] / n, "count")
        metrics[f"{layer}.calls_per_candidate"] = (
            t["calls"] / n / candidates,
            "1/candidate",
        )

    certify = [s for s in tracer.spans if s[NAME] == "search.certify_line"]
    failed = [s[EXTRA] for s in certify if s[EXTRA] and "error" in s[EXTRA]]
    precision_failures = [e for e in failed if e["error"] == "PrecisionError"]
    wasted = sum(1 for s in certify if not (s[EXTRA] or {}).get("passed"))
    built = max(len(certify), 1)
    galois = totals["galois.solvability_report"]
    durations = [factor * d for d in totals["search.certify_line"]["durations"]]
    metrics.update(
        {
            "quartics.discriminant.calls_per_certificate": (
                totals["quartics.discriminant"]["calls"] / built,
                "1/certificate",
            ),
            "galois.solvability_report.share": (
                sum(galois["durations"]) / sum(op.wall_s for op in traced),
                "frac",
            ),
            "search.certify_line.ms_p50": (_percentile_ms(durations, 50), "ms"),
            "search.certify_line.ms_p90": (_percentile_ms(durations, 90), "ms"),
            "certify.wasted_frac": (wasted / built, "frac"),
            "precision.failures": (len(precision_failures) / n, "count"),
            "precision.hint_not_above_prec": (
                sum(
                    1
                    for e in precision_failures
                    if e["needed"] is not None and e["needed"] <= precision
                )
                / n,
                "count",
            ),
            "undecided_frac": (len(precision_failures) / n / candidates, "frac"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1, "frac"),
            "trace.spans_per_op": (len(tracer.spans) / n, "count"),
        }
    )
    origins = [e["origin"] for e in precision_failures]
    for layer in PRECISION_LAYERS:
        metrics[f"precision.raised_in.{layer}"] = (origins.count(layer) / n, "count")
    metrics["precision.raised_in.other"] = (
        sum(1 for o in origins if o not in PRECISION_LAYERS) / n,
        "count",
    )

    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)
    info = [
        describe("untraced", untraced),
        describe("traced", traced),
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    return metrics, sum(op.candidates for op in traced), errors, info


def measure(hms, name, seed, seconds, trace, quick=False, probes=SETUP_PROBES):
    workload = WORKLOADS[name](hms, seed, quick)
    if trace:
        precision = workload.setup_configs[0]["precision"]
        path = OUT / f"trace-{name}-seed{seed}.jsonl"
        metrics, attempted, errors, info = per_layer(
            hms, workload, seconds, precision, path
        )
    else:
        metrics, attempted, errors, info = end_to_end(workload, seconds, probes)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info + [f"check failed: {e}" for e in errors]


def self_test(hms):
    """One short operation of each workload, untraced and traced, no timing asserts."""
    problems = []
    for name, raw in (
        ("rho0-demo", inputs.rho0_config(0)),
        ("char3-demo", inputs.char3_config(0)),
    ):
        shipped = json.loads((SRC / "hmslines" / "configs" / f"{name}.json").read_text())
        if shipped != raw:
            problems.append(f"seed 0 does not reproduce {name}.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, info = measure(hms, name, 0, 0, trace, quick=True, probes=1)
            print(f"{name} trace={trace}: " + "; ".join(info))
            if not result["correct"]:
                problems.append(f"{name} trace={trace} failed its checks")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace} metrics differ from BENCHMARK.json")
    for problem in problems:
        print(f"self-test: {problem}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    hms = import_hmslines()
    if args.self_test:
        return self_test(hms)
    if args.workload is None:
        parser.error("--workload is required")
    result, info = measure(hms, args.workload, args.seed, args.seconds, args.trace)
    for line in info:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
