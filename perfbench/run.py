"""Benchmark of the tf1crack package: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crack-w16 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload on one core (numpy's thread pools are held to
one thread).  It imports the package from ``src/``, builds the inputs from
``--seed`` (set-up), then repeats rounds of public calls until ``--seconds``
have passed, checking every output.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run then repeats one round with every public call wrapped in a span,
writes the spans out, and the metrics are the per-layer ones.  Lines before
it give each workload's own metrics by name and unit, the environment and
any failures; ``.perfbench_out/`` keeps the full result and the spans.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanRecorder, duration_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # set-up samples per run
WORKLOAD_NAMES = ("crack-w16", "crack-generic-w10", "stream-io", "certify-small")

# (name, unit); the end-to-end metrics every workload reports.
END_TO_END = (("setup_s", "s"), ("unit_cost.p50", "ref"), ("peak_rss_mb", "MB"))
# (name, unit); a layer the workload never calls reads 0.
PER_LAYER = (
    ("generator.generate.ns_per_word", "ns"),
    ("generator.generate_from_instance.ns_per_word", "ns"),
    ("attack.recover.s", "s"),
    ("attack.ns_per_op", "ns"),
    ("attack.find_zero_outputs.s", "s"),
    ("attack.stage2_complete.s", "s"),
    ("attack.stage2_complete.ns_per_candidate", "ns"),
    ("attack.stage1.derived_s", "s"),
    ("attack.verify_state.us_per_word", "us"),
    ("attack.stage1_candidates", "count"),
    ("attack.stage1_filter_steps", "count"),
    ("attack.stage1_survivors", "count"),
    ("attack.stage2_candidates", "count"),
    ("attack.stage2_verifications", "count"),
    ("attack.steps_per_candidate", "ratio"),
    ("attack.survivor_ratio", "ratio"),
    ("attack.hit_ratio", "ratio"),
    ("attack.ops_over_predicted", "ratio"),
    ("oracle.brute_force.ns_per_state", "ns"),
    ("tfcheck.tfunction.us_per_trial", "us"),
    ("tfcheck.truncation.us_per_trial", "us"),
    ("cli.write_keystream.ns_per_word.bin", "ns"),
    ("cli.write_keystream.ns_per_word.hex", "ns"),
    ("cli.read_keystream.ns_per_word.bin", "ns"),
    ("cli.read_keystream.ns_per_word.hex", "ns"),
    ("generator.errors", "count"),
    ("attack.errors", "count"),
    ("oracle.errors", "count"),
    ("tfcheck.errors", "count"),
    ("cli.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tf1crack; print(time.perf_counter() - t)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="time to spend on rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness self-test")
    return parser.parse_args(argv)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
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
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _import_seconds() -> float:
    """Import time of the package (numpy included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _per_layer(rec, tally, probes, plain_cost, traced_cost) -> dict:
    def total_ns(spans):
        return sum(duration_ns(s) for s in spans)

    def per_unit(name, scale, fmt=None):
        spans = [s for s in rec.finished(name) if fmt is None or s["fmt"] == fmt]
        units = sum(s["units"] for s in spans)
        return total_ns(spans) / scale / units if units else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    recovers = rec.finished("attack.recover")
    counts = {key: sum(s["counters"][key] for s in recovers) for key in (
        "stage1_candidates", "stage1_filter_steps", "stage1_survivors",
        "stage2_candidates", "stage2_verifications")}
    m = {
        "generator.generate.ns_per_word": per_unit("generator.generate", 1),
        "generator.generate_from_instance.ns_per_word": per_unit("generator.generate_from_instance", 1),
        "attack.recover.s": median([duration_ns(s) / 1e9 for s in recovers]),
        "attack.ns_per_op": per_unit("attack.recover", 1),
        "attack.find_zero_outputs.s": median([p["zero_s"] for p in probes]),
        "attack.stage2_complete.s": median([p["stage2_s"] for p in probes]),
        "attack.stage2_complete.ns_per_candidate": ratio(
            sum(p["stage2_s"] for p in probes) * 1e9, sum(p["stage2_candidates"] for p in probes)),
        "attack.stage1.derived_s": median([p["stage1_derived_s"] for p in probes]),
        "attack.verify_state.us_per_word": per_unit("attack.verify_state", 1e3),
        **{f"attack.{key}": value for key, value in counts.items()},
        "attack.steps_per_candidate": ratio(counts["stage1_filter_steps"], counts["stage1_candidates"]),
        "attack.survivor_ratio": ratio(counts["stage1_survivors"], counts["stage1_candidates"]),
        "attack.hit_ratio": ratio(sum(s["recovered"] for s in recovers), counts["stage2_candidates"]),
        "attack.ops_over_predicted": ratio(sum(s["units"] for s in recovers),
                                           sum(s["predicted"] for s in recovers)),
        "oracle.brute_force.ns_per_state": per_unit("oracle.brute_force_consistent_states", 1),
        "tfcheck.tfunction.us_per_trial": per_unit("tfcheck.check_tfunction_property", 1e3),
        "tfcheck.truncation.us_per_trial": per_unit("tfcheck.check_truncation_consistency", 1e3),
    }
    for op in ("write_keystream", "read_keystream"):
        for fmt in ("bin", "hex"):
            m[f"cli.{op}.ns_per_word.{fmt}"] = per_unit(f"cli.{op}", 1, fmt)
    for layer in ("generator", "attack", "oracle", "tfcheck", "cli"):
        m[f"{layer}.errors"] = tally.errors[layer]
    m["trace.overhead_ratio"] = traced_cost / plain_cost - 1.0 if traced_cost else 0.0
    return m


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd).returncode
    return status


def _timed_round(workload, inputs, api, tally, index, probes):
    """One round: (round, wall ns per unit, cost per unit in reference runs)."""
    rnd = workload.run_round(inputs, api, tally, index, probes)
    if not rnd.units:
        return rnd, None, None
    return rnd, rnd.meter.busy_ns / rnd.units, rnd.meter.cost / rnd.units


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "tf1crack" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tf1crack  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS, Tally, make_api

    env = _environment()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.tiny, OUT)
    seed = workload.default_seed if args.seed is None else args.seed
    run_id = f"{args.workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    recorder = SpanRecorder(run_id) if args.trace else None
    plain = make_api()
    api = make_api(recorder) if recorder else plain

    # Set-up samples: import plus input construction.  The first uses this
    # process's import; the others import in a fresh interpreter and are
    # spread between rounds, so their median spans the run.
    setup_samples = []

    def setup(import_seconds):
        t0 = time.perf_counter()
        with recorder.span("bench.setup") if recorder else contextlib.nullcontext():
            built = workload.setup(api, seed)
        setup_samples.append(import_seconds + time.perf_counter() - t0)
        return built

    inputs = setup(import_s)
    tally = Tally()
    workload.warmup(inputs, plain, tally)
    rounds, ns_samples, cost_samples = [], [], []
    min_rounds = 1 if args.trace else workload.min_rounds
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        rnd, ns_per_unit, cost = _timed_round(workload, inputs, plain, tally, len(rounds), None)
        rounds.append(rnd)
        if cost is not None:
            ns_samples.append(ns_per_unit)
            cost_samples.append(cost)
        if len(setup_samples) < SETUP_REPEATS:
            setup(_import_seconds())
    while len(setup_samples) < SETUP_REPEATS:
        setup(_import_seconds())
    if not cost_samples:
        print("perfbench: every timed call failed; nothing to report", file=sys.stderr)
        return 1

    setup_s = statistics.median(setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    own = workload.summarize(rounds) + [
        ("ns_per_unit.p50", statistics.median(ns_samples), "ns", len(ns_samples)),
        ("unit_cost.p50", statistics.median(cost_samples), "ref", len(cost_samples)),
        ("setup_s", setup_s, "s", len(setup_samples)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
    if recorder:
        traced_tally = Tally()
        probes: list[dict] = []
        with recorder.span("bench.round"):
            # repeats round 0, so the overhead compares like with like
            _, _, traced_cost = _timed_round(workload, inputs, api, traced_tally, 0, probes)
        tally.absorb(traced_tally)
        values = _per_layer(recorder, traced_tally, probes, cost_samples[0], traced_cost)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        spans_path = OUT / f"{args.workload}-seed{seed}.spans.jsonl"
        recorder.write(spans_path)
    else:
        values = {"setup_s": setup_s, "unit_cost.p50": statistics.median(cost_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    own.append(("error_rate", tally.failed / tally.attempted, "ratio", tally.attempted))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    seeds = inputs["stream_seeds"]
    print(f"workload {args.workload} seed {seed} stream_seeds {seeds[:8]}"
          f"{' ...' if len(seeds) > 8 else ''} rounds {len(rounds)}")
    print("env " + json.dumps(env))
    for name, value, unit, n in own:
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    for note, times in tally.notes.items():
        print(f"failure x{times} {note}")
    if recorder:
        print(f"spans {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    record = {
        "env": env, "workload": args.workload, "seed": seed, "tiny": args.tiny,
        "stream_seeds": seeds,
        "rounds": [{"busy_ns": r.meter.busy_ns, "cost": r.meter.cost, "units": r.units} for r in rounds],
        "setup_samples_s": setup_samples,
        "workload_metrics": {name: {"value": value, "unit": unit, "n": n} for name, value, unit, n in own},
        "failures": dict(tally.notes), "result": result,
    }
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
