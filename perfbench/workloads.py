"""The four benchmark workloads and the public calls they make.

A workload builds its inputs from the seed (``setup``), then runs rounds of
calls into the package's public functions (``run_round``) and checks every
output.  A round is the unit the harness repeats until the run's time is
spent; it reports the wall time of its timed calls, their cost in runs of
the reference computation (see ``meter``), and the units of work they did
(the unit is stated on each workload).  Calls go through ``api``, which holds
either the plain functions or, in a traced run, the same functions wrapped
in spans.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tf1crack import (
    AttackConfig,
    Keystream,
    WordSpec,
    attack,
    cli,
    default_params,
    demo_generalized_instance,
    generator,
    oracle,
    state_from_seed,
    tf1_instance,
    tfcheck,
)
from tf1crack.generator import Tf1Params, state_prefix
from tf1crack.oracle import compare_with_report
from tf1crack.rng import SplitMix64, trial_rng

from meter import Meter


def _words(args, ks):
    return {"units": len(ks)}


def _recover(args, report):
    c = report.counters
    return {
        "units": c.total_operations(),
        "counters": vars(c).copy(),
        "recovered": len(report.recovered),
        "predicted": report.predicted_ops,
    }


# The public functions a traced run wraps, by layer, with what each span
# records: ``units`` is what the layer's per-unit metric divides by.
PUBLIC = {
    "generator": {"generate": _words, "generate_from_instance": _words},
    "attack": {
        "find_zero_outputs": None,
        "recover": _recover,
        "stage2_complete": None,
        "verify_state": lambda args, ok: {"units": args[4]},
    },
    "oracle": {"brute_force_consistent_states": lambda args, res: {"units": res.states_scanned}},
    "tfcheck": {
        "check_tfunction_property": lambda args, rep: {"units": rep.trials},
        "check_truncation_consistency": lambda args, rep: {"units": rep.trials},
    },
    "cli": {
        "write_keystream": lambda args, n: {"units": len(args[0]), "fmt": args[2]},
        "read_keystream": lambda args, ks: {"units": len(ks), "fmt": args[1]},
    },
}
_MODULES = {"generator": generator, "attack": attack, "oracle": oracle, "tfcheck": tfcheck, "cli": cli}


def make_api(recorder=None) -> SimpleNamespace:
    """The public functions, wrapped in spans when ``recorder`` is given."""
    fns = {}
    for layer, names in PUBLIC.items():
        for name, describe in names.items():
            fn = getattr(_MODULES[layer], name)
            fns[name] = fn if recorder is None else recorder.wrap(layer, fn, describe)
    return SimpleNamespace(**fns)


class Tally:
    """Operations attempted and failed; a failure never stops the run.

    ``failed`` counts operations that raised or gave a wrong result;
    ``wrong`` counts only the wrong results, which make the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.notes: Counter = Counter()  # failure message -> times seen

    def _fail(self, layer: str, why: str) -> None:
        self.failed += 1
        self.errors[layer] += 1
        self.notes[f"{layer}: {why}"] += 1

    def call(self, layer: str, fn, *args):
        """Attempt one operation; a raise is counted as a failure and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            self._fail(layer, f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            return None

    def verdict(self, layer: str, problem: str | None) -> bool:
        """Record the checked outcome of the operation just attempted."""
        if problem is not None:
            self.wrong += 1
            self._fail(layer, problem)
        return problem is None

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.update(other.errors)
        self.notes.update(other.notes)


@dataclass
class Round:
    meter: Meter = field(default_factory=Meter)  # the round's timed calls
    units: int = 0  # units of work those calls did
    timings: dict[str, list[float]] = field(default_factory=dict)  # seconds, or unit counts, by name

    def add(self, name: str, value: float) -> None:
        self.timings.setdefault(name, []).append(value)


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99) by the exclusive method of ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _merge(rounds: list[Round], name: str) -> list[float]:
    return [t for r in rounds for t in r.timings.get(name, [])]


def _draw_stream(api, params: Tf1Params, seed: int, count: int, instance=None):
    """A stream with a zero word before its last word, redrawn as ``tf1crack bench`` does.

    Returns (stream seed actually used, initial state, keystream).
    """
    for _ in range(64):
        origin = state_from_seed(seed, params.spec)
        if instance is None:
            ks = api.generate(origin, params, count)
        else:
            ks = api.generate_from_instance(origin, instance, count)
        if any(word == 0 for word in ks.words[:-1]):
            return seed, origin, ks
        seed += 1
    raise RuntimeError(f"no stream with a usable zero word from seed {seed - 64} on")


def _roll(origin, instance, steps: int):
    st = origin
    for _ in range(steps):
        st = instance.t1(st)
    return st


def _crack(api, tally: Tally, meter: Meter, ks, instance, cfg: AttackConfig, origin, probes, check=None):
    """One timed ``recover`` call and its checks; returns (seconds, report) or None.

    The true state must be among the recovered ones, every recovered state
    must reproduce the whole tail, and ``check(report)``, when given, must
    find no problem.  In a traced run ``probes`` gets the layer probes for
    this call.
    """
    report, ns = meter.time(tally.call, "attack", api.recover, ks, instance, None, cfg)
    if report is None:
        return None
    z = report.zero_index
    truth = _roll(origin, instance, z + 1)
    tail = len(ks) - z - 1
    native = None if instance.tf1_native else instance
    problem = None
    if truth not in report.recovered:
        problem = f"true state not recovered at zero index {z}"
    elif not all(api.verify_state(st, instance.params, ks, z, tail, native) for st in report.recovered):
        problem = f"a recovered state fails verify_state over the {tail}-word tail"
    elif check is not None:
        problem = check(report)
    tally.verdict("attack", problem)
    if probes is not None:
        probes.append(_probe(api, tally, ks, instance, cfg, truth, report, ns))
    return ns / 1e9, report


def _probe(api, tally: Tally, ks, instance, cfg: AttackConfig, truth, report, recover_ns: int) -> dict:
    """Time the zero scan, the true state's tail walk and one stage-2
    completion through their public functions, and derive stage 1 from them.

    The completion is of the true state's prefix, against the stream cut
    after the verification window: a wrong survivor's completions die in
    that window, and the true state's walk down the rest of the tail, which
    ``recover`` makes once, is timed on its own with ``verify_state``.
    """
    spec = instance.spec
    k = spec.half + 1
    z = report.zero_index
    tail = len(ks) - z - 1
    t0 = time.perf_counter_ns()
    api.verify_state(truth, instance.params, ks, z, tail, None if instance.tf1_native else instance)
    tail_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    zeros = tally.call("attack", api.find_zero_outputs, ks, cfg.max_zero_positions)
    zero_ns = time.perf_counter_ns() - t0
    if zeros is not None:
        tally.verdict("attack", None if z in zeros else "zero scan misses the zero used")
    prefix = state_prefix(truth, k)
    window = Keystream(ks.spec, ks.words[: z + 1 + cfg.verify_words])
    t0 = time.perf_counter_ns()
    states = tally.call("attack", api.stage2_complete, prefix, None, instance, window, z, cfg)
    stage2_ns = time.perf_counter_ns() - t0
    if states is not None:
        tally.verdict("attack", None if truth in states else "stage2_complete loses the true state")
    if cfg.enumeration_mode == "trivial":
        candidates = 1 << (3 * (spec.width - k))
    else:
        candidates = sum(
            1 for _ in attack.enumerate_preimages_dfs(instance, k + 1, spec.width, known=prefix, target=0)
        )
    return {
        "zero_s": zero_ns / 1e9,
        "stage2_s": stage2_ns / 1e9,
        "stage2_candidates": candidates,
        "stage1_derived_s": (recover_ns - zero_ns - report.counters.stage1_survivors * stage2_ns - tail_ns) / 1e9,
    }


class Workload:
    """Shared shape: ``setup`` builds inputs from the seed; ``run_round`` runs
    round ``index`` and checks it (rounds with the same index do the same
    work); ``summarize`` gives the workload's own end-to-end metrics as
    (name, value, unit, sample count)."""

    name = ""
    default_seed = 1
    min_rounds = 1  # untraced rounds a run makes even when --seconds is spent

    def __init__(self, tiny: bool, out_dir: Path) -> None:
        self.tiny = tiny
        self.out_dir = out_dir

    def warmup(self, inp, api, tally) -> None:
        pass


class CrackW16(Workload):
    """The paper's headline case: ``recover`` on the documented w=16 stream.

    Stream seed 1, 2^18 words, default constants, trivial mode, one worker.
    Stage 1 (the numpy filter kernel) takes about three quarters of the
    time and stage-2 completion most of the rest.  Generating the stream is
    set-up.  Unit: one counted attack operation (filter step or
    verification), so that seeds with more stage-1 survivors stay
    comparable.
    """

    name = "crack-w16"
    default_seed = 1
    # Counters and zero index of the documented stream (seed 1).
    PINNED = {
        "zero_index": 103179,
        "stage1_candidates": 134_217_728,
        "stage1_filter_steps": 270_245_956,
        "stage1_survivors": 32,
        "stage2_candidates": 67_108_864,
        "stage2_verifications": 67_268_658,
    }

    def __init__(self, tiny: bool, out_dir: Path) -> None:
        super().__init__(tiny, out_dir)
        self.width, self.count = (8, 8192) if tiny else (16, 1 << 18)

    def setup(self, api, seed: int) -> dict:
        params = default_params(WordSpec(self.width))
        used, origin, ks = _draw_stream(api, params, seed, self.count)
        return {"instance": tf1_instance(params), "origin": origin, "ks": ks, "stream_seeds": [used]}

    def run_round(self, inp, api, tally: Tally, index: int, probes) -> Round:
        rnd = Round()
        got = _crack(api, tally, rnd.meter, inp["ks"], inp["instance"], AttackConfig(workers=1),
                     inp["origin"], probes, lambda report: self._counter_problem(report, inp["stream_seeds"][0]))
        if got is not None:
            seconds, report = got
            rnd.add("recover_s", seconds)
            rnd.units = report.counters.total_operations()
        return rnd

    def _counter_problem(self, report, stream_seed: int) -> str | None:
        c = vars(report.counters)
        k = self.width // 2 + 1
        if stream_seed == 1 and not self.tiny:
            got = dict(c, zero_index=report.zero_index)
            bad = {key: got[key] for key, want in self.PINNED.items() if got[key] != want}
            return f"counters differ from the documented stream: {bad}" if bad else None
        if c["stage1_candidates"] != 1 << (3 * k):
            return f"stage1_candidates {c['stage1_candidates']} != 2^{3 * k}"
        if c["stage2_candidates"] != c["stage1_survivors"] << (3 * (self.width - k)):
            return "stage2_candidates != survivors * 2^(3(w-k))"
        return None

    def summarize(self, rounds: list[Round]) -> list[tuple]:
        times = _merge(rounds, "recover_s")
        return [("recover_s.p50", statistics.median(times), "s", len(times))]


class CrackGenericW10(Workload):
    """The scalar attack path: ``recover`` in dfs mode on fixed w=10 streams.

    Five streams of ``demo_generalized_instance`` and one of
    ``tf1_instance`` (4096 words each).  This exercises
    ``enumerate_preimages_dfs``, the truncated callables and
    ``instance_output`` and never the numpy kernels, so a batch-kernel
    change should not move it.  The first dfs call in a process is slower,
    so an untimed call on a small w=6 stream warms the path up.  A round is
    one call per stream.  Unit: one counted attack operation.
    """

    name = "crack-generic-w10"
    default_seed = 1

    def __init__(self, tiny: bool, out_dir: Path) -> None:
        super().__init__(tiny, out_dir)
        self.width, self.count = (6, 256) if tiny else (10, 4096)

    def setup(self, api, seed: int) -> dict:
        spec = WordSpec(self.width)
        params = default_params(spec)
        demo = demo_generalized_instance(spec, params)
        tf1 = tf1_instance(params)
        rng = SplitMix64(seed)
        streams = []
        for instance in (demo, demo, demo, demo, demo, tf1):
            used, origin, ks = _draw_stream(
                api, params, rng.next64(), self.count, None if instance is tf1 else instance
            )
            streams.append((instance, used, origin, ks))
        return {"streams": streams, "stream_seeds": [s[1] for s in streams]}

    def warmup(self, inp, api, tally) -> None:
        params = default_params(WordSpec(6))
        instance = demo_generalized_instance(params.spec, params)
        _, origin, ks = _draw_stream(api, params, 1, 256, instance)
        _crack(api, tally, Meter(), ks, instance, AttackConfig(enumeration_mode="dfs"), origin, None)

    def run_round(self, inp, api, tally: Tally, index: int, probes) -> Round:
        rnd = Round()
        cfg = AttackConfig(enumeration_mode="dfs")
        for instance, _, origin, ks in inp["streams"]:
            got = _crack(api, tally, rnd.meter, ks, instance, cfg, origin, probes)
            if got is not None:
                seconds, report = got
                rnd.add("recover_s", seconds)
                rnd.units += report.counters.total_operations()
        return rnd

    def summarize(self, rounds: list[Round]) -> list[tuple]:
        times = _merge(rounds, "recover_s")
        return [("recover_s.p50", statistics.median(times), "s", len(times))]


class StreamIO(Workload):
    """The generator side with no attack: bulk streams, files, property checks.

    Each round generates w=16 (2^20 words), w=32 (2^18) and w=10 (2^16)
    streams, writes each as bin and hex, reads it back and compares it word
    for word; then runs the T-function and truncation checks at w=16 and
    w=64.  Unit: one generated word (the round's timed calls, the checks
    included, over its 1,376,256 words).
    """

    name = "stream-io"
    default_seed = 1

    def __init__(self, tiny: bool, out_dir: Path) -> None:
        super().__init__(tiny, out_dir)
        self.sizes = ((16, 1024), (32, 256), (10, 256)) if tiny else ((16, 1 << 20), (32, 1 << 18), (10, 1 << 16))
        self.trials = 20 if tiny else 2000

    def setup(self, api, seed: int) -> dict:
        rng = SplitMix64(seed)
        streams = []
        for width, count in self.sizes:
            params = default_params(WordSpec(width))
            streams.append((params, state_from_seed(rng.next64(), params.spec), count))
        checks = []
        for width in (16, 64):
            spec = WordSpec(width)
            params = default_params(spec)
            instances = (tf1_instance(params), demo_generalized_instance(spec, params))
            checks.append((spec, params, instances, rng.next64()))
        return {"streams": streams, "checks": checks, "stream_seeds": [seed]}

    def run_round(self, inp, api, tally: Tally, index: int, probes) -> Round:
        rnd = Round()
        timed = rnd.meter.time
        for params, origin, count in inp["streams"]:
            ks, ns = timed(tally.call, "generator", api.generate, origin, params, count)
            rnd.add("generate_s", ns / 1e9)
            if ks is None:
                continue
            rnd.units += len(ks)
            for fmt in ("bin", "hex"):
                path = self.out_dir / f"stream-w{params.spec.width}-{os.getpid()}.{fmt}"
                written, ns = timed(tally.call, "cli", api.write_keystream, ks, str(path), fmt)
                rnd.add("write_s", ns / 1e9)
                if written is None:
                    continue
                back, ns = timed(tally.call, "cli", api.read_keystream, str(path), fmt)
                path.unlink()
                if back is None:
                    continue
                ok = tally.verdict(
                    "cli",
                    None if (back.spec, back.words) == (ks.spec, ks.words)
                    else f"w={params.spec.width} {fmt} round trip is not exact",
                )
                if ok:
                    rnd.add("read_s", ns / 1e9)
                    rnd.add("read_words", len(back))
        rnd.add("words", rnd.units)
        for spec, params, instances, check_seed in inp["checks"]:
            for target in ("t1", "t2", "t2_demo"):
                self._check(rnd, tally, api.check_tfunction_property, target, spec, params, check_seed)
            for instance in instances:
                self._check(rnd, tally, api.check_truncation_consistency, instance, spec, None, check_seed)
        return rnd

    def _check(self, rnd: Round, tally: Tally, fn, subject, spec, params, check_seed: int) -> None:
        args = (subject, spec, params, self.trials, check_seed) if params else (subject, spec, self.trials, check_seed)
        rep, ns = rnd.meter.time(tally.call, "tfcheck", fn, *args)
        rnd.add("check_s", ns / 1e9)
        if rep is not None:
            rnd.add("check_trials", rep.trials)
            tally.verdict("tfcheck", None if rep.failures == 0 else f"{fn.__name__} found {rep.failures} failures")

    def summarize(self, rounds: list[Round]) -> list[tuple]:
        words = sum(_merge(rounds, "words"))
        gen = sum(_merge(rounds, "generate_s")) + sum(_merge(rounds, "write_s"))
        read_words = sum(_merge(rounds, "read_words"))
        trials = sum(_merge(rounds, "check_trials"))
        n = len(rounds)
        return [
            ("gen_words_per_s", words / gen, "words/s", n),
            ("load_words_per_s", read_words / sum(_merge(rounds, "read_s")), "words/s", n),
            ("check_trials_per_s", trials / sum(_merge(rounds, "check_s")), "trials/s", n),
        ]


class CertifySmall(Workload):
    """Many short calls: w=8 recoveries and w=4 oracle certifications.

    The w=8 calls have the criterion-05 shape (8192-word streams, default
    constants), 100 streams in all.  A w=4 certification draws random
    constants (odd C), recovers in trivial and in dfs mode, and compares
    both with ``brute_force_consistent_states``.  Per-call set-up dominates
    here, so a kernel that wins at w=16 but costs more per call shows up.
    A round is 25 w=8 calls and 4 certifications, cycling through the
    inputs, and a run makes at least four, so that ``recover_s.p90`` rests
    on at least 100 calls.  Unit: one timed public call of the round (a
    certification makes three).
    """

    name = "certify-small"
    default_seed = 77  # criterion 05's stream seed
    min_rounds = 4

    def __init__(self, tiny: bool, out_dir: Path) -> None:
        super().__init__(tiny, out_dir)
        self.w8_streams, self.w4_certs = (8, 2) if tiny else (100, 16)
        self.w8_per_round, self.w4_per_round = (4, 1) if tiny else (25, 4)

    def setup(self, api, seed: int) -> dict:
        params8 = default_params(WordSpec(8))
        rng = SplitMix64(seed)
        w8 = [_draw_stream(api, params8, rng.next64(), 8192) for _ in range(self.w8_streams)]
        rng4 = trial_rng(seed, 1)
        w4 = []
        spec4 = WordSpec(4)
        for _ in range(self.w4_certs):
            params = Tf1Params(c1=rng4.below(16), c3=rng4.below(16), c=rng4.below(16) | 1, spec=spec4)
            w4.append((params,) + _draw_stream(api, params, rng4.next64(), 512))
        return {
            "instance8": tf1_instance(params8),
            "w8": w8,
            "w4": w4,
            "stream_seeds": [s[0] for s in w8] + [s[1] for s in w4],
        }

    def run_round(self, inp, api, tally: Tally, index: int, probes) -> Round:
        rnd = Round()
        inst8 = inp["instance8"]
        cfg = AttackConfig()
        for i in range(self.w8_per_round):
            _, origin, ks = inp["w8"][(index * self.w8_per_round + i) % len(inp["w8"])]
            got = _crack(api, tally, rnd.meter, ks, inst8, cfg, origin, probes)
            if got is not None:
                rnd.add("recover_s", got[0])
                rnd.units += 1
        for i in range(self.w4_per_round):
            params, _, origin, ks = inp["w4"][(index * self.w4_per_round + i) % len(inp["w4"])]
            seconds = self._certify(api, tally, rnd.meter, params, origin, ks, probes)
            if seconds is not None:
                rnd.add("certify_s", seconds)
                rnd.units += 3
        return rnd

    def _certify(self, api, tally: Tally, meter: Meter, params, origin, ks, probes) -> float | None:
        instance = tf1_instance(params)
        reports = []
        seconds = 0.0
        for mode in ("trivial", "dfs"):
            got = _crack(api, tally, meter, ks, instance, AttackConfig(enumeration_mode=mode), origin, probes)
            if got is None:
                return None
            seconds += got[0]
            reports.append(got[1])
        rep = reports[0]
        result, ns = meter.time(
            tally.call, "oracle", api.brute_force_consistent_states, ks, rep.zero_index, params, rep.verified_words
        )
        seconds += ns / 1e9
        if result is None:
            return None
        agree = all(compare_with_report(r, result) for r in reports)
        tally.verdict("attack", None if agree else f"w=4 constants {params} disagree with the oracle")
        return seconds

    def summarize(self, rounds: list[Round]) -> list[tuple]:
        times = _merge(rounds, "recover_s")
        certs = _merge(rounds, "certify_s")
        return [
            ("recover_s.p50", statistics.median(times), "s", len(times)),
            ("recover_s.p90", _percentile(times, 90), "s", len(times)),
            ("certify_s.p50", statistics.median(certs), "s", len(certs)),
        ]


WORKLOADS = {w.name: w for w in (CrackW16, CrackGenericW10, StreamIO, CertifySmall)}
