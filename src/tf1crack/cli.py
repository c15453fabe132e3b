"""Command-line surface and bit-exact keystream serialization.

Binary layout: magic "TF1K", version 0x01, width byte, flags 0x00, 8-byte
little-endian word count, then each word in ceil(w/8) little-endian bytes.
Hex layout: one lowercase ceil(w/4)-digit word per line; lines starting
with '#' are comments.  When 4 does not divide w, the first line is the
header "# w=N"; otherwise the width is inferred from the digit count.  The
reader takes exactly ceil(w/4) digits [0-9a-fA-F] per line: no sign, prefix
or underscore.

Exit codes: 0 success, 1 attack-level failure (no zero word, hopeless tail,
survivor overflow, mismatched constants), 2 usage or input-format problems,
including an oracle scan above its budget.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from . import attack as attack_mod
from .attack import AttackConfig, AttackReport, predicted_work, recover
from .generator import (
    Keystream,
    State,
    Tf1Params,
    default_params,
    demo_generalized_instance,
    generate,
    state_from_seed,
    tf1_instance,
)
from .oracle import BudgetExceeded, brute_force_consistent_states
from .tfcheck import check_tfunction_property, check_truncation_consistency, zero_frequency
from .word import WordSpec

__all__ = [
    "FormatError",
    "TruncationError",
    "ParseError",
    "write_keystream",
    "read_keystream",
    "parse_state",
    "format_state",
    "run",
    "main",
]

MAGIC = b"TF1K"
VERSION = 1
_HEX_HEADER = re.compile(r"#\s*w=(\d+)")
_HEX_DIGITS = "0123456789abcdefABCDEF"

# Every machine-report key, in emission order; recovered_1.. follow
# recovered_0 when more than one state is found.  --workers never changes
# anything but elapsed_ms.
MACHINE_REPORT_KEYS = (
    "w",
    "constants",
    "mode",
    "zero_index",
    "horizon",
    "stage1_candidates",
    "stage1_filter_steps",
    "stage1_survivors",
    "stage2_candidates",
    "stage2_verifications",
    "recovered_count",
    "recovered_0",
    "predicted_ops",
    "elapsed_ms",
)


class FormatError(Exception):
    """Malformed keystream file (bad magic, version, width, digits...)."""


class TruncationError(FormatError):
    """Fewer payload words than the header promised."""


class ParseError(Exception):
    """Malformed state or constants text."""


def _word_bytes(width: int) -> int:
    return (width + 7) // 8


def write_keystream(ks: Keystream, destination, fmt: str = "bin") -> int:
    """Serialize a keystream; returns the byte count written.

    ``destination`` may be a path or '-' for stdout (hex only makes sense
    there).
    """
    if fmt == "bin":
        payload = bytearray()
        payload += MAGIC
        payload += bytes([VERSION, ks.spec.width, 0])
        payload += len(ks.words).to_bytes(8, "little")
        nb = _word_bytes(ks.spec.width)
        for word in ks.words:
            payload += word.to_bytes(nb, "little")
        data = bytes(payload)
        if destination == "-":
            sys.stdout.buffer.write(data)
            return len(data)
        Path(destination).write_bytes(data)
        return len(data)
    if fmt == "hex":
        digits = ks.spec.hex_digits
        header = "" if 4 * digits == ks.spec.width else f"# w={ks.spec.width}\n"
        text = header + "".join(f"{word:0{digits}x}\n" for word in ks.words)
        if destination == "-":
            sys.stdout.write(text)
            return len(text.encode())
        Path(destination).write_text(text)
        return len(text.encode())
    raise ValueError(f"unknown format {fmt!r}; expected 'bin' or 'hex'")


def read_keystream(source, fmt: str = "bin") -> Keystream:
    """Inverse of write_keystream, with strict validation."""
    if fmt == "bin":
        data = Path(source).read_bytes()
        if len(data) < 15:
            raise FormatError(f"{source}: header needs 15 bytes, file has {len(data)}")
        if data[:4] != MAGIC:
            raise FormatError(f"{source}: bad magic {data[:4]!r}")
        if data[4] != VERSION:
            raise FormatError(f"{source}: unsupported version {data[4]}")
        try:
            spec = WordSpec(data[5])
        except ValueError as exc:
            raise FormatError(f"{source}: {exc}") from None
        if data[6] != 0:
            raise FormatError(f"{source}: reserved flags byte is {data[6]:#x}")
        count = int.from_bytes(data[7:15], "little")
        nb = _word_bytes(spec.width)
        payload = data[15:]
        if len(payload) < count * nb:
            raise TruncationError(
                f"{source}: header promises {count} words, payload holds {len(payload) // nb}"
            )
        if len(payload) > count * nb:
            raise FormatError(f"{source}: {len(payload) - count * nb} trailing bytes")
        words = []
        for i in range(count):
            word = int.from_bytes(payload[i * nb : (i + 1) * nb], "little")
            if word > spec.mask:
                raise FormatError(f"{source}: word {i} is {word:#x}, above the width-{spec.width} mask")
            words.append(word)
        return Keystream(spec, tuple(words))
    if fmt == "hex":
        words = []
        spec = None
        with open(source) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                header = _HEX_HEADER.fullmatch(line) if spec is None else None
                if not header and (not line or line.strip(_HEX_DIGITS)):  # int() alone takes 0x, +, _
                    if not line or line.startswith("#"):
                        continue
                    raise FormatError(f"{source}:{lineno}: not hexadecimal: {line!r}")
                if spec is None:
                    try:
                        spec = WordSpec(int(header.group(1)) if header else len(line) * 4)
                    except ValueError as exc:
                        raise FormatError(f"{source}:{lineno}: {exc}") from None
                    digits, mask = spec.hex_digits, spec.mask
                    if header:
                        continue
                if len(line) != digits:
                    raise FormatError(
                        f"{source}:{lineno}: expected {digits} hex digits, got {len(line)}"
                    )
                word = int(line, 16)
                if word > mask:
                    raise FormatError(
                        f"{source}:{lineno}: word {word:#x} is above the width-{spec.width} mask"
                    )
                words.append(word)
        if spec is None:
            raise FormatError(f"{source}: no data lines; width cannot be inferred")
        return Keystream(spec, tuple(words))
    raise ValueError(f"unknown format {fmt!r}; expected 'bin' or 'hex'")


def _parse_hex_fields(text: str, spec: WordSpec, what: str, names) -> list[int]:
    """Colon-separated hex fields, one per name, each at most the width mask."""
    parts = text.split(":")
    if len(parts) != len(names):
        raise ParseError(
            f"{what}: expected {len(names)} colon-separated fields {':'.join(names)}, "
            f"got {len(parts)}: {text!r}"
        )
    values = []
    for name, part in zip(names, parts):
        try:
            value = int(part, 16)
        except ValueError:
            raise ParseError(f"{what}: field {name} is not hexadecimal: {part!r}") from None
        if not 0 <= value <= spec.mask:
            raise ParseError(f"{what}: field {name}={part} exceeds the width-{spec.width} mask")
        values.append(value)
    return values


def _hex_fields(values, spec: WordSpec) -> str:
    return ":".join(f"{v:0{spec.hex_digits}x}" for v in values)


def parse_state(text: str, spec: WordSpec) -> State:
    """Parse "a:b:c:d" in hex, each field at most the width mask."""
    return State(*_parse_hex_fields(text, spec, "state", "abcd"))


def format_state(state: State, spec: WordSpec) -> str:
    return _hex_fields(state.words(), spec)


def _parse_constants(text: str, spec: WordSpec) -> Tf1Params:
    """Constants flag value "C1:C3:C" in hex."""
    return Tf1Params(*_parse_hex_fields(text, spec, "constants", ("C1", "C3", "C")), spec)


def _format_constants(params: Tf1Params) -> str:
    return _hex_fields((params.c1, params.c3, params.c), params.spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tf1crack",
        description="Generate TF-1 keystreams and recover internal states from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a keystream")
    gen.add_argument("--w", type=int, required=True, help="word width in bits (even, 4..64)")
    seed = gen.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed-state", help="initial state a:b:c:d in hex")
    seed.add_argument("--random-seed", type=int, help="64-bit integer expanded via splitmix64")
    gen.add_argument("--constants", help="update constants C1:C3:C in hex (default: built-ins)")
    gen.add_argument("--count", type=int, required=True, help="number of output words")
    gen.add_argument("--out", default="-", help="output path, or - for stdout")
    gen.add_argument("--format", choices=("bin", "hex"), default="hex")

    atk = sub.add_parser("attack", help="recover internal states from a keystream file")
    atk.add_argument("--w", type=int, help="expected width; must match the file")
    atk.add_argument("--constants", help="update constants C1:C3:C in hex (default: built-ins)")
    atk.add_argument("--in", dest="infile", required=True, help="keystream path")
    atk.add_argument("--format", choices=("bin", "hex"), default="bin")
    atk.add_argument("--mode", choices=("trivial", "dfs"), default="trivial")
    atk.add_argument("--horizon", type=int, help="stage-1 filter depth (default 3*(w/2+1))")
    atk.add_argument("--max-survivors", type=int, default=4096)
    atk.add_argument("--max-zero-positions", type=int, default=8)
    atk.add_argument("--report", choices=("machine", "human"), default="human")
    atk.add_argument("--workers", type=int, default=1)

    chk = sub.add_parser("check", help="run structural or statistical checks")
    chk.add_argument("what", choices=("tfunc", "trunc", "stats"))
    chk.add_argument("--w", type=int, required=True)
    chk.add_argument("--constants")
    chk.add_argument("--trials", type=int, default=10_000)
    chk.add_argument("--rng-seed", type=int, default=1)
    chk.add_argument("--count", type=int, default=1_000_000, help="stats: words to generate")
    chk.add_argument("--random-seed", type=int, default=1, help="stats: seed for the stream")

    orc = sub.add_parser("oracle", help="exhaustive consistency scan (w=4; w=8 with --budget)")
    orc.add_argument("--w", type=int, help="expected width; must match the file")
    orc.add_argument("--constants")
    orc.add_argument("--in", dest="infile", required=True)
    orc.add_argument("--format", choices=("bin", "hex"), default="bin")
    orc.add_argument("--zero-index", type=int, help="default: first zero word")
    orc.add_argument("--window", type=int, help="words to verify (default: whole tail)")
    orc.add_argument("--budget", type=int, help="state-space cap override (needed for w=8)")

    ben = sub.add_parser("bench", help="measure attack operation counts against the prediction")
    ben.add_argument("--w", type=int, required=True)
    ben.add_argument("--constants")
    ben.add_argument("--count", type=int, help="keystream length (default 4 * 2^w, capped at 2^20)")
    ben.add_argument("--random-seed", type=int, default=1)
    ben.add_argument("--mode", choices=("trivial", "dfs"), default="trivial")
    ben.add_argument("--workers", type=int, default=1)

    return parser


def _params_for(args, spec: WordSpec) -> Tf1Params:
    if getattr(args, "constants", None):
        return _parse_constants(args.constants, spec)
    return default_params(spec)


def _print_machine_report(report: AttackReport, params: Tf1Params) -> None:
    c = report.counters
    lines = [
        ("w", params.spec.width),
        ("constants", _format_constants(params)),
        ("mode", report.mode),
        ("zero_index", report.zero_index),
        ("horizon", report.horizon),
        ("stage1_candidates", c.stage1_candidates),
        ("stage1_filter_steps", c.stage1_filter_steps),
        ("stage1_survivors", c.stage1_survivors),
        ("stage2_candidates", c.stage2_candidates),
        ("stage2_verifications", c.stage2_verifications),
        ("recovered_count", len(report.recovered)),
    ]
    for key, value in lines:
        print(f"{key}={value}")
    for i, st in enumerate(report.recovered):
        print(f"recovered_{i}={format_state(st, params.spec)}")
    print(f"predicted_ops={report.predicted_ops}")
    print(f"elapsed_ms={int(report.elapsed * 1000)}")


def _print_human_report(report: AttackReport, params: Tf1Params) -> None:
    c = report.counters
    spec = params.spec
    print(f"width {spec.width}, constants {_format_constants(params)}, mode {report.mode}")
    print(f"zero output at index {report.zero_index}; "
          f"verified against the following {report.verified_words} words")
    clamp = " (clamped to the tail)" if report.horizon_clamped else ""
    print(f"stage 1: {c.stage1_candidates} candidates, horizon {report.horizon}{clamp}, "
          f"{c.stage1_filter_steps} filter steps, {c.stage1_survivors} survivors")
    print(f"stage 2: {c.stage2_candidates} completions, {c.stage2_verifications} verification steps")
    total = c.total_operations()
    print(f"operations: {total} counted vs {report.predicted_ops} predicted "
          f"(ratio {total / report.predicted_ops:.3f})")
    print(f"recovered {len(report.recovered)} state(s) in {report.elapsed:.3f}s:")
    for st in report.recovered:
        print(f"  {format_state(st, spec)}")


def _cmd_gen(args) -> int:
    spec = WordSpec(args.w)
    params = _params_for(args, spec)
    if args.seed_state is not None:
        seed = parse_state(args.seed_state, spec)
    else:
        seed = state_from_seed(args.random_seed, spec)
    if args.count < 0:
        print("count must be >= 0", file=sys.stderr)
        return 2
    ks = generate(seed, params, args.count)
    write_keystream(ks, args.out, args.format)
    return 0


def _read_for(args) -> Keystream:
    ks = read_keystream(args.infile, args.format)
    if args.w is not None and ks.spec.width != args.w:
        raise FormatError(
            f"{args.infile}: file width {ks.spec.width} does not match --w {args.w}"
        )
    return ks


def _cmd_attack(args) -> int:
    ks = _read_for(args)
    params = _params_for(args, ks.spec)
    cfg = AttackConfig(
        filter_horizon=args.horizon,
        max_survivors=args.max_survivors,
        max_zero_positions=args.max_zero_positions,
        enumeration_mode=args.mode,
        workers=args.workers,
    )
    report = recover(ks, tf1_instance(params), params, cfg)
    if args.report == "machine":
        _print_machine_report(report, params)
    else:
        _print_human_report(report, params)
    return 0


def _cmd_check(args) -> int:
    spec = WordSpec(args.w)
    params = _params_for(args, spec)
    if args.what == "tfunc":
        bad = 0
        for target in ("t1", "t2", "t2_demo"):
            rep = check_tfunction_property(target, spec, params, args.trials, args.rng_seed)
            print(f"target={target} trials={rep.trials} failures={rep.failures}")
            bad += rep.failures
        return 0 if bad == 0 else 1
    if args.what == "trunc":
        bad = 0
        for name, inst in (
            ("tf1", tf1_instance(params)),
            ("demo", demo_generalized_instance(spec, params)),
        ):
            rep = check_truncation_consistency(inst, spec, args.trials, args.rng_seed)
            print(f"instance={name} trials={rep.trials} failures={rep.failures}")
            bad += rep.failures
        return 0 if bad == 0 else 1
    # stats
    ks = generate(state_from_seed(args.random_seed, spec), params, args.count)
    zeros, rate = zero_frequency(ks)
    print(f"words={len(ks)} zeros={zeros} rate={rate:.3e} expected_rate={2 ** -spec.width:.3e}")
    note = attack_mod.even_c_note(params)
    if note:
        print(f"note: {note}")
    return 0


def _cmd_oracle(args) -> int:
    ks = _read_for(args)
    params = _params_for(args, ks.spec)
    if args.zero_index is not None:
        zero_index = args.zero_index
    else:
        zeros = attack_mod.find_zero_outputs(ks, 1)
        if not zeros:
            note = attack_mod.even_c_note(params)
            raise attack_mod.NeedMoreKeystream(
                "no zero output word in the keystream" + (f"; {note}" if note else "")
            )
        zero_index = zeros[0]
    tail = len(ks) - zero_index - 1
    window = tail if args.window is None else args.window
    result = brute_force_consistent_states(ks, zero_index, params, window, args.budget)
    print(f"zero_index={result.zero_index}")
    print(f"window={result.window}")
    print(f"states_scanned={result.states_scanned}")
    print(f"consistent_count={len(result.consistent_states)}")
    for i, st in enumerate(result.consistent_states):
        print(f"consistent_{i}={format_state(st, ks.spec)}")
    return 0


def _cmd_bench(args) -> int:
    spec = WordSpec(args.w)
    params = _params_for(args, spec)
    cfg = AttackConfig(enumeration_mode=args.mode, workers=args.workers)
    print(f"w={spec.width}")
    work = predicted_work(spec)
    print(f"predicted_ops={work}")
    print(f"predicted_ops_log2={3 * spec.width // 2 + 4}")
    if spec.width > 16:
        print("measurement skipped: keystreams of 2^w words are impractical above w=16 here")
        return 0
    count = args.count if args.count is not None else min(4 << spec.width, 1 << 20)
    seed = args.random_seed
    for _ in range(64):
        ks = generate(state_from_seed(seed, spec), params, count)
        if any(word == 0 for word in ks.words[:-1]):
            break
        seed += 1
    print(f"keystream_words={count}")
    print(f"stream_seed={seed}")
    report = recover(ks, tf1_instance(params), params, cfg)
    c = report.counters
    measured = c.total_operations()
    print(f"stage1_candidates={c.stage1_candidates}")
    print(f"stage1_filter_steps={c.stage1_filter_steps}")
    print(f"stage1_survivors={c.stage1_survivors}")
    print(f"stage2_candidates={c.stage2_candidates}")
    print(f"stage2_verifications={c.stage2_verifications}")
    print(f"measured_ops={measured}")
    print(f"measured_over_predicted={measured / work:.4f}")
    print(f"elapsed_ms={int(report.elapsed * 1000)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "attack": _cmd_attack,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except attack_mod.AttackError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ParseError, ValueError, BudgetExceeded) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
