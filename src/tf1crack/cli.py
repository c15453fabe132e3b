"""Command-line surface and bit-exact keystream serialization.

Binary layout: magic "TF1K", version 0x01, width byte, flags 0x00, 8-byte
little-endian word count, then each word in ceil(w/8) little-endian bytes.
Hex layout: one lowercase ceil(w/4)-digit word per line; lines starting
with '#' are comments.  When 4 does not divide w, or the stream is empty,
the first line is the header "# w=N"; otherwise the width is inferred from
the digit count.  The reader takes exactly ceil(w/4) digits [0-9a-fA-F] per
line: no sign, prefix or underscore.

The writers read the keystream's word array, and the readers build one
array that the keystream keeps: the bin reader converts the whole payload
in one numpy pass; the hex reader and both writers convert in blocks of
2**16 words.  A hex line that holds exactly ceil(w/4) digits and nothing
else is decoded in its block, with no Python int per word; every other
line (comments, blank or padded lines, bad lines, the lines before the
width is known) goes through the per-line rule in line order, so the
first bad line is the one reported.

Exit codes: 0 success, 1 attack-level failure (no zero word, hopeless tail,
survivor overflow, mismatched constants), 2 usage or input-format problems,
including an empty keystream.
"""

from __future__ import annotations

import argparse
import re
import struct
import sys
from pathlib import Path

import numpy as np

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
from .oracle import _check_oracle_width, brute_force_consistent_states
from .tfcheck import check_tfunction_property, check_truncation_consistency, zero_frequency
from .word import WordSpec, word_dtype

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
# magic, version, width, flags, word count: 15 bytes
_HEADER = struct.Struct("<4sBBBQ")
_HEX_HEADER = re.compile(r"#\s*w=(\d+)")
_HEX_DIGITS = "0123456789abcdefABCDEF"
_BLOCK = 1 << 16  # words converted per numpy block; never affects results
_DIGITS = np.frombuffer(_HEX_DIGITS[:16].encode(), np.uint8)
# byte -> hex digit value, 16 for a byte that is no hex digit
_NIBBLE = np.full(256, 16, np.uint8)
_NIBBLE[np.frombuffer(_HEX_DIGITS.encode(), np.uint8)] = [*range(16), *range(10, 16)]


def _is_hex(text: str) -> bool:
    """True iff ``text`` is one or more hex digits, of either case.  int(text,
    16) alone also takes a sign, a 0x prefix, _ separators and spaces."""
    return bool(text) and not text.strip(_HEX_DIGITS)


class FormatError(Exception):
    """Malformed keystream file (bad magic, version, width, digits...)."""


class TruncationError(FormatError):
    """Fewer payload words than the header promised."""


class ParseError(Exception):
    """Malformed state or constants text."""


def _word_bytes(width: int) -> int:
    return (width + 7) // 8


def _hex_lines(block: np.ndarray, digits: int) -> bytes:
    """A block of words as lowercase ``digits``-digit lines, each ending in '\\n'."""
    out = np.empty((len(block), digits + 1), np.uint8)
    out[:, digits] = ord("\n")
    for j in range(digits):
        out[:, j] = _DIGITS.take((block >> 4 * (digits - 1 - j)) & 15)
    return out.tobytes()


def write_keystream(ks: Keystream, destination, fmt: str = "bin") -> int:
    """Serialize a keystream; returns the byte count written.

    ``destination`` may be a path or '-' for stdout (hex only makes sense
    there).
    """
    spec = ks.spec
    dtype = word_dtype(spec.width).newbyteorder("<")
    # the keystream's own array on a little-endian machine
    array = np.asarray(ks.words).astype(dtype, copy=False)
    blocks = (array[i : i + _BLOCK] for i in range(0, array.size, _BLOCK))
    if fmt == "bin":
        nb = _word_bytes(spec.width)
        head = _HEADER.pack(MAGIC, VERSION, spec.width, 0, array.size)
        body = (block.view(np.uint8).reshape(-1, dtype.itemsize)[:, :nb].tobytes() for block in blocks)
    elif fmt == "hex":
        digits = spec.hex_digits
        head = (f"# w={spec.width}\n" if 4 * digits != spec.width or not array.size else "").encode()
        body = (_hex_lines(block, digits) for block in blocks)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'bin' or 'hex'")
    data = b"".join([head, *body])
    if destination == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        Path(destination).write_bytes(data)
    return len(data)


def _hex_line(source, lineno: int, line: str, spec: WordSpec | None) -> tuple[WordSpec | None, int | None]:
    """One hex-file line: (the width, known or not yet, and the line's word,
    or None for a header, comment or blank line)."""
    line = line.strip()
    header = _HEX_HEADER.fullmatch(line) if spec is None else None
    if not header and not _is_hex(line):
        if not line or line.startswith("#"):
            return spec, None
        raise FormatError(f"{source}:{lineno}: not hexadecimal: {line!r}")
    if spec is None:
        try:
            spec = WordSpec(int(header.group(1)) if header else len(line) * 4)
        except ValueError as exc:
            raise FormatError(f"{source}:{lineno}: {exc}") from None
        if header:
            return spec, None
    if len(line) != spec.hex_digits:
        raise FormatError(f"{source}:{lineno}: expected {spec.hex_digits} hex digits, got {len(line)}")
    word = int(line, 16)
    if word > spec.mask:
        raise FormatError(f"{source}:{lineno}: word {word:#x} is above the width-{spec.width} mask")
    return spec, word


def read_keystream(source, fmt: str = "bin") -> Keystream:
    """Inverse of write_keystream, with strict validation."""
    if fmt == "bin":
        data = Path(source).read_bytes()
        if len(data) < _HEADER.size:
            raise FormatError(f"{source}: header needs {_HEADER.size} bytes, file has {len(data)}")
        magic, version, width, flags, count = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise FormatError(f"{source}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{source}: unsupported version {version}")
        try:
            spec = WordSpec(width)
        except ValueError as exc:
            raise FormatError(f"{source}: {exc}") from None
        if flags != 0:
            raise FormatError(f"{source}: reserved flags byte is {flags:#x}")
        nb = _word_bytes(spec.width)
        payload = len(data) - _HEADER.size
        if payload < count * nb:
            raise TruncationError(f"{source}: header promises {count} words, payload holds {payload // nb}")
        if payload > count * nb:
            raise FormatError(f"{source}: {payload - count * nb} trailing bytes")
        dtype = word_dtype(spec.width).newbyteorder("<")
        wide = np.zeros((count, dtype.itemsize), np.uint8)
        wide[:, :nb] = np.frombuffer(data, np.uint8, offset=_HEADER.size).reshape(count, nb)
        words = wide.view(dtype)[:, 0]
        above = np.flatnonzero(words > spec.mask)
        if above.size:
            i = int(above[0])
            raise FormatError(f"{source}: word {i} is {int(words[i]):#x}, above the width-{spec.width} mask")
        return _keep(spec, words)
    if fmt == "hex":
        # read_text decodes and translates line endings as iterating open()
        # does; an undecodable byte becomes U+FFFD, so a data line holding
        # one (a bin file without its magic, say) fails as not hexadecimal.
        # Line i ends at ends[i], and the last line at the end of the text
        text = Path(source).read_text(errors="replace").encode()
        chars = np.frombuffer(text, np.uint8)
        ends = np.flatnonzero(chars == ord("\n"))
        line_count = len(ends) + 1

        def bounds(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            """Where lines start .. stop-1 begin and end in ``text``."""
            end = ends[start:stop]
            if stop == line_count:
                end = np.append(end, len(text))
            begin = np.empty_like(end)
            begin[0] = ends[start - 1] + 1 if start else 0
            begin[1:] = end[:-1] + 1
            return begin, end

        spec = word = None
        first = 0
        while spec is None and first < line_count:
            begin, end = bounds(first, first + 1)
            spec, word = _hex_line(source, first + 1, text[begin[0] : end[0]].decode(), None)
            first += 1
        if spec is None:
            raise FormatError(f"{source}: no data lines; width cannot be inferred")
        digits, dtype = spec.hex_digits, word_dtype(spec.width).newbyteorder("<")
        # room for one word a line; the words fill it from the front
        words = np.empty(line_count - first + 1, dtype)
        count = 0
        if word is not None:
            words[0], count = word, 1
        for start in range(first, line_count, _BLOCK):
            begin, end = bounds(start, min(start + _BLOCK, line_count))
            # regular lines: exactly `digits` hex digits and nothing else
            fits = np.flatnonzero(end - begin == digits)
            at = begin[fits]
            value = np.zeros(len(fits), dtype)
            seen = np.zeros(len(fits), np.uint8)  # the digit values ORed: 16 marks a non-digit
            for j in range(digits):
                nibble = _NIBBLE.take(chars.take(at + j))
                value <<= 4
                value |= nibble
                seen |= nibble
            block = np.zeros(len(begin), dtype)
            block[fits] = value
            keep = np.zeros(len(begin), bool)
            keep[fits] = (seen < 16) & (value <= spec.mask)
            # the others, in line order, so the first bad line raises
            for i in np.flatnonzero(~keep):
                _, word = _hex_line(source, start + i + 1, text[begin[i] : end[i]].decode(), spec)
                if word is not None:
                    block[i], keep[i] = word, True
            kept = block[keep]
            words[count : count + kept.size] = kept
            count += kept.size
        return _keep(spec, words[:count])
    raise ValueError(f"unknown format {fmt!r}; expected 'bin' or 'hex'")


def _keep(spec: WordSpec, words: np.ndarray) -> Keystream:
    """A keystream that holds ``words``, an array of the word dtype that
    nothing else holds, with no copy."""
    words.flags.writeable = False
    return Keystream(spec, words)


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
        if not _is_hex(part):
            raise ParseError(f"{what}: field {name} is not hexadecimal: {part!r}")
        value = int(part, 16)
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
    # flags that several subcommands share, each declared once
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument("--constants", help="update constants C1:C3:C in hex (default: built-ins)")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--w", type=int, help="expected width; must match the file")
    infile.add_argument("--in", dest="infile", required=True, help="keystream path, bin or hex")
    runner = argparse.ArgumentParser(add_help=False)
    runner.add_argument("--mode", choices=("trivial", "dfs"), default="trivial")
    runner.add_argument("--workers", type=int, default=1)

    gen = sub.add_parser("gen", parents=[constants], help="generate a keystream")
    gen.add_argument("--w", type=int, required=True, help="word width in bits (even, 4..64)")
    seed = gen.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed-state", help="initial state a:b:c:d in hex")
    seed.add_argument("--random-seed", type=int, help="64-bit integer expanded via splitmix64")
    gen.add_argument("--count", type=int, required=True, help="number of output words")
    gen.add_argument("--out", default="-", help="output path, or - for stdout")
    gen.add_argument("--format", choices=("bin", "hex"), default="hex")

    atk = sub.add_parser("attack", parents=[constants, infile, runner],
                         help="recover internal states from a keystream file")
    atk.add_argument("--horizon", type=int, help="stage-1 filter depth (default 3*(w/2+1))")
    atk.add_argument("--report", choices=("machine", "human"), default="human")

    chk = sub.add_parser("check", parents=[constants], help="run structural or statistical checks")
    chk.add_argument("what", choices=("tfunc", "trunc", "stats"))
    chk.add_argument("--w", type=int, required=True)
    chk.add_argument("--trials", type=int, default=10_000)
    chk.add_argument("--rng-seed", type=int, default=1)
    chk.add_argument("--count", type=int, default=1_000_000, help="stats: words to generate")
    chk.add_argument("--random-seed", type=int, default=1, help="stats: seed for the stream")

    orc = sub.add_parser("oracle", parents=[constants, infile],
                         help="exhaustive consistency scan (w <= 8)")
    orc.add_argument("--zero-index", type=int,
                     help="index of the word to certify (default: the first zero word)")
    orc.add_argument("--window", type=int, help="words to verify (default: whole tail)")

    ben = sub.add_parser("bench", parents=[constants, runner],
                         help="measure attack operation counts against the prediction")
    ben.add_argument("--w", type=int, required=True)
    ben.add_argument("--count", type=int, help="keystream length (default 4 * 2^w, capped at 2^20)")
    ben.add_argument("--random-seed", type=int, default=1)

    return parser


def _params_for(args, spec: WordSpec) -> Tf1Params:
    return _parse_constants(args.constants, spec) if args.constants else default_params(spec)


def _print_fields(pairs) -> None:
    """One key=value line per pair: the machine-readable output of every command."""
    for key, value in pairs:
        print(f"{key}={value}")


def _numbered(prefix: str, states, spec: WordSpec) -> list:
    return [(f"{prefix}_{i}", format_state(st, spec)) for i, st in enumerate(states)]


def _print_machine_report(report: AttackReport, params: Tf1Params) -> None:
    _print_fields([
        ("w", params.spec.width),
        ("constants", _format_constants(params)),
        ("mode", report.mode),
        ("zero_index", report.zero_index),
        ("horizon", report.horizon),
        *vars(report.counters).items(),
        ("recovered_count", len(report.recovered)),
        *_numbered("recovered", report.recovered, params.spec),
        ("predicted_ops", report.predicted_ops),
        ("elapsed_ms", int(report.elapsed * 1000)),
    ])


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
    ks = generate(seed, params, args.count)
    write_keystream(ks, args.out, args.format)
    return 0


def _read_for(args) -> Keystream:
    # a bin file starts with the magic, which no hex file can
    with open(args.infile, "rb") as handle:
        fmt = "bin" if handle.read(len(MAGIC)) == MAGIC else "hex"
    ks = read_keystream(args.infile, fmt)
    if len(ks) == 0:
        raise ValueError("keystream is empty")
    if args.w is not None and ks.spec.width != args.w:
        raise FormatError(
            f"{args.infile}: file width {ks.spec.width} does not match --w {args.w}"
        )
    return ks


def _cmd_attack(args) -> int:
    ks = _read_for(args)
    params = _params_for(args, ks.spec)
    cfg = AttackConfig(filter_horizon=args.horizon, enumeration_mode=args.mode, workers=args.workers)
    report = recover(ks, tf1_instance(params), params, cfg)
    if args.report == "machine":
        _print_machine_report(report, params)
    else:
        _print_human_report(report, params)
    return 0


def _cmd_check(args) -> int:
    spec = WordSpec(args.w)
    params = _params_for(args, spec)
    if args.what == "stats":
        ks = generate(state_from_seed(args.random_seed, spec), params, args.count)
        zeros, rate = zero_frequency(ks)
        print(f"words={len(ks)} zeros={zeros} rate={rate:.3e} expected_rate={2 ** -spec.width:.3e}")
        note = attack_mod.even_c_note(params)
        if note:
            print(f"note: {note}")
        return 0
    if args.what == "tfunc":
        reports = [
            (f"target={t}", check_tfunction_property(t, spec, params, args.trials, args.rng_seed))
            for t in ("t1", "t2", "t2_demo")
        ]
    else:
        demo = demo_generalized_instance(spec, params)
        reports = [
            (f"instance={name}", check_truncation_consistency(inst, spec, args.trials, args.rng_seed))
            for name, inst in (("tf1", tf1_instance(params)), ("demo", demo))
        ]
    for label, rep in reports:
        print(f"{label} trials={rep.trials} failures={rep.failures}")
    return 0 if all(rep.ok for _, rep in reports) else 1


def _cmd_oracle(args) -> int:
    ks = _read_for(args)
    # before the zero scan, so that a wide stream with no zero word is a usage error too
    _check_oracle_width(ks.spec)
    params = _params_for(args, ks.spec)
    if args.zero_index is not None:
        zero_index = args.zero_index
    else:
        zeros = attack_mod.find_zero_outputs(ks, 1)
        if not zeros:
            raise attack_mod.no_zero_error(params, "no zero output word in the keystream")
        zero_index = zeros[0]
    tail = len(ks) - zero_index - 1
    window = tail if args.window is None else args.window
    result = brute_force_consistent_states(ks, zero_index, params, window)
    _print_fields([
        ("zero_index", result.zero_index),
        ("window", result.window),
        ("states_scanned", result.states_scanned),
        ("consistent_count", len(result.consistent_states)),
        *_numbered("consistent", result.consistent_states, ks.spec),
    ])
    return 0


def _cmd_bench(args) -> int:
    spec = WordSpec(args.w)
    params = _params_for(args, spec)
    cfg = AttackConfig(enumeration_mode=args.mode, workers=args.workers)
    work = predicted_work(spec)
    log2 = work.bit_length() - 1
    _print_fields([("w", spec.width), ("predicted_ops", work), ("predicted_ops_log2", log2)])
    if spec.width > 16:
        print("measurement skipped: keystreams of 2^w words are impractical above w=16 here")
        return 0
    count = args.count if args.count is not None else min(4 << spec.width, 1 << 20)
    first = args.random_seed
    # recover attacks the first zero first; with fewer words after it than
    # the default horizon, too many stage-1 survivors remain, so redraw
    horizon = cfg.horizon_for(spec)
    for seed in range(first, first + 64):
        ks = generate(state_from_seed(seed, spec), params, count)
        zeros = attack_mod.find_zero_outputs(ks, 1)
        if zeros and zeros[0] + horizon < count:
            break
    else:
        raise attack_mod.no_zero_error(params, f"no zero output with at least {horizon} words "
                                       f"after it in {count} words for stream seeds {first}..{seed}")
    _print_fields([("keystream_words", count), ("stream_seed", seed)])
    report = recover(ks, tf1_instance(params), params, cfg)
    measured = report.counters.total_operations()
    _print_fields([
        *vars(report.counters).items(),
        ("measured_ops", measured),
        ("measured_over_predicted", f"{measured / work:.4f}"),
        ("elapsed_ms", int(report.elapsed * 1000)),
    ])
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
        # gen, bench and check stats read --count; none accepts a negative one
        if getattr(args, "count", None) is not None and args.count < 0:
            raise ValueError("count must be >= 0")
        return _COMMANDS[args.command](args)
    except attack_mod.AttackError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ParseError, ValueError, attack_mod.KernelBuildError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
