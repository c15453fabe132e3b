import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tf1crack
from tf1crack import (
    AttackConfig,
    AttackError,
    Keystream,
    Tf1Params,
    WordSpec,
    default_params,
    generate,
    recover,
    state_from_seed,
    tf1_instance,
)
from tf1crack.cli import (
    FormatError,
    ParseError,
    TruncationError,
    format_state,
    parse_state,
    read_keystream,
    run,
    write_keystream,
)
from tf1crack.generator import State
from tf1crack.rng import SplitMix64

from helpers import roll_forward

W4 = WordSpec(4)
W8 = WordSpec(8)
W16 = WordSpec(16)

BIN_EXAMPLE = bytes.fromhex("54 46 31 4b 01 08 00 02 00 00 00 00 00 00 00 10 00".replace(" ", ""))


def _checkout_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(tf1crack.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_bin_layout_matches_documented_bytes(tmp_path):
    path = tmp_path / "ks.bin"
    n = write_keystream(Keystream(W8, (0x10, 0x00)), path, "bin")
    assert path.read_bytes() == BIN_EXAMPLE
    assert n == len(BIN_EXAMPLE)
    assert read_keystream(path, "bin") == Keystream(W8, (0x10, 0x00))


def test_hex_layout(tmp_path):
    path = tmp_path / "ks.hex"
    write_keystream(Keystream(W16, (0x3412, 0x0001)), path, "hex")
    assert path.read_text() == "3412\n0001\n"
    assert read_keystream(path, "hex") == Keystream(W16, (0x3412, 0x0001))
    # an empty stream has no digits to infer the width from, so it gets the header
    write_keystream(Keystream(W16, ()), path, "hex")
    assert path.read_text() == "# w=16\n"
    assert read_keystream(path, "hex") == Keystream(W16, ())


def test_roundtrip_many_random_keystreams(tmp_path):
    rng = SplitMix64(55)
    path_bin = tmp_path / "r.bin"
    path_hex = tmp_path / "r.hex"
    widths = list(range(4, 65, 2))
    for i in range(1000):
        spec = WordSpec(widths[i % len(widths)])
        words = tuple(rng.next64() & spec.mask for _ in range(rng.below(20)))
        if not words and i % 2:
            words = (0,)
        ks = Keystream(spec, words)
        write_keystream(ks, path_bin, "bin")
        assert read_keystream(path_bin, "bin") == ks
        write_keystream(ks, path_hex, "hex")
        assert read_keystream(path_hex, "hex") == ks


def test_bin_rejects_malformed(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + BIN_EXAMPLE[4:])
    with pytest.raises(FormatError):
        read_keystream(path, "bin")
    path.write_bytes(BIN_EXAMPLE[:1])
    with pytest.raises(FormatError):
        read_keystream(path, "bin")
    path.write_bytes(bytes([*BIN_EXAMPLE[:4], 2, *BIN_EXAMPLE[5:]]))
    with pytest.raises(FormatError):  # version
        read_keystream(path, "bin")
    path.write_bytes(bytes([*BIN_EXAMPLE[:5], 7, *BIN_EXAMPLE[6:]]))
    with pytest.raises(FormatError):  # odd width
        read_keystream(path, "bin")
    path.write_bytes(bytes([*BIN_EXAMPLE[:6], 1, *BIN_EXAMPLE[7:]]))
    with pytest.raises(FormatError):  # flags
        read_keystream(path, "bin")
    header_says_three = bytes([*BIN_EXAMPLE[:7], 3, *BIN_EXAMPLE[8:]])
    path.write_bytes(header_says_three)
    with pytest.raises(TruncationError):
        read_keystream(path, "bin")
    path.write_bytes(BIN_EXAMPLE + b"\x00")
    with pytest.raises(FormatError):  # trailing bytes
        read_keystream(path, "bin")
    path.write_bytes(BIN_EXAMPLE)
    with pytest.raises(ValueError, match="unknown format 'json'; expected 'bin' or 'hex'"):
        read_keystream(path, "json")


def test_write_rejects_words_outside_the_width(tmp_path):
    # each would write a file that read_keystream rejects, or fail halfway;
    # negative and container-overflowing words fail the array conversion,
    # the others its max, and both name the lowest bad index
    long = [0] * 70000
    long[66000], long[69000] = 0x10000, 0x3FFFF  # past the first 2**16 words
    cases = [
        (W8, (1, 300, 2), "word 1 is 0x12c"),
        (W8, (5, 7, -1), "word 2 is -0x1"),
        (WordSpec(6), (100,), "word 0 is 0x64"),
        (WordSpec(64), (3, 1 << 64, -1), "word 1 is 0x10000000000000000"),
        (WordSpec(32), (3, 2, 1 << 32), "word 2 is 0x100000000"),
        (W16, tuple(long), "word 66000 is 0x10000"),
    ]
    for spec, words, shown in cases:
        for fmt in ("bin", "hex"):
            path = tmp_path / f"out.{fmt}"
            with pytest.raises(ValueError) as err:
                write_keystream(Keystream(spec, words), path, fmt)
            assert str(err.value) == f"{shown}, outside the width-{spec.width} range"
            assert not path.exists()
    # an unknown format is refused before anything is written, too
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="unknown format 'json'; expected 'bin' or 'hex'"):
        write_keystream(Keystream(W8, (1, 2)), path, "json")
    assert not path.exists()


def test_bin_rejects_word_above_mask(tmp_path):
    path = tmp_path / "bad.bin"
    write_keystream(Keystream(W4, (1, 2, 3, 4, 5)), path, "bin")
    data = bytearray(path.read_bytes())
    data[15 + 4] = data[15 + 2] = 0x20  # above the w=4 mask
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        read_keystream(path, "bin")
    assert str(err.value) == f"{path}: word 2 is 0x20, above the width-4 mask"
    # 3-byte words, the bad ones past the first 2**16
    count = 70000
    payload = bytearray(3 * count)
    payload[3 * 69000 + 2] = 0x07
    payload[3 * 66000 + 2] = 0x04
    path.write_bytes(b"TF1K\x01\x12\x00" + count.to_bytes(8, "little") + payload)
    with pytest.raises(FormatError) as err:
        read_keystream(path, "bin")
    assert str(err.value) == f"{path}: word 66000 is 0x40000, above the width-18 mask"


def test_hex_rejects_malformed(tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text("# comment\n12\n3\n")
    with pytest.raises(FormatError) as err:
        read_keystream(path, "hex")
    assert ":3:" in str(err.value)  # line number of the short line
    path.write_text("zz\n")
    with pytest.raises(FormatError):
        read_keystream(path, "hex")
    for text in (
        "# only comments\n",
        "# w=10\nfff\n",  # above the width-10 mask
        "# w=10\n12\n34\n",  # w=10 needs 3 digits
        "# w=7\n12\n",  # not a valid width
    ):
        path.write_text(text)
        with pytest.raises(FormatError):
            read_keystream(path, "hex")
    # int(line, 16) would take these as 18, -1, 291 and 255
    for line in ("0x12", "-001", "1_23", "+0ff"):
        path.write_text(f"00AB\n{line}\n")
        with pytest.raises(FormatError, match=":2: not hexadecimal"):
            read_keystream(path, "hex")
    path.write_bytes(b"00AB\n\xff\xfe\n")  # not UTF-8: read as U+FFFD, no digit
    with pytest.raises(FormatError, match=":2: not hexadecimal"):
        read_keystream(path, "hex")
    path.write_text("00AB\n00ff\n")  # either case is a digit
    assert read_keystream(path, "hex") == Keystream(W16, (0xAB, 0xFF))


def test_hex_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.hex"
    path.write_text("# header comment\n\nab\n10\n")
    assert read_keystream(path, "hex") == Keystream(W8, (0xAB, 0x10))


# (w, count, sha256 of the bin file, sha256 of the hex file) of
# generate(state_from_seed(w, spec), default_params(spec), count).  Widths 18,
# 40, 48 and 56 give 3-, 5-, 6- and 7-byte words, 10 and 18 hex headers; the
# 65539-word streams cross the 2**16-word conversion block.
GOLDEN_FILES = (
    (4, 3000, "9aa98f819b305d301d554a7c83d6b336e8379e5a90c475344ec3c05203d08515",
     "04e5aaddd60df5cb047d69cc877af422f64106187eb5dfb966548e1b97c9ff2e"),
    (10, 65539, "60d9cdecc2ee6ab061b2252cf73fdf10539bab44af02f39c4ab7f604851113be",
     "a0d3c22debe606e30ecc062d756598c8f1290acf355f8841fa0c2fe82ce24ed0"),
    (18, 65539, "33e9f03397891a780b42eca792a4e4981896fac3f41708cb383ee9995cad8f08",
     "2cb5152006065b5aad9510ffe1f0bf1dc154706a661a985c1e992e60bc060c14"),
    (24, 1500, "da6d53bac050afae8fea71cc1b0e333166c28acfd78c2bfad7b4c82cc7274b07",
     "53769fefe13d99a59ec6d764661257773c761eb0b2f04d7d84a220b73a862436"),
    (40, 1000, "eb923f3eb195bc3066bc4920154063e39750825ba7f66d95371bfe58bcf264e8",
     "614795bf791128ffcf19dd3276a57283dc28ce5a33f6cb3269bdc65f8f59ec19"),
    (48, 1000, "4fb641f7333691dd735d53779c4e9e13bda5a49b861a56c16d4bed6d4aa87452",
     "468fba1cad2a13389890b32c3abb64c8ad5cea0772ae62923a38a0b8cf07d11f"),
    (56, 1000, "8a371372fe48b468d4b873a75cac6147dbd6a456c5389c10ce691bf8c6a30da7",
     "dff67843b2a6ed9676a50145b39dd9c45040ff00edfbc42c3ff9ebdda9d54a72"),
    (64, 65539, "0084d7a59778257526ee84db759b96b4d28ceeb659307a9952c5726bd164d5fa",
     "1d99ee57358853710121f50e9d091e885089469b024d670e2e8a854619e5a100"),
)


@pytest.mark.parametrize("width,count,bin_sha,hex_sha", GOLDEN_FILES, ids=[f"w{c[0]}" for c in GOLDEN_FILES])
def test_golden_file_bytes(tmp_path, width, count, bin_sha, hex_sha):
    spec = WordSpec(width)
    ks = generate(state_from_seed(width, spec), default_params(spec), count)
    for fmt, sha in (("bin", bin_sha), ("hex", hex_sha)):
        path = tmp_path / f"golden.{fmt}"
        n = write_keystream(ks, path, fmt)
        data = path.read_bytes()
        assert (n, hashlib.sha256(data).hexdigest()) == (len(data), sha), fmt
        assert read_keystream(path, fmt) == ks, fmt


def test_hex_reader_line_forms(tmp_path):
    path = tmp_path / "forms.hex"
    want = Keystream(W16, (0xAB, 0xFF, 0x1234))
    for data in (
        b"00ab\r\n00ff\r\n1234\r\n",  # CRLF
        b"00ab\r00ff\r1234\r",  # lone CR
        b" 00ab\n\t00ff  \n1234\t\n",  # padded with spaces and tabs
        b"00ab\n# between\n\n00ff\n  \n# w=8\n1234\n",  # comments, blanks, a late '# w=N'
        b"00ab\n00ff\n1234",  # no newline after the last word
        b"00Ab\n00fF\n1234\n",  # mixed case
        b"# w=16\r\n00ab\r\n00ff\r\n1234",
    ):
        path.write_bytes(data)
        assert read_keystream(path, "hex") == want, data


def test_hex_reader_mixed_lines_across_blocks(tmp_path):
    # regular lines around every kind of other line, past 2**16 lines
    spec = WordSpec(10)
    words = [(i * 0x9E3779B1 >> 7) & spec.mask for i in range(70000)]
    lines = ["# w=10"] + [f"{word:03x}" for word in words]
    odd = {5: "  {}", 65536: "{}\t", 65537: "# {} note", 69999: "{} ", 70000: ""}
    for i, form in odd.items():
        lines[i] = form.format(lines[i])
    path = tmp_path / "mixed.hex"
    path.write_text("\r\n".join(lines))
    kept = [word for i, word in enumerate(words, 1) if i not in (65537, 70000)]
    assert read_keystream(path, "hex") == Keystream(spec, tuple(kept))
    lines[69990] = "4ff"  # above the width-10 mask, but after the first bad line
    lines[65540] = "0x1"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as err:
        read_keystream(path, "hex")
    assert str(err.value) == f"{path}:65541: not hexadecimal: '0x1'"


def test_hex_reader_first_error_wins(tmp_path):
    path = tmp_path / "bad.hex"
    cases = [
        ("# w=10\n001\nfff\n002\nxyz\n", ":3: word 0xfff is above the width-10 mask"),
        ("# w=10\n001\nxyz\n002\nfff\n", ":3: not hexadecimal: 'xyz'"),
        ("# w=10\n001\n4ff\n12\n", ":3: word 0x4ff is above the width-10 mask"),
        ("# w=10\n001\n12\n4ff\n", ":3: expected 3 hex digits, got 2"),
        ("# w=10\n001\n 4ff \n", ":3: word 0x4ff is above the width-10 mask"),
        ("00ab\n00ff\n00f\n0x00\n", ":3: expected 4 hex digits, got 3"),
    ]
    for text, shown in cases:
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            read_keystream(path, "hex")
        assert str(err.value) == f"{path}{shown}", text



def test_parse_state():
    assert parse_state("01:00:00:00", W8) == State(1, 0, 0, 0)
    assert parse_state("ff:a0:0b:11", W8) == State(0xFF, 0xA0, 0x0B, 0x11)
    with pytest.raises(ParseError):
        parse_state("1:2:3", W8)
    with pytest.raises(ParseError):
        parse_state("100:0:0:0", W8)
    with pytest.raises(ParseError):
        parse_state("gg:0:0:0", W8)
    # int(part, 16) would take these as 1, 0, 16 and 2; each field is
    # checked as the hex reader checks a line
    for text, name in (("0x1:0:0:0", "a"), ("1:-0:0:0", "b"), ("1:0:1_0:0", "c"),
                       ("1:0:0:+2", "d"), ("1:0: 1:0", "c"), ("1::0:0", "b")):
        with pytest.raises(ParseError, match=f"field {name} is not hexadecimal"):
            parse_state(text, W8)
    assert parse_state("FF:A0:0b:1C", W8) == State(0xFF, 0xA0, 0x0B, 0x1C)
    assert format_state(State(1, 0, 0, 0), W8) == "01:00:00:00"


def test_run_gen_example(capsys):
    rc = run(["gen", "--w", "8", "--seed-state", "00:00:00:00", "--count", "1",
              "--constants", "d5:15:01"])
    assert rc == 0
    assert capsys.readouterr().out == "10\n"


def test_run_gen_random_seed_matches_library(tmp_path, capsys):
    out = tmp_path / "g.bin"
    rc = run(["gen", "--w", "16", "--random-seed", "9", "--count", "32",
              "--out", str(out), "--format", "bin"])
    assert rc == 0
    expected = generate(state_from_seed(9, W16), default_params(W16), 32)
    assert read_keystream(out, "bin") == expected


def test_run_gen_negative_count_is_exit_2(tmp_path, capsys):
    # every command that reads --count rejects a negative one before any output
    out = tmp_path / "g.bin"
    for command in (["gen", "--random-seed", "1", "--out", str(out)], ["bench"], ["check", "stats"]):
        assert run([*command, "--w", "8", "--count", "-1"]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "ValueError: count must be >= 0\n"), command
    assert not out.exists()


def test_run_attack_machine_report(tmp_path, capsys):
    ks = generate(state_from_seed(5, W8), default_params(W8), 4096)
    path = tmp_path / "ks.bin"
    write_keystream(ks, path, "bin")
    inst = tf1_instance(default_params(W8))
    # the default horizon, and --horizon 6, which must reach recover
    for flags, horizon in (([], None), (["--horizon", "6"], 6)):
        rc = run(["attack", "--in", str(path), "--report", "machine", *flags])
        assert rc == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        emitted = set(lines)
        # the README's Machine report key set; recovered_1.. follow recovered_0
        # when more than one state is found
        documented = {
            "w", "constants", "mode", "zero_index", "horizon", "stage1_candidates",
            "stage1_filter_steps", "stage1_survivors", "stage2_candidates",
            "stage2_verifications", "recovered_count", "recovered_0", "predicted_ops", "elapsed_ms",
        }
        assert documented <= emitted
        assert all(k in documented or k.startswith("recovered_") for k in emitted)
        assert lines["w"] == "8"
        assert lines["stage1_candidates"] == str(1 << 15)
        assert lines["predicted_ops"] == str(16 * 2 ** 12)
        assert int(lines["recovered_count"]) >= 1
        report = recover(ks, inst, cfg=AttackConfig(filter_horizon=horizon))
        assert lines["horizon"] == str(report.horizon) == str(horizon or 15)
        assert {k: int(lines[k]) for k in vars(report.counters)} == vars(report.counters)


def test_run_attack_workers_change_only_elapsed(tmp_path, capsys):
    ks = generate(state_from_seed(5, W8), default_params(W8), 4096)
    path = tmp_path / "ks.bin"
    write_keystream(ks, path, "bin")

    def report_without_elapsed(workers):
        rc = run(["attack", "--in", str(path), "--report", "machine",
                  "--workers", str(workers)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return [l for l in lines if not l.startswith("elapsed_ms=")]

    assert report_without_elapsed(1) == report_without_elapsed(2) == report_without_elapsed(8)


def test_run_attack_no_zero_is_exit_1(tmp_path, capsys):
    path = tmp_path / "nz.bin"
    write_keystream(Keystream(W8, (1, 2, 3)), path, "bin")
    rc = run(["attack", "--in", str(path)])
    assert rc == 1
    assert "NeedMoreKeystream" in capsys.readouterr().err


EVEN_C = "5:5:8"  # the w=4 defaults with C = 8; seed 1 gives no zero in 1024 words


def test_run_attack_even_c_without_zero_is_exit_1(tmp_path, capsys):
    path = tmp_path / "even.bin"
    assert run(["gen", "--w", "4", "--random-seed", "1", "--constants", EVEN_C,
                "--count", "1024", "--out", str(path), "--format", "bin"]) == 0
    assert 0 not in read_keystream(path).words
    capsys.readouterr()
    for command in ("attack", "oracle"):
        rc = run([command, "--in", str(path), "--constants", EVEN_C])
        assert rc == 1
        err = capsys.readouterr().err
        assert "NeedMoreKeystream" in err and "even C can trap the state" in err


def test_run_check_stats_names_even_c(capsys):
    assert run(["check", "stats", "--w", "4", "--constants", EVEN_C, "--count", "1024"]) == 0
    out = capsys.readouterr().out
    assert "zeros=0" in out
    assert "note: C = 0x8 is even, and an even C can trap the state in short zero-free cycles" in out
    assert run(["check", "stats", "--w", "4", "--count", "1024"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_run_attack_width_mismatch_is_exit_2(tmp_path, capsys):
    path = tmp_path / "m.bin"
    write_keystream(Keystream(W8, (0, 1)), path, "bin")
    assert run(["attack", "--in", str(path), "--w", "16"]) == 2
    # past w=44, trivial mode's candidate index would overflow
    write_keystream(Keystream(WordSpec(64), (0, 1)), path, "bin")
    assert run(["attack", "--in", str(path)]) == 2
    assert "w=64 is too wide for trivial mode" in capsys.readouterr().err


def test_run_attack_missing_file_is_exit_2(tmp_path, capsys):
    assert run(["attack", "--in", str(tmp_path / "absent.bin")]) == 2
    # an empty stream, bin or hex, gets one answer from both commands
    for fmt in ("bin", "hex"):
        path = tmp_path / f"empty.{fmt}"
        write_keystream(Keystream(W8, ()), path, fmt)
        for command in ("attack", "oracle"):
            capsys.readouterr()
            assert run([command, "--in", str(path)]) == 2
            assert capsys.readouterr().err == "ValueError: keystream is empty\n"


def test_run_attack_dfs_mode(tmp_path, capsys):
    ks = generate(state_from_seed(1, W4), default_params(W4), 512)
    path = tmp_path / "k4.hex"
    write_keystream(ks, path, "hex")
    rc = run(["attack", "--in", str(path), "--mode", "dfs", "--report", "machine"])
    assert rc == 0
    assert "mode=dfs" in capsys.readouterr().out


def test_run_attack_tells_bin_from_hex(tmp_path, capsys, monkeypatch):
    # gen writes hex by default; attack and oracle tell the formats apart by
    # the bin magic, so the pair runs with no format flag
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--w", "8", "--random-seed", "1", "--count", "4096", "--out", "ks"]) == 0
    assert (tmp_path / "ks").read_bytes().startswith(b"ee\ne2\n")
    capsys.readouterr()
    assert run(["attack", "--in", "ks", "--report", "machine"]) == 0
    out = capsys.readouterr().out
    assert "w=8\n" in out and "recovered_count=" in out
    ks = read_keystream(tmp_path / "ks", "hex")
    write_keystream(ks, tmp_path / "ks.bin", "bin")
    assert run(["attack", "--in", "ks.bin", "--report", "machine"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == out.splitlines()[:-1]
    for command in ("attack", "oracle"):
        assert run([command, "--in", "ks", "--format", "hex"]) == 2
        assert "unrecognized arguments: --format hex" in capsys.readouterr().err
    # a bin file whose magic is broken is read as hex, and fails there
    (tmp_path / "bad.bin").write_bytes(b"X" + (tmp_path / "ks.bin").read_bytes()[1:])
    assert run(["attack", "--in", "bad.bin"]) == 2
    assert capsys.readouterr().err.startswith("FormatError: bad.bin:1: not hexadecimal: 'XF1K")


def test_mutated_files_fail_cleanly(tmp_path, capsys):
    # 304 seeded byte flips, inserts, deletions and truncations of gen's
    # files at w = 4, 6, 8 and 10, bin and hex, run through attack, and
    # through oracle at w=4 and on every fourth round of the w=6 files (each
    # w=6 scan that starts costs 0.2 s): no exception leaves run, the exit
    # code is 0, 1 or 2, and a failing run prints one stderr line that
    # starts with its error type
    errors = {c.__name__ for c in (FormatError, TruncationError, ParseError, ValueError,
                                   AttackError, *AttackError.__subclasses__())}
    files = []
    for w, count in ((4, 64), (6, 256), (8, 1024), (10, 2048)):
        for fmt in ("bin", "hex"):
            path = tmp_path / f"g{w}.{fmt}"
            assert run(["gen", "--w", str(w), "--random-seed", "1", "--count", str(count),
                        "--out", str(path), "--format", fmt]) == 0
            files.append((w, path.read_bytes()))
    rng = SplitMix64(7)
    path = tmp_path / "mutant"
    seen = set()
    for i in range(38 * len(files)):
        w, data = files[i % len(files)]
        kind, at = rng.below(4), rng.below(len(data))
        if kind == 0:
            data = data[:at] + bytes([data[at] ^ (1 + rng.below(255))]) + data[at + 1 :]
        elif kind == 1:
            data = data[:at] + bytes([rng.below(256)]) + data[at:]
        elif kind == 2:
            data = data[:at] + data[at + 1 :]
        else:
            data = data[:at]
        path.write_bytes(data)
        oracle = w == 4 or w == 6 and i // len(files) % 4 == 0
        for command in ("attack", "oracle") if oracle else ("attack",):
            capsys.readouterr()
            rc = run([command, "--in", str(path)])
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), (command, w, kind, at)
            one_line = err.count("\n") == 1 and err.split(":")[0] in errors
            assert rc == 0 or one_line, (command, w, kind, at, err)
            seen.add((command, rc))
    # the mutants reach every exit code that each command can give
    assert seen >= {("attack", 0), ("attack", 1), ("attack", 2), ("oracle", 0), ("oracle", 2)}


def test_run_unknown_flag_is_exit_2(capsys):
    assert run(["attack", "--frobnicate", "1"]) == 2
    assert run(["nonsense"]) == 2
    # the zero-word cap is a constant, not an option
    assert run(["attack", "--max-zero-positions", "3", "--in", "ks"]) == 2
    assert "unrecognized arguments: --max-zero-positions 3" in capsys.readouterr().err
    # and so is the survivor cap
    assert run(["attack", "--max-survivors", "4", "--in", "ks"]) == 2
    assert "unrecognized arguments: --max-survivors 4" in capsys.readouterr().err


def test_run_check_commands(capsys):
    assert run(["check", "tfunc", "--w", "8", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "target=t1" in out and "failures=0" in out
    assert run(["check", "trunc", "--w", "8", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "instance=tf1" in out and "instance=demo" in out
    assert run(["check", "stats", "--w", "8", "--count", "20000", "--random-seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "zeros=" in out and "expected_rate=" in out


def test_run_oracle_command(tmp_path, capsys):
    ks = generate(state_from_seed(1, W4), default_params(W4), 256)
    path = tmp_path / "k4.bin"
    write_keystream(ks, path, "bin")
    rc = run(["oracle", "--in", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "states_scanned=65536" in out
    assert "consistent_count=" in out


def test_run_oracle_zero_index(tmp_path, capsys):
    ks = generate(state_from_seed(1, W4), default_params(W4), 256)
    path = tmp_path / "k4.bin"
    write_keystream(ks, path, "bin")
    first = list(ks.words).index(0)
    assert run(["oracle", "--in", str(path)]) == 0
    default = capsys.readouterr()
    assert run(["oracle", "--in", str(path), "--zero-index", str(first)]) == 0
    assert capsys.readouterr() == default
    # a nonzero word is certified too: the word 8 at index 17 leaves one
    # state, which rolls forward to the one at the first zero, index 20
    assert (ks.words[17], first) == (8, 20)
    assert run(["oracle", "--in", str(path), "--zero-index", "17"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("consistent_count=1\nconsistent_0=d:2:5:9\n")
    assert roll_forward(parse_state("d:2:5:9", W4), default_params(W4), 3) == parse_state("c:8:4:4", W4)
    # a usage error names its argument and, for a window, its bound
    tail = len(ks) - first - 1
    for flags, message in (
        (["--zero-index", "-1"], "zero_index -1 is outside the keystream's 0..255"),
        (["--zero-index", "256"], "zero_index 256 is outside the keystream's 0..255"),
        (["--window", "-1"], f"window -1 is outside 0..{tail}, the words after zero_index {first}"),
        (["--window", str(tail + 1)], f"window {tail + 1} is outside 0..{tail}"),
    ):
        assert run(["oracle", "--in", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"ValueError: {message}"), flags


def test_run_oracle_w6_scans_with_no_flag(tmp_path, capsys):
    # every width the oracle accepts is scanned when asked: 2^24 states here,
    # and the one consistent state is attack's recovered_0 at zero_index=28
    path = tmp_path / "k6"
    assert run(["gen", "--w", "6", "--random-seed", "1", "--count", "4096", "--out", str(path)]) == 0
    assert run(["oracle", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "zero_index=28\n" in out and "states_scanned=16777216\n" in out
    assert "consistent_0=3c:10:04:05\n" in out
    assert run(["oracle", "--in", str(path), "--budget", "1"]) == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_run_bench_large_width_prints_prediction_only(capsys):
    rc = run(["bench", "--w", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"predicted_ops={1 << 52}" in out
    assert "predicted_ops_log2=52" in out
    assert "measured_ops" not in out
    rc = run(["bench", "--w", "64"])
    out = capsys.readouterr().out
    assert f"predicted_ops={1 << 100}" in out


def test_run_bench_small_width_measures(capsys):
    rc = run(["bench", "--w", "8", "--count", "4096"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured_ops=" in out and "measured_over_predicted=" in out


def test_run_bench_names_the_seeds_it_tried(capsys):
    # a three-word stream cannot hold a zero with the 15-word default horizon after it
    assert run(["bench", "--w", "8", "--count", "3", "--random-seed", "5"]) == 1
    captured = capsys.readouterr()
    assert "stream_seed=" not in captured.out
    assert captured.err == (
        "NeedMoreKeystream: no zero output with at least 15 words after it in 3 words "
        "for stream seeds 5..68\n"
    )


def test_run_bench_redraws_a_stream_whose_zero_has_a_short_tail(capsys):
    # stream seed 60's only zero is word 16 of 20, 3 words short of the
    # 15-word horizon; attacking it would overflow the survivor cap
    ks = generate(state_from_seed(60, W8), default_params(W8), 20)
    assert [i for i, word in enumerate(ks.words) if word == 0] == [16]
    assert run(["bench", "--w", "8", "--count", "20", "--random-seed", "60"]) == 0
    captured = capsys.readouterr()
    assert "stream_seed=98\n" in captured.out and captured.err == ""


def test_run_bench_bad_config_fails_before_generating(capsys):
    assert run(["bench", "--w", "16", "--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert "keystream_words=" not in captured.out
    assert "workers must be >= 1" in captured.err


def test_run_gen_bad_constants_is_exit_2(capsys):
    assert run(["gen", "--w", "8", "--random-seed", "1", "--count", "4",
                "--constants", "d5:15"]) == 2
    assert run(["gen", "--w", "8", "--random-seed", "1", "--count", "4",
                "--constants", "d5:15:100"]) == 2
    capsys.readouterr()
    assert run(["gen", "--w", "8", "--random-seed", "1", "--count", "4",
                "--constants", "0x5:+3:1_1"]) == 2
    assert "field C1 is not hexadecimal" in capsys.readouterr().err
    assert run(["gen", "--w", "8", "--random-seed", "1", "--count", "4",
                "--constants", "D5:15:01"]) == 0


def test_python_m_runs_the_command_line():
    # both module entry points run the command line from a plain checkout
    want = [f"{w:02x}" for w in generate(state_from_seed(1, W8), default_params(W8), 2).words]
    for module in ("tf1crack", "tf1crack.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "gen", "--w", "8", "--random-seed", "1", "--count", "2"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout.split()) == (0, want), proc.stderr


EVEN_C_NOTE = "C = {} is even, and an even C can trap the state in short zero-free cycles"
ORACLE_W10 = "the exhaustive oracle is limited to w <= 8 by design, got w=10"

# (command line, exit code, stdout, stderr) for every printer, byte for byte;
# elapsed_ms and the human report's seconds are scrubbed to "*"
PINNED_OUTPUT = [
    ("attack --in {ks8} --report machine", 0, """\
w=8
constants=d5:15:a9
mode=trivial
zero_index=168
horizon=15
stage1_candidates=32768
stage1_filter_steps=62802
stage1_survivors=8
stage2_candidates=4096
stage2_verifications=8242
recovered_count=1
recovered_0=93:ec:6d:c6
predicted_ops=65536
elapsed_ms=*
""", ""),
    ("attack --in {ks8} --report human", 0, """\
width 8, constants d5:15:a9, mode trivial
zero output at index 168; verified against the following 3927 words
stage 1: 32768 candidates, horizon 15, 62802 filter steps, 8 survivors
stage 2: 4096 completions, 8242 verification steps
operations: 71044 counted vs 65536 predicted (ratio 1.084)
recovered 1 state(s) in *s:
  93:ec:6d:c6
""", ""),
    ("oracle --in {k4}", 0, """\
zero_index=20
window=235
states_scanned=65536
consistent_count=1
consistent_0=c:8:4:4
""", ""),
    ("oracle --in {k4} --window 8", 0, """\
zero_index=20
window=8
states_scanned=65536
consistent_count=1
consistent_0=c:8:4:4
""", ""),
    ("check tfunc --w 8 --trials 300", 0, """\
target=t1 trials=300 failures=0
target=t2 trials=300 failures=0
target=t2_demo trials=300 failures=0
""", ""),
    ("check trunc --w 8 --trials 300", 0, """\
instance=tf1 trials=300 failures=0
instance=demo trials=300 failures=0
""", ""),
    # uint64 words, where low_mask(k) of a 64-column word is the whole mask
    ("check tfunc --w 64 --trials 5000", 0, """\
target=t1 trials=5000 failures=0
target=t2 trials=5000 failures=0
target=t2_demo trials=5000 failures=0
""", ""),
    ("check trunc --w 64 --trials 5000", 0, """\
instance=tf1 trials=5000 failures=0
instance=demo trials=5000 failures=0
""", ""),
    ("check stats --w 8 --count 20000", 0, """\
words=20000 zeros=88 rate=4.400e-03 expected_rate=3.906e-03
""", ""),
    (f"check stats --w 4 --count 1024 --constants {EVEN_C}", 0, f"""\
words=1024 zeros=0 rate=0.000e+00 expected_rate=6.250e-02
note: {EVEN_C_NOTE.format("0x8")}
""", ""),
    ("bench --w 8 --count 4096", 0, """\
w=8
predicted_ops=65536
predicted_ops_log2=16
keystream_words=4096
stream_seed=1
stage1_candidates=32768
stage1_filter_steps=68136
stage1_survivors=8
stage2_candidates=4096
stage2_verifications=8196
measured_ops=76332
measured_over_predicted=1.1647
elapsed_ms=*
""", ""),
    ("bench --w 32", 0, """\
w=32
predicted_ops=4503599627370496
predicted_ops_log2=52
measurement skipped: keystreams of 2^w words are impractical above w=16 here
""", ""),
    ("gen --w 8 --random-seed 1 --count 8", 0, "ee\ne2\n33\n66\n7c\n6c\nf3\ncd\n", ""),
    (f"attack --in {{even}} --constants {EVEN_C}", 1, "", f"""\
NeedMoreKeystream: no zero output in 1024 words; expect about one per 2^4 = 16 words; \
{EVEN_C_NOTE.format("0x8")}
"""),
    (f"oracle --in {{even}} --constants {EVEN_C}", 1, "", f"""\
NeedMoreKeystream: no zero output word in the keystream; {EVEN_C_NOTE.format("0x8")}
"""),
    # the oracle checks the width before it looks for a zero word: a w=10
    # stream is a usage error with or without one
    ("oracle --in {w10}", 2, "", f"ValueError: {ORACLE_W10}\n"),
    ("oracle --in {w10} --zero-index 3", 2, "", f"ValueError: {ORACLE_W10}\n"),
    # a four-word stream cannot hold a zero with the 15-word default horizon after it
    ("bench --w 8 --count 4 --random-seed 26 --constants d5:15:a8", 1, """\
w=8
predicted_ops=65536
predicted_ops_log2=16
""", f"""\
NeedMoreKeystream: no zero output with at least 15 words after it in 4 words for stream \
seeds 26..89; \
{EVEN_C_NOTE.format("0xa8")}
"""),
]


def test_pinned_output_of_every_command(tmp_path, capsysbinary):
    paths = {name: tmp_path / f"{name}.bin" for name in ("ks8", "k4", "even", "w10")}
    write_keystream(generate(state_from_seed(5, W8), default_params(W8), 4096), paths["ks8"])
    # the stream of gen --w 10 --random-seed 1 --count 50, which holds no zero word
    w10 = generate(state_from_seed(1, WordSpec(10)), default_params(WordSpec(10)), 50)
    assert 0 not in w10.words
    write_keystream(w10, paths["w10"])
    write_keystream(generate(state_from_seed(1, W4), default_params(W4), 256), paths["k4"])
    even = generate(state_from_seed(1, W4), Tf1Params(5, 5, 8, W4), 1024)
    write_keystream(even, paths["even"])
    for line, code, out, err in PINNED_OUTPUT:
        rc = run(line.format(**paths).split())
        captured = capsysbinary.readouterr()
        got = re.sub(rb"elapsed_ms=\d+", b"elapsed_ms=*", captured.out)
        got = re.sub(rb" in \d+\.\d{3}s:", b" in *s:", got)
        assert (rc, got, captured.err) == (code, out.encode(), err.encode()), line
