import os
import subprocess
import sys
from pathlib import Path

import pytest

import tf1crack
from tf1crack import Keystream, WordSpec, default_params, generate, state_from_seed
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
        if words:  # hex cannot express an empty stream (width is inferred)
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


def test_bin_rejects_word_above_mask(tmp_path):
    path = tmp_path / "w4.bin"
    write_keystream(Keystream(W4, (1, 2)), path, "bin")
    data = bytearray(path.read_bytes())
    data[-1] = 0x20  # above the w=4 mask
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_keystream(path, "bin")


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
    path.write_text("00AB\n00ff\n")  # either case is a digit
    assert read_keystream(path, "hex") == Keystream(W16, (0xAB, 0xFF))


def test_hex_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.hex"
    path.write_text("# header comment\n\nab\n10\n")
    assert read_keystream(path, "hex") == Keystream(W8, (0xAB, 0x10))


def test_parse_state():
    assert parse_state("01:00:00:00", W8) == State(1, 0, 0, 0)
    assert parse_state("ff:a0:0b:11", W8) == State(0xFF, 0xA0, 0x0B, 0x11)
    with pytest.raises(ParseError):
        parse_state("1:2:3", W8)
    with pytest.raises(ParseError):
        parse_state("100:0:0:0", W8)
    with pytest.raises(ParseError):
        parse_state("gg:0:0:0", W8)
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


def test_run_attack_machine_report(tmp_path, capsys):
    from tf1crack.cli import MACHINE_REPORT_KEYS

    ks = generate(state_from_seed(5, W8), default_params(W8), 4096)
    path = tmp_path / "ks.bin"
    write_keystream(ks, path, "bin")
    rc = run(["attack", "--in", str(path), "--report", "machine"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    emitted = set(lines)
    documented = set(MACHINE_REPORT_KEYS)
    assert documented <= emitted
    assert all(k in documented or k.startswith("recovered_") for k in emitted)
    assert lines["w"] == "8"
    assert lines["stage1_candidates"] == str(1 << 15)
    assert lines["predicted_ops"] == str(16 * 2 ** 12)
    assert int(lines["recovered_count"]) >= 1


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
    # past w=42, trivial mode's candidate index would overflow
    write_keystream(Keystream(WordSpec(64), (0, 1)), path, "bin")
    assert run(["attack", "--in", str(path)]) == 2
    assert "w=64 is too wide for trivial mode" in capsys.readouterr().err


def test_run_attack_missing_file_is_exit_2(tmp_path, capsys):
    assert run(["attack", "--in", str(tmp_path / "absent.bin")]) == 2


def test_run_attack_dfs_mode(tmp_path, capsys):
    ks = generate(state_from_seed(1, W4), default_params(W4), 512)
    path = tmp_path / "k4.hex"
    write_keystream(ks, path, "hex")
    rc = run(["attack", "--in", str(path), "--format", "hex", "--mode", "dfs",
              "--report", "machine"])
    assert rc == 0
    assert "mode=dfs" in capsys.readouterr().out


def test_run_unknown_flag_is_exit_2(capsys):
    assert run(["attack", "--frobnicate", "1"]) == 2
    assert run(["nonsense"]) == 2


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


def test_run_oracle_w8_without_budget_is_exit_2(tmp_path):
    # --w follows the file, and the missing budget is a usage error, not a crash
    ks = generate(state_from_seed(1, W8), default_params(W8), 2048)
    assert 0 in ks.words
    path = tmp_path / "k8.bin"
    write_keystream(ks, path, "bin")
    proc = subprocess.run(
        [sys.executable, "-m", "tf1crack", "oracle", "--in", str(path)],
        capture_output=True,
        text=True,
        env=_checkout_env(),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "BudgetExceeded" in proc.stderr and "2^32" in proc.stderr
    assert "Traceback" not in proc.stderr


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
