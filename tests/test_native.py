"""The compiled lane kernel's build: a missing or failing compiler, and the cache."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tf1crack import (
    AttackConfig,
    KernelBuildError,
    State,
    WordSpec,
    _native,
    cli,
    default_params,
    generate,
    generate_from_instance,
    recover,
    state_from_seed,
    tf1_instance,
)
from tf1crack.cli import read_keystream

from helpers import report_core

PINNED8 = ("zero_index=94", "stage1_filter_steps=68136", "stage1_survivors=8",
           "recovered_0=88:55:78:05")
# the w=8 dfs-mode counters that CI pins: stage-1 candidates, filter steps,
# survivors, stage-2 candidates and verifications
COUNTERS8 = [32768, 68136, 8, 4096, 8196]
TRUTH8 = State(0x88, 0x55, 0x78, 0x05)


@pytest.fixture
def cold(monkeypatch, tmp_path):
    """An empty build cache and no library loaded or refused in this process;
    returns the cache."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(_native, "_LIB", None)
    return cache / "tf1crack"


@pytest.fixture(scope="module")
def stream8(tmp_path_factory):
    """The w=8 stream that the command-line checks attack, as a file.  Made
    before any test's ``cold`` cache, so its generation builds nothing there."""
    path = tmp_path_factory.mktemp("stream8") / "ks"
    assert cli.run(["gen", "--w", "8", "--random-seed", "1", "--count", "4096", "--out", str(path)]) == 0
    return path


def _failing_compiler(tmp_path, log):
    """A cc that notes each run in ``log``, prints an error and exits 3."""
    fake = tmp_path / "cc"
    fake.write_text(f"#!/bin/sh\necho run >> '{log}'\n"
                    "echo 'fake-cc: error: no vector units today' >&2\nexit 3\n")
    fake.chmod(0o755)
    return str(fake)


def _check_refused(monkeypatch, cold, stream8, capsys, compiler, says):
    monkeypatch.setattr(_native, "_compiler", lambda: compiler)
    monkeypatch.setattr(_native, "_LIB", None)
    ks = read_keystream(str(stream8), "hex")
    inst = tf1_instance(default_params(WordSpec(8)))
    with pytest.raises(KernelBuildError, match="enumeration_mode='dfs'") as err:
        recover(ks, inst)
    assert says in str(err.value)
    capsys.readouterr()
    assert cli.run(["attack", "--in", str(stream8)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"KernelBuildError: {err.value}"
    # dfs mode needs no compiler
    assert recover(ks, inst, cfg=AttackConfig(enumeration_mode="dfs")).recovered == (TRUTH8,)
    assert cli.run(["attack", "--in", str(stream8), "--mode", "dfs", "--report", "machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line in lines for line in PINNED8)
    # nothing half-built is left in the cache
    assert os.listdir(cold) == []


def test_a_missing_compiler_is_refused_precisely(monkeypatch, cold, stream8, capsys, tmp_path):
    missing = str(tmp_path / "no-such-cc")
    _check_refused(monkeypatch, cold, stream8, capsys, missing,
                   f"could not run the C compiler {missing}")
    _check_refused(monkeypatch, cold, stream8, capsys, None, "no C compiler (cc) found on PATH")


def test_a_failing_compiler_shows_its_stderr(monkeypatch, cold, stream8, capsys, tmp_path):
    fake = _failing_compiler(tmp_path, tmp_path / "runs")
    _check_refused(monkeypatch, cold, stream8, capsys, fake,
                   "(exit 3):\nfake-cc: error: no vector units today")


def test_without_a_compiler_generate_gives_the_compiled_words(monkeypatch, cold):
    # the word functions stand in for the compiled stream, at the widths'
    # extremes; then the compiled path builds
    cases = [(state_from_seed(seed, spec), default_params(spec), n)
             for seed, spec, n in ((1, WordSpec(4), 300), (2, WordSpec(16), (1 << 14) + 3),
                                   (3, WordSpec(64), 300))]
    compiler = _native._compiler
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    plain = [generate(*case) for case in cases]
    assert isinstance(_native._LIB, KernelBuildError) and os.listdir(cold) == []
    monkeypatch.setattr(_native, "_compiler", compiler)
    monkeypatch.setattr(_native, "_LIB", None)
    assert [generate(*case) for case in cases] == plain
    assert len(os.listdir(cold)) == 1 and not isinstance(_native._LIB, KernelBuildError)


def test_a_failing_compiler_runs_once_per_process(monkeypatch, cold, stream8, capsys, tmp_path):
    # generate falls back to the word functions, trivial mode raises the
    # same error each time and dfs mode recovers, on one compiler run
    runs = tmp_path / "runs"
    monkeypatch.setattr(_native, "_compiler", lambda: _failing_compiler(tmp_path, runs))
    spec = WordSpec(8)
    params = default_params(spec)
    ks = generate(state_from_seed(1, spec), params, 4096)
    assert ks == read_keystream(str(stream8), "hex")
    errors = []
    for _ in range(2):
        with pytest.raises(KernelBuildError, match="exit 3") as err:
            recover(ks, tf1_instance(params))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert cli.run(["attack", "--in", str(stream8)]) == 2
    assert cli.run(["gen", "--w", "16", "--random-seed", "1", "--count", "64"]) == 0
    assert recover(ks, tf1_instance(params), cfg=AttackConfig(enumeration_mode="dfs")).recovered == (TRUTH8,)
    capsys.readouterr()
    assert runs.read_text() == "run\n"


W12 = """
import json, sys
from tf1crack import WordSpec, default_params, generate, recover, state_from_seed, tf1_instance
spec = WordSpec(12)
params = default_params(spec)
report = recover(generate(state_from_seed(1, spec), params, 16384), tf1_instance(params))
print(json.dumps([report.zero_index, list(vars(report.counters).values())]))
"""


def test_two_processes_build_into_one_empty_cache(tmp_path):
    # Both processes find no build and compile at once, each to a temporary
    # name that it then renames over the cache path, so each loads a whole
    # file and gives the pinned w=12 counters; no temporary file is left.
    src = os.path.dirname(os.path.dirname(_native.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    procs = [subprocess.Popen([sys.executable, "-c", W12], env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [json.loads(proc.communicate(timeout=120)[0]) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert outs == [[1233, [2097152, 4056488, 48, 1572864, 1592230]]] * 2
    files = os.listdir(tmp_path / "tf1crack")
    assert len(files) == 1 and files[0].startswith("_lanes-") and files[0].endswith(".so")


def test_a_cached_file_that_does_not_load_is_rebuilt_once(monkeypatch, cold):
    # No test writes over the path of a library that its process has
    # loaded: the bad file is in place before anything loads the library.
    spec = WordSpec(8)
    params = default_params(spec)
    path = _native._path()
    with open(path, "wb") as f:
        f.write(b"not a shared library")
    builds = []
    build = _native._build

    def counted(path):
        builds.append(path)
        build(path)

    monkeypatch.setattr(_native, "_build", counted)
    ks = generate(state_from_seed(1, spec), params, 4096)
    assert recover(ks, tf1_instance(params)).recovered == (TRUTH8,)
    assert builds == [path]
    with open(path, "rb") as f:
        assert f.read(4) == b"\x7fELF"
    # a rebuild that still does not load is refused, not retried, and the
    # refusal stands for the process; in a new cache, as this process has
    # loaded the library at the old path
    monkeypatch.setenv("XDG_CACHE_HOME", str(cold.parent.parent / "again"))
    monkeypatch.setattr(_native, "_LIB", None)
    path = _native._path()
    builds.clear()

    def garbage(path):
        builds.append(path)
        with open(path, "wb") as f:
            f.write(b"still not a shared library")

    monkeypatch.setattr(_native, "_build", garbage)
    with open(path, "wb") as f:
        f.write(b"not a shared library")
    for _ in range(2):
        with pytest.raises(KernelBuildError, match="does not load"):
            recover(ks, tf1_instance(params))
    assert generate(state_from_seed(1, spec), params, 4096) == ks
    assert builds == [path]


def test_importing_the_package_builds_and_loads_nothing(tmp_path):
    # a fresh process imports tf1crack and runs a generic instance's
    # generate and dfs attack: no cache directory appears and no library is
    # loaded
    src = os.path.dirname(os.path.dirname(_native.__file__))
    script = (
        "from tf1crack import *\n"
        "from tf1crack import _native\n"
        "spec = WordSpec(8)\n"
        "inst = demo_generalized_instance(spec, default_params(spec))\n"
        "ks = generate_from_instance(state_from_seed(1, spec), inst, 4096)\n"
        "recover(ks, inst, cfg=AttackConfig(enumeration_mode='dfs'))\n"
        "assert _native._LIB is None\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    assert os.listdir(tmp_path) == []


def test_a_standard_generate_into_an_empty_cache_builds_once(monkeypatch, cold):
    builds = []
    build = _native._build

    def counted(path):
        builds.append(path)
        build(path)

    monkeypatch.setattr(_native, "_build", counted)
    spec = WordSpec(8)
    params = default_params(spec)
    for n in (0, 5, 4096):
        generate(state_from_seed(1, spec), params, n)
    recover(generate(state_from_seed(1, spec), params, 4096), tf1_instance(params))
    assert builds == [_native._path()]
    assert os.listdir(cold) == [os.path.basename(builds[0])]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second cpu for a forked worker")
def test_trivial_mode_on_two_workers_builds_once_before_the_fork(monkeypatch, cold, tmp_path):
    # A cc that logs each run and then runs the real compiler, a cold cache,
    # and a stream from the generic twin, which builds nothing: trivial
    # mode must build in the calling process before its worker forks, or
    # the worker, finding no build, would run the compiler as well.
    real = _native._compiler()
    if real is None:
        pytest.skip("no C compiler")
    runs = tmp_path / "runs"
    wrapper = tmp_path / "cc"
    wrapper.write_text(f"#!/bin/sh\necho run >> '{runs}'\nexec '{real}' \"$@\"\n")
    wrapper.chmod(0o755)
    monkeypatch.setattr(_native, "_compiler", lambda: str(wrapper))
    spec = WordSpec(8)
    inst = tf1_instance(default_params(spec))
    ks = generate_from_instance(state_from_seed(1, spec), dataclasses.replace(inst), 4096)
    assert not runs.exists()
    assert recover(ks, inst, cfg=AttackConfig(workers=2)).recovered == (TRUTH8,)
    assert runs.read_text() == "run\n"


def test_stage2_finds_more_states_than_its_first_buffer_holds(monkeypatch):
    # the compiled stage 2 reports every state it finds, not only those its
    # buffer holds: with room for one, the four states of a w=12 stream at
    # C = 1 take a second call, and recover gives the generic twin's report
    spec = WordSpec(12)
    params = dataclasses.replace(default_params(spec), c=1)
    ks = generate(state_from_seed(1, spec), params, 1 << 14)
    inst = tf1_instance(params)
    twin = recover(ks, dataclasses.replace(inst), cfg=AttackConfig(enumeration_mode="dfs"))
    assert len(twin.recovered) == 4
    monkeypatch.setattr(_native, "_STATES", 1)
    assert report_core(recover(ks, inst)) == report_core(twin)


def test_without_the_library_stage2_falls_back_to_the_column_enumerator(monkeypatch, stream8):
    # a dfs-mode recover on the standard generator where the library cannot
    # be built: stage 2 runs unpruned on the column enumerator, with the
    # pinned counters and the compiled stage 2's report
    ks = read_keystream(str(stream8), "hex")
    inst = tf1_instance(default_params(WordSpec(8)))
    dfs = AttackConfig(enumeration_mode="dfs")
    compiled = recover(ks, inst, cfg=dfs)
    monkeypatch.setattr(_native, "_LIB", KernelBuildError("no library in this test"))
    assert _native.complete(8, 1, 1, 1, 0, (), 5, (0, 1), 0) is None
    fallback = recover(ks, inst, cfg=dfs)
    assert report_core(fallback) == report_core(compiled)
    assert fallback.zero_index == 94 and fallback.recovered == (TRUTH8,)
    assert list(vars(fallback.counters).values()) == COUNTERS8


def test_stage2_refuses_what_its_entry_cannot_run():
    # the entry reads the word after the event and recurses from column l
    # up to w: both are checked before any pointer reaches it
    prefixes = tuple(np.zeros(1, np.uint8) for _ in range(4))
    for l, words, index in ((9, (0, 1), 0), (-1, (0, 1), 0), (4, (0,), 0), (4, (0, 1), 1)):
        with pytest.raises(ValueError, match="^no stage 2 from"):
            _native.complete(8, 1, 1, 1, 0, prefixes, l, words, index)
    assert _native.complete(8, 1, 1, 1, 0, prefixes, 8, (0, 1), 0) == ([], 0)


def test_stage2_reads_the_tail_in_place():
    # The entry reads a keystream's own words where they lie: walking the
    # true state down a 2^20-word w=16 keystream, 2 MB of words, allocates
    # less than 1 MB, where a uint64 copy of the tail would take 8 MB.
    spec = WordSpec(16)
    params = default_params(spec)
    start = state_from_seed(1, spec)
    ks = generate(start, params, 1 << 20)
    state = tf1_instance(params).t1(start)
    prefix = tuple(np.array([v], np.uint64) for v in state.words())
    args = (16, params.c1, params.c3, params.c, (state.a + state.c) & spec.mask, prefix, 16, ks.words, 0)
    want = ([list(state.words())], (1 << 20) - 2)
    assert _native.complete(*args) == want
    tracemalloc.start()
    try:
        assert _native.complete(*args) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
