"""The one owner of the compiled library of ``_lanes.c``: its build, cache
and load, the calls of its three entries, their buffers, and the lane layout.

Three functions over ints and numpy arrays wrap the entries, so that no
other module imports ctypes or knows an entry's arguments:

- ``stage1`` drives ``tf1_lanes``, trivial mode's stage-1 lane kernel,
  and decodes each survivor's lower-prefix index and lane bits into its
  (a, b, c, d) words;
- ``stream`` drives ``tf1_stream``, the standard generator's output
  stream, in one call that writes the caller's array of ``word_dtype(w)``;
- ``complete`` drives ``tf1_complete``, the standard generator's stage 2:
  the column search, the first-word pruning and the tail walk.  Stage 2
  in ``attack`` is its one caller, and ``verify_state`` reaches it there,
  with the one state as a full-width prefix.

The keystream's words cross into C as they are stored, an array of
``word_dtype(w)`` whose item size, 1, 2, 4 or 8 bytes, goes with the
pointer; the entries read and write those words in place.  This module is
the one place that checks what reaches C: a C-contiguous unsigned array of
one of those sizes, any other input converted first and any other output
array refused.

Nothing here runs at import.  The first call of any builds the library
in a process and keeps it: with the system's C compiler, into a per-user
cache directory, under a name keyed by the source, the flags, the machine
and the CPU's features.  A cached build loads with no subprocess.  A build
goes to a temporary name and is published with ``os.replace``, so two
processes that build at once each load a whole file.  A cached file that
does not load is rebuilt once.  A build that fails is remembered for the
rest of the process: every later call of ``stage1`` raises the same
``KernelBuildError``, and every call of ``stream`` gives False and of
``complete`` None, so the compiler runs at most once.  Trivial mode lets
the error propagate; the stream falls back to the word functions, and
stage 2, ``verify_state``'s included, to the column enumerator that every
other instance uses.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import tempfile

import numpy as np

from .word import word_dtype

# the interpreter's own SHA-256 (Python 3.12 and later, then 3.10 and
# 3.11), as random.py takes its sha512: hashlib loads OpenSSL, which adds
# about 3.5 MB of resident memory
try:
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

__all__ = ["KernelBuildError", "complete", "stage1", "stream"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lanes.c")
_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
# the loaded entries (tf1_lanes, tf1_stream, tf1_complete), or the
# KernelBuildError of a failed build
_LIB = None
# the states that stage 2's first call has room for; a call that finds more
# reports how many, and runs again on a buffer that holds them all
_STATES = 16


class KernelBuildError(RuntimeError):
    """The compiled library could not be built or loaded (exit code 2 at the CLI)."""


def _compiler() -> str | None:
    """Path of the C compiler, or None when there is none."""
    return shutil.which("cc")


def _cache_dir() -> str:
    """$XDG_CACHE_HOME/tf1crack, else ~/.cache/tf1crack, else one under the temp directory."""
    if os.environ.get("XDG_CACHE_HOME"):
        return os.path.join(os.environ["XDG_CACHE_HOME"], "tf1crack")
    home = os.path.expanduser("~")
    if home != "~":
        return os.path.join(home, ".cache", "tf1crack")
    return os.path.join(tempfile.gettempdir(), "tf1crack")


def _cpu_features() -> str:
    # the build is for -march=native: key it by the CPU's features too
    try:
        with open("/proc/cpuinfo") as f:
            return next((line for line in f if line.startswith(("flags", "Features"))), "")
    except OSError:
        return ""


def _fail(message: str) -> KernelBuildError:
    return KernelBuildError(
        f"{message}; trivial mode needs a C compiler to build its stage-1 kernel, "
        "and enumeration_mode='dfs' (--mode dfs) needs none"
    )


def _build(path: str) -> None:
    import subprocess

    cc = _compiler()
    if cc is None:
        raise _fail("no C compiler (cc) found on PATH")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        try:
            done = subprocess.run([cc, *_FLAGS, "-o", tmp, _SOURCE], capture_output=True, text=True)
        except OSError as exc:
            raise _fail(f"could not run the C compiler {cc}: {exc}") from None
        if done.returncode:
            raise _fail(f"{cc} failed to build {_SOURCE} (exit {done.returncode}):\n"
                        f"{done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load(path: str) -> tuple:
    lib = ctypes.CDLL(path)
    lanes, stream, complete = lib.tf1_lanes, lib.tf1_stream, lib.tf1_complete
    u64, u32, ptr = ctypes.c_uint64, ctypes.c_uint32, ctypes.c_void_p
    lanes.argtypes = [u64, u64, u32, u32, u32, u32, u32, ctypes.c_void_p, u64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(u64)]
    lanes.restype = u64
    stream.argtypes = [u64, u32, u64, u64, u64, ctypes.POINTER(u64), ptr, u32]
    stream.restype = None
    complete.argtypes = [u64, u32, u32, u64, u64, u64, u64, ptr, ptr, u32, u64, ptr, u64,
                         ctypes.POINTER(u64)]
    complete.restype = u64
    return lanes, stream, complete


def _path() -> str:
    """Where this source's build for this machine is cached; makes the directory."""
    with open(_SOURCE, "rb") as f:
        key = sha256(f.read())
    for part in (*_FLAGS, platform.machine(), _cpu_features()):
        key.update(b"\0" + part.encode())
    cache = _cache_dir()
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError as exc:
        raise _fail(f"cannot create the build cache {cache}: {exc}") from None
    return os.path.join(cache, f"_lanes-{key.hexdigest()[:16]}.so")


def _open() -> tuple:
    path = _path()
    if not os.path.exists(path):
        _build(path)
    try:
        return _load(path)
    except (OSError, AttributeError):
        # a cached file that does not load is not trusted: build it again
        _build(path)
        try:
            return _load(path)
        except (OSError, AttributeError) as exc:
            raise _fail(f"the rebuilt {path} does not load: {exc}") from None


def _library() -> tuple:
    global _LIB
    if _LIB is None:
        try:
            _LIB = _open()
        except KernelBuildError as exc:
            _LIB = exc
    if isinstance(_LIB, KernelBuildError):
        raise _LIB.with_traceback(None)
    return _LIB


def stage1(w: int, k: int, c1: int, c3: int, cc: int, x: int, tail_bits, working: int):
    """Trivial mode's stage 1 at width w and inner word x on ``tail_bits``,
    by ``tf1_lanes``, whose rules the header of ``_lanes.c`` gives.

    Builds or loads the library in the calling process, or raises
    ``KernelBuildError``, and returns ``part(lo, hi)``: a generator over
    lower prefixes [lo, hi) of 2**(3(k-2)), ``working`` a call, that yields
    once per call (survivors as four ``word_dtype(w)`` arrays, filter
    steps, candidates: 64 per lower prefix); the caller sums the batches
    and applies the survivor cap.

    Index i encodes the low L = k-2 columns of (a, b, d) as (i >> 2L,
    (i >> L) & lm, i & lm), with c = (x - a) mod 2**k.  A survivor's alive
    mask has a lane bit set per live lane, whose bits 4, 3, 2, 1, 0 are a
    candidate's a_T, b_T, a_U, b_U, d_U for T = k-1 and U = k-2; each lane
    stands for the 2 candidates d_T = 0 and 1.
    """
    kernel = _library()[0]
    low = k - 2
    lm, km = (1 << low) - 1, (1 << k) - 1
    word = word_dtype(w)
    consts = [v & km for v in (c1, c3, cc, x)]
    bits = np.array(tail_bits, np.uint8)
    shifts = np.arange(32, dtype=np.uint32)

    def part(lo: int, hi: int):
        cap = min(working, hi - lo)
        ids, alive = np.empty(cap, np.uint64), np.empty(cap, np.uint32)
        steps = ctypes.c_uint64()
        for start in range(lo, hi, cap):
            stop = min(start + cap, hi)
            n = kernel(start, stop, k, *consts, bits.ctypes.data, bits.size,
                       ids.ctypes.data, alive.ctypes.data, ctypes.byref(steps))
            rows, lanes = np.nonzero((alive[:n, None] >> shifts) & 1)
            i, lane = ids.take(rows), lanes.astype(np.uint64)
            a = (i >> (2 * low)) | ((lane >> 2) & 1) << low | (lane >> 4) << (k - 1)
            b = ((i >> low) & lm) | ((lane >> 1) & 1) << low | ((lane >> 3) & 1) << (k - 1)
            d = (i & lm) | (lane & 1) << low
            a, b, d = np.tile(a, 2), np.tile(b, 2), np.concatenate([d, d | 1 << (k - 1)])
            yield tuple(v.astype(word) for v in (a, b, (x - a) & km, d)), steps.value, 64 * (stop - start)

    return part


def stream(w: int, c1: int, c3: int, cc: int, state, out: np.ndarray) -> bool:
    """Fill ``out``, a writable C-contiguous array of ``word_dtype(w)``,
    with the standard generator's first ``out.size`` output words after
    ``state``, its four words, at width w, in one call of ``tf1_stream``;
    False where the library cannot be built.  Any other array raises
    ValueError."""
    if out.dtype != word_dtype(w) or not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"no stream at width {w} into a {out.dtype} array")
    try:
        kernel = _library()[1]
    except KernelBuildError:
        return False
    kernel(out.size, w, c1, c3, cc, (ctypes.c_uint64 * 4)(*state), out.ctypes.data, out.itemsize)
    return True


def complete(w: int, c1: int, c3: int, cc: int, x: int, prefixes, l: int, words, index: int):
    """Stage 2 for the standard generator at width w and inner word x, by
    ``tf1_complete``, whose rules the header of ``_lanes.c`` gives; or
    None where the library cannot be built.

    ``prefixes`` holds the survivors' (a, b, c, d) words as four arrays,
    l-column prefixes with t2 = x on l columns; the event word is
    words[index], and the tail runs from it to the end of ``words``.  The
    entry reads the tail in place where it is a C-contiguous unsigned
    array, as a keystream's words are; any other ``words``, a tuple for
    one, is converted to ``word_dtype(w)`` first.  Returns (the states
    found as (a, b, c, d) rows, in search order; the walks' charge), where
    the charge leaves out the one step for the first tail word that each
    candidate costs.  ``verify_state``'s walk is ``attack._run_stage2``'s
    call with the one state as a prefix of l = w columns: a mismatch at
    words[index + j] returns ([], j - 1).
    """
    # the entry reads the first tail word, and recurses from column l to w
    if not 0 <= l <= w or not 0 <= index < len(words) - 1:
        raise ValueError(f"no stage 2 from {l} of {w} columns at word {index} of {len(words)}")
    try:
        kernel = _library()[2]
    except KernelBuildError:
        return None
    pre = np.stack(prefixes, axis=1).astype(np.uint64)
    tail = np.asarray(words[index:])
    if tail.dtype.kind != "u" or not tail.dtype.isnative or not tail.flags.c_contiguous:
        tail = np.ascontiguousarray(words[index:], word_dtype(w))
    found, charge = np.empty((_STATES, 4), np.uint64), ctypes.c_uint64()
    while True:
        n = kernel(len(pre), l, w, c1, c3, cc, x, pre.ctypes.data, tail.ctypes.data, tail.itemsize,
                   tail.size - 1, found.ctypes.data, len(found), ctypes.byref(charge))
        if n <= len(found):
            return found[:n].tolist(), charge.value
        found = np.empty((n, 4), np.uint64)
