"""Build, cache and load the compiled library of ``_lanes.c``.

The library has two entries: ``tf1_lanes``, trivial mode's stage-1 lane
kernel (``lanes()``), and ``tf1_stream``, the standard generator's output
stream (``stream()``).  Nothing here runs at import.  The first call of
either builds the library in a process and keeps it: with the system's C
compiler, into a per-user cache directory, under a name keyed by the
source, the flags, the machine and the CPU's features.  A cached build
loads with no subprocess.  A build goes to a temporary name and is
published with ``os.replace``, so two processes that build at once each
load a whole file.  A cached file that does not load is rebuilt once.  A
build that fails is remembered for the rest of the process: every later
call of ``lanes()`` raises the same ``KernelBuildError``, and every call
of ``stream()`` gives None, so the compiler runs at most once.  Trivial
mode lets the error propagate; the stream falls back to the word
functions.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import tempfile

# the interpreter's own SHA-256 (Python 3.12 and later, then 3.10 and
# 3.11), as random.py takes its sha512: hashlib loads OpenSSL, which adds
# about 3.5 MB of resident memory
try:
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

__all__ = ["KernelBuildError", "lanes", "stream"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_lanes.c")
_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
# the loaded entries (tf1_lanes, tf1_stream), or the KernelBuildError of a
# failed build
_LIB = None


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
    lanes, stream = lib.tf1_lanes, lib.tf1_stream
    u64, u32 = ctypes.c_uint64, ctypes.c_uint32
    lanes.argtypes = [u64, u64, u32, u32, u32, u32, u32, ctypes.c_void_p, u64,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(u64)]
    lanes.restype = u64
    stream.argtypes = [u64, u32, u64, u64, u64, ctypes.POINTER(u64), ctypes.POINTER(u64)]
    stream.restype = None
    return lanes, stream


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


def lanes():
    """The compiled ``tf1_lanes`` entry of ``_lanes.c``, built on first use."""
    return _library()[0]


def stream():
    """The compiled ``tf1_stream`` entry of ``_lanes.c``, built on first use,
    or None where the library cannot be built."""
    try:
        return _library()[1]
    except KernelBuildError:
        return None
