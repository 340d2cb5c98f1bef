"""C implementations of the two hot kernels, built with the system compiler.

``merge_level`` and ``kahn_propagate`` — the per-level cut merge and the
level wavefront, which dominate the post-GNN sweep — are ported from the
numba backend's scalar loops to ``c_backend.c`` and called through
``ctypes`` (which releases the GIL for the call).  ``cone_sweep`` and
``fa_join`` are cold and stay on numpy through the registry's per-kernel
fallback.  The outputs are bit-identical to numpy for the reasons given in
:mod:`repro.kernels.numba_backend`; ``tests/test_kernels.py`` pins it.

:func:`load` (called by the registry, never at import) compiles the source
with ``cc`` (else ``gcc``) from ``PATH`` into a shared library named by the
sha256 of the source and the compile command, cached in
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, mode 0700).  A build
compiles to a temporary file in that directory and renames it into place,
so concurrent builders are safe.  A cached library is loaded only when it
and its directory belong to the current user and are not group- or
other-writable; otherwise the library is built in a fresh private
temporary directory, loaded, and the directory removed.  Every failure
surfaces as ``OSError``, which the registry turns into the numpy fallback.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels import numpy_backend
from repro.kernels.registry import register

SOURCE = Path(__file__).with_name("c_backend.c")
# Integer-only code: the output cannot depend on these flags, and no
# -march=native, so a cached library runs on any host sharing the cache.
FLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
BUILD_TIMEOUT_S = 120

# Read-only tables, referenced for the life of the module so their
# addresses stay valid.
_EXPAND_LUT = np.ascontiguousarray(numpy_backend.EXPAND_LUT, dtype=np.uint8)
_WIDTH_MASK = np.ascontiguousarray(numpy_backend._WIDTH_MASK, dtype=np.uint8)
_EXPAND_LUT_ADDRESS = _EXPAND_LUT.ctypes.data
_WIDTH_MASK_ADDRESS = _WIDTH_MASK.ctypes.data

# Return codes of the C functions.
_NO_MEMORY = 1
_BAD_INPUT = 2

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "merge_level": [
        _PTR, _I64,  # batch, batch_len
        _PTR, _PTR, _I64,  # fanin0, fanin1, num_vars
        _PTR, _PTR, _PTR, _PTR,  # leaves, truths, sizes, counts
        _I64, _I64, _I64, _I64,  # slots, k, max_cuts, include_trivial
        ctypes.c_int32, ctypes.c_uint8,  # pad, trivial_truth
        _PTR, _PTR,  # expand_lut, width_mask
    ],
    "kahn_propagate": [
        _PTR, _PTR, _I64,  # indptr, consumers, num_edges
        _PTR, _PTR, _I64,  # indegree, values, n
    ],
}


def _inputs(*arrays) -> list:
    """Read-only operands as C-contiguous int64 (copied only if needed)."""
    return [np.ascontiguousarray(a, dtype=np.int64) for a in arrays]


def _written(array, dtype, kernel: str, name: str) -> int:
    """Address of an in-place operand, which must not be copied.

    A converted copy would take the kernel's writes and drop them, so a
    dtype, contiguity or writability mismatch raises instead.
    """
    if (array.dtype != dtype or not array.flags.c_contiguous
            or not array.flags.writeable):
        raise TypeError(
            f"{kernel}: {name} must be a writable C-contiguous "
            f"{np.dtype(dtype)} array (got {array.dtype}, "
            f"contiguous={array.flags.c_contiguous}, "
            f"writeable={array.flags.writeable})"
        )
    return array.ctypes.data


def compile_command() -> list[str]:
    """The compile command (without output and source operands)."""
    found = shutil.which("cc") or shutil.which("gcc")
    if found is None:
        raise FileNotFoundError("no C compiler: neither cc nor gcc is on PATH")
    return [found, *FLAGS]


def library_name(command: list[str]) -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(command).encode())
    return f"repro-kernels-{digest.hexdigest()[:24]}.so"


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def _private(path: Path) -> bool:
    """Owned by this user and not writable by group or others."""
    info = os.stat(path)
    return (info.st_uid == os.getuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _trusted_cache(directory: Path, target: Path) -> bool:
    """Whether ``target`` may be loaded from (or built into) ``directory``."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        return _private(directory) and (not target.exists()
                                        or _private(target))
    except OSError:
        return False


def _build(command: list[str], target: Path) -> None:
    """Compile to a temporary file beside ``target``, then rename it in."""
    fd, partial = tempfile.mkstemp(dir=target.parent, suffix=".so.partial")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [*command, "-o", partial, str(SOURCE)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise OSError(f"C kernel build timed out: {exc}") from exc
        if done.returncode != 0:
            raise OSError(
                f"C kernel build failed ({command[0]} exited "
                f"{done.returncode}): {done.stderr.strip()[-400:]}"
            )
        os.chmod(partial, 0o700)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _bind(library: ctypes.CDLL) -> dict:
    functions = {}
    for name, argtypes in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = ctypes.c_int
        functions[name] = function
    return functions


def load() -> Path:
    """Build or reuse the library and register its kernels as ``c``.

    Returns the path the library was loaded from (a private temporary
    directory, already removed, when the cache was not trustworthy).
    Raises ``OSError`` when no library can be built or loaded.
    """
    command = compile_command()
    directory = cache_dir()
    target = directory / library_name(command)
    scratch = None
    if not _trusted_cache(directory, target):
        scratch = tempfile.mkdtemp(prefix="repro-kernels-")
        target = Path(scratch) / target.name
    try:
        if not target.exists():
            _build(command, target)
        # The mapping outlives the file: a scratch build is removed below.
        functions = _bind(ctypes.CDLL(str(target)))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    register("merge_level", "c")(
        functools.partial(merge_level, functions["merge_level"]))
    register("kahn_propagate", "c")(
        functools.partial(kahn_propagate, functions["kahn_propagate"]))
    return target


def _check(status: int, kernel: str) -> None:
    if status == _NO_MEMORY:
        raise MemoryError(f"{kernel}: C kernel scratch allocation failed")
    if status == _BAD_INPUT:
        raise ValueError(f"{kernel}: index or count out of range")
    if status != 0:
        raise RuntimeError(f"{kernel}: C kernel returned {status}")


def merge_level(function, batch, fanin0, fanin1, leaves, truths, sizes,
                counts, *, k, max_cuts, include_trivial, pad, pack_limit):
    # pack_limit is a numpy-backend footprint knob (int64 key compaction);
    # the scalar merge compares leaf triples directly and never packs.
    del pack_limit
    if leaves.ndim != 3 or leaves.shape[2] != 3:
        raise ValueError("merge_level: leaves must have shape (vars, slots, 3)")
    num_vars, slots = leaves.shape[:2]
    batch, fanin0, fanin1 = _inputs(batch, fanin0, fanin1)
    if (truths.shape != (num_vars, slots) or sizes.shape != (num_vars, slots)
            or counts.shape != (num_vars,) or batch.ndim != 1
            or fanin0.shape != (num_vars,) or fanin1.shape != (num_vars,)):
        raise ValueError("merge_level: inconsistent CutArrays/fanin shapes")
    status = function(
        batch.ctypes.data, len(batch),
        fanin0.ctypes.data, fanin1.ctypes.data, num_vars,
        _written(leaves, np.int32, "merge_level", "leaves"),
        _written(truths, np.uint8, "merge_level", "truths"),
        _written(sizes, np.int8, "merge_level", "sizes"),
        _written(counts, np.int32, "merge_level", "counts"),
        slots, k, max_cuts, int(bool(include_trivial)), pad,
        numpy_backend.TRIVIAL_TRUTH, _EXPAND_LUT_ADDRESS, _WIDTH_MASK_ADDRESS,
    )
    _check(status, "merge_level")


def kahn_propagate(function, indptr, consumers, indegree, values):
    indptr, consumers = _inputs(indptr, consumers)
    n = len(values)
    if (values.ndim != 1 or indegree.shape != (n,)
            or indptr.shape != (n + 1,) or consumers.ndim != 1):
        raise ValueError("kahn_propagate: inconsistent CSR shapes")
    status = function(
        indptr.ctypes.data, consumers.ctypes.data, len(consumers),
        _written(indegree, np.int64, "kahn_propagate", "indegree"),
        _written(values, np.int64, "kahn_propagate", "values"), n,
    )
    _check(status, "kahn_propagate")
