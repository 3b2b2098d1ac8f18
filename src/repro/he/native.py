"""The compiled kernels behind the ``native`` compute backend.

``native_kernels.c`` (next to this file) holds the six portable-C99
kernels: the lazy-butterfly forward/inverse NTT; the two window steps,
each built around one key switch fused from limb-iCRT gadget
decomposition, the digits' transform and the inner product (one
ciphertext at a time, its digits never leaving cache) — one ExpandQuery
level (slot-gather automorphism, Subs, the ``b`` add and the level's
butterfly) and one ColTor round (``ones - zeros``, the external product
against each query's bit rows read where they lie, ``+ zeros``); the
RowSel contraction that reads each word of the uint32 database store
once for both ciphertext halves; the client's one-pass encryption of
zero rows (error transform, ``b = e - a*s`` and the RGSW gadget
constants, written in place); and the counter-based draws of
:mod:`repro.he.sampling` (the ``a`` rows of a block's or a window's
seeds, Lemire-exact, and the error rows of a private seed).  This module
is everything foreign about them: it builds the shared library with the
system C compiler on first use, loads it through :mod:`ctypes`, wraps each kernel
in a function that validates shapes, dtypes and strides before a pointer
crosses over, and splits the large calls across the cores.
:class:`~repro.he.backend.NativeBackend` is the only caller.

**Build and cache.**  :func:`load_library` compiles for the host's own
ISA, derived rather than configured: it first asks the compiler for its
predefined macros under ``-march=native`` (``cc -march=native -dM -E``),
and when that works builds with ``-O3 -march=native`` (baseline x86-64
has no 32-bit lane multiply, and one N = 2^12 NTT costs twice as much
without it; at ``-O2`` gcc leaves the butterflies unvectorised).  The
library goes into the per-user cache directory (``$XDG_CACHE_HOME`` or
``~/.cache``, under ``repro-ive/``), to a name that hashes the source,
the flags, the compiler's identity, the machine and that macro dump, so
a changed source or toolchain never loads a stale build and a cache
shared between hosts never loads a build for another ISA (which would
die on an illegal instruction rather than fall back).  A compiler that
refuses the probe or the targeted build gets one more try with the
portable flags alone; the reason is logged once and
``he_native_portable`` counted once (the kernels still run, slower).  The
compiler writes to a temporary name and the result is renamed into
place: processes racing on an empty cache (the benchmark's per-workload
subprocesses) each build their own copy and whichever rename lands
last wins, every loser having already loaded a complete file.  No
compiler, an unwritable cache, a failed portable build or a failed load is
not an error: the reason is logged once, ``he_native_unavailable`` is counted
once, and the function returns None for the rest of the process —
``eager`` is then the default backend.

**Fan-out.**  :func:`fan_out` splits one kernel call into contiguous
slices of its outermost independent axis — the expansion level and the
ColTor round over ciphertexts, RowSel over queries (over columns when
there is one query), the NTT, the encryption and the draws over rows —
and runs them at once: ``ctypes`` drops the GIL for the call, so the slices run
on different cores.  The width is the
number of cores the process may run on (:func:`fan_width`:
``os.sched_getaffinity``, else ``os.cpu_count()``), read once; a call
splits only when it has two units and every slice carries
``FAN_FLOOR_WORDS``, derived from the measured handoff cost.  The
calling thread runs the first slice; the other ``width - 1`` run on one
process-wide thread pool, started on the first call that splits (never
at import, never on a one-core process, never without the library) and
reset in a forked child.  Each slice gets its own work buffers and
writes outputs no other slice touches, and the kernels' status flags are
ORed, so a split call is byte-identical to the whole one and a refused
operand in any slice sends the whole call to its fallback, counted once
(``ive_sample`` refuses nothing, and every other fanned kernel but
``ive_encrypt`` writes a fresh output; ``ive_encrypt`` writes its
inputs' rows in place: a slice that refuses writes nothing, and the
gadget constants the finished slices added to ``a`` are taken off again
before the fallback reads it).  Pool tasks are kernel calls only and
never submit to the pool, so any number of
concurrent callers (serving threads, tests) share it without deadlock.
There is no option for any of it.

**Exactness.**  One bound carries every kernel: ``4q < 2^32`` for each
modulus, which keeps the lazy butterflies' ``[0, 4q)`` values in 32-bit
words (see the C file).  :class:`NativeRing` raises
:class:`~repro.errors.ParameterError` for a ring outside it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from repro.errors import ParameterError
from repro.he.gadget import Gadget
from repro.he.modred import modred
from repro.he.poly import RingContext
from repro.obs.metrics import count

_SOURCE = Path(__file__).with_name("native_kernels.c")
_FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")
_NATIVE_ISA = "-march=native"
_BUILD_TIMEOUT_S = 120

#: Mirrors of the C file's ``consts`` row layout, ``MAX_RNS``,
#: ``ROWSEL_TILE`` and ``SAMPLE_BLOCK``.
(
    _C_Q, _C_ONE_S, _C_R32, _C_R32_S, _C_NINV, _C_NINV_S, _C_WNINV,
    _C_WNINV_S, _C_QHATINV, _C_QHATINV_S, _C_BITS, _CONSTS,
) = range(12)
_MAX_RNS = 4
_ROWSEL_TILE = 1024
_SAMPLE_BLOCK = 256

_log = logging.getLogger(__name__)

_PTR, _SIZE, _STRIDE = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ssize_t
_SIGNATURES = {
    "ive_ntt": (None, [
        _PTR, _PTR, _SIZE, _STRIDE, _STRIDE, _SIZE, _SIZE, _PTR, _PTR,
        ctypes.c_int, _PTR,
    ]),
    "ive_rowsel": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
        _SIZE, _STRIDE, _STRIDE, _STRIDE, _STRIDE, _PTR, ctypes.c_uint,
        ctypes.c_uint, _SIZE, _PTR,
    ]),
    "ive_expand_level": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
        _PTR, _PTR, _PTR, _PTR, _PTR, ctypes.c_uint, _PTR, _PTR, _SIZE,
        ctypes.c_uint, _SIZE, ctypes.c_uint, ctypes.c_uint, _SIZE, _PTR, _PTR,
        _PTR, _PTR,
    ]),
    "ive_cmux_round": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _PTR,
        _PTR, _PTR, _PTR, ctypes.c_uint, _PTR, _PTR, _SIZE, ctypes.c_uint,
        _SIZE, ctypes.c_uint, ctypes.c_uint, _SIZE, _PTR, _PTR, _PTR, _PTR,
    ]),
    "ive_encrypt": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _PTR, _PTR, _PTR,
        _PTR,
    ]),
    "ive_sample": (None, [
        _PTR, _PTR, _SIZE, _SIZE, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
        _PTR, _PTR, _SIZE, _PTR,
    ]),
}


def _compiler() -> list[str] | None:
    """The C compiler's argv prefix: ``$CC`` if set, else cc/gcc/clang on PATH."""
    names = [os.environ["CC"]] if os.environ.get("CC") else ["cc", "gcc", "clang"]
    for name in names:
        argv = shlex.split(name)
        path = shutil.which(argv[0]) if argv else None
        if path:
            return [path] + argv[1:]
    return None


def _isa(compiler: list[str]) -> bytes:
    """The compiler's predefined macros under ``-march=native``: the dump
    names the host ISA it targets, and failing says it cannot target it."""
    return subprocess.run(
        compiler + [_NATIVE_ISA, "-dM", "-E", "-x", "c", os.devnull],
        check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
    ).stdout


def _build(compiler: list[str], flags: tuple[str, ...], target: Path) -> None:
    """Compile the kernels to ``target`` through a same-directory rename."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, scratch = tempfile.mkstemp(dir=target.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            compiler + list(flags) + ["-o", scratch, str(_SOURCE)],
            check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _load(compiler: list[str], flags: tuple[str, ...], isa: bytes) -> ctypes.CDLL:
    """The library built with ``flags`` for the ``isa`` macro dump (empty
    for a portable build), from the cache or compiled into it."""
    driver = os.stat(os.path.realpath(compiler[0]))
    key = hashlib.sha256(repr((
        _SOURCE.read_bytes(), flags, compiler, driver.st_size,
        driver.st_mtime_ns, platform.machine(), platform.system(), isa,
    )).encode()).hexdigest()[:20]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    target = Path(cache) / "repro-ive" / f"native-{key}.so"
    if not target.exists():
        _build(compiler, flags, target)
    lib = ctypes.CDLL(str(target))
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


#: What a build can fail with: no compiler, an unwritable cache, a failed or
#: timed-out build, a file that does not load or lacks a symbol.
_BUILD_ERRORS = (OSError, subprocess.SubprocessError, AttributeError)


def _reason(exc: Exception) -> str:
    """The log line for a failed build: the error and the compiler's stderr."""
    reason = str(exc)
    if isinstance(exc, subprocess.CalledProcessError):
        reason += " " + exc.stderr.decode(errors="replace").strip()[-400:]
    return reason


def _build_and_load() -> ctypes.CDLL:
    compiler = _compiler()
    if compiler is None:
        raise OSError("no C compiler found ($CC, cc, gcc, clang)")
    try:
        return _load(compiler, _FLAGS + (_NATIVE_ISA,), _isa(compiler))
    except _BUILD_ERRORS as exc:
        reason = _reason(exc)
    lib = _load(compiler, _FLAGS, b"")
    _log.warning("native kernels built without %s: %s", _NATIVE_ISA, reason)
    count("he_native_portable")
    return lib


@functools.cache
def load_library() -> ctypes.CDLL | None:
    """The kernels' shared library, built if the cache lacks it; None when
    this machine cannot produce one (decided once per process)."""
    try:
        return _build_and_load()
    except _BUILD_ERRORS as exc:
        _log.warning(
            "native kernels unavailable, using eager numpy: %s", _reason(exc)
        )
        count("he_native_unavailable")
        return None


def _shoup(w, q: int):
    """``floor(w * 2^32 / q)``: the companion :c:func:`mul_shoup` wants."""
    return (w << 32) // q


@functools.cache
def modulus_consts(moduli: tuple[int, ...]) -> np.ndarray:
    """The ``(rns, CONSTS)`` uint32 table, its modulus-only entries filled.

    Enough for RowSel; :class:`NativeRing` adds the entries
    that depend on the ring degree and the basis.  Raises
    :class:`~repro.errors.ParameterError` unless ``4q < 2^32`` throughout.
    """
    table = np.zeros((len(moduli), _CONSTS), dtype=np.uint32)
    for row, q in zip(table, moduli):
        if q < 2 or 4 * q >= 1 << 32:
            raise ParameterError(
                f"modulus {q} outside the native kernels' range: the lazy "
                f"butterflies keep [0, 4q) in 32-bit words, so 4q < 2^32"
            )
        r32 = (1 << 32) % q
        row[[_C_Q, _C_ONE_S, _C_R32, _C_R32_S]] = q, _shoup(1, q), r32, _shoup(r32, q)
        row[_C_BITS] = q.bit_length()
    table.flags.writeable = False
    return table


#: Words a slice must carry before a kernel call fans out, counted as the
#: operand words a unit of the kernel reads and writes (residues, key rows,
#: store words).  Handing a slice to a pool thread and collecting it took
#: 49-58 µs at the median (68-254 µs at p90) on a 2-vCPU AVX-512 Xeon, and
#: the key switch and the NTT, most of an N = 2^12 answer, spend ~3.5 ns a
#: word there.  A 60 µs handoff is then at most 5 % of a slice of
#: 20 * 60 µs / 3.5 ns words.  RowSel (~1.5 ns a word) gets shorter
#: slices at the same floor, where the handoff is 10-20 % (EXPERIMENTS.md,
#: "One fused key switch, fanned over the cores").
FAN_FLOOR_WORDS = int(20 * 60e-6 / 3.5e-9)

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@functools.cache
def fan_width() -> int:
    """How many cores this process may run on: its affinity mask, read once
    (``os.cpu_count()`` where the platform has no affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, and may have
    forked while one held the lock: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    """The process's fan-out pool, started on its first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(1, fan_width() - 1), thread_name_prefix="repro-fan"
            )
        return _pool


def fan_out(units: int, unit_words: int, run) -> int:
    """``run(lo, hi)`` over ``[0, units)``, split across the cores.

    ``run`` calls one kernel on the units ``[lo, hi)`` with buffers of its
    own and returns the kernel's status; slices write disjoint outputs.
    The call splits into at most :func:`fan_width` contiguous slices, each
    of at least ``FAN_FLOOR_WORDS`` (a unit being ``unit_words``) — below
    that it runs whole on the calling thread.  The calling thread runs the
    first slice and the pool the rest; pool tasks are kernel calls and never
    submit to the pool, so concurrent callers cannot deadlock on it.
    Returns the OR of the slices' statuses.
    """
    slices = min(fan_width(), units, units * unit_words // max(FAN_FLOOR_WORDS, 1))
    if slices < 2:
        return run(0, units)
    bounds = [units * i // slices for i in range(slices + 1)]
    pool = _executor()
    futures = [pool.submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        status = run(bounds[0], bounds[1])
    finally:
        wait(futures)  # no slice may outlive the buffers it writes
    for future in futures:
        status |= future.result()
    return status


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


def _strided(array: np.ndarray) -> np.ndarray:
    """``array`` with a contiguous last axis and whole-element strides."""
    size = array.itemsize
    if array.strides[-1] != size or any(s % size for s in array.strides):
        return np.ascontiguousarray(array)
    return array


def _key_table(keys: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """``(2, k, rns, n)`` key tensors as the fused kernels take them: each
    half's ``(k, rns, n)`` block — read where it lies when it is
    contiguous int64, else copied — and the table of their addresses, two
    per key.  The caller holds the blocks while the kernel runs."""
    blocks = [np.ascontiguousarray(half, dtype=np.int64) for key in keys for half in key]
    return blocks, np.array([_address(b) for b in blocks], dtype=np.uintp)


def _chunk(qmax: int, left_bits: int, right_bits: int) -> int:
    """How many products of a ``left_bits``- and a ``right_bits``-bit
    operand a uint64 sums with one residue below ``qmax`` riding along."""
    return ((1 << 64) - qmax) // (((1 << left_bits) - 1) * ((1 << right_bits) - 1))


def _dense_out(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """``out`` when the kernel can write it directly, else a fresh buffer."""
    if out is not None and out.shape != shape:
        raise ParameterError(f"out has shape {out.shape}, expected {shape}")
    if out is not None and out.dtype == np.int64 and out.flags.c_contiguous:
        return out
    return np.empty(shape, dtype=np.int64)


def _deliver(dense: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The kernel's result, copied into ``out`` when it wrote elsewhere."""
    if out is None or dense is out:
        return dense
    out[...] = dense
    return out


class NativeRing:
    """Tables of one ring ``(n, moduli)`` and the kernels bound to them."""

    def __init__(self, lib: ctypes.CDLL, ctx: RingContext):
        self.lib, self.n, self.rns = lib, ctx.n, ctx.rns_count
        self.moduli = tuple(int(q) for q in ctx.params.moduli)
        consts = modulus_consts(self.moduli).copy()  # checks 4q < 2^32
        #: Per direction ``(rns, 2, n)``: the NttContext twiddles as they
        #: are (so slot order is the butterflies') and their companions.
        self.twiddles = []
        for table in ("_fwd", "_inv"):
            w = np.stack([getattr(ntt, table) for ntt in ctx.ntts])
            self.twiddles.append(np.ascontiguousarray(np.stack(
                [w, _shoup(w, ctx._moduli_col)], axis=1
            ).astype(np.uint32)))
        for row, ntt, q, qhat_inv in zip(
            consts, ctx.ntts, self.moduli, ctx.basis._q_hat_inv
        ):
            last = int(ntt._inv[1]) * ntt._n_inv % q if self.n > 1 else 0
            row[_C_NINV:_C_BITS] = (
                ntt._n_inv, _shoup(ntt._n_inv, q), last, _shoup(last, q),
                qhat_inv, _shoup(qhat_inv, q),
            )
        self.consts = consts
        #: Every table a kernel call passes lives as long as the ring, so
        #: its address — each ``ctypes.data`` costs microseconds — is
        #: taken once; the cached ones are held in ``_pinned``.
        self._twiddles_at = tuple(_address(t) for t in self.twiddles)
        self._consts_at = _address(consts)
        self._pinned: list[np.ndarray] = []
        self._basis = ctx.basis
        self._moduli_col = ctx._moduli_col
        self._walks: dict[tuple[int, int], tuple] = {}
        #: Addresses of the ``(rns, 2, n)`` NTT-form monomials ``X^-step``
        #: and their companions, by step, and of the ``(n,)`` automorphism
        #: slot tables, by power.
        self._monomials: dict[int, int] = {}
        self._slots: dict[int, int] = {}

    def _pin(self, table: np.ndarray) -> int:
        """``table``'s address, the table held as long as the ring."""
        self._pinned.append(table)
        return _address(table)

    def _rows(self, residues: np.ndarray) -> tuple[np.ndarray, tuple, int, int]:
        """``(..., rns or 1, n)`` -> ``(rows, rns or 1, n)`` view, lead shape
        and the row / modulus strides in elements (0 for a broadcast axis)."""
        x = np.asarray(residues, dtype=np.int64)
        if x.ndim < 2 or x.shape[-1] != self.n or x.shape[-2] not in (1, self.rns):
            raise ParameterError(
                f"expected residues of shape (..., {self.rns} or 1, {self.n}), "
                f"got {x.shape}"
            )
        lead = x.shape[:-2]
        x = _strided(x.reshape((-1,) + x.shape[-2:]))
        mod_stride = x.strides[1] // 8 if x.shape[1] > 1 else 0
        return x, lead, x.strides[0] // 8, mod_stride

    def transform(self, residues: np.ndarray, inverse: bool = False) -> np.ndarray:
        """NTT every row under every modulus into a new ``(..., rns, n)``
        tensor."""
        x, lead, row_stride, mod_stride = self._rows(residues)
        poly = self.rns * self.n
        out = np.empty((x.shape[0], self.rns, self.n), dtype=np.int64)
        twiddles = self._twiddles_at[inverse]

        def rows(lo: int, hi: int) -> int:
            work = np.empty(self.n, dtype=np.uint32)
            self.lib.ive_ntt(
                _address(out) + 8 * lo * poly, _address(x) + 8 * lo * row_stride,
                hi - lo, row_stride, mod_stride, self.rns, self.n,
                twiddles, self._consts_at, inverse, _address(work),
            )
            return 0

        fan_out(x.shape[0], 2 * poly, rows)
        return out.reshape(lead + (self.rns, self.n))

    def encrypt(
        self, key: np.ndarray, rows: np.ndarray, errors: np.ndarray,
        shift: np.ndarray | None,
    ) -> bool:
        """``ComputeBackend.encrypt_rows`` in place: ``rows`` ``(2, count,
        rns, n)`` C-contiguous int64 with the uniform ``a`` in ``rows[0]``,
        ``errors`` ``(count, n)``, ``shift`` None or ``(count, 2, rns)``.

        False, with ``rows[0]`` as it was, when the kernel cannot take an
        operand: a layout other than that, or a word of the key, an ``a``
        row or the constants that is not canonical.  Fanned over rows.
        """
        count = rows.shape[1] if rows.ndim == 4 else 0
        poly = (self.rns, self.n)
        if (
            rows.shape != (2, count) + poly or rows.dtype != np.int64
            or not rows.flags.c_contiguous
            or np.any((key < 0) | (key >= self._moduli_col))
        ):
            return False
        errors = np.ascontiguousarray(errors, dtype=np.int64)
        if shift is not None:
            shift = np.ascontiguousarray(shift, dtype=np.int64)
        if errors.shape != (count, self.n) or (
            shift is not None and shift.shape != (count, 2, self.rns)
        ):
            raise ParameterError(
                f"expected ({count}, {self.n}) errors and ({count}, 2, "
                f"{self.rns}) constants, got {errors.shape} and "
                f"{None if shift is None else shift.shape}"
            )
        table = np.ascontiguousarray(np.stack(
            [key, _shoup(key, self._moduli_col)], axis=1
        ).astype(np.uint32))
        finished = []

        def slice_rows(lo: int, hi: int) -> int:
            work = np.empty(self.n, dtype=np.uint32)
            status = self.lib.ive_encrypt(
                _address(rows), _address(errors),
                None if shift is None else _address(shift), count, lo, hi,
                self.rns, self.n, _address(table), self._twiddles_at[0],
                self._consts_at, _address(work),
            )
            if not status:
                finished.append((lo, hi))
            return status

        # Per row: its a and b words in and out, and the error transform's.
        if not fan_out(count, 3 * self.rns * self.n, slice_rows):
            return True
        for lo, hi in finished if shift is not None else ():
            a = rows[0, lo:hi]
            a -= shift[lo:hi, 0, :, None]
            modred(a, self._moduli_col)
        return False

    def _walk(self, gadget: Gadget) -> tuple | None:
        """The key-switching kernels' gadget arguments, in their order, or
        None outside the limb walk's bounds; built once per gadget.

        First the limb walk's tables: ``recip_i = floor(2^shift / q_i)``
        with ``shift = 31 + bits(min q)``, which fits 32 bits (every
        ``q_i`` exceeds ``2^(bits - 1)``) and underestimates ``sum t_i /
        q_i`` by less than ``rns * 2^30 / 2^shift <= 1/2``; then ``Q /
        q_i`` and ``Q`` in the 32-bit limbs that hold ``rns * Q``.  The
        kernel sums ``rns`` products below 2^62 in a uint64 and reads a
        digit off two adjacent limbs, so it wants at most ``_MAX_RNS``
        moduli (hence ``_MAX_RNS`` limbs, as ``q < 2^30``) and a base of
        at most 2^32.  Then the inner product's operand bounds and chunk
        (``[0, 2q)`` digits against keys below the largest modulus).
        """
        key = (gadget.base_log2, gadget.length)
        if key not in self._walks and self.rns <= _MAX_RNS and gadget.base_log2 <= 32:
            big_q = self._basis.modulus_product
            limbs = -(-(self.rns * big_q).bit_length() // 32)
            shift = 31 + min(self.moduli).bit_length()

            def split(value: int) -> list[int]:
                return [(value >> (32 * li)) & 0xFFFFFFFF for li in range(limbs)]

            qmax = int(self.consts[:, _C_Q].max())
            digit_bits, key_bits = (2 * qmax - 1).bit_length(), (qmax - 1).bit_length()
            self._walks[key] = (
                self._pin(np.array([(1 << shift) // q for q in self.moduli], dtype=np.uint32)),
                shift,
                self._pin(np.array([split(h) for h in self._basis._q_hat], dtype=np.uint32)),
                self._pin(np.array(split(big_q), dtype=np.uint32)),
                limbs, gadget.base_log2, gadget.length, digit_bits, key_bits,
                _chunk(qmax, digit_bits, key_bits),
            )
        return self._walks.get(key)

    def covers(self, gadget: Gadget) -> bool:
        """Whether the limb walk (so :meth:`expand_level` and
        :meth:`cmux_round`) takes this gadget."""
        return self._walk(gadget) is not None

    def _tiles(self, k: int, held: int) -> tuple:
        """One slice's work buffers for ``k`` digit rows: the digits, their
        transforms, ``held`` whole ``(rns, n)`` polynomials and ``n`` words."""
        poly = (self.rns, self.n)
        return (
            np.empty((k, self.n), dtype=np.int64),
            np.empty((k,) + poly, dtype=np.int64),
            np.empty((held,) + poly, dtype=np.int64),
            np.empty(self.n, dtype=np.uint32),
        )

    def expand_level(
        self, gadget: Gadget, vec: np.ndarray, keys: np.ndarray,
        slots: np.ndarray, r: int, monomial: np.ndarray, step: int,
    ) -> np.ndarray | None:
        """One ExpandQuery level as one fanned call (``ive_expand_level``).

        ``vec`` is the ``(2, Q * step, rns, n)`` NTT-form level input,
        ``keys`` the ``(2, ℓ, rns, n)`` evaluation key of ``X -> X^r``
        (read where it lies, :func:`_key_table`),
        ``slots`` that automorphism's NTT slot table and ``monomial`` the
        NTT-form ``X^-step``.  Returns the ``(2, Q * 2 * step, rns, n)``
        next level — per query ``vec + Subs(vec)`` then ``(vec -
        Subs(vec)) * X^-step`` — or None, the caller's path then running,
        when a ``vec`` word is not canonical or a key word is wider than
        the largest modulus.  Fanned over ciphertexts, each slice with its
        own tiles.
        """
        vec = np.ascontiguousarray(vec, dtype=np.int64)
        poly = (self.rns, self.n)
        cts, k = vec.shape[1], gadget.length
        if (
            vec.shape != (2, cts) + poly or cts % step
            or keys.shape != (2, k) + poly
        ):
            raise ParameterError(
                f"expected a (2, Q * {step}, {self.rns}, {self.n}) level and "
                f"(2, {k}, {self.rns}, {self.n}) key rows, got {vec.shape} and "
                f"{keys.shape}"
            )
        if r not in self._slots:
            self._slots[r] = self._pin(slots.astype(np.uint32))
        if step not in self._monomials:
            self._monomials[step] = self._pin(np.ascontiguousarray(np.stack(
                [monomial, _shoup(monomial, self._moduli_col)], axis=1
            ).astype(np.uint32)))
        slots_at, mono_at = self._slots[r], self._monomials[step]
        blocks, table = _key_table([keys])
        out = np.empty((2, 2 * cts) + poly, dtype=np.int64)
        walk = self._walk(gadget)

        def level(lo: int, hi: int) -> int:
            digits, tile, held, work = self._tiles(k, 3)
            return self.lib.ive_expand_level(
                _address(out), _address(vec), _address(table), slots_at,
                cts, step, lo, hi, self.rns, self.n, *self._twiddles_at,
                self._consts_at, mono_at, *walk,
                _address(digits), _address(tile), _address(held),
                _address(work),
            )

        # Per ciphertext: its two halves, both key halves, its two outputs.
        if fan_out(cts, (2 + 2 * k + 4) * self.rns * self.n, level):
            return None
        return out

    def cmux_round(
        self, gadget: Gadget, cur: np.ndarray, bits: list
    ) -> np.ndarray | None:
        """One ColTor round as one fanned call (``ive_cmux_round``).

        ``cur`` is the ``(2, Q, count, rns, n)`` NTT-form round input and
        ``bits[q]`` query ``q``'s RGSW rows — a ``(2, 2ℓ, rns, n)`` tensor
        or a pair of ``(2ℓ, rns, n)`` halves — each half read where it lies
        (:func:`_key_table`).  Returns ``(2, Q, count / 2, rns, n)``: per pair of
        entries ``bit ⊡ (ones - zeros) + zeros`` — or None, the caller's
        path then running, when a ``cur`` word is not canonical or a key
        word is wider than the largest modulus.  Fanned over output
        ciphertexts, each slice with its own tiles.
        """
        cur = np.ascontiguousarray(cur, dtype=np.int64)
        poly = (self.rns, self.n)
        queries, entries, k = cur.shape[1], cur.shape[2], 2 * gadget.length
        if (
            cur.shape != (2, queries, entries) + poly or entries % 2
            or len(bits) != queries
            or any(len(b) != 2 or any(h.shape != (k,) + poly for h in b) for b in bits)
        ):
            raise ParameterError(
                f"expected a (2, Q, even count, {self.rns}, {self.n}) round "
                f"and Q bits of two ({k}, {self.rns}, {self.n}) halves, got "
                f"{cur.shape} and {[[np.shape(h) for h in b] for b in bits]}"
            )
        blocks, table = _key_table(bits)
        outputs = queries * entries // 2
        out = np.empty((2, queries, entries // 2) + poly, dtype=np.int64)
        walk = self._walk(gadget)

        def pairs(lo: int, hi: int) -> int:
            digits, tile, held, work = self._tiles(k, 4)
            return self.lib.ive_cmux_round(
                _address(out), _address(cur), _address(table), queries,
                entries, lo, hi, self.rns, self.n, *self._twiddles_at,
                self._consts_at, *walk, _address(digits),
                _address(tile), _address(held), _address(work),
            )

        # Per output: its two entries' halves, both halves' key rows, itself.
        if fan_out(outputs, (4 + 2 * k + 2) * self.rns * self.n, pairs):
            return None
        return out


def rowsel_gemm(
    lib: ctypes.CDLL, consts: np.ndarray, db: np.ndarray, query: np.ndarray,
    out: np.ndarray | None,
) -> np.ndarray | None:
    """``out[h, q, c] = sum_r db[q, c, r] * query[h, q, r]`` mod each modulus.

    ``db`` is the uint32 store ``(Q or 1, cols, d0, rns, n)``, read in
    place at its own strides (a per-query view of a bucket tensor
    included); ``query`` is ``(halves, Q, d0, rns, n)`` with at most two
    halves, all of them fed from one load of each DB word.  Returns None
    — ``out`` then holds garbage — when an operand is wider than the
    largest modulus.
    """
    if db.dtype != np.uint32:
        raise ParameterError(f"expected a uint32 database store, got {db.dtype}")
    query = np.ascontiguousarray(query, dtype=np.int64)
    if query.ndim != 5 or db.ndim != 5 or query.shape[0] > 2:
        raise ParameterError(
            f"expected (Q or 1, cols, d0, rns, n) db and (halves <= 2, Q, d0, "
            f"rns, n) query, got {db.shape} and {query.shape}"
        )
    halves, queries, rows, rns, n = query.shape
    if (
        db.shape[0] not in (1, queries) or db.shape[2:] != (rows, rns, n)
        or rns != len(consts)
    ):
        raise ParameterError(
            f"RowSel shape mismatch: db {db.shape} vs query {query.shape} over "
            f"{len(consts)} moduli"
        )
    db = _strided(db)
    steps = [s // 4 for s in db.strides[:4]]
    if db.shape[0] == 1:
        steps[0] = 0  # one plane every query shares
    cols = db.shape[1]
    dense = _dense_out(out, (halves, queries, cols, rns, n))
    qmax = int(consts[:, _C_Q].max())
    bits = (qmax - 1).bit_length()
    # Split over queries, or over the columns of the one query: a unit is
    # a run of outputs on the flat (queries * cols) axis.
    units, per_unit = (queries, cols) if queries > 1 else (cols, 1)

    def outputs(lo: int, hi: int) -> int:
        work = np.empty(halves * rows * min(n, _ROWSEL_TILE), dtype=np.uint32)
        return lib.ive_rowsel(
            _address(dense), _address(db), _address(query), halves, queries,
            cols, lo * per_unit, hi * per_unit, rows, rns, n, *steps,
            _address(consts), bits, bits, _chunk(qmax, bits, bits),
            _address(work),
        )

    # Per output: one column's store words, and its output words.
    words = per_unit * (rows + halves) * rns * n
    if fan_out(units, words, outputs):
        return None
    return _deliver(dense, out)


def sample(
    lib: ctypes.CDLL, consts: np.ndarray, words: np.ndarray, rows: int,
    a: np.ndarray, error_words: np.ndarray | None, e: np.ndarray,
    cdt: np.ndarray | None,
) -> None:
    """``ComputeBackend.sample`` as one fanned call (``ive_sample``).

    ``words`` is the ``(seeds, 4)`` uint64 key words, ``a`` the C-contiguous
    ``(seeds * rows, rns, n)`` int64 output; ``e`` the C-contiguous
    ``(errors, n)`` int64 output, ``error_words`` its seed's ``(1, 4)``
    words and ``cdt`` the error table (both None when ``e`` is empty).
    Fanned over rows — a unit is one ``a`` row's ``rns`` polynomials and,
    while there are error rows, one error row — so an encryption block's
    halves split together.
    """
    rns, n = len(consts), a.shape[-1]
    a_rows, e_rows = len(words) * rows, len(e)
    words = np.ascontiguousarray(words, dtype=np.uint64)
    errors = (None, None, 0) if not e_rows else (
        _address(error_words), _address(cdt), len(cdt)
    )

    def units(lo: int, hi: int) -> int:
        work = np.empty(_SAMPLE_BLOCK, dtype=np.uint64)
        lib.ive_sample(
            _address(a), _address(words), rows, a_rows, _address(e), errors[0],
            e_rows, lo, hi, rns, n, _address(consts), errors[1], errors[2],
            _address(work),
        )
        return 0

    # Per unit: each of an a row's residues and an error row's coefficients
    # is at least one stream draw and one output word.
    fan_out(max(a_rows, e_rows), 2 * (rns + (e_rows > 0)) * n, units)
