"""The compiled kernels behind the ``native`` compute backend.

``native_kernels.c`` (next to this file) holds the portable-C99 kernels:
lazy-butterfly forward/inverse NTT, limb-iCRT gadget decomposition and
the key-switch inner product, plus the three passes around the key
switch — the RowSel contraction that reads each word of the uint32
database store once for both ciphertext halves, one ExpandQuery level's
butterfly, and the modular add/subtract.  This module is everything
foreign about them: it builds the shared library with the system C
compiler on first use, loads it through :mod:`ctypes`, and wraps each
kernel in a function that validates shapes, dtypes and strides before a
pointer crosses over.  :class:`~repro.he.backend.NativeBackend` is the
only caller.

**Build and cache.**  :func:`load_library` compiles with fixed portable
flags (``-O3``, no ``-march``; at ``-O2`` gcc leaves the butterflies
unvectorised and 1.5x slower) into the per-user cache directory
(``$XDG_CACHE_HOME`` or ``~/.cache``, under ``repro-ive/``), to a name
that hashes the source, the flags, the compiler's identity and the
machine, so a changed source or toolchain never loads a stale build.
The compiler writes to a temporary name and the result is renamed into
place: processes racing on an empty cache (benchmark subprocesses,
cluster workers) each build their own copy and whichever rename lands
last wins, every loser having already loaded a complete file.  No
compiler, an unwritable cache, a failed build or a failed load is not an
error: the reason is logged once, ``he_native_unavailable`` is counted
once, and the function returns None for the rest of the process —
``eager`` is then the default backend.

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
from pathlib import Path

import numpy as np

from repro.errors import ParameterError
from repro.he.gadget import Gadget
from repro.he.poly import RingContext
from repro.obs.metrics import count

_SOURCE = Path(__file__).with_name("native_kernels.c")
_FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120

#: Mirrors of the C file's ``consts`` row layout, ``MAX_RNS`` and
#: ``ROWSEL_TILE``.
(
    _C_Q, _C_ONE_S, _C_R32, _C_R32_S, _C_NINV, _C_NINV_S, _C_WNINV,
    _C_WNINV_S, _C_QHATINV, _C_QHATINV_S, _C_BITS, _CONSTS,
) = range(12)
_MAX_RNS = 4
_ROWSEL_TILE = 1024

_log = logging.getLogger(__name__)

_PTR, _SIZE, _STRIDE = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ssize_t
_SIGNATURES = {
    "ive_ntt": (None, [
        _PTR, _PTR, _SIZE, _STRIDE, _STRIDE, _SIZE, _SIZE, _PTR, _PTR,
        ctypes.c_int, ctypes.c_int, _PTR,
    ]),
    "ive_decompose": (None, [
        _PTR, _PTR, _SIZE, _STRIDE, _STRIDE, _SIZE, _SIZE, _PTR, _PTR,
        ctypes.c_uint, _PTR, _PTR, _SIZE, ctypes.c_uint, _SIZE,
    ]),
    "ive_inner": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _PTR,
        ctypes.c_uint, ctypes.c_uint, _SIZE,
    ]),
    "ive_rowsel": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
        _STRIDE, _STRIDE, _STRIDE, _STRIDE, _PTR, ctypes.c_uint,
        ctypes.c_uint, _SIZE, _PTR,
    ]),
    "ive_butterfly": (ctypes.c_int, [
        _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE, _SIZE, _PTR, _PTR,
    ]),
    "ive_mod_add": (ctypes.c_int, [
        _PTR, _STRIDE, _PTR, _STRIDE, _PTR, _STRIDE, _SIZE, _SIZE, _SIZE,
        _PTR, ctypes.c_int,
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


def _build(compiler: list[str], target: Path) -> None:
    """Compile the kernels to ``target`` through a same-directory rename."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, scratch = tempfile.mkstemp(dir=target.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            compiler + list(_FLAGS) + ["-o", scratch, str(_SOURCE)],
            check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _build_and_load() -> ctypes.CDLL:
    compiler = _compiler()
    if compiler is None:
        raise OSError("no C compiler found ($CC, cc, gcc, clang)")
    driver = os.stat(os.path.realpath(compiler[0]))
    key = hashlib.sha256(repr((
        _SOURCE.read_bytes(), _FLAGS, compiler, driver.st_size,
        driver.st_mtime_ns, platform.machine(), platform.system(),
    )).encode()).hexdigest()[:20]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    target = Path(cache) / "repro-ive" / f"native-{key}.so"
    if not target.exists():
        _build(compiler, target)
    lib = ctypes.CDLL(str(target))
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


@functools.cache
def load_library() -> ctypes.CDLL | None:
    """The kernels' shared library, built if the cache lacks it; None when
    this machine cannot produce one (decided once per process)."""
    try:
        return _build_and_load()
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        # No compiler, an unwritable cache, a failed or timed-out build, a
        # file that does not load or lacks a symbol.
        reason = str(exc)
        if isinstance(exc, subprocess.CalledProcessError):
            reason += " " + exc.stderr.decode(errors="replace").strip()[-400:]
        _log.warning("native kernels unavailable, using eager numpy: %s", reason)
        count("he_native_unavailable")
        return None


def _shoup(w, q: int):
    """``floor(w * 2^32 / q)``: the companion :c:func:`mul_shoup` wants."""
    return (w << 32) // q


@functools.cache
def modulus_consts(moduli: tuple[int, ...]) -> np.ndarray:
    """The ``(rns, CONSTS)`` uint32 table, its modulus-only entries filled.

    Enough for the inner product; :class:`NativeRing` adds the entries
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


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


def _strided(array: np.ndarray) -> np.ndarray:
    """``array`` with a contiguous last axis and whole-element strides."""
    size = array.itemsize
    if array.strides[-1] != size or any(s % size for s in array.strides):
        return np.ascontiguousarray(array)
    return array


def _blocks(array: np.ndarray, poly: tuple[int, int]) -> np.ndarray:
    """``(..., rns, n)`` int64 as ``(rows, rns, n)`` with each ``(rns, n)``
    block contiguous, a view wherever the leading axes merge."""
    rows = np.asarray(array, dtype=np.int64).reshape((-1,) + poly)
    if rows.strides[1:] != (8 * poly[1], 8) or rows.strides[0] % 8:
        return np.ascontiguousarray(rows)
    return rows


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
        self._basis = ctx.basis
        self._moduli_col = ctx._moduli_col
        self._gadgets: dict[tuple[int, int], tuple | None] = {}
        #: ``(rns, 2, n)`` NTT-form monomials and their companions, by power.
        self._monomials: dict[int, np.ndarray] = {}

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

    def transform(
        self, residues: np.ndarray, inverse: bool = False, partial: bool = False
    ) -> np.ndarray:
        """NTT every row under every modulus into a new ``(..., rns, n)``
        tensor; a ``partial`` forward leaves ``[0, 2q)``."""
        x, lead, row_stride, mod_stride = self._rows(residues)
        out = np.empty((x.shape[0], self.rns, self.n), dtype=np.int64)
        work = np.empty(self.n, dtype=np.uint32)
        twiddles = self.twiddles[inverse]
        self.lib.ive_ntt(
            _address(out), _address(x), x.shape[0], row_stride, mod_stride,
            self.rns, self.n, _address(twiddles), _address(self.consts),
            inverse, partial, _address(work),
        )
        return out.reshape(lead + (self.rns, self.n))

    def _gadget(self, gadget: Gadget) -> tuple | None:
        """Tables of one gadget's limb walk, or None outside its bounds.

        ``(shift, recip, qhat, q_limbs)``: ``recip_i = floor(2^shift /
        q_i)`` with ``shift = 31 + bits(min q)``, which fits 32 bits
        (every ``q_i`` exceeds ``2^(bits - 1)``) and underestimates ``sum
        t_i / q_i`` by less than ``rns * 2^30 / 2^shift <= 1/2``; then
        ``Q / q_i`` and ``Q`` in the 32-bit limbs that hold ``rns * Q``.
        The kernel sums ``rns`` products below 2^62 in a uint64 and reads
        a digit off two adjacent limbs, so it wants at most ``_MAX_RNS``
        moduli (hence ``_MAX_RNS`` limbs, as ``q < 2^30``) and a base of
        at most 2^32.
        """
        key = (gadget.base_log2, gadget.length)
        if key not in self._gadgets:
            big_q = self._basis.modulus_product
            limbs = -(-(self.rns * big_q).bit_length() // 32)
            shift = 31 + min(self.moduli).bit_length()

            def split(value: int) -> list[int]:
                return [(value >> (32 * li)) & 0xFFFFFFFF for li in range(limbs)]

            self._gadgets[key] = None if (
                self.rns > _MAX_RNS or gadget.base_log2 > 32
            ) else (
                shift,
                np.array([(1 << shift) // q for q in self.moduli], dtype=np.uint32),
                np.array([split(h) for h in self._basis._q_hat], dtype=np.uint32),
                np.array(split(big_q), dtype=np.uint32),
            )
        return self._gadgets[key]

    def decompose(self, gadget: Gadget, residues: np.ndarray) -> np.ndarray | None:
        """Gadget digits ``(batch, ℓ, n)`` of ``(batch, rns, n)`` coefficient
        residues; None for a gadget the limb walk does not cover."""
        tables = self._gadget(gadget)
        if tables is None:
            return None
        x, lead, row_stride, mod_stride = self._rows(residues)
        if x.shape[1] != self.rns or len(lead) != 1:
            raise ParameterError(
                f"expected (batch, {self.rns}, {self.n}) residues, got "
                f"{np.shape(residues)}"
            )
        shift, recip, qhat, q_limbs = tables
        digits = np.empty((x.shape[0], gadget.length, self.n), dtype=np.int64)
        self.lib.ive_decompose(
            _address(digits), _address(x), x.shape[0], row_stride, mod_stride,
            self.rns, self.n, _address(self.consts), _address(recip),
            shift, _address(qhat), _address(q_limbs), len(q_limbs),
            gadget.base_log2, gadget.length,
        )
        return digits

    def butterfly(
        self, vec: np.ndarray, swapped: np.ndarray, step: int,
        monomial: np.ndarray,
    ) -> np.ndarray | None:
        """One expansion level: ``(2, Q, step, rns, n)`` ``vec`` and its
        substituted twin -> ``(2, Q, 2 * step, rns, n)``, each query's
        ``vec + swapped`` then ``(vec - swapped) * monomial`` mod q.

        ``monomial`` is the NTT-form ``X^-step`` (``(rns, n)``).  None —
        the caller's path then runs — when an operand is not canonical.
        """
        if vec.shape != swapped.shape or vec.shape[2:] != (step, self.rns, self.n):
            raise ParameterError(
                f"expected two (2, Q, {step}, {self.rns}, {self.n}) tensors, "
                f"got {vec.shape} and {swapped.shape}"
            )
        if step not in self._monomials:
            self._monomials[step] = np.ascontiguousarray(np.stack(
                [monomial, _shoup(monomial, self._moduli_col)], axis=1
            ).astype(np.uint32))
        vec = np.ascontiguousarray(vec, dtype=np.int64)
        swapped = np.ascontiguousarray(swapped, dtype=np.int64)
        out = np.empty(vec.shape[:2] + (2 * step,) + vec.shape[3:], dtype=np.int64)
        if self.lib.ive_butterfly(
            _address(out), _address(vec), _address(swapped),
            vec.shape[0] * vec.shape[1], step, self.rns, self.n,
            _address(self._monomials[step]), _address(self.consts),
        ):
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
    work = np.empty(halves * rows * min(n, _ROWSEL_TILE), dtype=np.uint32)
    if lib.ive_rowsel(
        _address(dense), _address(db), _address(query), halves, queries,
        cols, rows, rns, n, *steps, _address(consts), bits, bits,
        _chunk(qmax, bits, bits), _address(work),
    ):
        return None
    return _deliver(dense, out)


def mod_add(
    lib: ctypes.CDLL, consts: np.ndarray, a: np.ndarray, b: np.ndarray,
    out: np.ndarray | None, subtract: bool,
) -> np.ndarray | None:
    """``a + b`` (or ``a - b``) mod each modulus over ``(..., rns, n)``
    residues of one shape; ``out`` may be ``a`` or ``b``.  None — ``out``
    then holds garbage — when an operand is not canonical."""
    if a.shape != b.shape or a.ndim < 2 or a.shape[-2] != len(consts):
        raise ParameterError(
            f"modular add of {a.shape} and {b.shape} over {len(consts)} moduli"
        )
    poly = a.shape[-2:]
    dense = _dense_out(out, a.shape)
    rows = [_blocks(x, poly) for x in (dense, a, b)]
    if lib.ive_mod_add(
        *(v for x in rows for v in (_address(x), x.strides[0] // 8)),
        len(rows[0]), *poly, _address(consts), subtract,
    ):
        return None
    return _deliver(dense, out)


def inner(
    lib: ctypes.CDLL, consts: np.ndarray, digits: np.ndarray, rows: np.ndarray,
    out: np.ndarray | None,
) -> np.ndarray | None:
    """``out[g, b] = sum_k digits[g, b, k] * rows[g, k]`` mod each modulus.

    ``digits`` is ``(groups, batch, k, rns, n)`` in ``[0, 2q)``, ``rows``
    ``(groups, k, rns, n)`` in ``[0, q)``, ``consts`` their
    :func:`modulus_consts`.  Returns None — ``out`` then holds garbage —
    when the kernel met an operand outside those ranges (rounded up to
    powers of two).
    """
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if digits.ndim != 5:
        raise ParameterError(
            f"expected (groups, batch, k, rns, n) digits, got {digits.shape}"
        )
    groups, batch, k, rns, n = digits.shape
    if rows.shape != (groups, k, rns, n) or rns != len(consts):
        raise ParameterError(
            f"inner product shape mismatch: digits {digits.shape} vs rows "
            f"{rows.shape} over {len(consts)} moduli"
        )
    dense = _dense_out(out, (groups, batch, rns, n))
    qmax = int(consts[:, _C_Q].max())
    digit_bits, key_bits = (2 * qmax - 1).bit_length(), (qmax - 1).bit_length()
    if lib.ive_inner(
        _address(dense), _address(digits), _address(rows), groups, batch, k,
        rns, n, _address(consts), digit_bits, key_bits,
        _chunk(qmax, digit_bits, key_bits),
    ):
        return None
    return _deliver(dense, out)
