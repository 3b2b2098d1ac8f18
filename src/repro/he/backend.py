"""Compute backends: the one production kernel layer.

The kernel stack has two layers.  This module is the production one:
every stacked kernel lives on a :class:`ComputeBackend`, and
``get_backend(...)`` / ``resolve_backend(...)`` is the only route to one
— ``PirServer``, batchpir, kvpir, the hintpir/SimplePIR GEMM tier, the
mutate re-NTT, client encode/decode and key generation, and the serving
registries all resolve a backend (``native``
where its library can be built, else ``eager``) and call its methods.
The other layer is the per-polynomial stack (``he/poly`` + ``he/ntt`` +
``Gadget.decompose`` + ``subs.substitute`` /
``rgsw.external_product``, reached through
``PirServer.answer_reference``): the independent oracle the backends
are tested against, which imports nothing from here.

:class:`ComputeBackend` is the ``eager`` backend: it implements every
primitive (forward/inverse NTT, automorphism, gadget decomposition, the
modular GEMMs and key-switch inner products, the client's encryption,
the seeded draws of :mod:`repro.he.sampling`) and the pipeline ops
built on top of them, so a subclass retargets the whole
ExpandQuery→RowSel→ColTor pipeline by replacing primitives or whole
window steps.

The pipeline ops are tensor programs over a *dispatch window*: a
ciphertext batch is one ``(2, batch, rns, n)`` tensor whose batch axis
is query-major, Subs and the RGSW external product are both the one
``key_switch`` kernel (decompose → digit NTTs → inner product, its key
rows carrying a leading group axis: one group for the evaluation key a
whole window shares, one per query for RGSW bits), and ``expand_window``
/ ``rowsel_window`` / ``coltor_window`` run every query of a group
through each stage together — ``expand_window`` one ``_expand_level``
per level and ``coltor_window`` one ``_coltor_round`` per round, whose
even/odd halves are residue-tensor views, never re-stacked ciphertext
lists.  ``external_product``, ``expand``, ``rowsel`` and ``coltor`` are
the same ops behind single-query signatures, kept for the frozen
``benchmarks/e2e``.

Two backends are registered:

* ``eager`` — plain stacked numpy (lazy-reduction butterflies,
  limb-iCRT decomposition, chunked int64 einsums, substitution as a
  gather of NTT evaluation slots, the dense SimplePIR GEMM as chunked
  float64 BLAS with Barrett tails): no precomputed state beyond twiddle
  and slot tables, exact on every valid parameter set;
* ``native`` (:class:`NativeBackend`) — ``eager`` with what production
  runs compiled, and nothing else: the forward/inverse NTT as Harvey
  lazy butterflies over the ``NttContext`` twiddle tables themselves
  (slot order identical by construction, a broadcast RNS axis
  included), the client's encryption pass, the seeded draws both ends
  make, the one-pass RowSel contraction over the uint32 database
  store, and a whole expansion
  level and a whole ColTor round as one call each (automorphism gather,
  Subs ``b`` add, butterfly and cmux adds folded around a key switch
  fused from limb-iCRT decomposition at any base up to 2^32, the digits'
  transform and the inner product, one ciphertext at a time), the large
  calls split across the process's cores — portable C99 in
  ``native_kernels.c``, built on
  first use by the system C compiler for the host's ISA (``-march=native``
  where the compiler takes it, else portable and counted,
  ``he_native_portable``) and loaded with ``ctypes``
  (:mod:`repro.he.native`).  One bound, ``4q < 2^32``, raised in
  :class:`~repro.he.native.NativeRing`'s constructor.  It is the default
  where the library builds and loads; where it does not
  (``he_native_unavailable``, once per process) ``eager`` is, and a
  ring, gadget or operand outside the kernels' bounds runs the eager
  code (``he_native_none``).  Every other method — the window loops,
  the per-primitive key switch, the butterfly, the modular add, the
  dense GEMM — is inherited.

Every fallback is exact — never silently wrong, at most slower — and
counted in the installed metrics registry: ``he_native_unavailable``,
``he_native_none``, and ``he_modular_gemm_bignum`` for the object-dtype
GEMM at moduli int64 cannot host.  All backend arithmetic is exact
modular arithmetic, so both backends are byte-identical;
``tests/pir/test_backend_parity.py`` asserts this across all four
serving modes.  Kernel-stage labels carry the backend name
(``ntt_fwd@native``) so profiles attribute time to the implementation
that spent it; :func:`repro.obs.report.measured_vs_modeled` aggregates
over the suffix.

Registering another backend::

    class MyBackend(ComputeBackend):
        name = "mine"
        def ntt_forward(self, ctx, residues): ...

    register_backend(MyBackend())

after which ``--backend mine`` works everywhere a backend name travels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he import native, sampling
from repro.he.batched import BfvCiphertextVec, RnsPolyVec
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.modred import FLOAT64_EXACT_MAX, barrett_reduce, modred
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.he.rgsw import RgswCiphertext
from repro.he.subs import SubsKey
from repro.obs.metrics import count
from repro.obs.profile import kernel_stage

_INT64_MAX = (1 << 63) - 1

#: The paper's ring degree N = 2^12.  Nothing here reads it: the frozen
#: ``benchmarks/e2e`` layer probes import it by name.
PLAN_MAX_N = 4096


def overflow_safe_chunk(modulus: int) -> int:
    """How many residue products mod ``modulus`` int64 can accumulate.

    Each product is at most ``(q-1)^2`` and one partially-reduced
    accumulator value (< q) may ride along, so the largest safe
    accumulation length is ``(2^63 - q) // (q-1)^2``.
    """
    if modulus < 2:
        raise ParameterError(f"modulus {modulus} must be at least 2")
    worst = (modulus - 1) ** 2
    if worst > _INT64_MAX - (modulus - 1):
        raise ParameterError(
            f"modulus {modulus} is too large for int64 lazy reduction"
        )
    return (_INT64_MAX - (modulus - 1)) // worst


def _chunked_einsum(
    script: str, lhs: np.ndarray, rhs: np.ndarray, chunk: int,
    moduli_col: np.ndarray, out: np.ndarray | None = None, rhs_axis: int = 1,
) -> np.ndarray:
    """``einsum(script)`` mod q, its contraction axis walked in safe chunks.

    The contraction axis is axis 2 of ``lhs`` and axis ``rhs_axis`` of
    ``rhs``.  The first chunk lands straight in the result (``out`` when
    given), so a contraction one chunk covers — every call at the
    shipped parameters — pays no zero accumulator, no extra add pass
    and no second allocation.
    """
    lead = (slice(None),) * rhs_axis
    acc = None
    for start in range(0, max(lhs.shape[2], 1), chunk):
        stop = start + chunk
        part = np.einsum(
            script, lhs[:, :, start:stop], rhs[lead + (slice(start, stop),)],
            out=out if acc is None else None,
        )
        if acc is None:
            acc = part
        else:
            acc += part
        acc %= moduli_col
    return acc


def _rns_ntt_tables(ctx: RingContext) -> dict:
    """Per-ring twiddle tables stacked across the RNS basis.

    The Cooley-Tukey/Gentleman-Sande butterfly structure depends only on
    the ring degree, so all moduli can ride through one vectorised
    transform with per-modulus twiddles broadcast along the RNS axis —
    one stacked call instead of ``rns_count`` per conversion.
    """
    cache = getattr(ctx, "_rns_ntt_tables_cache", None)
    if cache is not None:
        return cache
    qmax = max(ctx.params.moduli)
    logn = ctx.n.bit_length() - 1
    tables = {
        "fwd": np.stack([ntt._fwd for ntt in ctx.ntts]),  # (rns_count, n)
        "inv": np.stack([ntt._inv for ntt in ctx.ntts]),
        "n_inv": np.array(
            [ntt._n_inv for ntt in ctx.ntts], dtype=np.int64
        )[:, None],
        "moduli3": ctx._moduli_col[:, :, None],  # (rns_count, 1, 1)
        # Lazy butterflies let values grow to (log2(n)+1)*q before the
        # final reduction; the twiddle product of a stage-k value must
        # still fit int64.  The paper's ~28-bit moduli clear this by a
        # wide margin, but a user-built params set with ~2^30 moduli is
        # NTT-friendly yet would overflow *silently* — those fall back
        # to eager per-stage reduction (still stacked, just slower).
        "lazy_fwd": logn * qmax * (qmax - 1) < _INT64_MAX,
        "lazy_inv": 2 * qmax * (qmax - 1) < _INT64_MAX,
    }
    ctx._rns_ntt_tables_cache = tables
    return tables


def _limb_tables(gadget: Gadget) -> dict:
    """Precomputed base-z limb constants for one (basis, gadget) pair.

    The Eq. 3 lift ``c = sum_i t_i * Q_hat_i mod Q`` is evaluated with
    every big integer written in base ``z = 2^base_log2`` — the *gadget
    base* — so after carry propagation and at most ``rns_count - 1``
    conditional subtractions of Q, the limbs of the canonical lift *are*
    the gadget digits.  Everything stays in int64: ``t_i < 2^28`` times a
    limb ``< z <= 2^22`` times ``rns_count <= 4`` is far below 2^63.
    """
    cache = getattr(gadget, "_limb_tables_cache", None)
    if cache is not None:
        return cache
    basis = gadget.ctx.basis
    z = gadget.base
    if z <= basis.count:
        raise ParameterError(
            f"gadget base {z} too small for limb iCRT over {basis.count} moduli"
        )
    nlimbs = gadget.length + 1  # z^L >= Q, so L+1 limbs hold sums < rns * Q
    # The limb accumulation sum_i t_i * qhat_limb must fit int64:
    # rns_count * (q-1) * (z-1) products per limb position.  The paper's
    # 28-bit moduli / 2^22 base clear this by ~2^11; a valid-but-exotic
    # large-base/large-moduli set falls back to the per-poly reference
    # decomposition instead of silently wrapping.
    limb_ok = basis.count * (max(basis.moduli) - 1) * (z - 1) < _INT64_MAX

    def limbs_of(value: int) -> list[int]:
        return [(value >> (gadget.base_log2 * li)) & (z - 1) for li in range(nlimbs)]

    tables = {
        "nlimbs": nlimbs,
        "qhat_limbs": np.array(
            [limbs_of(h) for h in basis._q_hat], dtype=np.int64
        ),  # (rns_count, nlimbs)
        "q_limbs": np.array(limbs_of(basis.modulus_product), dtype=np.int64),
        "qhat_inv": basis._q_hat_inv_arr,
        "moduli": basis._moduli_arr,
        "limb_ok": limb_ok,
    }
    gadget._limb_tables_cache = tables
    return tables


def _limbs_ge(acc: np.ndarray, q_limbs: np.ndarray) -> np.ndarray:
    """Lexicographic ``acc >= Q`` over the limb axis (axis 1), vectorised."""
    shape = (acc.shape[0], acc.shape[2])
    result = np.zeros(shape, dtype=bool)
    undecided = np.ones(shape, dtype=bool)
    for li in range(acc.shape[1] - 1, -1, -1):
        limb = acc[:, li]
        greater = undecided & (limb > q_limbs[li])
        less = undecided & (limb < q_limbs[li])
        result |= greater
        undecided &= ~(greater | less)
    return result | undecided  # all limbs equal -> acc == Q -> "≥"


def modular_gemm(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``(a @ b) % q`` with int64 accumulation that provably never overflows.

    ``a`` and ``b`` must already be reduced into ``[0, q)`` (or, for delta
    matrices, into ``(-q, q)``).  The inner dimension is split into chunks
    small enough that ``chunk * max|a| * max|b| + (q - 1)`` fits int64;
    each chunk's partial product is reduced mod q before the next is
    accumulated.  Chunking is exact mod q, so the result is byte-identical
    regardless of where the chunk boundaries fall.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    max_a = int(np.max(np.abs(a), initial=0))
    max_b = int(np.max(np.abs(b), initial=0))
    per_term = max_a * max_b
    if per_term == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    chunk = (_INT64_MAX - (q - 1)) // per_term
    if chunk < 1:
        # A single product term overflows int64 (q-sized times q-sized
        # operands at large q): fall back to exact arbitrary-precision
        # integers.  Slow, but only reachable at parameter corners that
        # int64 fundamentally cannot host — never the DB-side hot path,
        # where one operand is p-sized.
        count("he_modular_gemm_bignum")
        return np.asarray(
            (a.astype(object) @ b.astype(object)) % q, dtype=np.int64
        )
    if chunk >= inner:
        return (a @ b) % q
    acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        acc = (acc + a[..., start:stop] @ b[start:stop]) % q
    return acc


def _uniform_rows(out: np.ndarray, keys: np.ndarray, moduli: np.ndarray) -> None:
    """Row ``i`` of ``out`` ``(count, n)``: the first ``n`` draws of stream
    ``keys[i]`` that Lemire's rejection accepts under ``moduli[i]``.

    The first pass takes enough words for the worst modulus' rejection
    rate plus two standard deviations; a row still short draws on from
    where the pass stopped, a few words at a time.
    """
    count, n = out.shape
    thresholds = np.uint64(1 << 32) % moduli
    reject = float(thresholds.max()) / 2.0 ** 32 if count else 0.0
    words = int(n / (2 * (1 - reject)) + 2 * n ** 0.5) + 1
    filled = np.zeros(count, dtype=np.int64)
    pending, start = np.arange(count), 0
    while pending.size:
        draws = sampling.stream_words(keys[pending], start, words)
        x = draws.astype("<u8", copy=False).view("<u4").astype(np.uint64)
        x *= moduli[pending, None]
        accept = (x & np.uint64(0xFFFFFFFF)) >= thresholds[pending, None]
        rank = np.cumsum(accept, axis=1)
        rank += filled[pending, None] - 1
        take = accept & (rank < n)
        out.reshape(-1)[(pending[:, None] * n + rank)[take]] = x[take] >> np.uint64(32)
        filled[pending] += take.sum(axis=1)
        pending = pending[filled[pending] < n]
        start, words = start + words, 8


def _error_rows(keys: np.ndarray, n: int, cdt: np.ndarray) -> np.ndarray:
    """The ``(len(keys), n)`` signed error rows of the error streams
    ``keys``: magnitude words against the table, then the sign words."""
    magnitude = np.searchsorted(cdt, sampling.stream_words(keys, 0, n), side="right")
    signs = sampling.stream_words(keys, n, -(-n // 64))
    bits = (signs[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    negative = bits.reshape(len(keys), -1)[:, :n].astype(bool)
    magnitude = magnitude.astype(np.int64)
    return np.where(negative, -magnitude, magnitude)


class ComputeBackend:
    """The ``eager`` backend: every kernel primitive and the pipeline ops.

    The primitives (NTTs, automorphism, decomposition, the GEMMs and
    key-switch inner products, the client's encryption, the seeded
    draws) are stacked numpy — butterflies, limb iCRT, int64 einsums —
    with no precomputed state beyond twiddle and slot tables, exact on
    every valid parameter set.  The pipeline ops (``substitute_stacked`` … ``coltor_window``)
    are written once in terms of them, and every transform routes
    through ``self``, so a subclass that replaces a primitive or a whole
    window step (:class:`NativeBackend`) retargets the
    ExpandQuery→RowSel→ColTor pipeline and its profiler labels.  This is
    what the native backend falls back to and is measured against — a
    backend like any other, not a second oracle: the independent
    reference is the per-poly stack.
    """

    name: str = "eager"

    def _label(self, stage: str) -> str:
        return f"{stage}@{self.name}"

    # -- primitives --------------------------------------------------------
    def ntt_forward(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        """Stacked forward NTT over every RNS row: (..., rns, n) -> same.

        An RNS axis of length 1 broadcasts: one integer coefficient row
        (plaintext, error or digit polynomial) is reduced into, and
        transformed under, every modulus.

        Cooley-Tukey butterflies with lazy reduction, element-identical
        to calling ``ctx.ntts[i].forward`` row by row: only the twiddle
        product is reduced per stage, sums stay unreduced (adding one
        ``q`` of headroom per stage keeps subtraction results
        non-negative), and one final ``% q`` canonicalises.  The growth bound is ``(log2(n) + 1) * q < 2^32``
        for the paper's ~28-bit moduli, far below both int64 and the
        ``value * twiddle < 2^63`` multiply constraint; moduli too large
        for that bound reduce at every stage instead (checked in
        :func:`_rns_ntt_tables`) so the fast path can never silently wrap.
        """
        with kernel_stage(self._label("ntt_fwd"), getattr(residues, "nbytes", 0)):
            tables = _rns_ntt_tables(ctx)
            q = tables["moduli3"]
            n = ctx.n
            a = np.ascontiguousarray(
                np.asarray(residues, dtype=np.int64) % ctx._moduli_col
            )
            lead = a.shape[:-2]
            rns = a.shape[-2]
            # Scratch for the stage's u/v halves: n/2 elements per
            # polynomial at every stage, so two buffers serve all
            # log2(n) stages without per-stage allocations.
            scratch_u = np.empty(lead + (rns, n // 2), dtype=np.int64)
            scratch_v = np.empty_like(scratch_u)
            lazy = tables["lazy_fwd"]
            t = n
            m = 1
            while m < n:
                t //= 2
                blocks = a.reshape(*lead, rns, m, 2, t)
                s = tables["fwd"][:, m : 2 * m]  # (rns_count, m)
                u = scratch_u.reshape(*lead, rns, m, t)
                v = scratch_v.reshape(*lead, rns, m, t)
                np.copyto(u, blocks[..., 0, :])
                np.multiply(blocks[..., 1, :], s[:, :, None], out=v)
                v %= q
                np.add(u, v, out=blocks[..., 0, :])
                np.subtract(u, v, out=blocks[..., 1, :])
                blocks[..., 1, :] += q
                if not lazy:
                    blocks[..., 0, :] %= q
                    blocks[..., 1, :] %= q
                m *= 2
            return a % ctx._moduli_col

    def ntt_inverse(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        """Stacked inverse NTT over every RNS row: (..., rns, n) -> same,
        by Gentleman-Sande butterflies with ``n^-1`` folded in last."""
        with kernel_stage(self._label("ntt_inv"), getattr(residues, "nbytes", 0)):
            tables = _rns_ntt_tables(ctx)
            q = tables["moduli3"]
            n = ctx.n
            a = np.ascontiguousarray(
                np.asarray(residues, dtype=np.int64) % ctx._moduli_col
            )
            lead = a.shape[:-2]
            rns = a.shape[-2]
            scratch_u = np.empty(lead + (rns, n // 2), dtype=np.int64)
            t = 1
            m = n
            while m > 1:
                h = m // 2
                blocks = a.reshape(*lead, rns, h, 2, t)
                s = tables["inv"][:, h : 2 * h]
                u = scratch_u.reshape(*lead, rns, h, t)
                np.copyto(u, blocks[..., 0, :])
                v = blocks[..., 1, :]  # view; consumed before being overwritten
                np.add(u, v, out=blocks[..., 0, :])
                blocks[..., 0, :] %= q
                np.subtract(u, v, out=u)
                u += q  # keep the difference non-negative before the twiddle
                if not tables["lazy_inv"]:
                    u %= q  # large moduli: reduce before the twiddle product
                u *= s[:, :, None]
                u %= q
                blocks[..., 1, :] = u
                t *= 2
                m = h
            return (a * tables["n_inv"]) % ctx._moduli_col

    def digits_forward(self, ctx: RingContext, digits: np.ndarray) -> np.ndarray:
        """NTT a digit tensor (batch, k, n) into every RNS row: the
        ``(batch, k, rns, n)`` operand of :meth:`inner`."""
        batch, k, n = digits.shape
        tiled = np.broadcast_to(
            digits[:, :, None, :], (batch, k, ctx.rns_count, n)
        )
        return self.ntt_forward(ctx, tiled)

    def automorphism(
        self, ctx: RingContext, cts: np.ndarray, r: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """X -> X^r on the halves of an NTT-form ``(2, batch, rns, n)`` tensor.

        Each half comes back in the domain Subs wants it in: ``a`` in
        coefficients (it is decomposed next), ``b`` in NTT form (it is
        added back onto the key-switch output).

        In the NTT domain the map is a pure gather of evaluation slots:
        the ``b`` half needs no transform at all and the ``a`` half only
        the inverse that decomposition wants anyway.  The slot table is
        the ring's own, so this holds whatever runs the inverse.
        """
        # take, not cts[..., slots]: fancy indexing leaves the indexed
        # axis outermost in memory and costs 8x the time at N = 2^12.
        gathered = np.take(cts, ctx.automorphism_slots(r), axis=-1)
        return self.ntt_inverse(ctx, gathered[0]), gathered[1]

    def _coeff_residues(self, vec: RnsPolyVec) -> np.ndarray:
        if vec.domain is Domain.COEFF:
            return vec.residues
        return self.ntt_inverse(vec.ctx, vec.residues)

    def decompose(self, gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
        """Gadget digits of a whole batch: (batch, gadget_len, n) int64,
        by an exact int64 limb iCRT.

        Element-identical to running :meth:`Gadget.decompose` per
        polynomial — same unsigned base-z digits of the [0, Q) lift — but
        the Eq. 3 lift is accumulated directly in base-z limbs (see
        :func:`_limb_tables`), so no per-coefficient big-int arithmetic
        is needed.
        """
        residues = self._coeff_residues(vec)
        with kernel_stage(self._label("decompose"), residues.nbytes):
            tables = _limb_tables(gadget)
            if not tables["limb_ok"]:
                # Oversized base/moduli would wrap the limb accumulation;
                # take the exact object-int reference per polynomial.
                digits = np.empty(
                    (len(residues), gadget.length, gadget.ctx.n), dtype=np.int64
                )
                for i, row in enumerate(residues):
                    poly = RnsPoly(gadget.ctx, row, Domain.COEFF)
                    for j, digit in enumerate(gadget.decompose(poly)):
                        digits[i, j] = digit.residues[0]
                return digits
            blog = gadget.base_log2
            z = gadget.base
            moduli, qhat_inv = tables["moduli"], tables["qhat_inv"]
            # t_i = residue_i * (Q/q_i)^{-1} mod q_i (Eq. 3), still per-modulus.
            t = (residues * qhat_inv[:, None]) % moduli[:, None]
            # S = sum_i t_i * Q_hat_i accumulated limb-wise: (batch, nlimbs, n).
            acc = np.einsum("bmn,ml->bln", t, tables["qhat_limbs"])
            for li in range(tables["nlimbs"] - 1):
                carry = acc[:, li] >> blog
                acc[:, li] -= carry << blog
                acc[:, li + 1] += carry
            # S = lift + k*Q with k < rns_count: subtract Q wherever still >= Q.
            q_limbs = tables["q_limbs"]
            for _ in range(gadget.ctx.rns_count - 1):
                ge = _limbs_ge(acc, q_limbs)
                if not ge.any():
                    break
                acc -= ge[:, None, :] * q_limbs[None, :, None]
                for li in range(tables["nlimbs"] - 1):
                    borrow = acc[:, li] < 0
                    acc[:, li] += borrow * z
                    acc[:, li + 1] -= borrow
            return acc[:, : gadget.length, :]

    def inner(
        self, digits: np.ndarray, rows: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Key-switch inner product ``out[g, b] = sum_k digits[g, b, k] * rows[g, k]``.

        ``digits`` is ``(groups, batch, k, rns, n)``, ``rows`` ``(groups,
        k, rns, n)``: each group contracts against its own key rows.
        """
        chunk = overflow_safe_chunk(int(moduli_col.max()))
        return _chunked_einsum(
            "gbkmn,gkmn->gbmn", digits, rows, chunk, moduli_col, out
        )

    def rowsel_gemm(
        self, db: np.ndarray, query: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """RowSel GEMM with a ciphertext-half and a query axis.

        ``(queries or 1, cols, rows, rns, n) x (halves, queries, rows,
        rns, n) -> (halves, queries, cols, rns, n)``: a leading ``db``
        axis of one is a plane every query shares.  ``db`` is the
        database store (uint32 residues), every half contracts against
        the same read of it.

        A lazy-reduction int64 contraction over the row axis, tile by
        tile.  The store is narrower than int64, so the plane is widened
        one tile of its flattened ``(rns, n)`` axis at a time — at most
        ``BLOCK_BYTES`` of int64, never the whole operand — and each tile
        contracts against every half of the query.  Residues are < 2^28,
        so int64 holds hundreds of accumulated products before a ``% q``
        is required; accumulation is chunked at the overflow-safe length.
        """
        if (
            db.ndim != 5 or query.ndim != 5 or db.shape[2:] != query.shape[2:]
            or db.shape[0] not in (1, query.shape[1])
        ):
            raise ParameterError(
                f"GEMM shape mismatch: db {db.shape} vs query {query.shape}"
            )
        halves, queries, rows, rns, n = query.shape
        cols = db.shape[1]
        shape = (halves, queries, cols, rns, n)
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        # Flat (rns * n) views; the (rns, n) blocks are contiguous in
        # every store, so none of these copies.
        flat_db = db.reshape(db.shape[:3] + (-1,))
        flat_query = query.reshape(query.shape[:3] + (-1,))
        flat_out = out.reshape(shape[:3] + (-1,), copy=False)
        moduli = np.repeat(np.ravel(moduli_col), n)
        chunk = overflow_safe_chunk(int(moduli_col.max()))
        tile = max(1, BLOCK_BYTES // (8 * flat_db[..., 0].size))
        with kernel_stage(self._label("gemm"), db.nbytes + query.nbytes):
            for lo in range(0, rns * n, tile):
                cut = slice(lo, lo + tile)
                _chunked_einsum(
                    "qcrp,hqrp->hqcp", flat_db[..., cut].astype(np.int64),
                    flat_query[..., cut], chunk, moduli[cut],
                    out=flat_out[..., cut], rhs_axis=2,
                )
        return out

    def expand_butterfly(
        self, ctx: RingContext, vec: np.ndarray, swapped: np.ndarray, step: int
    ) -> np.ndarray:
        """One ExpandQuery level after its Subs (Fig. 2-(1)).

        ``vec`` and ``swapped = Subs(vec)`` are ``(2, Q, step, rns, n)``
        NTT-form tensors; returns ``(2, Q, 2 * step, rns, n)`` holding,
        per query, ``vec + swapped`` then ``(vec - swapped) * X^-step``
        mod q.
        """
        moduli_col = ctx._moduli_col
        grown = np.empty(
            vec.shape[:2] + (2 * step,) + vec.shape[3:], dtype=np.int64
        )
        even, odd = grown[:, :, :step], grown[:, :, step:]
        np.add(vec, swapped, out=even)
        even -= moduli_col
        modred(even, moduli_col)
        np.subtract(vec, swapped, out=odd)
        modred(odd, moduli_col)
        odd *= ctx.monomial_ntt(-step)
        odd %= moduli_col
        return grown

    def modular_add(
        self, a: np.ndarray, b: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None, subtract: bool = False,
    ) -> np.ndarray:
        """``a + b`` (``a - b`` when ``subtract``) mod q over canonical
        ``(..., rns, n)`` residues of one shape; ``out`` may be ``a``."""
        if subtract:
            out = np.subtract(a, b, out=out)
        else:
            out = np.add(a, b, out=out)
            out -= moduli_col
        return modred(out, moduli_col)

    def encrypt_rows(
        self, ctx: RingContext, key_ntt: np.ndarray, rows: np.ndarray,
        errors: np.ndarray, shift: np.ndarray | None = None,
    ) -> np.ndarray:
        """The client's RLWE encryptions of zero, written into ``rows``.

        ``rows`` is ``(2, count, rns, n)`` with the uniform ``a``
        polynomials (NTT form) already in ``rows[0]``, ``errors`` the
        ``(count, n)`` signed error rows and ``key_ntt`` the ``(rns, n)``
        NTT-form secret.  Writes ``b = NTT(e) - a*s`` mod q into
        ``rows[1]``; ``shift``, when given, is ``(count, 2, rns)``
        per-row constants added to ``a`` and ``b`` (a constant's NTT form
        is that constant in every slot) — the RGSW gadget terms.  Returns
        ``rows``.

        Blocked numpy: the rows are walked in blocks whose temporaries
        (transformed errors, the ``a*s`` products) fit the scratch budget.
        """
        moduli_col = ctx._moduli_col
        block = max(1, BLOCK_BYTES // (3 * 8 * ctx.rns_count * ctx.n))
        for lo in range(0, rows.shape[1], block):
            a, b = rows[0, lo:lo + block], rows[1, lo:lo + block]
            b[...] = self.ntt_forward(ctx, errors[lo:lo + block, None, :])
            prod = a * key_ntt
            prod %= moduli_col
            b -= prod
            modred(b, moduli_col)
            if shift is None:
                continue
            for half, target in enumerate((a, b)):
                target += shift[lo:lo + block, half, :, None]
                target -= moduli_col
                modred(target, moduli_col)
        return rows

    def sample(
        self, ctx: RingContext, seeds: list[bytes], rows: int,
        error_seed: bytes | None = None, errors: int = 0,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The seeded draws of one encryption block or dispatch group, in
        one call (the generator of :mod:`repro.he.sampling`).

        Returns ``(a, e)``: ``a`` the ``(len(seeds) · rows, rns, n)``
        uniform ``a`` polynomials, ``rows`` per seed in seed order —
        written into ``out`` (any C-contiguous int64 array of that size)
        when given — and ``e`` the ``(errors, n)`` signed error rows of
        ``error_seed`` (None will do when ``errors`` is 0).  A seed that
        is not 32 bytes, or a modulus of ``2^32`` or more, is a
        :class:`~repro.errors.ParameterError`.

        numpy, a block of polynomials at a time: the uniform draws take
        enough words for the worst modulus' rejection rate in one pass,
        and the rare polynomial still short draws on from where it
        stopped; the error magnitudes are one ``searchsorted`` against the
        table.
        """
        words, a, error_words, e, cdt = self._sample_operands(
            ctx, seeds, rows, error_seed, errors, out
        )
        n, shift = ctx.n, np.uint64(8)
        tags = np.arange(rows, dtype=np.uint64)[:, None] << shift
        tags = tags | np.arange(ctx.rns_count, dtype=np.uint64)
        keys = sampling.stream_keys(words, tags.ravel()).ravel()
        moduli = np.tile(np.array(ctx.params.moduli, dtype=np.uint64), len(seeds) * rows)
        flat = a.reshape(-1, n)
        block = max(1, BLOCK_BYTES // (48 * n))
        for lo in range(0, len(keys), block):
            _uniform_rows(flat[lo:lo + block], keys[lo:lo + block], moduli[lo:lo + block])
        if errors:
            tags = np.arange(errors, dtype=np.uint64) << shift
            (keys,) = sampling.stream_keys(error_words, tags | np.uint64(sampling.ERROR_TAG))
            for lo in range(0, errors, block):
                e[lo:lo + block] = _error_rows(keys[lo:lo + block], n, cdt)
        return a, e

    @staticmethod
    def _sample_operands(
        ctx: RingContext, seeds: list[bytes], rows: int, error_seed: bytes | None,
        errors: int, out: np.ndarray | None,
    ) -> tuple:
        """What :meth:`sample` checks and allocates, whichever backend runs
        it: the seeds' key words, the ``a`` buffer, the error seed's words
        (None without errors), the error buffer and the error table."""
        words = sampling.seed_words(seeds)
        if ctx.rns_count > sampling.ERROR_TAG or max(ctx.params.moduli) >> 32:
            raise ParameterError(
                f"the sampler takes at most {sampling.ERROR_TAG} moduli below "
                f"2^32, got {ctx.params.moduli}"
            )
        shape = (len(seeds) * rows, ctx.rns_count, ctx.n)
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        elif out.size != np.prod(shape) or out.dtype != np.int64 or not out.flags.c_contiguous:
            raise ParameterError(
                f"sample writes a C-contiguous int64 {shape} tensor, got "
                f"{out.dtype} {out.shape}"
            )
        e = np.empty((errors, ctx.n), dtype=np.int64)
        if not errors:
            return words, out, None, e, None
        return (
            words, out, sampling.seed_words([error_seed]), e,
            sampling.error_cdt(ctx.params.error_std),
        )

    def modular_gemm(self, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
        """Dense ``(a @ b) % q`` (the SimplePIR/hintpir server tier): a
        chunked float64 dgemm with Barrett tails, exact and BLAS-backed.

        int64 matmul in numpy is a scalar loop; float64 hits BLAS.  The
        inner axis is chunked so every partial accumulation stays below
        2^53 (float64-exact), each chunk Barrett-reduced before the
        next.  Operand ranges that cannot satisfy the bound take the
        int64 :func:`modular_gemm` (and its bignum corner) — identical
        results either way.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        inner = a.shape[-1]
        if inner == 0:
            return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        max_a = int(np.max(np.abs(a), initial=0))
        max_b = int(np.max(np.abs(b), initial=0))
        per_term = max_a * max_b
        if per_term == 0:
            return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        if q >= FLOAT64_EXACT_MAX:
            return modular_gemm(a, b, q)
        chunk = (FLOAT64_EXACT_MAX - q) // per_term
        if chunk < 1:
            return modular_gemm(a, b, q)
        af = a.astype(np.float64)
        bf = b.astype(np.float64)
        if chunk >= inner:
            return barrett_reduce(af @ bf, q)
        acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        for start in range(0, inner, chunk):
            stop = min(start + chunk, inner)
            acc += barrett_reduce(af[..., start:stop] @ bf[start:stop], q)
            acc -= q * (acc >= q)
        return acc

    # -- the key-switch kernel --------------------------------------------
    def key_switch(
        self, gadget: Gadget, coeff: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """``Dcp(coeff) . rows``: decompose -> digit NTTs -> inner, once.

        The one gadget key-switch both Subs and the RGSW external
        product are made of.  ``coeff`` is ``(parts, groups, batch, rns,
        n)`` coefficient-domain residues: every output ciphertext
        decomposes ``parts`` polynomials (Subs: the ``a`` half alone;
        external product: ``a`` then ``b``) into ``k = parts * ℓ``
        digits.  ``rows`` is ``(2, groups, k, rns, n)`` key material —
        one group for an evaluation key shared by the whole batch, one
        group per query for its RGSW bit.  Returns the ``(2, groups,
        batch, rns, n)`` NTT-form ciphertext tensor.
        """
        ctx = gadget.ctx
        parts, groups, batch = coeff.shape[:3]
        poly = coeff.shape[3:]
        if rows.shape != (2, groups, parts * gadget.length) + poly:
            raise ParameterError(
                f"key has {rows.shape[2]} rows in {rows.shape[1]} group(s); "
                f"the gadget expects {parts * gadget.length} in {groups}"
            )
        flat = groups * batch
        digits = self.decompose(
            gadget, RnsPolyVec(ctx, coeff.reshape((-1,) + poly), Domain.COEFF)
        )
        if parts > 1:
            # Per ciphertext the digit order is a-digits then b-digits.
            digits = np.concatenate(
                [digits[p * flat:(p + 1) * flat] for p in range(parts)], axis=1
            )
        digits = self.digits_forward(ctx, digits).reshape(
            (groups, batch, parts * gadget.length) + poly
        )
        out = np.empty((2, groups, batch) + poly, dtype=np.int64)
        for half in (0, 1):
            self.inner(digits, rows[half], ctx._moduli_col, out=out[half])
        return out

    # -- pipeline ops: stacked tensors ------------------------------------
    #
    # Ciphertext batches travel as one ``(2, batch, rns, n)`` NTT-form
    # tensor (``[0]`` the a halves, ``[1]`` the b halves).  A window of Q
    # queries is the same tensor with the batch axis query-major
    # (``Q * per_query``).

    def substitute_stacked(
        self, cts: np.ndarray, evk: SubsKey, gadget: Gadget
    ) -> np.ndarray:
        """Subs(ct, evk.r) on a ``(2, batch, rns, n)`` ciphertext tensor."""
        moduli_col = gadget.ctx._moduli_col
        with kernel_stage(self._label("subs"), cts.nbytes):
            a_aut, b_aut = self.automorphism(gadget.ctx, cts, evk.r)
            out = self.key_switch(
                gadget, a_aut[None, None], evk.rows[:, None]
            )[:, 0]
            self.modular_add(out[1], b_aut, moduli_col, out=out[1])
            return out

    def external_product_stacked(
        self, rows: np.ndarray, cts: np.ndarray, gadget: Gadget
    ) -> np.ndarray:
        """Grouped ct_RGSW ⊡ ct_BFV (Fig. 3 flow).

        ``cts`` is ``(2, groups, batch, rns, n)`` and ``rows`` ``(2,
        groups, 2ℓ, rns, n)``: group ``g``'s ciphertexts are multiplied
        by RGSW ciphertext ``rows[:, g]``.
        """
        with kernel_stage(self._label("ext_product"), cts.nbytes):
            return self.key_switch(
                gadget, self.ntt_inverse(gadget.ctx, cts), rows
            )

    def expand_window(
        self,
        packed: np.ndarray,
        evks: dict[int, SubsKey],
        levels: int,
        gadget: Gadget,
    ) -> np.ndarray:
        """ExpandQuery trees of Q packed queries at once.

        ``packed`` is ``(2, Q, rns, n)``; the result ``(2, Q * 2^levels,
        rns, n)`` holds query ``q``'s one-hot ciphertexts at
        ``[q * 2^levels, (q + 1) * 2^levels)``, one :meth:`_expand_level`
        per level.
        """
        n = gadget.ctx.n
        if (1 << levels) > n:
            raise ParameterError(
                f"cannot expand {levels} levels in a degree-{n} ring"
            )
        with kernel_stage(self._label("expand"), packed.nbytes):
            vec = packed
            for a in range(levels):
                r = n // (1 << a) + 1
                if r not in evks:
                    raise ParameterError(
                        f"missing evk for substitution power r={r}"
                    )
                vec = self._expand_level(vec, evks[r], 1 << a, gadget)
            return vec

    def _expand_level(
        self, vec: np.ndarray, evk: SubsKey, step: int, gadget: Gadget
    ) -> np.ndarray:
        """One ExpandQuery level: ``(2, Q * step, rns, n)`` -> ``(2, Q * 2
        * step, rns, n)``.

        One Subs over all live ciphertexts of all queries (they share the
        evaluation key), then one add/subtract pair and one monomial
        multiply (one ``expand_butterfly``), written straight into the
        next level's tensor.
        """
        poly = vec.shape[2:]
        shape = (2, vec.shape[1] // step, step) + poly
        swapped = self.substitute_stacked(vec, evk, gadget)
        return self.expand_butterfly(
            gadget.ctx, vec.reshape(shape), swapped.reshape(shape), step
        ).reshape((2, -1) + poly)

    def rowsel_window(
        self, expanded: np.ndarray, planes: np.ndarray, moduli_col: np.ndarray
    ) -> np.ndarray:
        """RowSel of Q expanded queries against their plane tensors.

        ``expanded`` is ``(2, Q * d0, rns, n)`` and ``planes`` ``(Q or 1,
        cols, d0, rns, n)`` (one plane per query, or one they share);
        returns ``(2, Q * cols, rns, n)``.  One contraction feeds both
        ciphertext halves from a single read of the planes, which is
        what the stage's byte count reports.
        """
        cols, d0 = planes.shape[1:3]
        poly = expanded.shape[2:]
        if expanded.shape[1] % d0 or planes.shape[0] not in (
            1, expanded.shape[1] // d0
        ):
            raise ParameterError(
                f"expected {d0} expanded ciphertexts per plane tensor, got "
                f"{expanded.shape[1]} for {planes.shape[0]} plane tensor(s)"
            )
        queries = expanded.shape[1] // d0
        with kernel_stage(
            self._label("rowsel"), planes.nbytes + expanded.nbytes
        ):
            out = self.rowsel_gemm(
                planes, expanded.reshape((2, queries, d0) + poly), moduli_col
            )
        return out.reshape((2, -1) + poly)

    @staticmethod
    def _check_coltor(count: int, num_bits: int) -> None:
        if count == 0:
            raise ParameterError("ColTor needs at least one entry")
        if count & (count - 1):
            raise ParameterError(
                f"ColTor entry count {count} must be a power of two"
            )
        if (1 << num_bits) != count:
            raise ParameterError(
                f"{count} entries need {count.bit_length() - 1} selection "
                f"bits, got {num_bits}"
            )

    def coltor_window(
        self, entries: np.ndarray, bits: list[list[np.ndarray]], gadget: Gadget
    ) -> np.ndarray:
        """Tournaments of Q queries: ``(2, Q * 2^d, rns, n)`` -> ``(2, Q, rns, n)``.

        ``bits[k][q]`` holds query ``q``'s k-th RGSW selection bit: its
        ``(2ℓ, rns, n)`` ``a`` and ``b`` halves, as one ``(2, 2ℓ, rns,
        n)`` tensor or a pair of arrays; round ``k`` is one
        :meth:`_coltor_round` over them.
        """
        queries = len(bits[0]) if bits else 1
        poly = entries.shape[2:]
        if entries.shape[1] % queries:
            raise ParameterError(
                f"{entries.shape[1]} ColTor entries do not split over "
                f"{queries} queries"
            )
        self._check_coltor(entries.shape[1] // queries, len(bits))
        with kernel_stage(self._label("coltor"), entries.nbytes):
            current = entries.reshape((2, queries, -1) + poly)
            for round_bits in bits:
                current = self._coltor_round(current, round_bits, gadget)
            return current[:, :, 0]

    def _coltor_round(
        self, current: np.ndarray, bits: list, gadget: Gadget
    ) -> np.ndarray:
        """One tournament round: ``(2, Q, count, rns, n)`` -> ``(2, Q,
        count / 2, rns, n)`` under query ``q``'s bit rows ``bits[q]`` (its
        two halves).

        One grouped cmux — bit ⊡ (ones - zeros) + zeros — over the
        residue-tensor views of the even/odd entries; the Q bits are
        stacked into the key switch's group axis for the round alone.
        """
        moduli_col = gadget.ctx._moduli_col
        zeros, ones = current[:, :, 0::2], current[:, :, 1::2]
        out = self.external_product_stacked(
            np.stack(bits, axis=1),
            self.modular_add(ones, zeros, moduli_col, subtract=True),
            gadget,
        )
        return self.modular_add(out, zeros, moduli_col, out=out)

    # -- pipeline ops: single-query signatures ----------------------------
    #
    # The four below are the window ops behind per-poly container types.
    # No ``src/`` code calls them: they remain because the frozen
    # ``benchmarks/e2e`` staged replay and kernel probes are written
    # against exactly these signatures.

    def external_product(
        self, rgsw: RgswCiphertext, vec: BfvCiphertextVec, gadget: Gadget
    ) -> BfvCiphertextVec:
        """ct_RGSW ⊡ ct_BFV for a batch of BFV ciphertexts: one group."""
        out = self.external_product_stacked(
            rgsw.rows[:, None], vec.stacked()[:, None], gadget
        )
        return BfvCiphertextVec.from_stacked(vec.a.ctx, out[:, 0])

    def expand(
        self,
        ct: BfvCiphertext,
        evks: dict[int, SubsKey],
        levels: int,
        gadget: Gadget,
    ) -> BfvCiphertextVec:
        """Batched ExpandQuery tree: one query ct -> 2^levels one-hot cts."""
        packed = np.stack([ct.a.residues, ct.b.residues])[:, None]
        return BfvCiphertextVec.from_stacked(
            ct.a.ctx, self.expand_window(packed, evks, levels, gadget)
        )

    def rowsel(
        self,
        expanded: BfvCiphertextVec,
        db_tensor: np.ndarray,
        moduli_col: np.ndarray,
    ) -> BfvCiphertextVec:
        """Batched RowSel over one plane's (cols, d0, rns, n) tensor."""
        return BfvCiphertextVec.from_stacked(
            expanded.a.ctx,
            self.rowsel_window(expanded.stacked(), db_tensor[None], moduli_col),
        )

    def coltor(
        self,
        entries: BfvCiphertextVec,
        selection_bits: list[RgswCiphertext],
        gadget: Gadget,
    ) -> BfvCiphertext:
        """Tournament reduction: 2^d RowSel outputs -> one response ct."""
        result = self.coltor_window(
            entries.stacked(), [[bit.rows] for bit in selection_bits], gadget
        )
        return BfvCiphertextVec.from_stacked(entries.a.ctx, result).ct(0)


class NativeBackend(ComputeBackend):
    """The eager backend with the steps production runs compiled.

    Seven methods are replaced, each by the C99 kernels of
    :mod:`repro.he.native` — lazy butterflies over the same twiddle
    tables, so every slot is where the eager transforms put it — with
    the large calls split across the cores
    (:func:`repro.he.native.fan_out`): the forward/inverse NTT
    (broadcast RNS axis included), the client's encryption pass, the
    seeded draws (an encryption block's ``a`` and error rows, a dispatch
    group's ``a`` rows), the RowSel contraction over the uint32 store
    (each DB word read once for both ciphertext halves), and the two
    window steps, one C call each —
    a whole expansion level (the slot gather, Subs' key switch and ``b``
    add, the butterfly) and a whole ColTor round (``ones - zeros``, the
    external product, ``+ zeros``), a ciphertext at a time with the key
    switch's digits in cache.  Everything else — the window loops, the
    single-query signatures, the per-primitive key switch, the dense
    GEMM — is the eager implementation, which the compiled steps are
    held to byte for byte.

    What the kernels do not cover runs the eager code, exactly and
    counted: no library on this machine (``he_native_unavailable``, once
    per process, by :func:`repro.he.native.load_library`), or a ring,
    gadget or operand outside their bounds (``he_native_none`` per call
    — ``4q < 2^32`` is the one that matters, raised as a
    :class:`~repro.errors.ParameterError` by
    :class:`~repro.he.native.NativeRing`).
    """

    name = "native"

    def __init__(self):
        #: ``(n, moduli) -> NativeRing``, or None for a ring out of bounds.
        self._rings: dict[tuple[int, tuple[int, ...]], native.NativeRing | None] = {}

    def _ring(
        self, ctx: RingContext, gadget: Gadget | None = None
    ) -> native.NativeRing | None:
        """The kernels' tables for ``ctx``, or None when there is no
        library, or (counted) when the ring — or ``gadget``, when given —
        is outside the kernels' bounds."""
        lib = native.load_library()
        if lib is None:
            return None
        key = (ctx.n, tuple(ctx.params.moduli))
        if key not in self._rings:
            try:
                self._rings[key] = native.NativeRing(lib, ctx)
            except ParameterError:
                self._rings[key] = None
        ring = self._rings[key]
        if ring is None or (gadget is not None and not ring.covers(gadget)):
            count("he_native_none")
            return None
        return ring

    def ntt_forward(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        ring = self._ring(ctx)
        if ring is None:
            return super().ntt_forward(ctx, residues)
        with kernel_stage(self._label("ntt_fwd"), getattr(residues, "nbytes", 0)):
            return ring.transform(residues)

    def ntt_inverse(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        ring = self._ring(ctx)
        if ring is None:
            return super().ntt_inverse(ctx, residues)
        with kernel_stage(self._label("ntt_inv"), getattr(residues, "nbytes", 0)):
            return ring.transform(residues, inverse=True)

    @staticmethod
    def _consts(moduli_col: np.ndarray) -> np.ndarray | None:
        """The kernels' modulus table for ``moduli_col``, or None (counted)
        when there is no library or a modulus is outside ``4q < 2^32``."""
        if native.load_library() is None:
            return None
        try:
            return native.modulus_consts(tuple(int(q) for q in np.ravel(moduli_col)))
        except ParameterError:
            count("he_native_none")
            return None

    def rowsel_gemm(
        self, db: np.ndarray, query: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The compiled one-pass contraction over the uint32 store; any
        other store dtype, or more than two halves, is the eager one's."""
        consts = self._consts(moduli_col)
        if consts is not None and db.dtype == np.uint32 and query.shape[0] <= 2:
            with kernel_stage(self._label("gemm"), db.nbytes + query.nbytes):
                result = native.rowsel_gemm(native.load_library(), consts, db, query, out)
            if result is not None:
                return result
            count("he_native_none")
        return super().rowsel_gemm(db, query, moduli_col, out)

    def _expand_level(
        self, vec: np.ndarray, evk: SubsKey, step: int, gadget: Gadget
    ) -> np.ndarray:
        """One C call for the whole level
        (:meth:`repro.he.native.NativeRing.expand_level`): slot gather,
        Subs, the ``b`` add and the butterfly a ciphertext at a time,
        timed as the level's Subs.

        A ring or gadget outside the kernels' bounds (more than four
        moduli, a base above 2^32) is counted and takes the inherited
        per-primitive level; an operand the kernel refuses is counted and
        the eager backend's level runs.
        """
        ctx = gadget.ctx
        ring = self._ring(ctx, gadget)
        if ring is None:
            return super()._expand_level(vec, evk, step, gadget)
        with kernel_stage(self._label("subs"), vec.nbytes):
            grown = ring.expand_level(
                gadget, vec, evk.rows, ctx.automorphism_slots(evk.r), evk.r,
                ctx.monomial_ntt(-step), step,
            )
        if grown is not None:
            return grown
        count("he_native_none")
        return get_backend(ComputeBackend.name)._expand_level(vec, evk, step, gadget)

    def _coltor_round(
        self, current: np.ndarray, bits: list, gadget: Gadget
    ) -> np.ndarray:
        """One C call for the whole round
        (:meth:`repro.he.native.NativeRing.cmux_round`): ``ones - zeros``,
        the external product and ``+ zeros`` an output ciphertext at a
        time, the bit rows read where they lie, timed as the round's
        external product.  Fallbacks as in :meth:`_expand_level`.
        """
        ring = self._ring(gadget.ctx, gadget)
        if ring is None:
            return super()._coltor_round(current, bits, gadget)
        with kernel_stage(self._label("ext_product"), current.nbytes // 2):
            result = ring.cmux_round(gadget, current, bits)
        if result is not None:
            return result
        count("he_native_none")
        return get_backend(ComputeBackend.name)._coltor_round(current, bits, gadget)

    def encrypt_rows(
        self, ctx: RingContext, key_ntt: np.ndarray, rows: np.ndarray,
        errors: np.ndarray, shift: np.ndarray | None = None,
    ) -> np.ndarray:
        """One C pass per row (:meth:`repro.he.native.NativeRing.encrypt`),
        fanned over rows; an operand the kernel refuses is counted and the
        eager blocks run on the rows as they were."""
        ring = self._ring(ctx)
        if ring is not None:
            with kernel_stage(self._label("encrypt"), rows.nbytes):
                if ring.encrypt(key_ntt, rows, errors, shift):
                    return rows
            count("he_native_none")
        return super().encrypt_rows(ctx, key_ntt, rows, errors, shift)

    def sample(
        self, ctx: RingContext, seeds: list[bytes], rows: int,
        error_seed: bytes | None = None, errors: int = 0,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One C call for the block's or group's draws
        (:func:`repro.he.native.sample`), fanned over rows; a modulus
        outside ``4q < 2^32`` is counted and the eager draws run."""
        consts = self._consts(ctx._moduli_col)
        if consts is None:
            return super().sample(ctx, seeds, rows, error_seed, errors, out)
        words, a, error_words, e, cdt = self._sample_operands(
            ctx, seeds, rows, error_seed, errors, out
        )
        with kernel_stage(self._label("sample"), a.nbytes + e.nbytes):
            native.sample(native.load_library(), consts, words, rows, a, error_words, e, cdt)
        return a, e


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ComputeBackend] = {}


def _default_name() -> str:
    """``native`` where its library builds and loads, else ``eager``.

    A selection from what the platform can do, made on first use (the
    first call may run the C compiler) and fixed for the process.
    """
    if native.load_library() is not None:
        return NativeBackend.name
    return ComputeBackend.name


def __getattr__(name: str):
    """``DEFAULT_BACKEND`` — the name every layer resolves when none is
    given — as a lazy module attribute (PEP 562): importing this module
    compiles nothing."""
    if name == "DEFAULT_BACKEND":
        return _default_name()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add a backend instance to the registry under ``backend.name``."""
    if not backend.name:
        raise ParameterError("compute backend must have a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str | None = None) -> ComputeBackend:
    """Look up a registered backend by name (None: ``DEFAULT_BACKEND``);
    unknown names are typed errors."""
    backend = _REGISTRY.get(_default_name() if name is None else name)
    if backend is None:
        raise ParameterError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    return backend


def resolve_backend(
    backend: str | ComputeBackend | None = None,
) -> ComputeBackend:
    """Accept a backend name, an instance, or None (-> the default)."""
    if isinstance(backend, ComputeBackend):
        return backend
    return get_backend(backend)


register_backend(ComputeBackend())
register_backend(NativeBackend())
