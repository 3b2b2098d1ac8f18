"""Compute backends: the one production kernel layer.

The kernel stack has two layers.  This module is the production one:
every stacked kernel lives on a :class:`ComputeBackend`, and
``get_backend(...)`` / ``resolve_backend(...)`` is the only route to one
— ``PirServer``, batchpir, kvpir, the hintpir/SimplePIR GEMM tier, the
mutate re-NTT, client encode/decode and key generation, the serving
registries and the cluster workers all resolve a backend (``native``
where its library can be built, else ``planned``) and call its methods.
The other layer is the per-polynomial stack (``he/poly`` + ``he/ntt`` +
``Gadget.decompose`` + ``subs.substitute`` /
``rgsw.external_product``, reached through
``PirServer.answer_reference``): the independent oracle the backends
are tested against, which imports nothing from here.

A backend implements the small primitive surface (forward/inverse NTT,
automorphism, gadget decomposition, the modular GEMMs and key-switch
inner products) and inherits the shared pipeline ops built on top of
them, so the whole ExpandQuery→RowSel→ColTor pipeline retargets by
swapping primitives.

The pipeline ops are tensor programs over a *dispatch window*: a
ciphertext batch is one ``(2, batch, rns, n)`` tensor whose batch axis
is query-major, Subs and the RGSW external product are both the one
``key_switch`` kernel (decompose → digit NTTs → inner product, its key
rows carrying a leading group axis: one group for the evaluation key a
whole window shares, one per query for RGSW bits), and ``expand_window``
/ ``rowsel_window`` / ``coltor_window`` run every query of a group
through each stage together — even/odd ColTor halves are residue-tensor
views, never re-stacked ciphertext lists.  ``external_product``,
``expand``, ``rowsel`` and ``coltor`` are the same ops behind
single-query signatures, kept for the frozen ``benchmarks/e2e``.

Three backends are registered:

* ``eager`` — plain stacked numpy (lazy-reduction butterflies,
  limb-iCRT decomposition, chunked int64 einsums): no precomputed state
  beyond twiddle tables, exact on every valid parameter set;
* ``planned`` — precomputed NTT *plans*, one per ring ``(n, moduli)``
  and shared by every :class:`~repro.he.poly.RingContext` of it: the
  twiddle/bit-reversal structure is folded once into transform matrices
  (built by pushing unit vectors through the existing butterflies, so
  output ordering is identical by construction), and transforms become
  float64 GEMMs with Barrett reduction replacing the per-stage ``%``
  (:mod:`repro.he.modred`).  Up to n = 512 the plan is one dense matrix
  per modulus; above that, up to ``PLAN_MAX_N`` = 4096 (the paper's ring
  degree), it is the four-step ``rows x cols`` factorisation — a common
  matrix down the columns, a diagonal twist, a common matrix along the
  rows.  Residues split into 14-bit halves so every accumulation
  provably stays below the float64-exact bound (asserted when the plan
  is built); dense-plan gadget digits (< z) ride one fused ``(batch*k,
  n) @ (n, rns*n)`` dgemm.  Transforms walk the batch axis in
  cache-sized blocks, and substitution applies X -> X^r in the NTT
  domain as a gather of evaluation slots.  A ring no plan is exact on
  (n > ``PLAN_MAX_N``, oversized moduli) runs the eager primitives —
  never silently wrong, at most slower, and counted: each fallback
  feeds a cliff counter of the installed metrics registry
  (``he_plan_none``, ``he_decompose_eager``, ``he_inner_eager``, and
  ``he_modular_gemm_bignum`` for the object-dtype GEMM; ``he_plan_build``
  counts the plans built);
* ``native`` — ``planned`` with the primitives the N = 2^12 profile
  names compiled: forward/inverse NTT as Harvey lazy butterflies over
  the ``NttContext`` twiddle tables themselves (slot order identical by
  construction), the broadcast-RNS digit/error/plaintext transform,
  limb-iCRT decomposition at any base up to 2^32, and the key-switch
  inner product — portable C99 in ``native_kernels.c``, built on first
  use by the system C compiler and loaded with ``ctypes``
  (:mod:`repro.he.native`).  One bound, ``4q < 2^32``, raised in
  :class:`~repro.he.native.NativeRing`'s constructor.  It is the default
  where the library builds and loads; where it does not
  (``he_native_unavailable``, once per process) ``planned`` is, and a
  ring or gadget outside the kernels' bounds runs the planned
  primitives (``he_native_none``).  Pipeline ops, the slot-gather
  automorphism, the RowSel contraction and the dense GEMM are inherited.

All backend arithmetic is exact modular arithmetic, so every backend is
byte-identical; ``tests/pir/test_backend_parity.py`` asserts this across
all four serving modes.  Kernel-stage labels carry the backend name
(``ntt_fwd@planned``) so profiles attribute time to the implementation
that spent it; :func:`repro.obs.report.measured_vs_modeled` aggregates
over the suffix.

Registering another backend::

    class MyBackend(EagerBackend):
        name = "mine"
        def ntt_forward(self, ctx, residues): ...

    register_backend(MyBackend())

after which ``--backend mine`` works everywhere a backend name travels,
including reconstruction inside spawned cluster workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.he import native
from repro.he.batched import BfvCiphertextVec, RnsPolyVec
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.modred import (
    FLOAT64_EXACT_MAX,
    barrett_fold,
    barrett_reduce,
    barrett_reduce_nonneg,
    barrett_store,
    biased_quotient,
    biased_reciprocal,
    modred,
    twist_mulmod,
)
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.he.rgsw import RgswCiphertext
from repro.he.subs import SubsKey
from repro.obs.metrics import count
from repro.obs.profile import kernel_stage

_INT64_MAX = (1 << 63) - 1

#: Largest ring degree the planned backend builds GEMM NTT plans for —
#: the paper's N = 2^12.  The exactness bounds would admit larger rings;
#: none is exercised, so above this the eager butterflies run.
PLAN_MAX_N = 4096

#: Largest ring degree evaluated as one dense n x n GEMM per modulus
#: (2n^2 float64 per direction: 4 MiB at 512).  Above it a plan factors
#: n = rows x cols and the transform costs O(n * sqrt(n)) instead.
_DENSE_MAX_N = 512


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
    moduli_col: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """``einsum(script)`` mod q, its contraction axis walked in safe chunks.

    The contraction axis is axis 2 of ``lhs`` and axis 1 of ``rhs`` (both
    carry a leading group/query axis).  The first chunk lands straight
    in the result (``out`` when given), so a contraction one chunk
    covers — every call at the shipped parameters — pays no zero
    accumulator, no extra add pass and no second allocation.
    """
    acc = None
    for start in range(0, max(lhs.shape[2], 1), chunk):
        stop = start + chunk
        part = np.einsum(
            script, lhs[:, :, start:stop], rhs[:, start:stop],
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


class ComputeBackend:
    """Kernel-primitive surface plus the pipeline ops built on it.

    Subclasses provide the primitives (NTTs, automorphism,
    decomposition, GEMMs); the pipeline ops (``substitute_stacked`` …
    ``coltor_window``) are implemented here once in terms of those
    primitives, so a backend that swaps a primitive retargets the whole
    ExpandQuery→RowSel→ColTor pipeline.  Every transform routes through
    ``self`` so the backend's plan (and its profiler label) is always in
    effect.
    """

    name: str = ""

    def _label(self, stage: str) -> str:
        return f"{stage}@{self.name}"

    # -- primitives (subclass responsibility) ----------------------------
    def ntt_forward(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        """Stacked forward NTT over every RNS row: (..., rns, n) -> same.

        An RNS axis of length 1 broadcasts: one integer coefficient row
        (plaintext, error or digit polynomial) is reduced into, and
        transformed under, every modulus.
        """
        raise NotImplementedError

    def ntt_inverse(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        """Stacked inverse NTT over every RNS row: (..., rns, n) -> same."""
        raise NotImplementedError

    def digits_forward(self, ctx: RingContext, digits: np.ndarray) -> np.ndarray:
        """NTT a digit tensor (batch, k, n) into every RNS row.

        The output feeds ``inner`` and nothing else, so a backend may
        return *partially* reduced residues (e.g. ``[0, 2q)``) as long
        as its own ``inner`` accounts for the wider operand range — the
        inner product's final reduction makes the pipeline result
        canonical (and byte-identical) either way.
        """
        raise NotImplementedError

    def automorphism(
        self, ctx: RingContext, cts: np.ndarray, r: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """X -> X^r on the halves of an NTT-form ``(2, batch, rns, n)`` tensor.

        Each half comes back in the domain Subs wants it in: ``a`` in
        coefficients (it is decomposed next), ``b`` in NTT form (it is
        added back onto the key-switch output).
        """
        raise NotImplementedError

    def decompose(self, gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
        """Gadget digits of a whole batch: (batch, gadget_len, n) int64."""
        raise NotImplementedError

    def _coeff_residues(self, vec: RnsPolyVec) -> np.ndarray:
        if vec.domain is Domain.COEFF:
            return vec.residues
        return self.ntt_inverse(vec.ctx, vec.residues)

    def inner(
        self, digits: np.ndarray, rows: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Key-switch inner product ``out[g, b] = sum_k digits[g, b, k] * rows[g, k]``.

        ``digits`` is ``(groups, batch, k, rns, n)``, ``rows`` ``(groups,
        k, rns, n)``: each group contracts against its own key rows.
        """
        raise NotImplementedError

    def rowsel_gemm(
        self, db: np.ndarray, query: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """RowSel GEMM with a query axis.

        ``(queries or 1, cols, rows, rns, n) x (queries, rows, rns, n)
        -> (queries, cols, rns, n)``: a leading ``db`` axis of one is a
        plane every query shares.
        """
        raise NotImplementedError

    def modular_gemm(self, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
        """Dense ``(a @ b) % q`` (the SimplePIR/hintpir server tier)."""
        raise NotImplementedError

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
            out_b = out[1]
            out_b += b_aut
            out_b -= moduli_col
            modred(out_b, moduli_col)
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
        ``[q * 2^levels, (q + 1) * 2^levels)``.  Every level is one
        Subs over all live ciphertexts of all queries (they share the
        evaluation key), one add/subtract pair and one monomial
        multiply, written straight into the next level's tensor.
        """
        ctx = gadget.ctx
        n, moduli_col = ctx.n, ctx._moduli_col
        if (1 << levels) > n:
            raise ParameterError(
                f"cannot expand {levels} levels in a degree-{n} ring"
            )
        queries, poly = packed.shape[1], packed.shape[2:]
        with kernel_stage(self._label("expand"), packed.nbytes):
            vec = packed
            for a in range(levels):
                r = n // (1 << a) + 1
                if r not in evks:
                    raise ParameterError(
                        f"missing evk for substitution power r={r}"
                    )
                step = 1 << a
                shape = (2, queries, step) + poly
                swapped = self.substitute_stacked(vec, evks[r], gadget)
                swapped = swapped.reshape(shape)
                vec = vec.reshape(shape)
                grown = np.empty((2, queries, 2 * step) + poly, dtype=np.int64)
                even, odd = grown[:, :, :step], grown[:, :, step:]
                np.add(vec, swapped, out=even)
                even -= moduli_col
                modred(even, moduli_col)
                np.subtract(vec, swapped, out=odd)
                modred(odd, moduli_col)
                odd *= ctx.monomial_ntt(-step)
                odd %= moduli_col
                vec = grown.reshape((2, -1) + poly)
            return vec

    def rowsel_window(
        self, expanded: np.ndarray, planes: np.ndarray, moduli_col: np.ndarray
    ) -> np.ndarray:
        """RowSel of Q expanded queries against their plane tensors.

        ``expanded`` is ``(2, Q * d0, rns, n)`` and ``planes`` ``(Q or 1,
        cols, d0, rns, n)`` (one plane per query, or one they share);
        returns ``(2, Q * cols, rns, n)``.  One contraction per
        ciphertext half.
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
        out = np.empty((2, queries, cols) + poly, dtype=np.int64)
        with kernel_stage(self._label("rowsel"), 2 * planes.nbytes):
            for half in (0, 1):
                self.rowsel_gemm(
                    planes, expanded[half].reshape((queries, d0) + poly),
                    moduli_col, out=out[half],
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

        ``bits[k][q]`` is the ``(2, 2ℓ, rns, n)`` row tensor of query
        ``q``'s k-th RGSW selection bit; a round stacks its Q of them
        into the key-switch's group axis and drops the stack when it is
        done.  Each round is one grouped cmux — bit ⊡ (ones - zeros) +
        zeros — over the residue-tensor views of the surviving even/odd
        entries; nothing is re-stacked between rounds.
        """
        ctx = gadget.ctx
        moduli_col = ctx._moduli_col
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
                rows = np.stack(round_bits, axis=1)
                zeros, ones = current[:, :, 0::2], current[:, :, 1::2]
                current = self.external_product_stacked(
                    rows, modred(ones - zeros, moduli_col), gadget
                )
                current += zeros
                current -= moduli_col
                modred(current, moduli_col)
            return current[:, :, 0]

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


class EagerBackend(ComputeBackend):
    """The stacked-numpy kernels: butterflies, limb iCRT, int64 einsums.

    Plain int64 numpy with no precomputed plan, exact on every valid
    parameter set — which is what the planned backend falls back to and
    is measured against.  A backend like any other, not a second oracle:
    the independent reference is the per-poly stack.
    """

    name = "eager"

    def ntt_forward(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        """Stacked Cooley-Tukey butterflies with lazy reduction.

        Element-identical to calling ``ctx.ntts[i].forward`` row by row:
        only the twiddle product is reduced per stage, sums stay
        unreduced (adding one ``q`` of headroom per stage keeps
        subtraction results non-negative), and one final ``% q``
        canonicalises.  The growth bound is ``(log2(n) + 1) * q < 2^32``
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
        """Stacked Gentleman-Sande butterflies, ``n^-1`` folded in last."""
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
        batch, k, n = digits.shape
        tiled = np.broadcast_to(
            digits[:, :, None, :], (batch, k, ctx.rns_count, n)
        )
        return self.ntt_forward(ctx, tiled)

    def automorphism(
        self, ctx: RingContext, cts: np.ndarray, r: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient-domain scatter of ``RnsPoly.automorphism``, stacked."""
        coeff = self.ntt_inverse(ctx, cts)
        dest, negate = ctx.automorphism_indices(r)
        out = np.empty_like(coeff)  # dest is a permutation: every slot is written
        out[..., dest] = np.where(negate, -coeff, coeff)
        out %= ctx._moduli_col
        return out[0], self.ntt_forward(ctx, out[1])

    def decompose(self, gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
        """Gadget digits via an exact int64 limb iCRT.

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
        chunk = overflow_safe_chunk(int(moduli_col.max()))
        return _chunked_einsum(
            "gbkmn,gkmn->gbmn", digits, rows, chunk, moduli_col, out
        )

    def rowsel_gemm(
        self, db: np.ndarray, query: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Lazy-reduction int64 contraction over the row axis.

        Residues are < 2^28, so int64 holds hundreds of accumulated
        products before a ``% q`` is required; accumulation is chunked at
        the overflow-safe length.
        """
        if (
            db.ndim != 5 or query.ndim != 4 or db.shape[2:] != query.shape[1:]
            or db.shape[0] not in (1, query.shape[0])
        ):
            raise ParameterError(
                f"GEMM shape mismatch: db {db.shape} vs query {query.shape}"
            )
        chunk = overflow_safe_chunk(int(moduli_col.max()))
        with kernel_stage(self._label("gemm"), db.nbytes + query.nbytes):
            return _chunked_einsum(
                "qcrmn,qrmn->qcmn", db, query, chunk, moduli_col, out
            )

    def modular_gemm(self, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
        return modular_gemm(a, b, q)


@dataclass(frozen=True)
class _NttFactors:
    """One direction of a :class:`_GemmNttPlan`: its GEMMs in running order.

    ``gemms`` holds one ``(mats, left)`` pair for a dense plan, two for
    a four-step one.  ``mats`` is ``(rns, 2, k, k)`` float64 — per
    modulus a ``(hi, lo)`` pair for the 14-bit halves of the operand,
    the ``hi`` one pre-multiplied by ``2^14 mod q`` — and multiplies the
    ``(rows, cols)`` view of a polynomial from the left (down the
    columns, ``k = rows``) or the right (along the rows, ``k = cols``).
    Between two GEMMs every element is multiplied by ``twist`` (``(rns,
    rows, cols)`` int64; ``twist_over_q`` is its
    :func:`~repro.he.modred.biased_quotient` table).
    """

    gemms: tuple[tuple[np.ndarray, bool], ...]
    twist: np.ndarray | None = None
    twist_over_q: np.ndarray | None = None


class _GemmNttPlan:
    """GEMM evaluation plan for one ring, cached per ``(n, moduli)``.

    The negacyclic NTT is linear over Z_q, so pushing unit vectors
    through the existing butterflies folds the twiddle tables, the
    bit-reversed output order and ``n^-1`` into matrices that are
    identical-by-construction to the eager transforms.  The plan's shape
    follows from ``n`` alone:

    * ``n <= 512`` — *dense* (``rows = 1``, ``cols = n``): the whole
      transform is one ``n x n`` matrix per modulus.
    * ``512 < n <= PLAN_MAX_N`` — *four-step* (``rows x cols = n``,
      ``rows = 2^floor(log2(n)/2)``).  View a polynomial as a ``(rows,
      cols)`` matrix.  The first ``log2(rows)`` butterfly stages only
      pair elements ``cols`` apart under twiddles that depend on the
      row pair alone: one common ``rows x rows`` matrix down every
      column.  The remaining stages stay inside one row, and row ``i``'s
      twiddles are row 0's after scaling input ``j`` by ``rho_i^j``
      (``rho_i`` a power of ``psi``): a diagonal twist, then one common
      ``cols x cols`` matrix along every row.  The inverse is the same
      three factors in the opposite order, with ``n^-1`` kept in its row
      matrix.  ``2 * n * (rows + cols)`` multiply-adds replace the dense
      form's ``2 * n^2``.

    Residues are too wide for a direct float64 product, so every GEMM
    runs on 14-bit halves ``x = hi*2^14 + lo`` against a matrix whose
    ``hi`` block pre-folds the factor (``(2^14 * M) % q``); the
    constructor proves each one's accumulator stays below 2^53 and
    raises :class:`~repro.errors.ParameterError` otherwise (the backend
    then keeps such a ring on the eager primitives).  Gadget digits of a
    dense plan share one coefficient row across the RNS axis and ride a
    single unsplit dgemm against ``fwd_unit`` (all moduli hstacked to
    ``(n, rns*n)``), exact while ``digit_coeff * max_digit < 2^53``.

    Accumulators are reduced with the Barrett forms of
    :mod:`repro.he.modred` — no per-stage ``%`` anywhere in the planned
    transforms.
    """

    SPLIT_LOG2 = 14

    def __init__(self, ctx: RingContext):
        n = ctx.n
        if n > PLAN_MAX_N:
            raise ParameterError(
                f"ring degree {n} above PLAN_MAX_N={PLAN_MAX_N}"
            )
        s = self.SPLIT_LOG2
        rows = 1 if n <= _DENSE_MAX_N else 1 << ((n.bit_length() - 1) // 2)
        cols = n // rows
        self.n, self.rows, self.cols = n, rows, cols
        self.moduli = [int(ntt.q) for ntt in ctx.ntts]
        #: (rns, 1) int64, for canonicalising whole (.., rns, n) blocks.
        self.moduli_col = np.asarray(self.moduli, dtype=np.int64)[:, None]
        self.recips = [biased_reciprocal(q) for q in self.moduli]
        qmax = max(self.moduli)
        if 2 * qmax > 1 << 31:
            raise ParameterError(
                f"modulus {qmax} above 2^30: [0, 2q) residues are split "
                f"through int32"
            )
        # One (contraction length, largest input) pair per GEMM: first
        # GEMMs see canonical residues, second ones the [0, 2q) output
        # of the twist.
        gemms = [(cols, qmax - 1)]
        if rows > 1:
            gemms += [(rows, qmax - 1), (cols, 2 * qmax - 1), (rows, 2 * qmax - 1)]
        for length, in_max in gemms:
            worst = length * ((in_max >> s) + (1 << s) - 1) * (qmax - 1)
            if worst >= FLOAT64_EXACT_MAX:
                raise ParameterError(
                    f"split GEMM of length {length} over moduli up to {qmax} "
                    f"accumulates {worst} >= 2^53: not float64-exact"
                )

        # Unit vectors e_j (row 0, column j) and e_{i*cols} (row i,
        # column 0).  forward(e_j) restricted to row i is column j of
        # that row's late-stage transform, whose slot 0 is rho_i^j times
        # row 0's; forward(e_{i*cols}) read at slot 0 of every row is
        # column i of the early-stage matrix.  The inverse mirrors this,
        # every entry carrying one n^-1 that `* n` takes back out.
        e_row = np.zeros((cols, n), dtype=np.int64)
        e_row[np.arange(cols), np.arange(cols)] = 1
        e_col = np.zeros((rows, n), dtype=np.int64)
        e_col[np.arange(rows), np.arange(rows) * cols] = 1
        row_f, row_i, col_f, col_i, twist_f, twist_i = ([] for _ in range(6))
        for ntt, q in zip(ctx.ntts, self.moduli):
            from_row = ntt.forward(e_row)
            row_f.append(from_row[:, :cols])
            row_i.append(ntt.inverse(e_row)[:, :cols])
            if rows > 1:
                from_col = (ntt.inverse(e_col) * n) % q
                col_f.append(ntt.forward(e_col)[:, ::cols].T)
                col_i.append(from_col[:, ::cols].T)
                twist_f.append((from_row[:, ::cols].T * from_col[0, :cols]) % q)
                twist_i.append((from_col[:, :cols] * from_row[:, 0]) % q)
        if rows == 1:
            self.fwd = _NttFactors(((self._split_mats(row_f), False),))
            self.inv = _NttFactors(((self._split_mats(row_i), False),))
        else:
            self.fwd = self._factors(
                (col_f, True), (row_f, False), np.stack(twist_f)
            )
            self.inv = self._factors(
                (row_i, False), (col_i, True), np.stack(twist_i)
            )
        #: Dense plans only: every modulus' forward matrix side by side.
        self.fwd_unit = (
            np.hstack(row_f).astype(np.float64) if rows == 1 else None
        )
        #: Multiply by the digit tensor's max value for the digit-GEMM bound.
        self.digit_coeff = n * (qmax - 1)

    def _split_mats(self, mats: list) -> np.ndarray:
        s = self.SPLIT_LOG2
        return np.stack([
            np.stack([(mat << s) % q, mat]) for mat, q in zip(mats, self.moduli)
        ]).astype(np.float64)

    def _factors(self, first, second, twist: np.ndarray) -> _NttFactors:
        return _NttFactors(
            gemms=tuple((self._split_mats(m), left) for m, left in (first, second)),
            twist=twist,
            twist_over_q=np.stack([
                biased_quotient(t, q) for t, q in zip(twist, self.moduli)
            ]),
        )

    def block_polys(self, shared: bool) -> int:
        """Polynomials per transform block under the ``BLOCK_BYTES`` budget.

        Scratch per polynomial and modulus, in float64 words of n:
        operand halves (2) and partial products (2), accumulator, float
        scratch and int64 quotient (1 each), int32 staging (1/2) — plus,
        for a ``shared`` four-step digit transform, second-GEMM halves
        (2) that leave the broadcast first split alive across the moduli.
        """
        return max(1, BLOCK_BYTES // ((19 if shared else 15) * 4 * self.n))


#: Plans by ring: ``(n, moduli) -> plan``, or None for a ring no plan
#: is exact on.  Keyed on the ring, not the context instance, so every
#: ``RingContext`` of one parameter set shares one plan.
_PLANS: dict[tuple[int, tuple[int, ...]], _GemmNttPlan | None] = {}


class PlannedBackend(EagerBackend):
    """Plan-driven backend: NTTs as float64 GEMMs with Barrett reduction.

    Inherits the eager primitives for the stages where int64 einsum
    contraction already wins (the RowSel GEMM) and replaces the
    transform-heavy stages with the per-ring plans of
    :class:`_GemmNttPlan`; gadget decomposition keeps the eager limb
    iCRT but canonicalises the lift on two packed int64 halves instead
    of limb-wise comparisons.  A ring no plan is exact on runs the eager
    primitives.
    """

    name = "planned"

    def _plan(self, ctx: RingContext) -> _GemmNttPlan | None:
        key = (ctx.n, tuple(ctx.params.moduli))
        if key not in _PLANS:
            count("he_plan_build")
            try:
                _PLANS[key] = _GemmNttPlan(ctx)
            except ParameterError:
                # Outside every plan's proven-exact range: eager primitives.
                _PLANS[key] = None
        plan = _PLANS[key]
        if plan is None:
            count("he_plan_none")
        return plan

    def _transform(
        self, plan: _GemmNttPlan, way: _NttFactors, residues: np.ndarray,
        partial: bool = False,
    ) -> np.ndarray:
        """Apply one direction of ``plan`` to ``(..., rns or 1, n)`` residues.

        An RNS axis of length 1 broadcasts (gadget digits: one
        coefficient row for every modulus).  The flattened batch axis is
        walked in blocks of ``BLOCK_BYTES`` of scratch, one modulus at
        a time, every elementwise pass in place.  ``partial`` leaves the
        output in ``[0, 2q)``.
        """
        x = np.asarray(residues, dtype=np.int64)
        n, rns = plan.n, len(plan.moduli)
        lead = x.shape[:-2]
        x = x.reshape(-1, x.shape[-2], n)
        batch = x.shape[0]
        out = np.empty((batch, rns, n), dtype=np.int64)
        shared = x.shape[1] == 1 and plan.rows > 1
        block = plan.block_polys(shared)
        size = min(block, batch)
        poly = (size, plan.rows, plan.cols)
        halves = np.empty((size, 2) + poly[1:])
        scratch = (
            halves, np.empty_like(halves) if shared else halves,
            np.empty_like(halves), np.empty(poly), np.empty(poly),
            np.empty(poly, dtype=np.int64), np.empty(poly, dtype=np.int32),
        )
        moduli = plan.moduli_col[:, 0].astype(np.uint64)
        for start in range(0, batch, block):
            blk = x[start:start + block]
            # Every split bound assumes canonical residues; read as
            # unsigned, a negative one fails the same comparison.
            if (blk.view(np.uint64).max(axis=(0, 2)) >= moduli).any():
                blk = blk % plan.moduli_col
            b = blk.shape[0]
            views = tuple(buf[:b] for buf in scratch)
            for m in range(rns):
                if blk.shape[1] > 1:
                    self._split(plan, blk[:, m], views[0], views[-1])
                elif m == 0:  # one coefficient row: its halves serve every modulus
                    self._split(plan, blk[:, 0], views[0], views[-1])
                self._modulus(
                    plan, way, m, out[start:start + b, m], views, partial
                )
        return out.reshape(lead + (rns, n))

    @staticmethod
    def _split(
        plan: _GemmNttPlan, src: np.ndarray, halves: np.ndarray,
        narrow: np.ndarray,
    ) -> None:
        """14-bit halves of ``src`` (b, n) into ``halves`` (b, 2, rows, cols).

        ``src`` is int64 in ``[0, 2q)``, which the plan holds below 2^31:
        staging it through the int32 ``narrow`` buys numpy's vectorised
        32-bit shift/mask loops (its int64 ones are scalar).
        """
        s = plan.SPLIT_LOG2
        np.copyto(narrow, src.reshape(narrow.shape), casting="unsafe")
        np.right_shift(narrow, s, out=halves[:, 0], casting="unsafe")
        np.bitwise_and(narrow, (1 << s) - 1, out=halves[:, 1], casting="unsafe")

    @staticmethod
    def _gemm(
        mats: np.ndarray, left: bool, halves: np.ndarray,
        prod: np.ndarray, acc: np.ndarray,
    ) -> None:
        """``acc = M_hi . hi + M_lo . lo``, ``M`` on the left or the right."""
        b, _, rows, cols = halves.shape
        if rows == 1:
            # Dense: hi | lo of one polynomial are adjacent, so the pair
            # is one (b, 2n) @ (2n, n) product and needs no addition.
            np.matmul(
                halves.reshape(b, 2 * cols), mats.reshape(2 * cols, cols),
                out=acc.reshape(b, cols),
            )
            return
        if left:
            np.matmul(mats, halves, out=prod)
        else:
            np.matmul(halves, mats, out=prod)
        np.add(prod[:, 0], prod[:, 1], out=acc)

    def _modulus(
        self, plan: _GemmNttPlan, way: _NttFactors, m: int,
        out: np.ndarray, scratch: tuple, partial: bool,
    ) -> None:
        """One modulus of one block: split halves in, residues into ``out``."""
        halves, halves_b, prod, acc, tmp, quot, narrow = scratch
        q, recip = plan.moduli[m], plan.recips[m]
        out = out.reshape(acc.shape)
        (mats, left), *second = way.gemms
        self._gemm(mats[m], left, halves, prod, acc)
        for mats, left in second:
            barrett_fold(acc, q, recip, tmp)
            # `out` doubles as the twisted intermediate: the split
            # consumes it before the final store overwrites it.
            twist_mulmod(
                acc, way.twist[m], way.twist_over_q[m], q, out, quot, tmp
            )
            self._split(plan, out, halves_b, narrow)
            self._gemm(mats[m], left, halves_b, prod, acc)
        barrett_store(acc, q, recip, out, quot, tmp, partial)

    def ntt_forward(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        plan = self._plan(ctx)
        if plan is None:
            return super().ntt_forward(ctx, residues)
        with kernel_stage(self._label("ntt_fwd"), getattr(residues, "nbytes", 0)):
            return self._transform(plan, plan.fwd, residues)

    def ntt_inverse(self, ctx: RingContext, residues: np.ndarray) -> np.ndarray:
        plan = self._plan(ctx)
        if plan is None:
            return super().ntt_inverse(ctx, residues)
        with kernel_stage(self._label("ntt_inv"), getattr(residues, "nbytes", 0)):
            return self._transform(plan, plan.inv, residues)

    def digits_forward(self, ctx: RingContext, digits: np.ndarray) -> np.ndarray:
        plan = self._plan(ctx)
        if plan is None:
            return super().digits_forward(ctx, digits)
        with kernel_stage(self._label("ntt_fwd"), digits.nbytes):
            if (
                plan.fwd_unit is not None
                and digits.size
                and digits.min() >= 0
                and plan.digit_coeff * int(digits.max()) < FLOAT64_EXACT_MAX
            ):
                batch, k, n = digits.shape
                rns = ctx.rns_count
                acc = digits.reshape(batch * k, n).astype(np.float64) \
                    @ plan.fwd_unit
                acc = acc.reshape(batch, k, rns, n)
                out = np.empty((batch, k, rns, n), dtype=np.int64)
                for m in range(rns):
                    out[..., m, :] = barrett_reduce_nonneg(
                        acc[..., m, :], plan.moduli[m], partial=True
                    )
                return out
            # Partial [0, 2q) residues either way: this backend's
            # ``inner`` sizes its chunks on the actual operand range,
            # so canonicalising here would be a wasted pass.
            return self._transform(
                plan, plan.fwd, digits[:, :, None, :], partial=True
            )

    def automorphism(
        self, ctx: RingContext, cts: np.ndarray, r: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """NTT-domain X -> X^r: a pure gather of evaluation slots.

        The ``b`` half needs no transform at all and the ``a`` half only
        the inverse that decomposition wants anyway.  The slot table is
        the ring's own, so this holds whatever runs the inverse.
        """
        # take, not cts[..., slots]: fancy indexing leaves the indexed
        # axis outermost in memory and costs 8x the time at N = 2^12.
        gathered = np.take(cts, ctx.automorphism_slots(r), axis=-1)
        return self.ntt_inverse(ctx, gathered[0]), gathered[1]

    def decompose(self, gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
        """Limb-iCRT decomposition with half-packed canonicalisation.

        Same Eq. 3 lift as the eager implementation, but after carry
        propagation the base-z limbs are packed into two exact int64
        halves ``S = high * z^lo + low``, so the ``rns_count - 1``
        conditional subtractions of Q become a handful of full-width
        integer ops instead of limb-wise lexicographic compare/borrow
        chains.  Digits come back out via shifts and masks —
        byte-identical to the eager path by construction.
        """
        tables = _limb_tables(gadget)
        nlimbs = tables["nlimbs"]
        blog = gadget.base_log2
        lo_limbs = nlimbs // 2
        hi_limbs = nlimbs - lo_limbs
        # Each packed half must stay an exact int64: the low half is
        # fully carried (< z^lo), the high half's top limb holds up to
        # rns_count unpropagated carries (3 extra bits covers rns <= 7).
        # Exotic bases fall back to the eager limb-wise path.
        if (
            not tables["limb_ok"]
            or lo_limbs * blog > 62
            or hi_limbs * blog + 3 > 62
        ):
            count("he_decompose_eager")
            return super().decompose(gadget, vec)
        residues = self._coeff_residues(vec)
        with kernel_stage(self._label("decompose"), residues.nbytes):
            z = gadget.base
            moduli, qhat_inv = tables["moduli"], tables["qhat_inv"]
            t = (residues * qhat_inv[:, None]) % moduli[:, None]
            # Limb-major accumulation: acc[li] is a contiguous
            # (batch, n) slab for the carry sweep below.
            acc = np.einsum("bmn,ml->lbn", t, tables["qhat_limbs"])
            for li in range(nlimbs - 1):
                carry = acc[li] >> blog
                acc[li] -= carry << blog
                acc[li + 1] += carry
            low = acc[0].copy()
            for li in range(1, lo_limbs):
                low += acc[li] << (blog * li)
            high = acc[lo_limbs].copy()
            for li in range(1, hi_limbs):
                high += acc[lo_limbs + li] << (blog * li)
            big_q = gadget.ctx.basis.modulus_product
            z_lo = 1 << (blog * lo_limbs)
            q_low, q_high = big_q % z_lo, big_q >> (blog * lo_limbs)
            for _ in range(gadget.ctx.rns_count - 1):
                ge = (high > q_high) | ((high == q_high) & (low >= q_low))
                if not ge.any():
                    break
                gi = ge.astype(np.int64)
                low -= q_low * gi
                high -= q_high * gi
                borrow = low < 0
                low += z_lo * borrow
                high -= borrow
            digits = np.empty(
                (len(residues), gadget.length, gadget.ctx.n), dtype=np.int64
            )
            mask = z - 1
            for j in range(gadget.length):
                src, shift = (
                    (low, blog * j) if j < lo_limbs
                    else (high, blog * (j - lo_limbs))
                )
                digits[:, j] = (src >> shift) & mask
            return digits

    def inner(
        self, digits: np.ndarray, rows: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Key-switch inner product sized on the *actual* operand range.

        This backend's ``digits_forward`` hands over partially reduced
        ``[0, 2q)`` digits, so the overflow-safe chunk is computed from
        the operand maxima instead of assuming canonical inputs.  The
        final reduction canonicalises, so results stay byte-identical.
        """
        per_term = int(digits.max(initial=0)) * int(rows.max(initial=0))
        chunk = (_INT64_MAX - (int(moduli_col.max()) - 1)) // max(per_term, 1)
        if chunk < 1:
            # Out-of-range operands (never this backend's own digits):
            # canonicalise and take the eager path.
            count("he_inner_eager")
            return super().inner(digits % moduli_col, rows, moduli_col, out)
        return _chunked_einsum(
            "gbkmn,gkmn->gbmn", digits, rows, chunk, moduli_col, out
        )

    def modular_gemm(self, a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
        """Chunked float64 dgemm with Barrett tails; exact, BLAS-backed.

        int64 matmul in numpy is a scalar loop; float64 hits BLAS.  The
        inner axis is chunked so every partial accumulation stays below
        2^53 (float64-exact), each chunk Barrett-reduced before the
        next.  Operand ranges that cannot satisfy the bound take the
        eager int64 path — identical results either way.
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


class NativeBackend(PlannedBackend):
    """The planned backend with its hottest primitives compiled.

    Forward/inverse NTT (broadcast RNS axis included), gadget
    decomposition and the key-switch inner product run the C99 kernels
    of :mod:`repro.he.native` — lazy butterflies over the same twiddle
    tables, so every slot is where the eager transforms put it.  Every
    pipeline op, the slot-gather automorphism, the RowSel contraction
    and the dense GEMM are inherited.  Nothing here builds a
    :class:`_GemmNttPlan` for a ring the kernels cover.

    What the kernels do not cover runs the planned primitives, exactly
    and counted: no library on this machine (``he_native_unavailable``,
    once per process, by :func:`repro.he.native.load_library`), or a
    ring or gadget outside their bounds (``he_native_none`` per call —
    ``4q < 2^32`` is the one that matters, raised as a
    :class:`~repro.errors.ParameterError` by
    :class:`~repro.he.native.NativeRing`).
    """

    name = "native"

    def __init__(self):
        #: ``(n, moduli) -> NativeRing``, or None for a ring out of bounds.
        self._rings: dict[tuple[int, tuple[int, ...]], native.NativeRing | None] = {}

    def _ring(self, ctx: RingContext) -> native.NativeRing | None:
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
        if ring is None:
            count("he_native_none")
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

    def digits_forward(self, ctx: RingContext, digits: np.ndarray) -> np.ndarray:
        ring = self._ring(ctx)
        if ring is None:
            return super().digits_forward(ctx, digits)
        with kernel_stage(self._label("ntt_fwd"), digits.nbytes):
            return ring.transform(digits[:, :, None, :], partial=True)

    def decompose(self, gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
        ring = self._ring(gadget.ctx)
        if ring is None:
            return super().decompose(gadget, vec)
        residues = self._coeff_residues(vec)
        with kernel_stage(self._label("decompose"), residues.nbytes):
            digits = ring.decompose(gadget, residues)
        if digits is None:  # more than four moduli, or a base above 2^32
            count("he_native_none")
            return super().decompose(
                gadget, RnsPolyVec(gadget.ctx, residues, Domain.COEFF)
            )
        return digits

    def inner(
        self, digits: np.ndarray, rows: np.ndarray, moduli_col: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The compiled contraction for ``[0, 2q)`` digits against
        canonical rows; anything wider is the planned backend's to size."""
        lib = native.load_library()
        if lib is not None:
            try:
                consts = native.modulus_consts(
                    tuple(int(q) for q in np.ravel(moduli_col))
                )
            except ParameterError:
                count("he_native_none")
            else:
                result = native.inner(lib, consts, digits, rows, out)
                if result is not None:
                    return result
        return super().inner(digits, rows, moduli_col, out)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ComputeBackend] = {}


def _default_name() -> str:
    """``native`` where its library builds and loads, else ``planned``.

    A selection from what the platform can do, made on first use (the
    first call may run the C compiler) and fixed for the process.
    """
    if native.load_library() is not None:
        return NativeBackend.name
    return PlannedBackend.name


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


register_backend(EagerBackend())
register_backend(PlannedBackend())
register_backend(NativeBackend())
