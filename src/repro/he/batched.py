"""Batched tensor kernels for the real-crypto hot path.

The per-poly reference stack (``RnsPoly`` + the loops in ``repro.pir``)
dispatches one tiny numpy call per polynomial per modulus, so the
RowSel/ColTor/Expand pipeline is throttled by Python overhead rather
than arithmetic.  This module provides the stacked equivalents the
accelerator's sysNTTUs motivate (Section III-A / Fig. 5):

* :class:`RnsPolyVec` — a batch of polynomials as one ``(batch,
  rns_count, n)`` int64 tensor, with the same domain discipline as
  :class:`~repro.he.poly.RnsPoly`;
* :class:`BfvCiphertextVec` — a batch of BFV ciphertexts (two vecs,
  or two halves of one ``(2, batch, rns_count, n)`` tensor);
* :func:`batched_decompose` — gadget decomposition via an exact
  int64 *limb iCRT*: the Eq. 3 lift is accumulated directly in base-z
  limbs (the gadget digits), so no per-coefficient big-int arithmetic
  is needed;
* :func:`_chunked_einsum` — the lazy-reduction contraction behind the
  RowSel modular GEMM and the key-switch inner product: residues are
  < 2^28, so int64 holds hundreds of accumulated products before a
  ``% q`` is required; accumulation is chunked at the overflow-safe
  length (:func:`overflow_safe_chunk`).

Subs, the RGSW external product and the ExpandQuery→RowSel→ColTor
pipeline built from these live on
:class:`~repro.he.backend.ComputeBackend`.  Every kernel is
element-identical to its per-poly reference — modular arithmetic is
exact, so reassociating the reductions cannot change the canonical
residues.  The hypothesis suite in ``tests/he/test_batched.py`` asserts
this, and the servers keep the per-poly path as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DomainError, ParameterError
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.modred import modred
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.obs.profile import kernel_stage

_INT64_MAX = (1 << 63) - 1


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


def rns_forward(ctx: RingContext, residues: np.ndarray) -> np.ndarray:
    """Stacked forward NTT over every RNS row: (..., rns_count, n) -> same.

    Element-identical to calling ``ctx.ntts[i].forward`` row by row, but
    with lazy reduction through the butterflies: only the twiddle
    product is reduced per stage, sums stay unreduced (adding one ``q``
    of headroom per stage keeps subtraction results non-negative), and
    one final ``% q`` canonicalises.  The growth bound is
    ``(log2(n) + 1) * q < 2^32`` for the paper's ~28-bit moduli, far
    below both int64 and the ``value * twiddle < 2^63`` multiply
    constraint; moduli too large for that bound take the eager
    per-stage-reduced butterflies instead (checked in
    :func:`_rns_ntt_tables`) so the fast path can never silently wrap.
    """
    with kernel_stage("ntt_fwd", getattr(residues, "nbytes", 0)):
        return _rns_forward_impl(ctx, residues)


def _rns_forward_impl(ctx: RingContext, residues: np.ndarray) -> np.ndarray:
    tables = _rns_ntt_tables(ctx)
    q = tables["moduli3"]
    n = ctx.n
    a = np.ascontiguousarray(np.asarray(residues, dtype=np.int64) % ctx._moduli_col)
    lead = a.shape[:-2]
    rns = a.shape[-2]
    # Scratch for the stage's u/v halves: n/2 elements per polynomial at
    # every stage, so two buffers serve all log2(n) stages without
    # per-stage allocations.
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


def rns_inverse(ctx: RingContext, residues: np.ndarray) -> np.ndarray:
    """Stacked inverse NTT over every RNS row: (..., rns_count, n) -> same."""
    with kernel_stage("ntt_inv", getattr(residues, "nbytes", 0)):
        return _rns_inverse_impl(ctx, residues)


def _rns_inverse_impl(ctx: RingContext, residues: np.ndarray) -> np.ndarray:
    tables = _rns_ntt_tables(ctx)
    q = tables["moduli3"]
    n = ctx.n
    a = np.ascontiguousarray(np.asarray(residues, dtype=np.int64) % ctx._moduli_col)
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


@dataclass
class RnsPolyVec:
    """A batch of R_Q polynomials as one (batch, rns_count, n) tensor.

    Mirrors :class:`~repro.he.poly.RnsPoly`'s domain discipline: every
    element of the batch is in the same domain, and the operations below
    enforce the same coeff/NTT rules the scalar type does.
    """

    ctx: RingContext
    residues: np.ndarray
    domain: Domain

    def __post_init__(self):
        expected = (self.ctx.rns_count, self.ctx.n)
        if self.residues.ndim != 3 or self.residues.shape[1:] != expected:
            raise ParameterError(
                f"expected residue tensor of shape (batch, {expected[0]}, "
                f"{expected[1]}), got {self.residues.shape}"
            )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_polys(cls, polys: list[RnsPoly]) -> "RnsPolyVec":
        """Stack scalar polynomials (same ring, same domain) into a vec."""
        if not polys:
            raise ParameterError("cannot stack an empty polynomial list")
        ctx, domain = polys[0].ctx, polys[0].domain
        for p in polys[1:]:
            if p.ctx is not ctx and p.ctx.params != ctx.params:
                raise ParameterError("polynomials belong to different rings")
            if p.domain is not domain:
                raise DomainError(
                    f"domain mismatch: {domain.value} vs {p.domain.value}"
                )
        return cls(ctx, np.stack([p.residues for p in polys]), domain)

    @classmethod
    def from_small_coeffs(
        cls, ctx: RingContext, coeffs: np.ndarray, domain: Domain = Domain.COEFF
    ) -> "RnsPolyVec":
        """Batched CRT of int64 coefficient rows, shape (batch, n)."""
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != ctx.n:
            raise ParameterError(
                f"expected coefficients of shape (batch, {ctx.n}), got {arr.shape}"
            )
        vec = cls(ctx, arr[:, None, :] % ctx._moduli_col[None], Domain.COEFF)
        return vec.to_ntt() if domain is Domain.NTT else vec

    @classmethod
    def concat(cls, first: "RnsPolyVec", second: "RnsPolyVec") -> "RnsPolyVec":
        if first.domain is not second.domain:
            raise DomainError(
                f"domain mismatch: {first.domain.value} vs {second.domain.value}"
            )
        return cls(
            first.ctx,
            np.concatenate([first.residues, second.residues]),
            first.domain,
        )

    # -- views -----------------------------------------------------------
    @property
    def batch(self) -> int:
        return self.residues.shape[0]

    def poly(self, index: int) -> RnsPoly:
        """The index-th polynomial as a scalar RnsPoly (a view)."""
        return RnsPoly(self.ctx, self.residues[index], self.domain)

    def polys(self) -> list[RnsPoly]:
        return [self.poly(i) for i in range(self.batch)]

    def copy(self) -> "RnsPolyVec":
        return RnsPolyVec(self.ctx, self.residues.copy(), self.domain)

    # -- domain conversions ----------------------------------------------
    def to_ntt(self) -> "RnsPolyVec":
        if self.domain is Domain.NTT:
            return self
        return RnsPolyVec(
            self.ctx, rns_forward(self.ctx, self.residues), Domain.NTT
        )

    def to_coeff(self) -> "RnsPolyVec":
        if self.domain is Domain.COEFF:
            return self
        return RnsPolyVec(
            self.ctx, rns_inverse(self.ctx, self.residues), Domain.COEFF
        )

    # -- arithmetic ------------------------------------------------------
    def _check_same_domain(self, other: "RnsPolyVec") -> None:
        if self.ctx is not other.ctx and self.ctx.params != other.ctx.params:
            raise ParameterError("polynomial batches belong to different rings")
        if self.domain is not other.domain:
            raise DomainError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )
        if self.batch != other.batch:
            raise ParameterError(
                f"batch mismatch: {self.batch} vs {other.batch}"
            )

    # Residues are canonical, so a sum less q, a difference and a
    # negation all land in modred's [-q, q) input range.
    def __add__(self, other: "RnsPolyVec") -> "RnsPolyVec":
        self._check_same_domain(other)
        res = self.residues + other.residues
        res -= self.ctx._moduli_col
        return RnsPolyVec(self.ctx, modred(res, self.ctx._moduli_col), self.domain)

    def __sub__(self, other: "RnsPolyVec") -> "RnsPolyVec":
        self._check_same_domain(other)
        res = self.residues - other.residues
        return RnsPolyVec(self.ctx, modred(res, self.ctx._moduli_col), self.domain)

    def __neg__(self) -> "RnsPolyVec":
        return RnsPolyVec(
            self.ctx, modred(-self.residues, self.ctx._moduli_col), self.domain
        )

    def __mul__(self, other: "RnsPolyVec") -> "RnsPolyVec":
        """Element-wise product; both batches must be in NTT form."""
        self._check_same_domain(other)
        if self.domain is not Domain.NTT:
            raise DomainError("polynomial multiplication requires NTT domain")
        res = (self.residues * other.residues) % self.ctx._moduli_col
        return RnsPolyVec(self.ctx, res, self.domain)

    def mul_poly(self, plain: RnsPoly) -> "RnsPolyVec":
        """Multiply every batch element by one (plaintext) NTT polynomial."""
        if self.domain is not Domain.NTT or plain.domain is not Domain.NTT:
            raise DomainError("polynomial multiplication requires NTT domain")
        res = (self.residues * plain.residues[None]) % self.ctx._moduli_col
        return RnsPolyVec(self.ctx, res, self.domain)

    def scalar_rns_mul(self, consts: np.ndarray) -> "RnsPolyVec":
        """Multiply by a per-modulus constant vector, shape (rns_count,)."""
        res = (self.residues * consts[None, :, None]) % self.ctx._moduli_col
        return RnsPolyVec(self.ctx, res, self.domain)

    def monomial_mul(self, power: int) -> "RnsPolyVec":
        """Multiply every element by X^power (exact, no noise)."""
        power %= 2 * self.ctx.n
        if self.domain is Domain.NTT:
            res = (self.residues * self.ctx.monomial_ntt(power)[None]) \
                % self.ctx._moduli_col
            return RnsPolyVec(self.ctx, res, self.domain)
        n = self.ctx.n
        sign_flip = power >= n
        shift = power - n if sign_flip else power
        rolled = np.roll(self.residues, shift, axis=-1)
        rolled[..., :shift] = -rolled[..., :shift]
        if sign_flip:
            rolled = -rolled
        return RnsPolyVec(self.ctx, rolled % self.ctx._moduli_col, Domain.COEFF)

    def automorphism(self, r: int) -> "RnsPolyVec":
        """Apply X -> X^r (r odd) to every batch element at once."""
        if self.domain is not Domain.COEFF:
            raise DomainError("automorphism requires coefficient domain")
        dest, negate = self.ctx.automorphism_indices(r)
        out = np.zeros_like(self.residues)
        out[..., dest] = np.where(negate, -self.residues, self.residues)
        return RnsPolyVec(self.ctx, out % self.ctx._moduli_col, Domain.COEFF)


@dataclass
class BfvCiphertextVec:
    """A batch of BFV ciphertexts: stacked (a, b), both in NTT form."""

    a: RnsPolyVec
    b: RnsPolyVec
    #: The ``(2, batch, rns, n)`` tensor ``a`` and ``b`` are the halves
    #: of, when the batch was built from one (:meth:`from_stacked`).
    _stacked: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.a.domain is not Domain.NTT or self.b.domain is not Domain.NTT:
            raise ParameterError("BFV ciphertexts are stored in NTT form")
        if self.a.batch != self.b.batch:
            raise ParameterError(
                f"a/b batch mismatch: {self.a.batch} vs {self.b.batch}"
            )

    @classmethod
    def from_stacked(cls, ctx: RingContext, tensor: np.ndarray) -> "BfvCiphertextVec":
        """Wrap a ``(2, batch, rns, n)`` NTT-form tensor without copying."""
        return cls(
            RnsPolyVec(ctx, tensor[0], Domain.NTT),
            RnsPolyVec(ctx, tensor[1], Domain.NTT),
            tensor,
        )

    def stacked(self) -> np.ndarray:
        """Both halves as one ``(2, batch, rns, n)`` tensor (a copy only
        when the batch was assembled from separate halves)."""
        if self._stacked is not None:
            return self._stacked
        return np.stack([self.a.residues, self.b.residues])

    @classmethod
    def from_cts(cls, cts: list[BfvCiphertext]) -> "BfvCiphertextVec":
        return cls(
            RnsPolyVec.from_polys([ct.a for ct in cts]),
            RnsPolyVec.from_polys([ct.b for ct in cts]),
        )

    @classmethod
    def concat(
        cls, first: "BfvCiphertextVec", second: "BfvCiphertextVec"
    ) -> "BfvCiphertextVec":
        return cls(
            RnsPolyVec.concat(first.a, second.a),
            RnsPolyVec.concat(first.b, second.b),
        )

    @property
    def batch(self) -> int:
        return self.a.batch

    def ct(self, index: int) -> BfvCiphertext:
        return BfvCiphertext(self.a.poly(index), self.b.poly(index))

    def cts(self) -> list[BfvCiphertext]:
        return [self.ct(i) for i in range(self.batch)]

    def __add__(self, other: "BfvCiphertextVec") -> "BfvCiphertextVec":
        return BfvCiphertextVec(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "BfvCiphertextVec") -> "BfvCiphertextVec":
        return BfvCiphertextVec(self.a - other.a, self.b - other.b)

    def monomial_mul(self, power: int) -> "BfvCiphertextVec":
        return BfvCiphertextVec(
            self.a.monomial_mul(power), self.b.monomial_mul(power)
        )


# ---------------------------------------------------------------------------
# Gadget decomposition via exact int64 limb iCRT
# ---------------------------------------------------------------------------

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


def batched_decompose(gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
    """Gadget digits of a whole batch: (batch, gadget_len, n) int64.

    Element-identical to running :meth:`Gadget.decompose` per polynomial
    — same unsigned base-z digits of the [0, Q) lift — but computed with
    pure int64 tensor arithmetic instead of per-coefficient Python
    big-ints (the limb iCRT described in :func:`_limb_tables`).
    """
    if vec.domain is not Domain.COEFF:
        vec = vec.to_coeff()
    with kernel_stage("decompose", vec.residues.nbytes):
        return _batched_decompose_impl(gadget, vec)


def _batched_decompose_impl(gadget: Gadget, vec: RnsPolyVec) -> np.ndarray:
    tables = _limb_tables(gadget)
    if not tables["limb_ok"]:
        # Oversized base/moduli would wrap the limb accumulation; take
        # the exact object-int reference per polynomial instead.
        digits = np.empty(
            (vec.batch, gadget.length, vec.ctx.n), dtype=np.int64
        )
        for i, poly in enumerate(vec.polys()):
            for j, digit in enumerate(gadget.decompose(poly)):
                digits[i, j] = digit.residues[0]
        return digits
    blog = gadget.base_log2
    z = gadget.base
    moduli, qhat_inv = tables["moduli"], tables["qhat_inv"]
    # t_i = residue_i * (Q/q_i)^{-1} mod q_i (Eq. 3), still per-modulus.
    t = (vec.residues * qhat_inv[:, None]) % moduli[:, None]
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
