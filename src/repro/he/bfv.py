"""BFV encryption (Section II-A/II-D): keygen, encrypt/decrypt, linear ops.

A ciphertext is a pair (a, b) in R_Q^2 with phase b + a*s = Δ*m + e for
plaintext m in R_P and Δ = floor(Q/P).  Both polynomials are kept in NTT
form so repeated multiplications need no conversions (Section II-B).

Encryption is two compute-backend ops over a whole stack of rows
(:meth:`BfvContext.encrypt_zeros`): one draw of its ``a`` halves from
seeds and its errors from a private seed
(:meth:`~repro.he.backend.ComputeBackend.sample`), then the encryption
pass.  Decryption rounds ``phase * P / Q`` exactly in RNS, with no big
integer on the common path (:meth:`BfvContext.round_phase`): the CRT lift splits into per-modulus
int64 quotients and remainders, the remainders' fractions are summed in
float64, and Q being odd means that sum is never on a rounding boundary;
any coefficient within a 2^-40 guard band of one (the float sum is off by
under 2^-48) is rounded again with big integers, so every result is the
big-int formula's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NoiseOverflowError, ParameterError
from repro.he.modred import modred
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.he.sampling import Sampler

#: How close to a rounding boundary :meth:`BfvContext.round_phase`'s
#: float64 sum may come before the coefficient is rounded with big
#: integers instead; the sum itself is off by less than 2^-48.
ROUNDING_GUARD = 2.0 ** -40


def default_backend():
    """The default compute backend, imported late: its module imports this one."""
    from repro.he.backend import get_backend

    return get_backend()


@dataclass
class SecretKey:
    """Ternary RLWE secret, cached in both domains."""

    ntt: RnsPoly
    coeffs: np.ndarray  # signed ternary, shape (N,)

    @staticmethod
    def generate(ctx: RingContext, sampler: Sampler) -> "SecretKey":
        s = sampler.ternary_coeffs()
        ntt = default_backend().ntt_forward(ctx, s[None, :])
        return SecretKey(ntt=RnsPoly(ctx, ntt, Domain.NTT), coeffs=s)


@dataclass
class BfvCiphertext:
    """BFV ciphertext (a, b), both polynomials in NTT form."""

    a: RnsPoly
    b: RnsPoly

    def __post_init__(self):
        if self.a.domain is not Domain.NTT or self.b.domain is not Domain.NTT:
            raise ParameterError("BFV ciphertexts are stored in NTT form")

    # -- linear homomorphic operations (Section II-D) -------------------
    def __add__(self, other: "BfvCiphertext") -> "BfvCiphertext":
        return BfvCiphertext(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "BfvCiphertext") -> "BfvCiphertext":
        return BfvCiphertext(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "BfvCiphertext":
        return BfvCiphertext(-self.a, -self.b)

    def plain_mul(self, plain_ntt: RnsPoly) -> "BfvCiphertext":
        """p * ct for an unencrypted polynomial p in NTT form."""
        return BfvCiphertext(self.a * plain_ntt, self.b * plain_ntt)

    def monomial_mul(self, power: int) -> "BfvCiphertext":
        """X^power * ct: exact, noise-free (used by ExpandQuery)."""
        return BfvCiphertext(self.a.monomial_mul(power), self.b.monomial_mul(power))

    def scalar_mul(self, value: int) -> "BfvCiphertext":
        return BfvCiphertext(self.a.scalar_mul(value), self.b.scalar_mul(value))

    def copy(self) -> "BfvCiphertext":
        return BfvCiphertext(self.a.copy(), self.b.copy())


class BfvContext:
    """Encryption/decryption operations bound to one ring + plaintext space."""

    def __init__(self, ctx: RingContext, sampler: Sampler):
        self.ctx = ctx
        self.params = ctx.params
        self.sampler = sampler
        self._delta_rns = ctx.basis.constant_rns(self.params.delta)

    # -- plaintext helpers ----------------------------------------------
    def encode_plain(self, coeffs, domain: Domain = Domain.NTT) -> RnsPoly:
        """Plaintext polynomial (coeffs mod P) embedded into R_Q."""
        arr = np.asarray(coeffs, dtype=np.int64) % self.params.plain_modulus
        return self.ctx.from_small_coeffs(arr, domain=domain)

    def add_plain(self, b_rows: np.ndarray, coeffs: np.ndarray) -> None:
        """In place ``b += Δ·m``: plaintext rows ``(count, n)`` onto the
        ``(count, rns, n)`` b-halves of zero encryptions."""
        moduli_col = self.ctx._moduli_col
        arr = np.asarray(coeffs, dtype=np.int64) % self.params.plain_modulus
        scaled = default_backend().ntt_forward(self.ctx, arr[:, None, :])
        scaled *= self._delta_rns[:, None]
        scaled %= moduli_col
        b_rows += scaled
        b_rows -= moduli_col
        modred(b_rows, moduli_col)

    def encrypt(self, coeffs, key: SecretKey) -> BfvCiphertext:
        """Fresh encryption of a plaintext coefficient vector (mod P)."""
        rows = self.encrypt_zeros(key, 1)
        self.add_plain(rows[1], np.asarray(coeffs, dtype=np.int64)[None])
        return self.row_ct(rows, 0)

    def encrypt_zero(self, key: SecretKey) -> BfvCiphertext:
        """RLWE encryption of zero (building block for evk/RGSW rows)."""
        return self.row_ct(self.encrypt_zeros(key, 1), 0)

    def row_ct(self, rows: np.ndarray, index: int) -> BfvCiphertext:
        """Row ``index`` of an :meth:`encrypt_zeros` tensor as a ciphertext (views)."""
        return BfvCiphertext(
            RnsPoly(self.ctx, rows[0, index], Domain.NTT),
            RnsPoly(self.ctx, rows[1, index], Domain.NTT),
        )

    def encrypt_zeros(
        self, key: SecretKey, count: int, shift: np.ndarray | None = None,
        seeds: list[bytes] | None = None,
    ) -> np.ndarray:
        """``count`` RLWE encryptions of zero as one ``(2, count, rns, n)`` tensor.

        ``rows[0]`` holds the uniform ``a`` polynomials and ``rows[1]``
        ``b = e - a*s``, all in NTT form; ``shift``, ``(count, 2, rns)``
        per-row constants onto ``a`` and ``b``, turns zero rows into RGSW
        rows (:func:`repro.he.rgsw.gadget_shift`).  The ``a`` rows are
        seeded: ``seeds`` (one fresh sampler seed when omitted) split the
        rows evenly, and seed ``k``'s rows are exactly
        :func:`~repro.he.sampling.expand_a` of it, shifted rows included —
        their ``a`` constant is subtracted before the encryption pass adds
        it back, so ``b`` absorbs ``m·s`` and an upload needs only the
        seed and ``b``.  The sampler is asked for the seeds first and the
        private error seed second; every ``a`` row and every error row is
        one :meth:`~repro.he.backend.ComputeBackend.sample` call, and the
        rest one :meth:`~repro.he.backend.ComputeBackend.encrypt_rows`
        call that writes the tensor in place.
        """
        ctx, backend = self.ctx, default_backend()
        if seeds is None:
            seeds = [self.sampler.seed()]
        per_seed, rest = divmod(count, len(seeds))
        if rest:
            raise ParameterError(f"{count} rows do not split over {len(seeds)} seeds")
        rows = np.empty((2, count, ctx.rns_count, ctx.n), dtype=np.int64)
        _, errors = backend.sample(
            ctx, seeds, per_seed, self.sampler.seed(), count, out=rows[0]
        )
        if shift is not None:
            shifted = np.flatnonzero(shift[:, 0].any(axis=1))
            a = rows[0, shifted]
            a -= shift[shifted, 0, :, None]
            modred(a, ctx._moduli_col)
            rows[0, shifted] = a
        return backend.encrypt_rows(ctx, key.ntt.residues, rows, errors, shift)

    # -- decryption -------------------------------------------------------
    def phase(self, ct: BfvCiphertext, key: SecretKey) -> np.ndarray:
        """b + a*s lifted to integers in [0, Q)."""
        phase = ct.a.residues * key.ntt.residues
        phase += ct.b.residues
        phase %= self.ctx._moduli_col
        return self.ctx.basis.from_rns(
            default_backend().ntt_inverse(self.ctx, phase)
        )

    def decrypt(self, ct: BfvCiphertext, key: SecretKey) -> np.ndarray:
        """Rounded decode: m = round(phase * P / Q) mod P, int64 array."""
        return self.decrypt_many([ct], key)[0]

    def decrypt_many(
        self, cts: list[BfvCiphertext], key: SecretKey
    ) -> np.ndarray:
        """:meth:`decrypt` of every ciphertext at once, ``(len(cts), n)``:
        one phase tensor, one inverse NTT, one rounding."""
        ctx = self.ctx
        if not cts:
            return np.empty((0, ctx.n), dtype=np.int64)
        phase = np.empty((len(cts), ctx.rns_count, ctx.n), dtype=np.int64)
        for out, ct in zip(phase, cts):
            np.multiply(ct.a.residues, key.ntt.residues, out=out)
            out += ct.b.residues
        phase %= ctx._moduli_col
        return self.round_phase(default_backend().ntt_inverse(ctx, phase))

    def round_phase(self, residues: np.ndarray) -> np.ndarray:
        """``⌊(x·P + (Q-1)/2) / Q⌋ mod P`` of coefficient-domain phases
        ``x``, given as ``(count, rns, n)`` residues; ``(count, n)`` int64.

        Exact, and in RNS with no big integer on the common path.  With
        ``t_i = x_i·(Q/q_i)^-1 mod q_i`` the CRT lift is ``x = Σ t_i·Q/q_i
        - k·Q`` for an integer ``k``, so ``x·P/Q = Σ t_i·P/q_i - k·P``.
        Splitting ``t_i·P = w_i·q_i + r_i`` in int64 (safe while ``max
        q·P < 2^62``) gives ``m = (Σ w_i + ⌊Σ r_i/q_i + ½⌋) mod P``.  That
        is the formula above: ``Q`` is odd, so ``x·P/Q + ½ = (2xP + Q) /
        2Q`` has an odd numerator over an even denominator and is never
        an integer, hence adding ``½`` and adding ``(Q-1)/2Q`` floor alike.

        Guard band: ``Σ r_i/q_i + ½`` is summed in float64, off from the
        true value by less than 2^-48 (at most four terms below one, each
        rounded once, and three additions below 4.5).  A coefficient
        whose sum lies within 2^-40 of an integer — of a rounding
        boundary — is recomputed by :meth:`_round_exact`, the big-int
        formula; everywhere else the float floor is the true one.  So
        the result is bit-identical to the big-int formula in every case.
        Where ``max q·P ≥ 2^62`` the whole call takes the big-int path.
        """
        params, basis = self.params, self.ctx.basis
        p, moduli_col = params.plain_modulus, self.ctx._moduli_col
        count, rns, n = residues.shape
        if max(params.moduli) * p >= 1 << 62:
            lifted = self._round_exact(residues.transpose(1, 0, 2).reshape(rns, -1))
            return lifted.reshape(count, n)
        t = residues * basis._q_hat_inv_arr[:, None]
        t %= moduli_col
        t *= p
        w, r = np.divmod(t, moduli_col)
        total = (r / moduli_col).sum(axis=1)
        total += 0.5
        plain = w.sum(axis=1)
        plain += np.floor(total).astype(np.int64)
        plain %= p
        near = np.abs(total - np.rint(total)) < ROUNDING_GUARD
        if near.any():
            rows, cols = np.nonzero(near)
            plain[rows, cols] = self._round_exact(residues[rows, :, cols].T)
        return plain

    def _round_exact(self, residues: np.ndarray) -> np.ndarray:
        """The big-int rounding of ``(rns, k)`` residue columns: ``(k,)``."""
        q, p = self.params.q, self.params.plain_modulus
        return np.array(
            [(int(c) * p + q // 2) // q % p for c in self.ctx.basis.from_rns(residues)],
            dtype=np.int64,
        )

    def noise(self, ct: BfvCiphertext, key: SecretKey) -> int:
        """Max-norm of the error term e = phase - Δ*m (m from rounding)."""
        q, p = self.params.q, self.params.plain_modulus
        delta = self.params.delta
        worst = 0
        for c in self.phase(ct, key):
            c = int(c)
            m = ((c * p + q // 2) // q) % p
            e = (c - delta * m) % q
            if e > q // 2:
                e -= q
            worst = max(worst, abs(e))
        return worst

    def noise_budget_bits(self, ct: BfvCiphertext, key: SecretKey) -> float:
        """log2 of remaining headroom: Δ/2 over current noise.

        The measured noise is the distance to the *nearest* Δ-multiple and
        therefore caps at Δ/2; a ciphertext whose true error wrapped past
        that shows up as a budget near zero.  Anything under half a bit of
        headroom is treated as exhausted.
        """
        import math

        noise = self.noise(ct, key)
        # math.log2 handles arbitrarily large Python ints exactly.
        budget = math.log2(self.params.delta // 2) - math.log2(max(noise, 1))
        if budget < 0.5:
            raise NoiseOverflowError(
                f"noise {noise} leaves only {budget:.2f} bits of headroom "
                f"against Δ/2={self.params.delta // 2}"
            )
        return budget
