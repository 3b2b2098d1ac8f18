"""BFV encryption (Section II-A/II-D): keygen, encrypt/decrypt, linear ops.

A ciphertext is a pair (a, b) in R_Q^2 with phase b + a*s = Δ*m + e for
plaintext m in R_P and Δ = floor(Q/P).  Both polynomials are kept in NTT
form so repeated multiplications need no conversions (Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NoiseOverflowError, ParameterError
from repro.he.modred import modred
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.he.sampling import Sampler


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

    def encrypt_zeros(self, key: SecretKey, count: int) -> np.ndarray:
        """``count`` RLWE encryptions of zero as one ``(2, count, rns, n)`` tensor.

        ``rows[0]`` holds the uniform ``a`` polynomials and ``rows[1]``
        ``b = e - a*s``, all in NTT form.  The sampler is asked for every
        uniform row first and every error row second, and the error
        transforms go through the compute backend.  Draws and arithmetic
        both walk the rows in blocks whose temporaries (bounded draws,
        transformed errors, the ``a*s`` products) fit the backend's
        scratch budget, so a whole query pass costs no more transient
        memory than one RGSW.
        """
        ctx, backend = self.ctx, default_backend()
        moduli_col = ctx._moduli_col
        rows = np.empty((2, count, ctx.rns_count, ctx.n), dtype=np.int64)
        block = max(1, BLOCK_BYTES // (3 * 8 * ctx.rns_count * ctx.n))
        for lo in range(0, count, block):
            self.sampler.uniform_rows(rows[0, lo:lo + block])
        for lo in range(0, count, block):
            a, b = rows[0, lo:lo + block], rows[1, lo:lo + block]
            errors = self.sampler.error_rows(len(a))
            b[...] = backend.ntt_forward(ctx, errors[:, None, :])
            prod = a * key.ntt.residues
            prod %= moduli_col
            b -= prod
            modred(b, moduli_col)
        return rows

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
        q, p = self.params.q, self.params.plain_modulus
        phase = self.phase(ct, key)
        decoded = [int((int(c) * p + q // 2) // q) % p for c in phase]
        return np.array(decoded, dtype=np.int64)

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
