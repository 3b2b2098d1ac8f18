"""BFV encryption (Section II-A/II-D): keygen, encrypt/decrypt, linear ops.

A ciphertext is a pair (a, b) in R_Q^2 with phase b + a*s = Δ*m + e for
plaintext m in R_P and Δ = floor(Q/P).  Both polynomials are kept in NTT
form so repeated multiplications need no conversions (Section II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NoiseOverflowError, ParameterError
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.he.sampling import Sampler


@dataclass
class SecretKey:
    """Ternary RLWE secret, cached in both domains."""

    ntt: RnsPoly
    coeffs: np.ndarray  # signed ternary, shape (N,)

    @staticmethod
    def generate(ctx: RingContext, sampler: Sampler) -> "SecretKey":
        s = sampler.ternary_coeffs()
        return SecretKey(ntt=ctx.from_small_coeffs(s, domain=Domain.NTT), coeffs=s)


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

    def encrypt(self, coeffs, key: SecretKey) -> BfvCiphertext:
        """Fresh encryption of a plaintext coefficient vector (mod P)."""
        arr = np.asarray(coeffs, dtype=np.int64) % self.params.plain_modulus
        a = self.sampler.uniform_poly(Domain.NTT)
        e = self.sampler.error_poly(Domain.NTT)
        delta_m = self.ctx.from_small_coeffs(arr, domain=Domain.NTT).scalar_rns_mul(
            self._delta_rns
        )
        b = -(a * key.ntt) + e + delta_m
        return BfvCiphertext(a, b)

    def encrypt_zero(self, key: SecretKey) -> BfvCiphertext:
        """RLWE encryption of zero (building block for evk/RGSW rows)."""
        a = self.sampler.uniform_poly(Domain.NTT)
        e = self.sampler.error_poly(Domain.NTT)
        b = -(a * key.ntt) + e
        return BfvCiphertext(a, b)

    def encrypt_zeros(self, key: SecretKey, count: int) -> list[BfvCiphertext]:
        """``count`` RLWE encryptions of zero with one stacked error NTT.

        Draws ``a`` then ``e`` per row exactly as ``count`` calls of
        :meth:`encrypt_zero` would, so a seeded sampler yields the same
        ciphertexts byte for byte; only the error polynomials' forward
        transforms are gathered into a single compute-backend call (the
        gadget rows of an RGSW ciphertext or evaluation key otherwise
        spend most of their time in per-modulus reference NTTs).
        """
        from repro.he.backend import get_backend  # it imports this module

        rows = [
            (self.sampler.uniform_poly(Domain.NTT), self.sampler.error_coeffs())
            for _ in range(count)
        ]
        errors = get_backend().ntt_forward(
            self.ctx, np.stack([e for _, e in rows])[:, None, :]
        )
        return [
            BfvCiphertext(a, -(a * key.ntt) + RnsPoly(self.ctx, e, Domain.NTT))
            for (a, _), e in zip(rows, errors)
        ]

    # -- decryption -------------------------------------------------------
    def phase(self, ct: BfvCiphertext, key: SecretKey) -> np.ndarray:
        """b + a*s lifted to integers in [0, Q)."""
        return (ct.b + ct.a * key.ntt).to_coeff().lift_coeffs()

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
