"""Randomness sources for key, error, and ciphertext sampling.

Wraps a ``numpy.random.Generator`` so every run is reproducible from a seed.
The error distribution is a rounded Gaussian with the paper's sigma = 3.2,
the standard choice for 128-bit-secure RLWE parameter sets [10].
"""

from __future__ import annotations

import numpy as np

from repro.he.poly import Domain, RingContext, RnsPoly


class Sampler:
    """Deterministic sampler over one ring context."""

    def __init__(self, ctx: RingContext, seed: int | None = None):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)

    def uniform_rows(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (count, rns, n) with uniform elements of R_Q.

        One bounded draw per modulus covers every row, so a stack of
        ``count`` polynomials costs ``rns`` generator calls, not
        ``count * rns``.
        """
        shape = (out.shape[0], self.ctx.n)
        for i, q in enumerate(self.ctx.params.moduli):
            out[:, i] = self.rng.integers(0, q, size=shape, dtype=np.int64)
        return out

    def uniform_poly(self, domain: Domain = Domain.NTT) -> RnsPoly:
        """Uniformly random element of R_Q (sampled directly per residue)."""
        res = np.empty((1, self.ctx.rns_count, self.ctx.n), dtype=np.int64)
        # A fresh uniform sample is uniform in either representation, so the
        # domain tag is free to set; no transform is needed.
        return RnsPoly(self.ctx, self.uniform_rows(res)[0], domain)

    def error_rows(self, count: int) -> np.ndarray:
        """``count`` small signed error vectors, sigma = params.error_std."""
        e = self.rng.normal(
            0.0, self.ctx.params.error_std, size=(count, self.ctx.n)
        )
        return np.rint(e, out=e).astype(np.int64)

    def error_coeffs(self) -> np.ndarray:
        """Small signed error vector e with sigma = params.error_std."""
        return self.error_rows(1)[0]

    def error_poly(self, domain: Domain = Domain.NTT) -> RnsPoly:
        return self.ctx.from_small_coeffs(self.error_coeffs(), domain=domain)

    def ternary_coeffs(self) -> np.ndarray:
        """Uniform ternary vector in {-1, 0, 1} (secret key distribution)."""
        return self.rng.integers(-1, 2, size=self.ctx.n, dtype=np.int64)
