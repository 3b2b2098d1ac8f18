"""Randomness sources for key, error, and ciphertext sampling.

Wraps a ``numpy.random.Generator`` so every run is reproducible from a seed.
The error distribution is a rounded Gaussian with the paper's sigma = 3.2,
the standard choice for 128-bit-secure RLWE parameter sets [10].

The uniform ``a`` half of every uploaded RLWE row is not drawn from the
client's stream directly: the client draws a :data:`SEED_BYTES` seed and
:func:`expand_a` turns it into the rows, so an upload carries the seed
instead of the rows and the server expands the same bytes.  Like
:func:`repro.pir.simplepir.lwe_public_matrix`, the expansion is a plain
numpy generator, not a cryptographic PRG; neither are the streams the
secrets come from.  A deployment would expand the seed with SHAKE-128 or
AES-CTR.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he.poly import Domain, RingContext, RnsPoly

#: Bytes of the seed an upload's ``a`` rows are expanded from.
SEED_BYTES = 32


def expand_a(
    seed: bytes, rows: int, ring: RingContext, out: np.ndarray | None = None
) -> np.ndarray:
    """The ``(rows, rns, n)`` uniform NTT-form ``a`` polynomials of ``seed``.

    One generator seeded with the seed's eight little-endian 32-bit
    words; one bounded uint32 draw per modulus, in modulus order, covers
    every row (every modulus is below 2^32).  Client and server call
    this and nothing else, so the draw order is the wire format.
    Written into ``out`` when given.
    """
    if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
        raise ParameterError(
            f"an upload seed is {SEED_BYTES} bytes, got "
            f"{len(seed) if isinstance(seed, bytes) else type(seed).__name__}"
        )
    if out is None:
        out = np.empty((rows, ring.rns_count, ring.n), dtype=np.int64)
    rng = np.random.default_rng(np.frombuffer(seed, dtype="<u4"))
    for i, q in enumerate(ring.params.moduli):
        out[:, i] = rng.integers(0, q, size=(rows, ring.n), dtype=np.uint32)
    return out


class Sampler:
    """Deterministic sampler over one ring context."""

    def __init__(self, ctx: RingContext, seed: int | None = None):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)

    def seed(self) -> bytes:
        """A fresh :data:`SEED_BYTES` seed for :func:`expand_a`."""
        return self.rng.bytes(SEED_BYTES)

    def uniform_poly(self, domain: Domain = Domain.NTT) -> RnsPoly:
        """Uniformly random element of R_Q: one row expanded from a fresh seed."""
        # A fresh uniform sample is uniform in either representation, so the
        # domain tag is free to set; no transform is needed.
        return RnsPoly(self.ctx, expand_a(self.seed(), 1, self.ctx)[0], domain)

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
