"""Randomness sources for key, error, and ciphertext sampling.

Two kinds of stream.  The client's own :class:`Sampler` wraps a
``numpy.random.Generator``, so every run is reproducible from a seed; it
draws the ternary secrets and 32-byte seeds, and nothing else.  Every
polynomial an encryption needs comes from those seeds through one
counter-based generator, defined here and run by
:meth:`repro.he.backend.ComputeBackend.sample` (numpy on ``eager``, one
C entry point fanned over the cores on ``native``, bit-equal):

* **Streams.**  A seed is four little-endian 64-bit words ``k0..k3``.
  Each polynomial has a 64-bit tag — ``row << 8 | modulus`` for row
  ``row``'s residues under modulus index ``modulus`` of an ``a`` half,
  ``row << 8 | 0xFF`` for error row ``row`` — and its own key ``h``:
  ``h = tag``, then ``h = mix(h ^ k_i)`` for ``i = 0..3``, where ``mix``
  is the SplitMix64 finalizer.  Word ``j = 0, 1, ...`` of the stream is
  ``mix(h + (j + 1)·γ)`` with ``γ = 0x9E3779B97F4A7C15``, so any
  polynomial, and any range of them, is computed from the seed and its
  own index alone: every split of a call is byte-identical.
* **Uniform residues** (the ``a`` halves).  Word ``j`` gives two 32-bit
  draws, its low half then its high half.  A draw ``x`` is accepted
  when the low 32 bits of ``x·q`` are at least ``2^32 mod q`` and then
  yields ``(x·q) >> 32`` (Lemire's rejection); the polynomial's residues
  are the first ``n`` accepted draws.  Every value of ``[0, q)`` is hit
  by exactly ``⌊2^32 / q⌋`` accepted draws, so the residues are exactly
  uniform for any ``q < 2^32``.
* **Errors** (the rounded Gaussian of the paper's ``σ = 3.2``, the
  standard choice for 128-bit-secure RLWE parameter sets [10]).  Word
  ``i < n`` is coefficient ``i``'s magnitude draw ``u``: ``|e| =
  #{k : u ≥ C_k}`` over the cumulative table :func:`error_cdt`, ``C_k =
  round(2^64 · P(|e| ≤ k))`` for every ``k`` whose tail ``P(|e| > k)``
  is at least 2^-64.  Bit ``i mod 64`` of word ``n + ⌊i / 64⌋`` is its
  sign.  Each magnitude's probability is then exact to 2^-64, and the
  tail past the table (below 2^-64) folds into its last entry.  Errors
  are drawn from a seed the client's sampler draws and never sends.

The generator and this draw order are the wire format: an upload
carries only the seed its ``a`` rows came from, and the server expands
the same bytes.  Like :func:`repro.pir.simplepir.lwe_public_matrix`, it
is not a cryptographic PRG, and neither are the streams the secrets come
from; a deployment would expand the seed with SHAKE-128 or AES-CTR.
"""

from __future__ import annotations

import functools
from decimal import Decimal, getcontext, localcontext

import numpy as np

from repro.errors import ParameterError
from repro.he.poly import Domain, RingContext, RnsPoly

#: Bytes of the seed an upload's ``a`` rows are expanded from.
SEED_BYTES = 32

#: The counter stride ``γ`` and the finalizer's two multipliers (SplitMix64).
GAMMA = 0x9E3779B97F4A7C15
MIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
#: The low byte of an error row's tag; ``a`` polynomials put their modulus
#: index there, so a ring may have at most this many moduli.
ERROR_TAG = 0xFF

#: π to 100 digits, for the error table's ``erf``.
_PI = (
    "3.1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)


def seed_words(seeds) -> np.ndarray:
    """The ``(len(seeds), 4)`` uint64 key words of a list of seeds, or a
    typed refusal for anything but :data:`SEED_BYTES`-byte ``bytes``."""
    for seed in seeds:
        if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
            raise ParameterError(
                f"an upload seed is {SEED_BYTES} bytes, got "
                f"{len(seed) if isinstance(seed, bytes) else type(seed).__name__}"
            )
    words = np.frombuffer(b"".join(seeds), dtype="<u8").astype(np.uint64)
    return words.reshape(len(seeds), 4)


def mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array, elementwise (wrapping)."""
    m1, m2 = (np.uint64(m) for m in MIX_MULTIPLIERS)
    z = z ^ (z >> np.uint64(30))
    z *= m1
    z ^= z >> np.uint64(27)
    z *= m2
    z ^= z >> np.uint64(31)
    return z


def stream_keys(words: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """``(seeds, tags)`` stream keys: each seed's four words folded into
    each tag, one finalizer per word."""
    keys = np.broadcast_to(tags.astype(np.uint64), (len(words), len(tags)))
    for i in range(4):
        keys = mix(keys ^ words[:, i, None])
    return keys


def stream_words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words ``[start, start + count)`` of each key's stream: ``(len(keys),
    count)`` uint64."""
    counter = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    counter *= np.uint64(GAMMA)
    return mix(keys[:, None] + counter)


def _erf(x: Decimal) -> Decimal:
    """``erf(x)`` by its Taylor series, to the context's precision."""
    total = term = x
    x2, n = x * x, 0
    eps = Decimal(10) ** -(getcontext().prec + 5)
    while abs(term) > eps:
        n += 1
        term *= -x2 / n
        total += term / (2 * n + 1)
    return total * 2 / Decimal(_PI).sqrt()


@functools.cache
def error_cdt(std: float) -> np.ndarray:
    """The magnitude table of the rounded Gaussian of ``std``, uint64.

    Entry ``k`` is ``round(2^64 · P(|e| ≤ k))`` with ``P(|e| ≤ k) =
    erf((k + ½) / (std·√2))``, computed at 80 digits; the table stops at
    the first ``k`` whose tail ``P(|e| > k)`` is below 2^-64, so its
    length is the largest magnitude drawn (29 at ``std = 3.2``).
    """
    table = []
    with localcontext() as context:
        context.prec = 80
        scale, floor = Decimal(2) ** 64, Decimal(2) ** -64
        width = Decimal(repr(float(std))) * Decimal(2).sqrt()
        while True:
            inside = _erf((len(table) + Decimal("0.5")) / width)
            if 1 - inside < floor:
                break
            table.append(int((inside * scale).to_integral_value()))
    table = np.array(table, dtype=np.uint64)
    table.flags.writeable = False
    return table


def _backend():
    """The default compute backend, imported late: it imports this module."""
    from repro.he.backend import get_backend

    return get_backend()


def expand_a(
    seed: bytes, rows: int, ring: RingContext, out: np.ndarray | None = None
) -> np.ndarray:
    """The ``(rows, rns, n)`` uniform NTT-form ``a`` polynomials of one
    seed, written into ``out`` when given: one
    :meth:`~repro.he.backend.ComputeBackend.sample` call."""
    return _backend().sample(ring, [seed], rows, out=out)[0]


class Sampler:
    """Deterministic sampler over one ring context."""

    def __init__(self, ctx: RingContext, seed: int | None = None):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)

    def seed(self) -> bytes:
        """A fresh :data:`SEED_BYTES` seed for the counter-based draws."""
        return self.rng.bytes(SEED_BYTES)

    def uniform_poly(self, domain: Domain = Domain.NTT) -> RnsPoly:
        """Uniformly random element of R_Q: one row expanded from a fresh seed."""
        # A fresh uniform sample is uniform in either representation, so the
        # domain tag is free to set; no transform is needed.
        return RnsPoly(self.ctx, expand_a(self.seed(), 1, self.ctx)[0], domain)

    def error_poly(self, domain: Domain = Domain.NTT) -> RnsPoly:
        """One error polynomial, sigma = params.error_std, from a fresh
        private seed."""
        _, errors = _backend().sample(self.ctx, [], 0, self.seed(), 1)
        return self.ctx.from_small_coeffs(errors[0], domain=domain)

    def ternary_coeffs(self) -> np.ndarray:
        """Uniform ternary vector in {-1, 0, 1} (secret key distribution)."""
        return self.rng.integers(-1, 2, size=self.ctx.n, dtype=np.int64)
