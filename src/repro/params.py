"""PIR parameter sets (Table I of the paper) and derived quantities.

``PirParams`` carries both the cryptographic parameters (ring degree N,
RNS moduli for Q, plaintext modulus P, gadget base z and length ℓ) and the
database geometry (D = D0 * 2^d records of one plaintext polynomial each).
All size formulas used by the performance models (ciphertext = 2 * |RNS| * N
residues, RGSW = 2ℓ ciphertext halves, evk = ℓ key rows) live here so that
the functional code and the cost models cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ParameterError
from repro.he import modmath

#: Residue width used for storage accounting; the paper's moduli are 28-bit.
RESIDUE_BITS = 28

#: Standard deviation of the discrete-Gaussian-like error distribution.
ERROR_STD = 3.2


@dataclass(frozen=True)
class PirParams:
    """Complete parameter set for one PIR instance."""

    n: int
    moduli: tuple[int, ...]
    plain_modulus: int
    gadget_base_log2: int
    gadget_len: int
    d0: int
    num_dims: int  # d in the paper: number of subsequent (size-2) dimensions
    error_std: float = ERROR_STD

    def __post_init__(self):
        if not modmath.is_power_of_two(self.n):
            raise ParameterError(f"N={self.n} must be a power of two")
        if not modmath.is_power_of_two(self.d0):
            raise ParameterError(f"D0={self.d0} must be a power of two")
        if self.d0 > self.n:
            raise ParameterError(f"D0={self.d0} cannot exceed N={self.n}")
        if self.num_dims < 0:
            raise ParameterError("number of dimensions d must be >= 0")
        if self.plain_modulus < 2:
            raise ParameterError("plaintext modulus must be >= 2")
        for q in self.moduli:
            if (q - 1) % (2 * self.n) != 0:
                raise ParameterError(f"modulus {q} not NTT-friendly for N={self.n}")
        if self.gadget_digit_max() ** self.gadget_len < self.q:
            raise ParameterError(
                f"gadget base 2^{self.gadget_base_log2} with length "
                f"{self.gadget_len} cannot cover Q (~2^{self.log2_q:.1f})"
            )
        if self.q <= self.plain_modulus:
            raise ParameterError("Q must exceed the plaintext modulus P")

    # ------------------------------------------------------------------
    # Derived cryptographic quantities
    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        """The composite ciphertext modulus Q = prod(q_i)."""
        product = 1
        for q in self.moduli:
            product *= q
        return product

    @property
    def log2_q(self) -> float:
        return math.log2(self.q)

    @property
    def rns_count(self) -> int:
        return len(self.moduli)

    @property
    def delta(self) -> int:
        """BFV scaling factor Δ = floor(Q / P)."""
        return self.q // self.plain_modulus

    @property
    def gadget_base(self) -> int:
        return 1 << self.gadget_base_log2

    def gadget_digit_max(self) -> int:
        return self.gadget_base

    @property
    def plain_is_power_of_two(self) -> bool:
        return modmath.is_power_of_two(self.plain_modulus)

    @property
    def payload_bits_per_coeff(self) -> int:
        """Usable plaintext bits per coefficient after query-expansion scaling.

        With odd P the client pre-scales the query by ``D0^{-1} mod P`` and
        keeps the full ``floor(log2 P)`` bits.  With power-of-two P (the
        Table I setting) the 2^log2(D0) expansion factor is not invertible,
        so the payload is restricted to ``log2(P) - log2(D0)`` bits and the
        client divides the decoded value by D0 instead.
        """
        if self.plain_is_power_of_two:
            bits = modmath.ilog2(self.plain_modulus) - modmath.ilog2(self.d0)
        else:
            bits = int(math.floor(math.log2(self.plain_modulus)))
        if bits < 1:
            raise ParameterError(
                f"P={self.plain_modulus} leaves no payload bits with D0={self.d0}"
            )
        return bits

    # ------------------------------------------------------------------
    # Database geometry
    # ------------------------------------------------------------------
    @property
    def num_db_polys(self) -> int:
        """D: number of record polynomials in the database."""
        return self.d0 * (1 << self.num_dims)

    @property
    def poly_payload_bytes(self) -> int:
        """Record bytes one plaintext polynomial can carry."""
        return self.n * self.payload_bits_per_coeff // 8

    @property
    def db_raw_bytes(self) -> int:
        """Raw database size assuming each poly carries a full record."""
        return self.num_db_polys * self.plain_poly_bytes

    # ------------------------------------------------------------------
    # Object sizes used throughout the performance models
    # ------------------------------------------------------------------
    @property
    def poly_bytes(self) -> int:
        """One polynomial in R_Q under RNS (paper: 56 KB at N=2^12)."""
        return int(self.rns_count * self.n * RESIDUE_BITS // 8)

    @property
    def plain_poly_bytes(self) -> int:
        """One plaintext polynomial in R_P (raw database storage)."""
        plain_bits = max(1, int(math.ceil(math.log2(self.plain_modulus))))
        return self.n * plain_bits // 8

    @property
    def ct_bytes(self) -> int:
        """One BFV ciphertext: 2 polynomials in R_Q (paper: 112 KB)."""
        return 2 * self.poly_bytes

    @property
    def rgsw_bytes(self) -> int:
        """One RGSW ciphertext: 2*2ℓ polynomials (paper: 1120 KB at ℓ=5)."""
        return 2 * 2 * self.gadget_len * self.poly_bytes

    @property
    def evk_bytes(self) -> int:
        """One substitution key: 2*ℓ polynomials (paper: 560 KB at ℓ=5)."""
        return 2 * self.gadget_len * self.poly_bytes

    @property
    def db_expansion_ratio(self) -> float:
        """Preprocessed-DB blowup logQ/logP (Section II-B, < 3.5x)."""
        return self.poly_bytes / self.plain_poly_bytes

    @property
    def num_evks(self) -> int:
        """ExpandQuery needs one evk per tree depth: log2(D0)."""
        return modmath.ilog2(self.d0)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_db(self, d0: int | None = None, num_dims: int | None = None) -> "PirParams":
        """Copy with a different database geometry."""
        return replace(
            self,
            d0=self.d0 if d0 is None else d0,
            num_dims=self.num_dims if num_dims is None else num_dims,
        )

    @staticmethod
    def paper(d0: int = 256, num_dims: int = 9) -> "PirParams":
        """Table I configuration: N=2^12, 4 special primes, P=2^32, ℓ=5.

        The default ``num_dims=9`` corresponds to the 2 GB synthesized DB
        (D = 2^17 polynomials of 16 KB payload each).
        """
        n = 1 << 12
        return PirParams(
            n=n,
            moduli=modmath.special_primes(order=2 * n, count=4),
            plain_modulus=1 << 32,
            gadget_base_log2=22,
            gadget_len=5,
            d0=d0,
            num_dims=num_dims,
        )

    @staticmethod
    def functional(d0: int = 64, num_dims: int = 2) -> "PirParams":
        """Paper-shaped ring with an odd P sized for ample noise margin.

        P = 786433 (prime) gives Δ ≈ 2^88 so the RowSel plaintext products
        (noise scaling ~ sqrt(N) * P, Section II-C) stay far below Δ/2 even
        for deep expansion trees.  Use this preset for runnable examples;
        :meth:`paper` keeps the Table I values for cost modeling.
        """
        n = 1 << 12
        return PirParams(
            n=n,
            moduli=modmath.special_primes(order=2 * n, count=4),
            plain_modulus=786433,  # 3 * 2^18 + 1, prime
            gadget_base_log2=22,
            gadget_len=5,
            d0=d0,
            num_dims=num_dims,
        )

    @staticmethod
    def small(
        n: int = 256,
        d0: int = 8,
        num_dims: int = 2,
        plain_modulus: int = 65537,
    ) -> "PirParams":
        """Small, fast parameters for unit tests (not secure).

        Three ~28-bit moduli (Q ≈ 2^81) leave ~2^20 of noise headroom over
        the worst RowSel product at P = 2^16.
        """
        return PirParams(
            n=n,
            moduli=modmath.special_primes(order=2 * n, count=3),
            plain_modulus=plain_modulus,
            gadget_base_log2=14,
            gadget_len=6,
            d0=d0,
            num_dims=num_dims,
        )
