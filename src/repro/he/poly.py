"""Polynomials in R_Q = Z_Q[X]/(X^N + 1) under RNS, in coeff or NTT domain.

``RingContext`` bundles the RNS basis with one NTT context per modulus and
is shared by every polynomial of a parameter set.  ``RnsPoly`` is a thin
value type over an ``(rns_count, N)`` int64 residue matrix plus a domain
tag; the HE layers above only ever combine polynomials through the methods
here, which enforce domain discipline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DomainError, ParameterError
from repro.he.ntt import NttContext
from repro.he.rns import RnsBasis

if TYPE_CHECKING:  # avoid a circular import; params depends on he.modmath
    from repro.params import PirParams


#: Scratch budget of one block of a stacked kernel.  The planned
#: transforms walk their batch axis in blocks whose float64/int64
#: intermediates fit this many bytes, so they stay L2-resident however
#: large the batch is; the stacked client encryption walks its rows, and
#: the servers cut a dispatch window into query groups, under the same
#: budget.
BLOCK_BYTES = 1 << 21


class Domain(enum.Enum):
    COEFF = "coeff"
    NTT = "ntt"


class RingContext:
    """Shared precomputed state for one polynomial ring R_Q.

    Contexts are heavy (NTT twiddle tables, monomial/automorphism caches)
    and identity-compared on the hot path, so they must never travel over
    IPC by value: pickling reduces to :meth:`shared`, which re-attaches to
    the one process-local context for the parameter set.  A ciphertext
    pickled in the coordinator and unpickled in a worker therefore carries
    only its residues plus the (tiny, frozen) ``PirParams`` key, and every
    polynomial in that worker shares a single context again.
    """

    #: Process-local interning table for :meth:`shared` (params -> context).
    _interned: "dict[PirParams, RingContext]" = {}

    def __init__(self, params: "PirParams"):
        self.params = params
        self.n = params.n
        self.basis = RnsBasis(params.moduli)
        self.ntts = tuple(NttContext(params.n, q) for q in params.moduli)
        self._moduli_col = np.array(params.moduli, dtype=np.int64)[:, None]
        self._monomial_ntt_cache: dict[int, np.ndarray] = {}
        self._automorphism_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._automorphism_slots_cache: dict[int, np.ndarray] = {}

    @classmethod
    def shared(cls, params: "PirParams") -> "RingContext":
        """The process-local interned context for ``params``.

        Every caller with equal parameters gets the *same* object, so
        ``ctx is other.ctx`` holds across independently unpickled values
        and the twiddle/monomial caches are built once per process.
        """
        ctx = cls._interned.get(params)
        if ctx is None:
            ctx = cls._interned[params] = cls(params)
        return ctx

    def __reduce__(self):
        return (RingContext.shared, (self.params,))

    @property
    def rns_count(self) -> int:
        return self.basis.count

    # -- constructors --------------------------------------------------
    def zero(self, domain: Domain = Domain.NTT) -> "RnsPoly":
        return RnsPoly(self, np.zeros((self.rns_count, self.n), dtype=np.int64), domain)

    def from_int_coeffs(self, coeffs, domain: Domain = Domain.COEFF) -> "RnsPoly":
        """Build a polynomial from integer coefficients (arbitrary size)."""
        arr = np.asarray(coeffs, dtype=object)
        if arr.shape != (self.n,):
            raise ParameterError(f"expected {self.n} coefficients, got {arr.shape}")
        poly = RnsPoly(self, self.basis.to_rns(arr), Domain.COEFF)
        return poly.to_ntt() if domain is Domain.NTT else poly

    def from_small_coeffs(self, coeffs, domain: Domain = Domain.COEFF) -> "RnsPoly":
        """Fast path when coefficients already fit int64 (signed ok)."""
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (self.n,):
            raise ParameterError(f"expected {self.n} coefficients, got {arr.shape}")
        poly = RnsPoly(self, arr[None, :] % self._moduli_col, Domain.COEFF)
        return poly.to_ntt() if domain is Domain.NTT else poly

    def constant(self, value: int, domain: Domain = Domain.NTT) -> "RnsPoly":
        """The constant polynomial ``value`` (same residues in both domains)."""
        res = np.tile(self.basis.constant_rns(value)[:, None], (1, self.n))
        return RnsPoly(self, res, domain)

    def monomial_ntt(self, power: int) -> np.ndarray:
        """Cached NTT-form residues of the (signed) monomial X^power."""
        power %= 2 * self.n
        if power not in self._monomial_ntt_cache:
            coeffs = np.zeros(self.n, dtype=np.int64)
            if power < self.n:
                coeffs[power] = 1
            else:
                coeffs[power - self.n] = -1
            mono = self.from_small_coeffs(coeffs, domain=Domain.NTT)
            self._monomial_ntt_cache[power] = mono.residues
        return self._monomial_ntt_cache[power]

    def automorphism_indices(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(dest, negate)`` index map of the X -> X^r automorphism.

        Coefficient ``j`` lands at ``dest[j] = j*r mod n`` and picks up a
        sign flip when ``j*r mod 2n >= n``.  Shared by the per-poly and
        batched automorphism kernels so both apply the identical map.
        """
        if r % 2 == 0:
            raise ParameterError(f"automorphism power r={r} must be odd")
        if r not in self._automorphism_cache:
            n = self.n
            idx = (np.arange(n) * r) % (2 * n)
            self._automorphism_cache[r] = (idx % n, idx >= n)
        return self._automorphism_cache[r]

    def automorphism_slots(self, r: int) -> np.ndarray:
        """Cached slot permutation of X -> X^r on NTT-form polynomials.

        Slot ``k`` of an NTT-form polynomial is its value at the root
        ``zeta_k``, and ``p(X^r)`` there is ``p(zeta_k^r)`` — slot
        ``k'`` with ``zeta_k' = zeta_k^r``.  The roots are read off the
        butterflies (the NTT of ``X`` *is* the root list, that of
        ``X^r`` their ``r``-th powers), matched on the first modulus
        and checked on the rest.  A slot permutation that maps NTT(X) to
        NTT(X^r) is the automorphism itself: both are ring maps fixed by
        the image of ``X``.
        """
        table = self._automorphism_slots_cache.get(r)
        if table is None:
            roots, powered = self.monomial_ntt(1), self.monomial_ntt(r)
            order = np.argsort(roots[0])
            table = order[np.searchsorted(roots[0], powered[0], sorter=order)]
            if not np.array_equal(roots[:, table], powered):
                raise ParameterError(
                    f"no NTT slot permutation realises X -> X^{r}"
                )
            self._automorphism_slots_cache[r] = table
        return table


@dataclass
class RnsPoly:
    """A polynomial in R_Q, stored as an (rns_count, N) residue matrix."""

    ctx: RingContext
    residues: np.ndarray
    domain: Domain

    # -- domain conversions ---------------------------------------------
    def to_ntt(self) -> "RnsPoly":
        if self.domain is Domain.NTT:
            return self
        out = np.empty_like(self.residues)
        for i, ntt in enumerate(self.ctx.ntts):
            out[i] = ntt.forward(self.residues[i])
        return RnsPoly(self.ctx, out, Domain.NTT)

    def to_coeff(self) -> "RnsPoly":
        if self.domain is Domain.COEFF:
            return self
        out = np.empty_like(self.residues)
        for i, ntt in enumerate(self.ctx.ntts):
            out[i] = ntt.inverse(self.residues[i])
        return RnsPoly(self.ctx, out, Domain.COEFF)

    # -- arithmetic -------------------------------------------------------
    def _check_same_domain(self, other: "RnsPoly") -> None:
        if self.ctx is not other.ctx and self.ctx.params != other.ctx.params:
            raise ParameterError("polynomials belong to different rings")
        if self.domain is not other.domain:
            raise DomainError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_same_domain(other)
        res = (self.residues + other.residues) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_same_domain(other)
        res = (self.residues - other.residues) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def __neg__(self) -> "RnsPoly":
        res = (-self.residues) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Element-wise product; both operands must be in NTT form."""
        self._check_same_domain(other)
        if self.domain is not Domain.NTT:
            raise DomainError("polynomial multiplication requires NTT domain")
        res = (self.residues * other.residues) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def scalar_mul(self, value: int) -> "RnsPoly":
        """Multiply by an integer scalar (given mod Q)."""
        consts = self.ctx.basis.constant_rns(value)[:, None]
        res = (self.residues * consts) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def scalar_rns_mul(self, consts: np.ndarray) -> "RnsPoly":
        """Multiply by a per-modulus constant vector, shape (rns_count,)."""
        res = (self.residues * consts[:, None]) % self.ctx._moduli_col
        return RnsPoly(self.ctx, res, self.domain)

    def monomial_mul(self, power: int) -> "RnsPoly":
        """Multiply by X^power (power may be negative; exact, no noise)."""
        power %= 2 * self.ctx.n
        if self.domain is Domain.NTT:
            res = (self.residues * self.ctx.monomial_ntt(power)) % self.ctx._moduli_col
            return RnsPoly(self.ctx, res, self.domain)
        n = self.ctx.n
        sign_flip = power >= n
        shift = power - n if sign_flip else power
        rolled = np.roll(self.residues, shift, axis=1)
        rolled[:, :shift] = -rolled[:, :shift]
        if sign_flip:
            rolled = -rolled
        return RnsPoly(self.ctx, rolled % self.ctx._moduli_col, Domain.COEFF)

    def automorphism(self, r: int) -> "RnsPoly":
        """Apply X -> X^r (r odd), the map underlying Subs (Section II-D)."""
        if self.domain is not Domain.COEFF:
            raise DomainError("automorphism requires coefficient domain")
        dest, negate = self.ctx.automorphism_indices(r)
        out = np.zeros_like(self.residues)
        # X^j -> X^{j*r mod 2n}; exponents >= n wrap with a sign flip.
        out[:, dest] = np.where(negate[None, :], -self.residues, self.residues)
        return RnsPoly(self.ctx, out % self.ctx._moduli_col, Domain.COEFF)

    # -- lifting ---------------------------------------------------------
    def lift_coeffs(self) -> np.ndarray:
        """Object array of coefficients in [0, Q) (requires coeff domain)."""
        if self.domain is not Domain.COEFF:
            raise DomainError("lifting requires coefficient domain")
        return self.ctx.basis.from_rns(self.residues)

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.ctx, self.residues.copy(), self.domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPoly):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.domain is other.domain
            and bool(np.array_equal(self.residues, other.residues))
        )
