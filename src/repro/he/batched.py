"""Stacked containers at the edge of the compute backends.

The kernels live on :class:`~repro.he.backend.ComputeBackend` and work on
bare residue tensors; the per-poly stack (:class:`~repro.he.poly.RnsPoly`,
:class:`~repro.he.bfv.BfvCiphertext`) is the oracle they are checked
against.  The two types here are only the crossing between them:

* :class:`RnsPolyVec` — a batch of polynomials as one ``(batch,
  rns_count, n)`` int64 tensor plus the domain tag of
  :class:`~repro.he.poly.RnsPoly`;
* :class:`BfvCiphertextVec` — a batch of BFV ciphertexts (two vecs,
  or two halves of one ``(2, batch, rns_count, n)`` tensor).

They stack per-poly values in, hand per-poly views out, and carry no
arithmetic of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DomainError, ParameterError
from repro.he.bfv import BfvCiphertext
from repro.he.poly import Domain, RingContext, RnsPoly


@dataclass
class RnsPolyVec:
    """A batch of R_Q polynomials as one (batch, rns_count, n) tensor.

    Every element of the batch is in the same domain, as the tag says.
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

    @property
    def batch(self) -> int:
        return self.residues.shape[0]

    def poly(self, index: int) -> RnsPoly:
        """The index-th polynomial as a scalar RnsPoly (a view)."""
        return RnsPoly(self.ctx, self.residues[index], self.domain)

    def polys(self) -> list[RnsPoly]:
        return [self.poly(i) for i in range(self.batch)]


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

    @property
    def batch(self) -> int:
        return self.a.batch

    def ct(self, index: int) -> BfvCiphertext:
        return BfvCiphertext(self.a.poly(index), self.b.poly(index))

    def cts(self) -> list[BfvCiphertext]:
        return [self.ct(i) for i in range(self.batch)]
