"""Substitution Subs(ct, r): automorphism plus key switching (Section II-D).

``Subs(ct, r)`` replaces X with X^r inside the encrypted polynomial.  The
automorphism itself is free of noise but moves the ciphertext under the
rotated secret ``s(X^r)``; the evaluation key ``evk_r`` (an ℓ-row gadget
encryption of ``z^i * s(X^r)`` under ``s``) switches it back:

    Subs(ct, r) = evk_r · Dcp(a_aut) + (0, b_aut)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey, default_backend
from repro.he.gadget import Gadget
from repro.he.modred import modred
from repro.he.poly import RingContext, RnsPoly
from repro.he.rgsw import key_row_views


@dataclass
class SubsKey:
    """Key-switching key for one automorphism power r (2 x ℓ polynomials).

    Like :class:`~repro.he.rgsw.RgswCiphertext`, the rows live in one
    ``(2, ℓ, rns, n)`` NTT-form tensor (``rows[0]`` the ``a`` halves,
    ``rows[1]`` the ``b`` halves) with per-row views for the reference
    path.
    """

    r: int
    ctx: RingContext
    rows: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.rows.shape[1]

    @property
    def a_rows(self) -> list[RnsPoly]:
        return key_row_views(self.ctx, self.rows, 0)

    @property
    def b_rows(self) -> list[RnsPoly]:
        return key_row_views(self.ctx, self.rows, 1)


def generate_subs_keys(
    bfv: BfvContext, gadget: Gadget, key: SecretKey, powers: list[int]
) -> dict[int, SubsKey]:
    """evk_r for every r in ``powers``, from a fresh sampler seed."""
    return subs_keys(
        bfv.ctx, powers, subs_key_rows(bfv, gadget, key, powers, bfv.sampler.seed())
    )


def subs_key_rows(
    bfv: BfvContext, gadget: Gadget, key: SecretKey, powers: list[int], seed: bytes
) -> np.ndarray:
    """The keys for ``powers`` as one ``(2, len(powers)·ℓ, rns, n)`` tensor.

    Rows ``(a_i, -a_i*s + e_i + z^i * s(X^r))``, ℓ per power in the order
    given, out of one stacked :meth:`BfvContext.encrypt_zeros` draw whose
    ``a`` rows are expanded from ``seed``.
    """
    ctx, ell = bfv.ctx, gadget.length
    moduli = ctx._moduli_col
    rows = bfv.encrypt_zeros(key, len(powers) * ell, seeds=[seed])
    keyed = rows.reshape((2, len(powers), ell) + rows.shape[2:])
    # s(X^r) for every power as one stacked transform of the ternary
    # secret's permuted coefficients (broadcast RNS axis).
    rotated = np.zeros((len(powers), 1, ctx.n), dtype=np.int64)
    for index, r in enumerate(powers):
        dest, negate = ctx.automorphism_indices(r)
        rotated[index, 0, dest] = np.where(negate, -key.coeffs, key.coeffs)
    s_rot = default_backend().ntt_forward(ctx, rotated)
    b = keyed[1]
    b += (s_rot[:, None] * gadget.powers_col) % moduli
    b -= moduli
    modred(b, moduli)
    return rows


def subs_keys(ctx: RingContext, powers: list[int], rows: np.ndarray) -> dict[int, SubsKey]:
    """Views of a :func:`subs_key_rows` tensor, one :class:`SubsKey` per power."""
    keyed = rows.reshape((2, len(powers), ctx.params.gadget_len) + rows.shape[2:])
    return {
        r: SubsKey(r=r, ctx=ctx, rows=keyed[:, index])
        for index, r in enumerate(powers)
    }


def generate_subs_key(
    bfv: BfvContext, gadget: Gadget, key: SecretKey, r: int
) -> SubsKey:
    """One evaluation key: :func:`generate_subs_keys` of a single power."""
    return generate_subs_keys(bfv, gadget, key, [r])[r]


def substitute(ct: BfvCiphertext, evk: SubsKey, gadget: Gadget) -> BfvCiphertext:
    """Subs(ct, evk.r): encrypts m(X^r) when ct encrypts m(X)."""
    if evk.num_rows != gadget.length:
        raise ParameterError(
            f"evk has {evk.num_rows} rows; gadget expects {gadget.length}"
        )
    a_aut = ct.a.to_coeff().automorphism(evk.r)
    b_aut = ct.b.to_coeff().automorphism(evk.r).to_ntt()
    digits = [d.to_ntt() for d in gadget.decompose(a_aut)]
    out_a = digits[0] * evk.a_rows[0]
    out_b = digits[0] * evk.b_rows[0]
    for digit, a_row, b_row in zip(digits[1:], evk.a_rows[1:], evk.b_rows[1:]):
        out_a = out_a + digit * a_row
        out_b = out_b + digit * b_row
    return BfvCiphertext(out_a, out_b + b_aut)
