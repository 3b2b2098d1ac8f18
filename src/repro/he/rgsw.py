"""RGSW ciphertexts and the external product (Section II-C/II-D).

An RGSW ciphertext encrypting a scalar bit m is a 2ℓ x 2 matrix of RLWE
rows: the first ℓ rows hide ``m * z^i`` in the ``a`` slot, the second ℓ in
the ``b`` slot.  The external product ``ct_RGSW ⊡ ct_BFV`` decomposes the
BFV pair into 2ℓ digit polynomials and takes the matrix-vector product,
yielding a BFV ciphertext of ``m * plaintext`` with only an additive error
increase — the property that makes ColTor cheap (Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RingContext, RnsPoly


def key_row_views(ctx, rows: np.ndarray, half: int) -> list[RnsPoly]:
    """One half of a stacked ``(2, rows, rns, n)`` key tensor as RnsPoly views."""
    return [RnsPoly(ctx, row, Domain.NTT) for row in rows[half]]


@dataclass
class RgswCiphertext:
    """2ℓ RLWE rows as one ``(2, 2ℓ, rns, n)`` NTT-form tensor.

    ``rows[0]`` stacks the ``a`` polynomials and ``rows[1]`` the ``b``
    ones — the operand the compute backends' key-switch kernel contracts
    gadget digits against, held once and never re-stacked.  ``a_rows`` /
    ``b_rows`` are per-row views for the per-poly reference path.
    """

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


def gadget_shift(gadget: Gadget, messages) -> np.ndarray:
    """The constants that make zero rows RGSW encryptions of ``messages``.

    ``messages`` are small scalars of any shape ``...``; returns ``(...,
    2ℓ, 2, rns)`` for :meth:`BfvContext.encrypt_zeros`: row ``i < ℓ``
    gets ``m * z^i`` on its ``a`` slot and row ``ℓ + i`` on its ``b``
    slot (a constant's NTT form is that constant in every slot).
    """
    ell = gadget.length
    messages = np.asarray(messages, dtype=np.int64)
    terms = messages[..., None, None] * gadget.powers_col[..., 0]
    terms %= gadget.ctx._moduli_col[:, 0]
    shift = np.zeros(messages.shape + (2 * ell, 2, gadget.ctx.rns_count), dtype=np.int64)
    shift[..., :ell, 0, :] = terms
    shift[..., ell:, 1, :] = terms
    return shift


def rgsw_encrypt(
    bfv: BfvContext, gadget: Gadget, message: int, key: SecretKey
) -> RgswCiphertext:
    """Encrypt a small scalar (typically a selection bit) as RGSW."""
    rows = bfv.encrypt_zeros(key, 2 * gadget.length, gadget_shift(gadget, message))
    return RgswCiphertext(bfv.ctx, rows)


def external_product(
    rgsw: RgswCiphertext, ct: BfvCiphertext, gadget: Gadget
) -> BfvCiphertext:
    """ct_RGSW ⊡ ct_BFV -> ct_BFV (Fig. 3 computational flow)."""
    ell = gadget.length
    if rgsw.num_rows != 2 * ell:
        raise ParameterError(
            f"RGSW has {rgsw.num_rows} rows; gadget expects {2 * ell}"
        )
    digits = gadget.decompose_ntt(ct.a) + gadget.decompose_ntt(ct.b)
    out_a = digits[0] * rgsw.a_rows[0]
    out_b = digits[0] * rgsw.b_rows[0]
    for digit, a_row, b_row in zip(digits[1:], rgsw.a_rows[1:], rgsw.b_rows[1:]):
        out_a = out_a + digit * a_row
        out_b = out_b + digit * b_row
    return BfvCiphertext(out_a, out_b)


def cmux(
    rgsw_bit: RgswCiphertext,
    if_zero: BfvCiphertext,
    if_one: BfvCiphertext,
    gadget: Gadget,
) -> BfvCiphertext:
    """Homomorphic select: bit ⊡ (if_one - if_zero) + if_zero (Section II-C)."""
    return external_product(rgsw_bit, if_one - if_zero, gadget) + if_zero
