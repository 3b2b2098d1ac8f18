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

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import RnsPoly


@dataclass
class RgswCiphertext:
    """2ℓ RLWE rows; row i is (a_rows[i], b_rows[i]), all in NTT form."""

    a_rows: list[RnsPoly]
    b_rows: list[RnsPoly]

    @property
    def num_rows(self) -> int:
        return len(self.a_rows)


def rgsw_encrypt(
    bfv: BfvContext, gadget: Gadget, message: int, key: SecretKey
) -> RgswCiphertext:
    """Encrypt a small scalar (typically a selection bit) as RGSW."""
    ell = gadget.length
    a_rows: list[RnsPoly] = []
    b_rows: list[RnsPoly] = []
    for i, row in enumerate(bfv.encrypt_zeros(key, 2 * ell)):
        power = gadget.powers_rns[i % ell]
        shift = bfv.ctx.constant(1).scalar_rns_mul(power).scalar_mul(message)
        if i < ell:
            a_rows.append(row.a + shift)
            b_rows.append(row.b)
        else:
            a_rows.append(row.a)
            b_rows.append(row.b + shift)
    return RgswCiphertext(a_rows, b_rows)


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
