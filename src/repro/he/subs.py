"""Substitution Subs(ct, r): automorphism plus key switching (Section II-D).

``Subs(ct, r)`` replaces X with X^r inside the encrypted polynomial.  The
automorphism itself is free of noise but moves the ciphertext under the
rotated secret ``s(X^r)``; the evaluation key ``evk_r`` (an ℓ-row gadget
encryption of ``z^i * s(X^r)`` under ``s``) switches it back:

    Subs(ct, r) = evk_r · Dcp(a_aut) + (0, b_aut)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RnsPoly


@dataclass
class SubsKey:
    """Key-switching key for one automorphism power r (2 x ℓ polynomials)."""

    r: int
    a_rows: list[RnsPoly]
    b_rows: list[RnsPoly]

    @property
    def num_rows(self) -> int:
        return len(self.a_rows)


def generate_subs_key(
    bfv: BfvContext, gadget: Gadget, key: SecretKey, r: int
) -> SubsKey:
    """evk_r: rows (a_i, -a_i*s + e_i + z^i * s(X^r))."""
    s_rot = (
        bfv.ctx.from_small_coeffs(key.coeffs, domain=Domain.COEFF)
        .automorphism(r)
        .to_ntt()
    )
    a_rows: list[RnsPoly] = []
    b_rows: list[RnsPoly] = []
    rows = bfv.encrypt_zeros(key, gadget.length)
    for power, row in zip(gadget.powers_rns, rows):
        a_rows.append(row.a)
        b_rows.append(row.b + s_rot.scalar_rns_mul(power))
    return SubsKey(r=r, a_rows=a_rows, b_rows=b_rows)


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
