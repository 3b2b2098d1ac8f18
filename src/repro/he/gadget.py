"""Base-z gadget decomposition Dcp (Section II-D, Fig. 3).

``Dcp(x)`` writes a polynomial ``x`` in R_Q as ℓ digit polynomials with
coefficients in [0, z), such that ``sum_i x_i * z^i = x``.  Following the
paper's computational flow, the input arrives in NTT form, is brought back
to coefficients (iNTT), reconstructed from RNS (iCRT, Eq. 3), and the bits
are extracted digit by digit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he.poly import Domain, RingContext, RnsPoly


class Gadget:
    """Digit decomposition and gadget constants for one parameter set."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        params = ctx.params
        self.base_log2 = params.gadget_base_log2
        self.base = params.gadget_base
        self.length = params.gadget_len
        if self.base ** self.length < params.q:
            raise ParameterError("gadget does not cover Q")
        # z^i mod q_j constants, one RNS vector per digit position.
        self.powers_rns = tuple(
            ctx.basis.constant_rns(pow(self.base, i, params.q))
            for i in range(self.length)
        )
        #: The same constants as one (ℓ, rns, 1) array, for stacked key rows.
        self.powers_col = np.stack(self.powers_rns)[:, :, None]

    def decompose(self, poly: RnsPoly) -> list[RnsPoly]:
        """Dcp: iNTT -> iCRT -> bit extraction; returns ℓ coeff-domain polys.

        Digits are the plain unsigned base-z digits of the [0, Q) lift, so
        each digit coefficient is < z and fits directly in every residue
        channel without reduction.
        """
        coeffs = poly.to_coeff().lift_coeffs()  # object ints in [0, Q)
        mask = self.base - 1
        digits: list[RnsPoly] = []
        current = coeffs
        for _ in range(self.length):
            digit = np.array([int(c) & mask for c in current], dtype=np.int64)
            digits.append(
                RnsPoly(
                    self.ctx,
                    np.tile(digit, (self.ctx.rns_count, 1)),
                    Domain.COEFF,
                )
            )
            current = np.array([int(c) >> self.base_log2 for c in current], dtype=object)
        return digits

    def decompose_ntt(self, poly: RnsPoly) -> list[RnsPoly]:
        """Dcp followed by the 2ℓ-digit NTT batch from Fig. 3."""
        return [d.to_ntt() for d in self.decompose(poly)]

    def recompose(self, digits: list[RnsPoly]) -> RnsPoly:
        """Inverse of :meth:`decompose` (for tests): sum_i digit_i * z^i."""
        if len(digits) != self.length:
            raise ParameterError(
                f"expected {self.length} digits, got {len(digits)}"
            )
        acc = self.ctx.zero(digits[0].domain)
        for digit, power in zip(digits, self.powers_rns):
            acc = acc + digit.scalar_rns_mul(power)
        return acc
