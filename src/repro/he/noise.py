"""Noise accounting helpers and the paper's additive-error bound (Section II-C).

The response-error bound for d-dimensional PIR is
``Err(ct_resp) <= Err(ct^(0)) + O(d) * Err(ct_RGSW)``: external products add
(rather than multiply) error, so the error stays stable as the DB grows
under fixed D0 and P.

Estimates here are root-mean-square compositions converted to a
high-probability max-norm with a 6-sigma tail factor — the convention used
in HE parameter-selection practice.  Tests assert that measured noise stays
below these estimates and that the functional parameter sets keep the final
value below the correctness bound Δ/2.

Note on Table I: with a *single* decomposition base for every operation the
margin at (P = 2^32, D0 = 256, z = 2^22, ℓ = 5) is negative by a couple of
bits; OnionPIR-family implementations close it by using a finer base for
the expansion evks, which is why Table I quotes z and ℓ as ranges
(2^14-2^22 and 5-8); tests/he/test_noise.py reports the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.params import PirParams

#: High-probability tail multiplier applied to RMS noise magnitudes.
TAIL_FACTOR = 6.0


@dataclass(frozen=True)
class NoiseEstimate:
    """Expected max-norm error at each PIR stage (high-probability)."""

    fresh: float
    after_expand: float
    after_rowsel: float
    per_external_product: float
    after_coltor: float

    def response_bound(self) -> float:
        return self.after_coltor


def _keyswitch_rms(params: PirParams) -> float:
    """RMS of one gadget-product noise term: sum of ℓN digit*error products.

    Digits are unsigned in [0, z), so their second moment is z^2/3 (not the
    centered z^2/12) — confirmed against measured noise in the test suite.
    """
    digit_rms = params.gadget_base / math.sqrt(3.0)
    return math.sqrt(params.gadget_len * params.n) * digit_rms * params.error_std


def estimate(params: PirParams) -> NoiseEstimate:
    """High-probability max-norm error estimates for the protocol stages."""
    sigma = params.error_std
    fresh_rms = sigma

    # ExpandQuery: v_L = 2*v_{L-1} + ks^2  (ct + Subs(ct) doubles variance,
    # each level adds one key-switch term), L = log2(D0) levels.
    ks_rms = _keyswitch_rms(params)
    levels = max(0, int(math.log2(params.d0)))
    expand_var = (2.0**levels) * fresh_rms**2 + (2.0**levels - 1) * ks_rms**2
    expand_rms = math.sqrt(expand_var)

    # RowSel: every one of the D0 expanded ciphertexts contributes its noise
    # convolved with a plaintext polynomial (unsigned coefficients in [0, P)).
    plain_rms = params.plain_modulus / math.sqrt(3.0)
    rowsel_rms = math.sqrt(params.d0 * params.n) * plain_rms * expand_rms

    # One external product: 2ℓN digit*error products (Dcp on both a and b).
    ext_rms = math.sqrt(2.0) * ks_rms

    # ColTor: d cmux levels, each adding one external-product term.
    coltor_rms = math.sqrt(rowsel_rms**2 + params.num_dims * ext_rms**2)

    return NoiseEstimate(
        fresh=TAIL_FACTOR * fresh_rms,
        after_expand=TAIL_FACTOR * expand_rms,
        after_rowsel=TAIL_FACTOR * rowsel_rms,
        per_external_product=TAIL_FACTOR * ext_rms,
        after_coltor=TAIL_FACTOR * coltor_rms,
    )
