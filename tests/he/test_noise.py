"""Noise model (Section II-C): estimates bound measurements; errors additive."""

import math

import pytest

from repro.he import noise
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.protocol import PirProtocol


def margin_bits(params: PirParams) -> float:
    """log2 margin between the correctness bound Δ/2 and the response
    estimate: positive closes, negative needs a finer expansion gadget."""
    return math.log2(params.delta / 2.0 / noise.estimate(params).response_bound())


class TestEstimates:
    def test_estimates_are_ordered(self, small_params):
        est = noise.estimate(small_params)
        assert 0 < est.fresh < est.after_expand < est.after_coltor
        assert est.after_rowsel <= est.after_coltor

    def test_functional_params_close(self):
        """The runnable functional preset closes with comfortable margin."""
        params = PirParams.functional()
        assert margin_bits(params) > 8.0

    def test_paper_params_margin_is_tight_but_near(self):
        """Table I with a single base is within a few bits of closing.

        OnionPIR-family implementations use a finer base for expansion evks
        (hence the z/ℓ ranges in Table I); we document the single-base margin.
        """
        params = PirParams.paper()
        margin = margin_bits(params)
        assert -8.0 < margin < 8.0

    def test_finer_expansion_base_closes_paper_params(self):
        """z = 2^14, ℓ = 8 (within Table I's quoted ranges) closes the budget."""
        from dataclasses import replace

        params = replace(PirParams.paper(), gadget_base_log2=14, gadget_len=8)
        assert margin_bits(params) > 4.0

    def test_error_stable_in_db_size(self):
        """Section II-C: error variance grows only linearly in d (log DB size)."""
        base = PirParams.small(num_dims=2)
        big = PirParams.small(num_dims=6)
        est_base = noise.estimate(base)
        est_big = noise.estimate(big)
        var_delta = est_big.after_coltor**2 - est_base.after_coltor**2
        # rel=1e-2: the subtraction of two large variances loses precision
        assert var_delta == pytest.approx(4 * est_base.per_external_product**2, rel=1e-2)


class TestMeasuredNoise:
    def test_response_noise_within_estimate(self, small_params):
        db = PirDatabase.random(small_params, num_records=32, record_bytes=64, seed=0)
        protocol = PirProtocol(small_params, db, seed=1)
        result = protocol.retrieve(13)
        client = protocol.client
        measured = max(
            client.bfv.noise(ct, client.secret_key) for ct in result.response.plane_cts
        )
        est = noise.estimate(small_params)
        assert measured < est.response_bound()
        assert measured < small_params.delta / 2.0

    def test_noise_budget_positive_after_full_pipeline(self, small_params):
        db = PirDatabase.random(small_params, num_records=32, record_bytes=64, seed=2)
        protocol = PirProtocol(small_params, db, seed=3)
        result = protocol.retrieve(7)
        client = protocol.client
        for ct in result.response.plane_cts:
            assert client.bfv.noise_budget_bits(ct, client.secret_key) > 1.0
