"""PirParams validation, derived sizes, and preset consistency."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath
from repro.params import PirParams


def _make(**overrides):
    base = dict(
        n=256,
        moduli=modmath.special_primes(order=512, count=2),
        plain_modulus=65537,
        gadget_base_log2=14,
        gadget_len=4,
        d0=8,
        num_dims=2,
    )
    base.update(overrides)
    return PirParams(**base)


class TestValidation:
    def test_valid_baseline(self):
        _make()  # must not raise

    def test_n_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            _make(n=100)

    def test_d0_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            _make(d0=6)

    def test_d0_cannot_exceed_n(self):
        with pytest.raises(ParameterError):
            _make(d0=512)

    def test_negative_dims_rejected(self):
        with pytest.raises(ParameterError):
            _make(num_dims=-1)

    def test_tiny_plain_modulus_rejected(self):
        with pytest.raises(ParameterError):
            _make(plain_modulus=1)

    def test_non_ntt_friendly_modulus_rejected(self):
        with pytest.raises(ParameterError):
            _make(moduli=(97, 193))

    def test_gadget_must_cover_q(self):
        with pytest.raises(ParameterError):
            _make(gadget_base_log2=4, gadget_len=2)

    def test_q_must_exceed_p(self):
        with pytest.raises(ParameterError):
            _make(
                moduli=modmath.special_primes(order=512, count=1),
                plain_modulus=1 << 40,
                gadget_base_log2=14,
                gadget_len=2,
            )


class TestDerivedQuantities:
    def test_q_is_product(self):
        params = _make()
        expected = 1
        for q in params.moduli:
            expected *= q
        assert params.q == expected
        assert params.log2_q == pytest.approx(math.log2(expected))

    def test_delta(self):
        params = _make()
        assert params.delta == params.q // params.plain_modulus

    def test_num_db_polys(self):
        assert _make(d0=8, num_dims=2).num_db_polys == 32
        assert _make(d0=16, num_dims=0).num_db_polys == 16

    def test_payload_bits_odd_p(self):
        assert _make(plain_modulus=65537).payload_bits_per_coeff == 16

    def test_payload_bits_pow2_p(self):
        """Power-of-two P loses log2(D0) bits to the expansion factor."""
        params = _make(plain_modulus=1 << 16, d0=8)
        assert params.payload_bits_per_coeff == 16 - 3

    def test_payload_exhausted_rejected(self):
        params = _make(plain_modulus=1 << 4, d0=256, n=256, num_dims=0)
        with pytest.raises(ParameterError):
            _ = params.payload_bits_per_coeff

    def test_num_evks(self):
        assert _make(d0=8).num_evks == 3
        assert _make(d0=1).num_evks == 0

    def test_with_db(self):
        params = _make()
        bigger = params.with_db(num_dims=5)
        assert bigger.num_dims == 5
        assert bigger.d0 == params.d0
        assert bigger.moduli == params.moduli


class TestPresets:
    def test_paper_matches_table1(self):
        params = PirParams.paper()
        assert params.n == 1 << 12
        assert params.rns_count == 4
        assert all(q < 2**28 for q in params.moduli)
        assert params.q < 2**112
        assert params.plain_modulus == 1 << 32
        assert params.gadget_len == 5
        assert 2**16 <= params.num_db_polys <= 2**24

    def test_functional_uses_odd_prime(self):
        params = PirParams.functional()
        assert params.plain_modulus % 2 == 1
        assert modmath.is_prime(params.plain_modulus)

    def test_small_is_fast_geometry(self):
        params = PirParams.small()
        assert params.n <= 512
        assert params.num_db_polys <= 64

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([64, 128, 256, 512]), st.integers(min_value=0, max_value=4))
    def test_small_presets_always_valid(self, n, dims):
        params = PirParams.small(n=n, d0=min(8, n), num_dims=dims)
        assert params.num_db_polys == min(8, n) * (1 << dims)
