"""Gadget decomposition, RGSW external products, and CMUX selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he.bfv import BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RingContext
from repro.he.rgsw import RgswCiphertext, cmux, external_product, rgsw_encrypt
from repro.he.sampling import Sampler
from repro.params import PirParams


class TestGadget:
    def test_decompose_recompose(self, ring, gadget):
        sampler = Sampler(ring, seed=7)
        poly = sampler.uniform_poly(Domain.COEFF)
        digits = gadget.decompose(poly)
        assert len(digits) == gadget.length
        back = gadget.recompose(digits)
        assert np.array_equal(back.residues, poly.residues)

    def test_digits_are_small(self, ring, gadget):
        sampler = Sampler(ring, seed=8)
        poly = sampler.uniform_poly(Domain.COEFF)
        for digit in gadget.decompose(poly):
            # Every residue row holds the same digit value, < z.
            assert digit.residues.max() < gadget.base
            assert np.array_equal(digit.residues[0], digit.residues[-1])

    def test_decompose_accepts_ntt_input(self, ring, gadget):
        sampler = Sampler(ring, seed=9)
        poly = sampler.uniform_poly(Domain.COEFF)
        via_ntt = gadget.decompose(poly.to_ntt())
        direct = gadget.decompose(poly)
        for a, b in zip(via_ntt, direct):
            assert np.array_equal(a.residues, b.residues)

    def test_recompose_wrong_length_rejected(self, ring, gadget):
        with pytest.raises(ParameterError):
            gadget.recompose([ring.zero(Domain.COEFF)])

    def test_zero_decomposes_to_zero(self, ring, gadget):
        for digit in gadget.decompose(ring.zero(Domain.COEFF)):
            assert not digit.residues.any()


class TestRgsw:
    def test_external_product_selects_bit_one(self, ring, bfv, gadget, secret_key):
        rng = np.random.default_rng(10)
        m = rng.integers(0, ring.params.plain_modulus, size=ring.n, dtype=np.int64)
        ct = bfv.encrypt(m, secret_key)
        rgsw_one = rgsw_encrypt(bfv, gadget, 1, secret_key)
        out = external_product(rgsw_one, ct, gadget)
        assert np.array_equal(bfv.decrypt(out, secret_key), m)

    def test_external_product_kills_bit_zero(self, ring, bfv, gadget, secret_key):
        rng = np.random.default_rng(11)
        m = rng.integers(0, ring.params.plain_modulus, size=ring.n, dtype=np.int64)
        ct = bfv.encrypt(m, secret_key)
        rgsw_zero = rgsw_encrypt(bfv, gadget, 0, secret_key)
        out = external_product(rgsw_zero, ct, gadget)
        assert np.all(bfv.decrypt(out, secret_key) == 0)

    def test_external_product_error_is_additive(self, ring, bfv, gadget, secret_key):
        """Section II-C: noise grows additively, not multiplicatively."""
        rng = np.random.default_rng(12)
        m = rng.integers(0, ring.params.plain_modulus, size=ring.n, dtype=np.int64)
        ct = bfv.encrypt(m, secret_key)
        rgsw_one = rgsw_encrypt(bfv, gadget, 1, secret_key)
        noise_before = bfv.noise(ct, secret_key)
        out = ct
        per_step = []
        for _ in range(3):
            prev = bfv.noise(out, secret_key)
            out = external_product(rgsw_one, out, gadget)
            per_step.append(bfv.noise(out, secret_key) - prev)
        # Additive: each application adds about the same absolute noise.
        assert max(per_step) < 4 * (abs(min(per_step)) + 1) + 64 * noise_before
        assert np.array_equal(bfv.decrypt(out, secret_key), m)

    def test_cmux(self, ring, bfv, gadget, secret_key):
        rng = np.random.default_rng(13)
        p = ring.params.plain_modulus
        m0 = rng.integers(0, p, size=ring.n, dtype=np.int64)
        m1 = rng.integers(0, p, size=ring.n, dtype=np.int64)
        ct0 = bfv.encrypt(m0, secret_key)
        ct1 = bfv.encrypt(m1, secret_key)
        for bit, expected in ((0, m0), (1, m1)):
            rgsw = rgsw_encrypt(bfv, gadget, bit, secret_key)
            out = cmux(rgsw, ct0, ct1, gadget)
            assert np.array_equal(bfv.decrypt(out, secret_key), expected)

    def test_row_count_validation(self, ring, bfv, gadget, secret_key):
        rgsw = rgsw_encrypt(bfv, gadget, 1, secret_key)
        bad = RgswCiphertext(rgsw.ctx, rgsw.rows[:, :-1])
        ct = bfv.encrypt_zero(secret_key)
        with pytest.raises(ParameterError):
            external_product(bad, ct, gadget)

    def test_chained_cmux_tree(self, ring, bfv, gadget, secret_key):
        """A 2-level ColTor-style tournament selects the right leaf."""
        rng = np.random.default_rng(14)
        p = ring.params.plain_modulus
        leaves = [rng.integers(0, p, size=ring.n, dtype=np.int64) for _ in range(4)]
        cts = [bfv.encrypt(m, secret_key) for m in leaves]
        for target in range(4):
            bits = [(target >> k) & 1 for k in range(2)]
            rgsws = [rgsw_encrypt(bfv, gadget, b, secret_key) for b in bits]
            row = [cmux(rgsws[0], cts[i], cts[i + 1], gadget) for i in (0, 2)]
            final = cmux(rgsws[1], row[0], row[1], gadget)
            assert np.array_equal(bfv.decrypt(final, secret_key), leaves[target])


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=2**16 - 1))
def test_external_product_property(bit, value):
    params = PirParams.small(n=64, d0=4, num_dims=1)
    ring = RingContext(params)
    sampler = Sampler(ring, seed=bit * 100003 + value)
    bfv = BfvContext(ring, sampler)
    gadget = Gadget(ring)
    key = SecretKey.generate(ring, sampler)
    m = np.full(ring.n, value % params.plain_modulus, dtype=np.int64)
    ct = bfv.encrypt(m, key)
    rgsw = rgsw_encrypt(bfv, gadget, bit, key)
    out = external_product(rgsw, ct, gadget)
    expected = m if bit else np.zeros_like(m)
    assert np.array_equal(bfv.decrypt(out, key), expected)
