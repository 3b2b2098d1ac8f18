"""BFV encryption: roundtrips, homomorphic linearity, noise accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he.backend import get_backend
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.he.rgsw import gadget_shift
from repro.he.sampling import SEED_BYTES, Sampler, expand_a
from repro.params import PirParams


def _random_plain(params, rng):
    return rng.integers(0, params.plain_modulus, size=params.n, dtype=np.int64)


class TestEncryptDecrypt:
    def test_roundtrip(self, ring, bfv, secret_key):
        rng = np.random.default_rng(0)
        m = _random_plain(ring.params, rng)
        ct = bfv.encrypt(m, secret_key)
        assert np.array_equal(bfv.decrypt(ct, secret_key), m)

    def test_zero_roundtrip(self, ring, bfv, secret_key):
        ct = bfv.encrypt(np.zeros(ring.n, dtype=np.int64), secret_key)
        assert np.all(bfv.decrypt(ct, secret_key) == 0)

    def test_encrypt_zero_helper(self, ring, bfv, secret_key):
        ct = bfv.encrypt_zero(secret_key)
        assert np.all(bfv.decrypt(ct, secret_key) == 0)

    def test_encrypt_zeros_of_one_is_encrypt_zero(self, ring, secret_key):
        """A stack of one is ``encrypt_zero``: same draws, same bytes, and
        both are the per-poly formula ``b = e - a*s`` on the sampler's own
        polynomials."""
        single = BfvContext(ring, Sampler(ring, seed=77))
        stacked = BfvContext(ring, Sampler(ring, seed=77))
        by_hand = Sampler(ring, seed=77)
        want = single.encrypt_zero(secret_key)
        rows = stacked.encrypt_zeros(secret_key, 1)
        assert rows.shape == (2, 1, ring.rns_count, ring.n)
        assert np.array_equal(rows[0, 0], want.a.residues)
        assert np.array_equal(rows[1, 0], want.b.residues)
        a = by_hand.uniform_poly(Domain.NTT)
        e = by_hand.error_poly(Domain.NTT)
        assert want.a == a
        assert want.b == -(a * secret_key.ntt) + e
        # ... and the samplers are left in the same state.
        assert stacked.encrypt_zero(secret_key).b == single.encrypt_zero(secret_key).b

    def test_encrypt_zeros_draws_uniform_rows_then_error_rows(self, ring, secret_key):
        """The documented draw order of a stack: one seed whose expansion
        is every uniform row, then the private seed of every error row."""
        count = 4
        rows = BfvContext(ring, Sampler(ring, seed=78)).encrypt_zeros(secret_key, count)
        rng = np.random.default_rng(78)
        uniform = expand_a(rng.bytes(SEED_BYTES), count, ring)
        _, errors = get_backend("eager").sample(ring, [], 0, rng.bytes(SEED_BYTES), count)
        assert np.array_equal(rows[0], uniform)
        for i in range(count):
            a = RnsPoly(ring, uniform[i], Domain.NTT)
            e = ring.from_small_coeffs(errors[i], domain=Domain.NTT)
            assert np.array_equal(rows[1, i], (-(a * secret_key.ntt) + e).residues)

    def test_shifted_rows_keep_their_expanded_a(self, ring, secret_key):
        """RGSW rows carry a gadget term on ``a``; it is subtracted before
        the encryption pass adds it back, so every ``a`` row is still the
        seeds' expansion and ``b`` holds ``e - a·s + m·z^i·s``."""
        gadget = Gadget(ring)
        count = 2 * gadget.length
        shift = np.concatenate([gadget_shift(gadget, 1), gadget_shift(gadget, 0)])
        seeds = [bytes([1]) * SEED_BYTES, bytes([2]) * SEED_BYTES]
        bfv = BfvContext(ring, Sampler(ring, seed=79))
        rows = bfv.encrypt_zeros(secret_key, 2 * count, shift, seeds)
        for k, seed in enumerate(seeds):
            assert np.array_equal(rows[0, k * count:(k + 1) * count], expand_a(seed, count, ring))
        moduli, key = ring._moduli_col, secret_key.ntt.residues
        for i in range(2 * count):
            a, b = rows[:, i]
            shift_a, shift_b = shift[i, 0][:, None], shift[i, 1][:, None]
            e_ntt = (b + a * key - shift_b - shift_a * key) % moduli
            for j, q in enumerate(ring.params.moduli):
                e = ring.ntts[j].inverse(e_ntt[j])
                assert np.abs(np.where(e > q // 2, e - q, e)).max() < 64

    def test_max_plaintext_value(self, ring, bfv, secret_key):
        p = ring.params.plain_modulus
        m = np.full(ring.n, p - 1, dtype=np.int64)
        ct = bfv.encrypt(m, secret_key)
        assert np.array_equal(bfv.decrypt(ct, secret_key), m)

    def test_fresh_noise_is_small(self, ring, bfv, secret_key):
        ct = bfv.encrypt_zero(secret_key)
        assert bfv.noise(ct, secret_key) < 64  # ~6 sigma with sigma=3.2
        assert bfv.noise_budget_bits(ct, secret_key) > 10

    def test_different_keys_fail_to_decrypt(self, ring, bfv, sampler):
        key1 = SecretKey.generate(ring, sampler)
        key2 = SecretKey.generate(ring, sampler)
        rng = np.random.default_rng(1)
        m = _random_plain(ring.params, rng)
        ct = bfv.encrypt(m, key1)
        assert not np.array_equal(bfv.decrypt(ct, key2), m)


class TestHomomorphicOps:
    def test_addition(self, ring, bfv, secret_key):
        rng = np.random.default_rng(2)
        p = ring.params.plain_modulus
        m1, m2 = _random_plain(ring.params, rng), _random_plain(ring.params, rng)
        ct = bfv.encrypt(m1, secret_key) + bfv.encrypt(m2, secret_key)
        assert np.array_equal(bfv.decrypt(ct, secret_key), (m1 + m2) % p)

    def test_subtraction(self, ring, bfv, secret_key):
        rng = np.random.default_rng(3)
        p = ring.params.plain_modulus
        m1, m2 = _random_plain(ring.params, rng), _random_plain(ring.params, rng)
        ct = bfv.encrypt(m1, secret_key) - bfv.encrypt(m2, secret_key)
        assert np.array_equal(bfv.decrypt(ct, secret_key), (m1 - m2) % p)

    def test_negation(self, ring, bfv, secret_key):
        rng = np.random.default_rng(4)
        p = ring.params.plain_modulus
        m = _random_plain(ring.params, rng)
        ct = -bfv.encrypt(m, secret_key)
        assert np.array_equal(bfv.decrypt(ct, secret_key), (-m) % p)

    def test_plain_mul(self, ring, bfv, secret_key):
        """Z * Enc(Y) -> Enc(Z*Y): the RowSel primitive."""
        from repro.he.ntt import naive_negacyclic_convolution

        rng = np.random.default_rng(5)
        p = ring.params.plain_modulus
        m = rng.integers(0, p, size=ring.n, dtype=np.int64)
        z = rng.integers(0, 50, size=ring.n, dtype=np.int64)  # small: noise * |z|
        ct = bfv.encrypt(m, secret_key).plain_mul(bfv.encode_plain(z))
        expected = naive_negacyclic_convolution(m, z, p)
        assert np.array_equal(bfv.decrypt(ct, secret_key), expected)

    def test_monomial_mul(self, ring, bfv, secret_key):
        rng = np.random.default_rng(6)
        m = _random_plain(ring.params, rng)
        ct = bfv.encrypt(m, secret_key).monomial_mul(1)
        dec = bfv.decrypt(ct, secret_key)
        p = ring.params.plain_modulus
        expected = np.roll(m, 1)
        expected[0] = (-m[-1]) % p
        assert np.array_equal(dec, expected)

    def test_scalar_mul(self, ring, bfv, secret_key):
        rng = np.random.default_rng(7)
        p = ring.params.plain_modulus
        m = _random_plain(ring.params, rng)
        ct = bfv.encrypt(m, secret_key).scalar_mul(3)
        assert np.array_equal(bfv.decrypt(ct, secret_key), (3 * m) % p)

    def test_linearity_chain(self, ring, bfv, secret_key):
        """Eq. 1 in miniature: sum of plaintext-weighted encryptions of bits."""
        rng = np.random.default_rng(8)
        p = ring.params.plain_modulus
        weights = [rng.integers(0, 40, size=ring.n, dtype=np.int64) for _ in range(4)]
        sel = 2
        cts = [
            bfv.encrypt(np.full(ring.n, int(i == sel), dtype=np.int64) * 0 + (1 if i == sel else 0) * np.eye(1, ring.n, 0, dtype=np.int64)[0], secret_key)
            for i in range(4)
        ]
        acc = cts[0].plain_mul(bfv.encode_plain(weights[0]))
        for w, ct in zip(weights[1:], cts[1:]):
            acc = acc + ct.plain_mul(bfv.encode_plain(w))
        assert np.array_equal(bfv.decrypt(acc, secret_key), weights[sel] % p)


class TestValidation:
    def test_ciphertext_requires_ntt_domain(self, ring):
        a = ring.zero(Domain.COEFF)
        with pytest.raises(ParameterError):
            BfvCiphertext(a, a)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=65536), st.integers(min_value=0, max_value=65536))
def test_addition_property(v1, v2):
    params = PirParams.small(n=64, d0=4, num_dims=1)
    ring = RingContext(params)
    sampler = Sampler(ring, seed=v1 * 65537 + v2)
    bfv = BfvContext(ring, sampler)
    key = SecretKey.generate(ring, sampler)
    p = params.plain_modulus
    m1 = np.full(ring.n, v1 % p, dtype=np.int64)
    m2 = np.full(ring.n, v2 % p, dtype=np.int64)
    ct = bfv.encrypt(m1, key) + bfv.encrypt(m2, key)
    assert np.array_equal(bfv.decrypt(ct, key), (m1 + m2) % p)
