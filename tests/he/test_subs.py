"""Substitution (automorphism + key switching) — the ExpandQuery primitive."""

import numpy as np
import pytest

from repro.he.subs import generate_subs_key, substitute


def _encrypt_poly(bfv, key, coeffs):
    return bfv.encrypt(np.asarray(coeffs, dtype=np.int64), key)


class TestSubs:
    def test_subs_applies_automorphism(self, ring, bfv, gadget, secret_key):
        """Subs(Enc(m(X)), r) decrypts to m(X^r)."""
        rng = np.random.default_rng(0)
        n, p = ring.n, ring.params.plain_modulus
        m = rng.integers(0, p, size=n, dtype=np.int64)
        for r in (3, n + 1, n // 2 + 1, 2 * n - 1):
            evk = generate_subs_key(bfv, gadget, secret_key, r)
            out = substitute(_encrypt_poly(bfv, secret_key, m), evk, gadget)
            expected = (
                ring.from_small_coeffs(m).automorphism(r).residues[0]
            )  # small coeffs: residue row 0 mod q0 equals value when < q0
            got = bfv.decrypt(out, secret_key)
            # Compare via plaintext automorphism applied directly mod P.
            idx = (np.arange(n) * r) % (2 * n)
            dest = idx % n
            sign = np.where(idx >= n, -1, 1)
            exp = np.zeros(n, dtype=np.int64)
            exp[dest] = (sign * m) % p
            assert np.array_equal(got, exp)

    def test_subs_n_plus_1_negates_odd_terms(self, ring, bfv, gadget, secret_key):
        """The ExpandQuery identity: X -> X^(N+1) flips odd coefficients."""
        rng = np.random.default_rng(1)
        n, p = ring.n, ring.params.plain_modulus
        m = rng.integers(0, p, size=n, dtype=np.int64)
        evk = generate_subs_key(bfv, gadget, secret_key, n + 1)
        out = substitute(_encrypt_poly(bfv, secret_key, m), evk, gadget)
        expected = m.copy()
        expected[1::2] = (-expected[1::2]) % p
        assert np.array_equal(bfv.decrypt(out, secret_key), expected)

    def test_even_odd_extraction(self, ring, bfv, gadget, secret_key):
        """ct + Subs(ct) doubles even terms; ct - Subs(ct) isolates odd ones."""
        rng = np.random.default_rng(2)
        n, p = ring.n, ring.params.plain_modulus
        m = rng.integers(0, p, size=n, dtype=np.int64)
        ct = _encrypt_poly(bfv, secret_key, m)
        evk = generate_subs_key(bfv, gadget, secret_key, n + 1)
        cs = substitute(ct, evk, gadget)
        even = bfv.decrypt(ct + cs, secret_key)
        odd = bfv.decrypt((ct - cs).monomial_mul(-1), secret_key)
        exp_even = np.zeros(n, dtype=np.int64)
        exp_even[0::2] = (2 * m[0::2]) % p
        exp_odd = np.zeros(n, dtype=np.int64)
        exp_odd[0::2] = (2 * m[1::2]) % p
        assert np.array_equal(even, exp_even)
        assert np.array_equal(odd, exp_odd)

    def test_subs_noise_additive(self, ring, bfv, gadget, secret_key):
        rng = np.random.default_rng(3)
        n, p = ring.n, ring.params.plain_modulus
        m = rng.integers(0, p, size=n, dtype=np.int64)
        ct = _encrypt_poly(bfv, secret_key, m)
        evk = generate_subs_key(bfv, gadget, secret_key, n + 1)
        noises = []
        for _ in range(4):
            ct = substitute(ct, evk, gadget)
            noises.append(bfv.noise(ct, secret_key))
        growth = np.diff(noises)
        # Additive growth: the per-step increments stay the same order.
        assert np.all(np.abs(growth) < 10 * (noises[0] + 1))

    def test_wrong_gadget_length_rejected(self, ring, bfv, gadget, secret_key):
        from repro.errors import ParameterError
        from repro.he.subs import SubsKey

        evk = generate_subs_key(bfv, gadget, secret_key, 3)
        bad = SubsKey(r=3, ctx=evk.ctx, rows=evk.rows[:, :-1])
        ct = bfv.encrypt_zero(secret_key)
        with pytest.raises(ParameterError):
            substitute(ct, bad, gadget)
