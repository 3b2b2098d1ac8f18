"""Modular arithmetic, special primes, and RNS/CRT reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.rns import RnsBasis


class TestPrimality:
    def test_small_primes(self):
        assert modmath.is_prime(2)
        assert modmath.is_prime(3)
        assert modmath.is_prime(65537)
        assert not modmath.is_prime(1)
        assert not modmath.is_prime(0)
        assert not modmath.is_prime(65536)

    def test_paper_special_primes_are_prime(self):
        for k in modmath.SPECIAL_PRIME_EXPONENTS:
            assert modmath.is_prime(2**27 + 2**k + 1)

    def test_special_primes_support_paper_ring(self):
        primes = modmath.special_primes(order=2 * 4096, count=4)
        assert len(primes) == 4
        for q in primes:
            assert (q - 1) % (2 * 4096) == 0

    def test_special_primes_reject_large_order(self):
        with pytest.raises(ParameterError):
            modmath.special_primes(order=2**20, count=4)

    def test_find_ntt_primes(self):
        primes = modmath.find_ntt_primes(bits=20, order=512, count=3)
        assert len(primes) == 3
        for q in primes:
            assert modmath.is_prime(q)
            assert q % 512 == 1
            assert 2**19 <= q < 2**20


class TestModInverse:
    def test_inverse(self):
        assert modmath.mod_inverse(3, 7) == 5
        q = 134250497
        for a in (2, 12345, q - 1):
            assert a * modmath.mod_inverse(a, q) % q == 1

    def test_no_inverse(self):
        with pytest.raises(ParameterError):
            modmath.mod_inverse(6, 9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=134250496))
    def test_inverse_property(self, a):
        q = 134250497
        assert a * modmath.mod_inverse(a, q) % q == 1


class TestRoots:
    def test_root_of_unity_order(self):
        q = 134250497
        for order in (2, 512, 8192):
            w = modmath.root_of_unity(order, q)
            assert pow(w, order, q) == 1
            assert pow(w, order // 2, q) != 1

    def test_root_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            modmath.root_of_unity(3, 134250497)  # 3 does not divide q-1...
        # (q-1 = 2^15 * k; 3 may divide k, so use an order that cannot)
    def test_root_rejects_non_dividing_order(self):
        with pytest.raises(ParameterError):
            modmath.root_of_unity(2**30, 134250497)


class TestHelpers:
    def test_bit_reverse(self):
        assert modmath.bit_reverse(0b001, 3) == 0b100
        assert modmath.bit_reverse(0b110, 3) == 0b011
        assert modmath.bit_reverse(5, 0) == 0

    def test_ilog2(self):
        assert modmath.ilog2(1) == 0
        assert modmath.ilog2(4096) == 12
        with pytest.raises(ParameterError):
            modmath.ilog2(12)

    def test_special_prime_area_discount(self):
        generic = modmath.montgomery_modmul_area_units(28, special=False)
        special = modmath.montgomery_modmul_area_units(28, special=True)
        assert special / generic == pytest.approx(1 - 0.091)


class TestRnsBasis:
    @pytest.fixture
    def basis(self):
        return RnsBasis(modmath.special_primes(order=512, count=3))

    def test_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        values = [int(x) for x in rng.integers(0, 2**60, size=16)]
        residues = basis.to_rns(values)
        back = basis.from_rns(residues)
        assert [int(v) for v in back] == values

    def test_roundtrip_large_values(self, basis):
        values = [basis.modulus_product - 1, 0, basis.modulus_product // 2]
        back = basis.from_rns(basis.to_rns(values))
        assert [int(v) for v in back] == values

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ParameterError):
            RnsBasis((134250497, 134250497))

    def test_row_count_checked(self, basis):
        with pytest.raises(ParameterError):
            basis.from_rns(np.zeros((2, 4), dtype=np.int64))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0))
    def test_crt_roundtrip_property(self, value):
        basis = RnsBasis(modmath.special_primes(order=512, count=2))
        value %= basis.modulus_product
        back = basis.from_rns(basis.to_rns([value]))
        assert int(back[0]) == value
