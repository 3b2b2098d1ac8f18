"""Batched tensor kernels vs the per-poly reference, element by element.

Every kernel in ``repro.he.batched`` claims exact equivalence with its
scalar counterpart — reassociated modular arithmetic cannot change the
canonical residues.  These hypothesis suites drive random shapes,
moduli, and values (including the adversarial lazy-reduction and limb
iCRT corners) through both paths and assert element identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError, ParameterError
from repro.he import modmath
from repro.he.backend import get_backend
from repro.he.batched import (
    BfvCiphertextVec,
    RnsPolyVec,
    batched_decompose,
    overflow_safe_chunk,
    rns_forward,
    rns_inverse,
)
from repro.he.bfv import BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.ntt import NttContext
from repro.he.poly import Domain, RingContext
from repro.he.rgsw import cmux, external_product, rgsw_encrypt
from repro.he.sampling import Sampler
from repro.he.subs import generate_subs_key, substitute
from repro.params import PirParams


#: The pipeline ops live on the compute backends; ``eager`` is the stacked
#: numpy oracle these suites pin against the per-poly reference.
EAGER = get_backend("eager")


def lazy_modular_gemm(db, query, moduli_col):
    """One query against one shared plane tensor."""
    return EAGER.rowsel_gemm(db[None], query[None], moduli_col)[0]


def _ntt_context(n: int, seed: int) -> NttContext:
    primes = modmath.find_ntt_primes(bits=28, order=2 * n, count=3)
    return NttContext(n, primes[seed % len(primes)])


class TestStackedNtt:
    @settings(max_examples=30, deadline=None)
    @given(
        logn=st.integers(min_value=2, max_value=7),
        lead=st.lists(st.integers(min_value=1, max_value=4), max_size=2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_stacked_forward_inverse_match_per_poly(self, logn, lead, seed):
        n = 1 << logn
        ntt = _ntt_context(n, seed)
        rng = np.random.default_rng(seed)
        stacked = rng.integers(0, ntt.q, size=tuple(lead) + (n,))
        fwd = ntt.forward(stacked)
        inv = ntt.inverse(fwd)
        flat_in = stacked.reshape(-1, n)
        flat_fwd = fwd.reshape(-1, n)
        flat_inv = inv.reshape(-1, n)
        for i in range(flat_in.shape[0]):
            assert np.array_equal(flat_fwd[i], ntt.forward(flat_in[i]))
            assert np.array_equal(flat_inv[i], flat_in[i])

    def test_wrong_last_axis_rejected(self):
        ntt = _ntt_context(16, 0)
        with pytest.raises(ParameterError):
            ntt.forward(np.zeros((4, 17), dtype=np.int64))
        with pytest.raises(ParameterError):
            ntt.inverse(np.zeros((17,), dtype=np.int64))

    def test_large_moduli_take_the_eager_path_exactly(self):
        """Regression: ~2^31 NTT-friendly moduli are valid parameters but
        overflow the lazy butterflies; they must fall back to per-stage
        reduction and still match the per-poly reference exactly."""
        n = 64
        primes = modmath.find_ntt_primes(bits=31, order=2 * n, count=2)
        params = PirParams(
            n=n,
            moduli=primes,
            plain_modulus=257,
            gadget_base_log2=16,
            gadget_len=4,
            d0=4,
            num_dims=1,
        )
        ctx = RingContext(params)
        from repro.he.batched import _rns_ntt_tables

        tables = _rns_ntt_tables(ctx)
        assert not tables["lazy_fwd"]  # lazy_inv's looser 2q(q-1) bound may still hold
        rng = np.random.default_rng(17)
        x = rng.integers(0, min(primes), size=(3, ctx.rns_count, n))
        fwd = rns_forward(ctx, x)
        assert np.array_equal(rns_inverse(ctx, fwd), x % ctx._moduli_col)
        for b in range(3):
            for i, ntt in enumerate(ctx.ntts):
                assert np.array_equal(fwd[b, i], ntt.forward(x[b, i]))

    @settings(max_examples=20, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_rns_transforms_match_per_modulus(self, batch, k, seed, small_params):
        ctx = RingContext(small_params)
        rng = np.random.default_rng(seed)
        x = rng.integers(
            0, 1 << 60, size=(batch, k, ctx.rns_count, ctx.n)
        ) % ctx._moduli_col
        fwd = rns_forward(ctx, x)
        inv = rns_inverse(ctx, fwd)
        assert np.array_equal(inv, x)
        for b in range(batch):
            for j in range(k):
                for i, ntt in enumerate(ctx.ntts):
                    assert np.array_equal(fwd[b, j, i], ntt.forward(x[b, j, i]))


class TestRnsPolyVec:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ops_match_per_poly(self, batch, seed, small_params):
        ctx = RingContext(small_params)
        rng = np.random.default_rng(seed)
        coeffs_a = rng.integers(-(1 << 40), 1 << 40, size=(batch, ctx.n))
        coeffs_b = rng.integers(-(1 << 40), 1 << 40, size=(batch, ctx.n))
        vec_a = RnsPolyVec.from_small_coeffs(ctx, coeffs_a, domain=Domain.NTT)
        vec_b = RnsPolyVec.from_small_coeffs(ctx, coeffs_b, domain=Domain.NTT)
        ref_a = [ctx.from_small_coeffs(c, domain=Domain.NTT) for c in coeffs_a]
        ref_b = [ctx.from_small_coeffs(c, domain=Domain.NTT) for c in coeffs_b]
        power = int(rng.integers(0, 2 * ctx.n))
        r = int(rng.integers(0, ctx.n)) * 2 + 1
        consts = rng.integers(0, 1 << 27, size=ctx.rns_count)
        cases = [
            (vec_a + vec_b, [x + y for x, y in zip(ref_a, ref_b)]),
            (vec_a - vec_b, [x - y for x, y in zip(ref_a, ref_b)]),
            (-vec_a, [-x for x in ref_a]),
            (vec_a * vec_b, [x * y for x, y in zip(ref_a, ref_b)]),
            (vec_a.monomial_mul(power), [x.monomial_mul(power) for x in ref_a]),
            (vec_a.scalar_rns_mul(consts), [x.scalar_rns_mul(consts) for x in ref_a]),
            (vec_a.mul_poly(ref_b[0]), [x * ref_b[0] for x in ref_a]),
            (vec_a.to_coeff(), [x.to_coeff() for x in ref_a]),
            (
                vec_a.to_coeff().automorphism(r),
                [x.to_coeff().automorphism(r) for x in ref_a],
            ),
            (
                vec_a.to_coeff().monomial_mul(power),
                [x.to_coeff().monomial_mul(power) for x in ref_a],
            ),
        ]
        for got_vec, want in cases:
            assert got_vec.batch == batch
            for i, want_poly in enumerate(want):
                got = got_vec.poly(i)
                assert got.domain is want_poly.domain
                assert np.array_equal(got.residues, want_poly.residues)

    def test_from_polys_roundtrip_and_discipline(self, small_params):
        ctx = RingContext(small_params)
        polys = [ctx.constant(i + 1) for i in range(3)]
        vec = RnsPolyVec.from_polys(polys)
        assert [p.residues.tolist() for p in vec.polys()] == [
            p.residues.tolist() for p in polys
        ]
        with pytest.raises(ParameterError):
            RnsPolyVec.from_polys([])
        with pytest.raises(DomainError):
            RnsPolyVec.from_polys([polys[0], polys[1].to_coeff()])
        with pytest.raises(DomainError):
            vec.to_coeff() * vec.to_coeff()
        with pytest.raises(DomainError):
            vec.automorphism(3)  # NTT domain


class TestBatchedDecompose:
    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_reference_decompose(self, batch, seed, small_params):
        ctx = RingContext(small_params)
        gadget = Gadget(ctx)
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(batch):
            coeffs = [int(c) for c in rng.integers(0, 1 << 62, size=ctx.n)]
            polys.append(ctx.from_int_coeffs(coeffs))
        vec = RnsPolyVec.from_polys(polys)
        digits = batched_decompose(gadget, vec)
        assert digits.shape == (batch, gadget.length, ctx.n)
        for i, poly in enumerate(polys):
            ref = gadget.decompose(poly)
            for j, digit in enumerate(ref):
                assert np.array_equal(digits[i, j], digit.residues[0])

    def test_oversized_base_falls_back_to_reference(self):
        """Regression: a large-base/large-moduli gadget (valid parameters)
        would wrap the limb-iCRT einsum; it must take the exact per-poly
        reference path instead of silently corrupting digits."""
        n = 64
        primes = modmath.find_ntt_primes(bits=31, order=2 * n, count=3)
        params = PirParams(
            n=n,
            moduli=primes,
            plain_modulus=257,
            gadget_base_log2=31,
            gadget_len=3,
            d0=4,
            num_dims=1,
        )
        ctx = RingContext(params)
        gadget = Gadget(ctx)
        from repro.he.batched import _limb_tables

        assert not _limb_tables(gadget)["limb_ok"]
        rng = np.random.default_rng(23)
        polys = [
            ctx.from_int_coeffs([int(c) for c in rng.integers(0, 1 << 61, size=n)])
            for _ in range(3)
        ]
        digits = batched_decompose(gadget, RnsPolyVec.from_polys(polys))
        for i, poly in enumerate(polys):
            for j, digit in enumerate(gadget.decompose(poly)):
                assert np.array_equal(digits[i, j], digit.residues[0])

    def test_limb_icrt_corner_lifts(self, small_params):
        """Lifts near 0, 1, Q-1, and q_i multiples — the k-correction corners."""
        ctx = RingContext(small_params)
        gadget = Gadget(ctx)
        q = small_params.q
        corners = [0, 1, 2, q - 1, q - 2, q // 2, q // 2 + 1]
        corners += [m for m in small_params.moduli]
        coeff_rows = []
        for value in corners:
            coeff_rows.append([value] + [0] * (ctx.n - 1))
        polys = [ctx.from_int_coeffs(row) for row in coeff_rows]
        digits = batched_decompose(gadget, RnsPolyVec.from_polys(polys))
        for i, poly in enumerate(polys):
            ref = gadget.decompose(poly)
            for j, digit in enumerate(ref):
                assert np.array_equal(digits[i, j], digit.residues[0])


class TestLazyReduction:
    def test_chunk_boundary_exact(self):
        """Accumulation length exactly at the overflow-safe limit is exact."""
        q = (1 << 30) + 1  # (q-1)^2 = 2^60 -> chunk = 7
        chunk = overflow_safe_chunk(q)
        assert chunk == ((1 << 63) - 1 - (q - 1)) // ((q - 1) ** 2)
        for rows in (chunk, chunk + 1, 2 * chunk + 1):
            # worst case: every residue at q-1 maximises each product
            db = np.full((2, rows, 1, 3), q - 1, dtype=np.int64)
            query = np.full((rows, 1, 3), q - 1, dtype=np.int64)
            moduli_col = np.array([[q]], dtype=np.int64)
            out = lazy_modular_gemm(db, query, moduli_col)
            want = (rows * pow(q - 1, 2, q)) % q
            assert np.all(out == want), rows

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=20),
        cols=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_gemm_matches_object_math(self, rows, cols, seed):
        q = (1 << 30) + 1  # small chunk (7) so chunking is exercised
        rng = np.random.default_rng(seed)
        db = rng.integers(0, q, size=(cols, rows, 2, 3))
        query = rng.integers(0, q, size=(rows, 2, 3))
        moduli_col = np.array([[q], [q - 4]], dtype=np.int64)
        out = lazy_modular_gemm(db, query, moduli_col)
        exact = (db.astype(object) * query.astype(object)[None]).sum(axis=1)
        assert np.array_equal(out, (exact % moduli_col.astype(object)).astype(np.int64))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ParameterError):
            lazy_modular_gemm(
                np.zeros((2, 3, 1, 4), dtype=np.int64),
                np.zeros((4, 1, 4), dtype=np.int64),
                np.array([[17]], dtype=np.int64),
            )

    def test_oversized_modulus_rejected(self):
        with pytest.raises(ParameterError):
            overflow_safe_chunk(1 << 33)


@pytest.fixture(scope="module")
def he_stack():
    params = PirParams.small(n=256, d0=8, num_dims=2)
    ctx = RingContext(params)
    sampler = Sampler(ctx, seed=99)
    bfv = BfvContext(ctx, sampler)
    key = SecretKey.generate(ctx, sampler)
    gadget = Gadget(ctx)
    return params, ctx, bfv, key, gadget


class TestBatchedHeOps:
    def _random_cts(self, bfv, key, count, seed):
        rng = np.random.default_rng(seed)
        return [
            bfv.encrypt(
                rng.integers(0, bfv.params.plain_modulus, size=bfv.params.n), key
            )
            for _ in range(count)
        ]

    @settings(max_examples=10, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_substitute_matches_reference(self, batch, seed, he_stack):
        params, ctx, bfv, key, gadget = he_stack
        evk = generate_subs_key(bfv, gadget, key, params.n // 2 + 1)
        cts = self._random_cts(bfv, key, batch, seed)
        out = EAGER.substitute(BfvCiphertextVec.from_cts(cts), evk, gadget)
        for i, ct in enumerate(cts):
            ref = substitute(ct, evk, gadget)
            assert np.array_equal(out.a.residues[i], ref.a.residues)
            assert np.array_equal(out.b.residues[i], ref.b.residues)

    @settings(max_examples=10, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=4),
        bit=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_external_product_and_cmux_match_reference(
        self, batch, bit, seed, he_stack
    ):
        params, ctx, bfv, key, gadget = he_stack
        rgsw = rgsw_encrypt(bfv, gadget, bit, key)
        cts = self._random_cts(bfv, key, 2 * batch, seed)
        vec = BfvCiphertextVec.from_cts(cts[:batch])
        prod = EAGER.external_product(rgsw, vec, gadget)
        for i in range(batch):
            ref = external_product(rgsw, cts[i], gadget)
            assert np.array_equal(prod.a.residues[i], ref.a.residues)
            assert np.array_equal(prod.b.residues[i], ref.b.residues)
        zeros = BfvCiphertextVec.from_cts(cts[:batch])
        ones = BfvCiphertextVec.from_cts(cts[batch:])
        sel = EAGER.cmux(rgsw, zeros, ones, gadget)
        for i in range(batch):
            ref = cmux(rgsw, cts[i], cts[batch + i], gadget)
            assert np.array_equal(sel.a.residues[i], ref.a.residues)
            assert np.array_equal(sel.b.residues[i], ref.b.residues)
