"""Backend kernels vs the per-poly reference, element by element.

Every stacked kernel of a :class:`~repro.he.backend.ComputeBackend`
claims exact equivalence with its scalar counterpart — reassociated
modular arithmetic cannot change the canonical residues.  These
hypothesis suites drive random shapes, moduli, and values (including
the adversarial lazy-reduction and limb iCRT corners) through
``get_backend(...)`` primitives and the stacked window ops on one side
and the per-poly oracle on the other, and assert element identity.
Every case runs on each registered backend; ``REPRO_BACKEND`` restricts
that to one (CI runs the file once per backend, like
``test_plan_parity.py``).  The backend loop sits inside each test, not
in a ``parametrize``, so test ids do not depend on the registry.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError, ParameterError
from repro.he import modmath
from repro.he.backend import (
    _limb_tables,
    _rns_ntt_tables,
    backend_names,
    get_backend,
    overflow_safe_chunk,
)
from repro.he.batched import BfvCiphertextVec, RnsPolyVec
from repro.he.bfv import BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.ntt import NttContext
from repro.he.poly import Domain, RingContext
from repro.he.rgsw import cmux, external_product, rgsw_encrypt
from repro.he.sampling import Sampler
from repro.he.subs import generate_subs_key, substitute
from repro.params import PirParams


#: Backends under test; CI sets REPRO_BACKEND=eager / =planned.
BACKENDS = [
    get_backend(name)
    for name in (
        [os.environ["REPRO_BACKEND"]] if "REPRO_BACKEND" in os.environ
        else backend_names()
    )
]


def lazy_modular_gemm(backend, db, query, moduli_col):
    """One query against one shared plane tensor."""
    return backend.rowsel_gemm(db[None], query[None], moduli_col)[0]


def assert_digits_match_reference(gadget, polys):
    """``backend.decompose`` of the stacked polys == per-poly ``Gadget.decompose``."""
    want = [[d.residues[0] for d in gadget.decompose(poly)] for poly in polys]
    for backend in BACKENDS:
        digits = backend.decompose(gadget, RnsPolyVec.from_polys(polys))
        assert digits.shape == (len(polys), gadget.length, gadget.ctx.n)
        assert np.array_equal(digits, np.array(want)), backend.name
        # An NTT-form batch is brought back to coefficients first, like Dcp.
        in_ntt = RnsPolyVec.from_polys([poly.to_ntt() for poly in polys])
        assert np.array_equal(backend.decompose(gadget, in_ntt), digits)


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
        tables = _rns_ntt_tables(ctx)
        assert not tables["lazy_fwd"]  # lazy_inv's looser 2q(q-1) bound may still hold
        rng = np.random.default_rng(17)
        x = rng.integers(0, min(primes), size=(3, ctx.rns_count, n))
        for backend in BACKENDS:  # no plan covers these moduli either
            fwd = backend.ntt_forward(ctx, x)
            assert np.array_equal(backend.ntt_inverse(ctx, fwd), x % ctx._moduli_col)
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
        for backend in BACKENDS:
            fwd = backend.ntt_forward(ctx, x)
            assert np.array_equal(backend.ntt_inverse(ctx, fwd), x)
            for b in range(batch):
                for j in range(k):
                    for i, ntt in enumerate(ctx.ntts):
                        assert np.array_equal(fwd[b, j, i], ntt.forward(x[b, j, i]))


class TestRnsPolyVec:
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
        with pytest.raises(ParameterError):
            RnsPolyVec(ctx, vec.residues[0], Domain.NTT)  # no batch axis
        with pytest.raises(ParameterError):
            BfvCiphertextVec(vec, RnsPolyVec.from_polys([p.to_coeff() for p in polys]))


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
        assert_digits_match_reference(gadget, polys)

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
        assert not _limb_tables(gadget)["limb_ok"]
        rng = np.random.default_rng(23)
        polys = [
            ctx.from_int_coeffs([int(c) for c in rng.integers(0, 1 << 61, size=n)])
            for _ in range(3)
        ]
        assert_digits_match_reference(gadget, polys)

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
        assert_digits_match_reference(gadget, polys)


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
            want = (rows * pow(q - 1, 2, q)) % q
            for backend in BACKENDS:
                out = lazy_modular_gemm(backend, db, query, moduli_col)
                assert np.all(out == want), (backend.name, rows)

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
        exact = (db.astype(object) * query.astype(object)[None]).sum(axis=1)
        want = (exact % moduli_col.astype(object)).astype(np.int64)
        for backend in BACKENDS:
            assert np.array_equal(
                lazy_modular_gemm(backend, db, query, moduli_col), want
            )

    def test_mismatched_shapes_rejected(self):
        for backend in BACKENDS:
            with pytest.raises(ParameterError):
                lazy_modular_gemm(
                    backend,
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
    @staticmethod
    def _assert_cts(stacked, refs):
        assert stacked.shape[1] == len(refs)
        for i, ref in enumerate(refs):
            assert np.array_equal(stacked[0, i], ref.a.residues)
            assert np.array_equal(stacked[1, i], ref.b.residues)

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
        refs = [substitute(ct, evk, gadget) for ct in cts]
        for backend in BACKENDS:
            out = backend.substitute_stacked(
                BfvCiphertextVec.from_cts(cts).stacked(), evk, gadget
            )
            self._assert_cts(out, refs)

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
        products = [external_product(rgsw, ct, gadget) for ct in cts[:batch]]
        selected = [
            cmux(rgsw, cts[i], cts[batch + i], gadget) for i in range(batch)
        ]
        # One ColTor round is the stacked cmux: query i's pair is
        # (if_zero, if_one) = (cts[i], cts[batch + i]) under its own bit.
        pairs = BfvCiphertextVec.from_cts(
            [cts[i + half * batch] for i in range(batch) for half in (0, 1)]
        ).stacked()
        for backend in BACKENDS:
            prod = backend.external_product_stacked(
                rgsw.rows[:, None],
                BfvCiphertextVec.from_cts(cts[:batch]).stacked()[:, None],
                gadget,
            )
            self._assert_cts(prod[:, 0], products)
            sel = backend.coltor_window(pairs, [[rgsw.rows] * batch], gadget)
            self._assert_cts(sel, selected)
