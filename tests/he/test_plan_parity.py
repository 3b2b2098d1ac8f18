"""The GEMM NTT plans against the eager butterflies, byte for byte.

``planned`` replaces the transform primitives with per-ring plans
(:class:`repro.he.backend._GemmNttPlan`): dense up to n = 512, four-step
above, walked in blocks.  Every property here holds the backend under
test to the ``eager`` oracle on exactly the inputs that distinguish the
plan shapes: square and non-square factorisations, batches below, at and
across the block size, empty batches, and residues that are unreduced or
negative on arrival.  ``REPRO_BACKEND`` selects the backend (CI runs
this file once per registered backend, like ``test_hotpath_equiv.py``).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import modmath
from repro.he.backend import DEFAULT_BACKEND, PLAN_MAX_N, get_backend
from repro.he.batched import RnsPolyVec
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RingContext
from repro.obs.metrics import MetricsRegistry, install
from repro.params import PirParams
from repro.pir.expand import expansion_powers

BACKEND = get_backend(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND))
EAGER = get_backend("eager")
PLANNED = get_backend("planned")

#: Four-step rings: 32 x 32, the non-square 32 x 64, and the paper's 64 x 64.
RINGS = {
    1024: RingContext(PirParams.small(n=1024)),
    2048: RingContext(PirParams.small(n=2048)),
    4096: RingContext(PirParams.functional()),
}


def _batches(ring: RingContext, shared: bool) -> list[int]:
    block = PLANNED._plan(ring).block_polys(shared)
    return [0, 1, block - 1, block, block + 1, 2 * block + 1]


def _residues(ring: RingContext, batch: int, seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (batch, ring.rns_count, ring.n)
    if kind == "canonical":
        return rng.integers(0, 1 << 62, size=shape) % ring._moduli_col
    if kind == "unreduced":
        return rng.integers(0, 1 << 62, size=shape)
    return rng.integers(-(1 << 62), 1 << 62, size=shape)


@pytest.fixture
def counters():
    """A registry installed behind ``obs.metrics.count`` for one test."""
    registry = MetricsRegistry()
    previous = install(registry)
    yield lambda name: registry.counter(name).value
    install(previous)


cases = given(
    n=st.sampled_from(sorted(RINGS)),
    batch_index=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["canonical", "unreduced", "signed"]),
)


class TestFourStepParity:
    def test_plan_shapes_follow_from_n(self):
        shapes = {n: PLANNED._plan(ring) for n, ring in RINGS.items()}
        assert [(p.rows, p.cols) for p in shapes.values()] == [
            (32, 32), (32, 64), (64, 64)
        ]
        small = PLANNED._plan(RingContext(PirParams.small(n=256)))
        assert (small.rows, small.cols) == (1, 256)
        assert max(RINGS) == PLAN_MAX_N

    @cases
    @settings(max_examples=40, deadline=None)
    def test_forward_matches_eager(self, n, batch_index, seed, kind):
        ring = RINGS[n]
        x = _residues(ring, _batches(ring, False)[batch_index], seed, kind)
        got = BACKEND.ntt_forward(ring, x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, EAGER.ntt_forward(ring, x))

    @cases
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_eager(self, n, batch_index, seed, kind):
        ring = RINGS[n]
        x = _residues(ring, _batches(ring, False)[batch_index], seed, kind)
        got = BACKEND.ntt_inverse(ring, x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, EAGER.ntt_inverse(ring, x))

    @cases
    @settings(max_examples=40, deadline=None)
    def test_digits_forward_matches_eager(self, n, batch_index, seed, kind):
        """Digits may come back partially reduced; mod q they are eager's."""
        ring = RINGS[n]
        rng = np.random.default_rng(seed)
        high = {"canonical": ring.params.gadget_base, "unreduced": 1 << 40}
        digits = rng.integers(
            -(1 << 40) if kind == "signed" else 0, high.get(kind, 1 << 40),
            size=(_batches(ring, True)[batch_index], 3, n),
        )
        got = BACKEND.digits_forward(ring, digits)
        assert got.shape == (digits.shape[0], 3, ring.rns_count, n)
        assert np.all(got >= 0) and np.all(got < 2 * ring._moduli_col)
        assert np.array_equal(
            got % ring._moduli_col, EAGER.digits_forward(ring, digits)
        )

    @pytest.mark.parametrize("n", sorted(RINGS))
    def test_broadcast_rns_axis_is_the_crt(self, n):
        """(batch, 1, n) integer rows transform as their residues would."""
        ring = RINGS[n]
        coeffs = np.random.default_rng(n).integers(-50, 1 << 20, size=(5, n))
        want = EAGER.ntt_forward(ring, coeffs[:, None, :] % ring._moduli_col)
        assert np.array_equal(BACKEND.ntt_forward(ring, coeffs[:, None, :]), want)


class TestPlanCache:
    def test_contexts_of_equal_params_share_one_plan(self):
        first = RingContext(PirParams.functional())
        second = RingContext(PirParams.functional(d0=16, num_dims=3))
        assert first is not second
        assert PLANNED._plan(first) is PLANNED._plan(second)
        assert PLANNED._plan(first) is not PLANNED._plan(RINGS[2048])

    @pytest.mark.parametrize("n, bits, planned", [
        # 30-bit primes: the 32 x 32 bound (2^52.2) still holds ...
        (1024, 30, True),
        # ... the 64 x 64 one (2^53.2) does not, nor does any at 31 bits
        # (a [0, 2q) residue no longer fits the int32 staging).
        (4096, 30, False),
        (256, 31, False),
    ])
    def test_rings_beyond_the_exactness_bounds_run_eager(
        self, n, bits, planned, counters
    ):
        moduli = modmath.find_ntt_primes(bits, 2 * n, 3)
        ring = RingContext(PirParams(
            n=n, moduli=moduli, plain_modulus=65537, gadget_base_log2=16,
            gadget_len=6, d0=8, num_dims=1,
        ))
        assert (PLANNED._plan(ring) is not None) == planned
        x = _residues(ring, 3, seed=bits, kind="signed")
        digits = np.random.default_rng(bits).integers(0, 1 << 16, size=(3, 2, n))
        assert np.array_equal(
            BACKEND.ntt_forward(ring, x), EAGER.ntt_forward(ring, x)
        )
        assert np.array_equal(
            BACKEND.ntt_inverse(ring, x), EAGER.ntt_inverse(ring, x)
        )
        assert np.array_equal(
            BACKEND.digits_forward(ring, digits) % ring._moduli_col,
            EAGER.digits_forward(ring, digits),
        )
        before = counters("he_plan_none")
        PLANNED.ntt_forward(ring, x)
        assert counters("he_plan_none") - before == (0 if planned else 1)


class TestFallbackCounters:
    """Each drop from a planned kernel to the eager or bignum code is counted."""

    def test_paper_gadget_decompose_takes_the_eager_limbs(self, counters, small_params):
        # 2^22 base, l = 5: six limbs pack as 3 + 3, and 66 bits > 62.
        gadget = Gadget(RingContext(PirParams.paper()))
        ring = gadget.ctx
        vec = RnsPolyVec(
            ring, _residues(ring, 2, seed=5, kind="canonical"), Domain.COEFF
        )
        digits = PLANNED.decompose(gadget, vec)
        assert counters("he_decompose_eager") == 1
        assert np.array_equal(digits, EAGER.decompose(gadget, vec))
        # 2^14 base, l = 6: the packed halves fit and nothing is counted.
        packed = Gadget(RingContext(small_params))
        PLANNED.decompose(packed, RnsPolyVec(
            packed.ctx, _residues(packed.ctx, 2, seed=6, kind="canonical"),
            Domain.COEFF,
        ))
        assert counters("he_decompose_eager") == 1

    def test_out_of_range_inner_operands_take_the_eager_einsum(self, counters):
        ring = RINGS[1024]
        rng = np.random.default_rng(7)
        shape = (1, 2, 3, ring.rns_count, ring.n)
        digits = rng.integers(0, 1 << 40, size=shape)  # one product is 2^70
        rows = rng.integers(0, 1 << 30, size=shape[:1] + shape[2:])
        got = PLANNED.inner(digits, rows, ring._moduli_col)
        assert counters("he_inner_eager") == 1
        want = EAGER.inner(digits % ring._moduli_col, rows, ring._moduli_col)
        assert np.array_equal(got, want)
        PLANNED.inner(digits % ring._moduli_col, rows, ring._moduli_col)
        assert counters("he_inner_eager") == 1

    def test_oversized_q_gemm_takes_object_bignums(self, counters):
        q = (1 << 45) + 59
        rng = np.random.default_rng(8)
        a = rng.integers(0, q, size=(3, 5))
        b = rng.integers(0, q, size=(5, 2))
        exact = ((a.astype(object) @ b.astype(object)) % q).astype(np.int64)
        for position, backend in enumerate((EAGER, PLANNED), start=1):
            assert np.array_equal(backend.modular_gemm(a, b, q), exact)
            assert counters("he_modular_gemm_bignum") == position
        PLANNED.modular_gemm(a % 256, b, q)  # a p-sized operand stays in range
        assert counters("he_modular_gemm_bignum") == 2


class TestNttDomainAutomorphism:
    @pytest.mark.parametrize("params", [
        PirParams.small(n=256, d0=256), PirParams.functional(d0=4096),
    ], ids=["n256", "n4096"])
    def test_gather_matches_coefficient_scatter_for_every_expand_power(
        self, params
    ):
        ring = RingContext(params)
        levels = modmath.ilog2(params.d0)
        cts = _residues(ring, 4, seed=params.n, kind="canonical").reshape(
            (2, 2, ring.rns_count, ring.n)
        )
        for r in expansion_powers(params.n, levels):
            got_a, got_b = BACKEND.automorphism(ring, cts, r)
            want_a, want_b = EAGER.automorphism(ring, cts, r)
            assert np.array_equal(got_a, want_a), r
            assert np.array_equal(got_b, want_b), r
