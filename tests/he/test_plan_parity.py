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
from repro.he.poly import Domain, RingContext
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
    def test_rings_beyond_the_exactness_bounds_run_eager(self, n, bits, planned):
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


class TestNttDomainAutomorphism:
    @pytest.mark.parametrize("params", [
        PirParams.small(n=256, d0=256), PirParams.functional(d0=4096),
    ], ids=["n256", "n4096"])
    def test_gather_matches_coefficient_scatter_for_every_expand_power(
        self, params
    ):
        ring = RingContext(params)
        levels = modmath.ilog2(params.d0)
        vec = RnsPolyVec(
            ring, _residues(ring, 2, seed=params.n, kind="canonical"), Domain.NTT
        )
        for r in expansion_powers(params.n, levels):
            got = BACKEND.vec_to_ntt(BACKEND.automorphism(vec, r))
            want = EAGER.vec_to_ntt(EAGER.automorphism(vec, r))
            assert np.array_equal(got.residues, want.residues), r
