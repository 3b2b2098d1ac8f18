"""The backend under test against the eager butterflies, byte for byte.

Every property here holds the backend under test to the ``eager``
oracle at the ring degrees up to the paper's N = 2^12 (square and
non-square ``2^a x 2^b`` shapes alike), on empty, single and odd-sized
batches, and on residues that are unreduced or negative on arrival; the
fallbacks to eager and bignum code are counted.  ``REPRO_BACKEND``
selects the backend (CI runs this file once per registered backend,
like ``test_hotpath_equiv.py``).

The ``native`` backend's compiled kernels get their own edge vectors,
bounds and build/cache/fallback cases at the bottom; those that need the
library skip, with the reason, on a machine that cannot build it.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath, native
from repro.he.backend import DEFAULT_BACKEND, backend_names, get_backend
from repro.he.batched import RnsPolyVec
from repro.he.gadget import Gadget
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.he.subs import SubsKey
from repro.obs.metrics import MetricsRegistry, install
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.expand import expansion_powers
from repro.pir.protocol import PirProtocol

BACKEND = get_backend(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND))
EAGER = get_backend("eager")
NATIVE = get_backend("native")

needs_native = pytest.mark.skipif(
    native.load_library() is None,
    reason="the native kernels could not be built here (no C compiler, or "
    "the build or load failed): nothing compiled to test",
)

#: The rings 2^10 .. 2^12, up to the paper's ring degree.
RINGS = {
    1024: RingContext(PirParams.small(n=1024)),
    2048: RingContext(PirParams.small(n=2048)),
    4096: RingContext(PirParams.functional()),
}


#: Empty, single, and odd and even batches on both sides of eight.
BATCHES = [0, 1, 7, 8, 9, 17]


def _residues(ring: RingContext, batch: int, seed: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (batch, ring.rns_count, ring.n)
    if kind == "canonical":
        return rng.integers(0, 1 << 62, size=shape) % ring._moduli_col
    if kind == "unreduced":
        return rng.integers(0, 1 << 62, size=shape)
    return rng.integers(-(1 << 62), 1 << 62, size=shape)


def _key_rows(ring: RingContext, rows: int, seed: int) -> np.ndarray:
    """``(2, rows, rns, n)`` canonical key material: evk or RGSW bit rows."""
    flat = _residues(ring, 2 * rows, seed, "canonical")
    return flat.reshape((2, rows, ring.rns_count, ring.n))


def _evks(ring: RingContext, levels: int, seed: int) -> dict:
    """Evaluation keys of the first ``levels`` expansion levels."""
    ell = Gadget(ring).length
    powers = [ring.n // (1 << a) + 1 for a in range(levels)]
    return {r: SubsKey(r, ring, _key_rows(ring, ell, seed + r)) for r in powers}


def _round_of(ring: RingContext, coeff: np.ndarray, seed: int) -> tuple:
    """One ColTor round whose differences are ``coeff``.

    ``coeff`` is ``(2, Q, rns, n)`` coefficient residues, one polynomial
    per half and query.  Each query's ``zeros`` entry is 0 and its
    ``ones`` entry ``NTT(coeff)``, so the round's key switch decomposes
    exactly ``coeff``; each query's bit rows are random.  Returns the
    ``coltor_window`` operands.
    """
    queries = coeff.shape[1]
    entries = np.zeros((2, queries, 2, ring.rns_count, ring.n), dtype=np.int64)
    entries[:, :, 1] = EAGER.ntt_forward(ring, coeff)
    k = 2 * Gadget(ring).length
    bits = [[_key_rows(ring, k, seed + q) for q in range(queries)]]
    return entries.reshape((2, 2 * queries, ring.rns_count, ring.n)), bits


def _pairs_of(ring: RingContext, coeff: np.ndarray, seed: int) -> tuple:
    """One query's ColTor round of ``count`` outputs whose differences are
    ``coeff``, ``(2, count, rns, n)``: the ``_coltor_round`` operands,
    ``count = 0`` (an empty round) included."""
    count = coeff.shape[1]
    current = np.zeros((2, 1, 2 * count, ring.rns_count, ring.n), dtype=np.int64)
    current[:, 0, 1::2] = EAGER.ntt_forward(ring, coeff)
    return current, [_key_rows(ring, 2 * Gadget(ring).length, seed)]


@pytest.fixture
def counters():
    """A registry installed behind ``obs.metrics.count`` for one test."""
    registry = MetricsRegistry()
    previous = install(registry)
    yield lambda name: registry.counter(name).value
    install(previous)


cases = given(
    n=st.sampled_from(sorted(RINGS)),
    batch_index=st.integers(min_value=0, max_value=len(BATCHES) - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["canonical", "unreduced", "signed"]),
)


class TestFourStepParity:
    @cases
    @settings(max_examples=40, deadline=None)
    def test_forward_matches_eager(self, n, batch_index, seed, kind):
        ring = RINGS[n]
        x = _residues(ring, BATCHES[batch_index], seed, kind)
        got = BACKEND.ntt_forward(ring, x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, EAGER.ntt_forward(ring, x))

    @cases
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_eager(self, n, batch_index, seed, kind):
        ring = RINGS[n]
        x = _residues(ring, BATCHES[batch_index], seed, kind)
        got = BACKEND.ntt_inverse(ring, x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, EAGER.ntt_inverse(ring, x))

    @cases
    @settings(max_examples=40, deadline=None)
    def test_digits_forward_matches_eager(self, n, batch_index, seed, kind):
        """Digit rows through every modulus' transform, as the key switch
        takes them; mod q they are eager's."""
        ring = RINGS[n]
        rng = np.random.default_rng(seed)
        high = {"canonical": ring.params.gadget_base, "unreduced": 1 << 40}
        digits = rng.integers(
            -(1 << 40) if kind == "signed" else 0, high.get(kind, 1 << 40),
            size=(BATCHES[batch_index], 3, n),
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
    """The native backend's per-ring tables (its plan) and their bound."""

    @needs_native
    def test_contexts_of_equal_params_share_one_plan(self):
        first = RingContext(PirParams.functional())
        second = RingContext(PirParams.functional(d0=16, num_dims=3))
        assert first is not second
        assert NATIVE._ring(first) is NATIVE._ring(second)
        assert NATIVE._ring(first) is not NATIVE._ring(RINGS[2048])

    @pytest.mark.parametrize("n, bits, covered", [
        # 30-bit primes keep 4q below 2^32 at any ring degree ...
        (1024, 30, True),
        (4096, 30, True),
        # ... 31-bit ones do not.
        (256, 31, False),
    ])
    def test_rings_beyond_the_exactness_bounds_run_eager(
        self, n, bits, covered, counters
    ):
        moduli = modmath.find_ntt_primes(bits, 2 * n, 3)
        ring = RingContext(PirParams(
            n=n, moduli=moduli, plain_modulus=65537, gadget_base_log2=16,
            gadget_len=6, d0=8, num_dims=1,
        ))
        loaded = native.load_library() is not None
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
        assert (NATIVE._ring(ring) is not None) == (covered and loaded)
        before = counters("he_native_none")
        assert np.array_equal(NATIVE.ntt_forward(ring, x), EAGER.ntt_forward(ring, x))
        assert counters("he_native_none") - before == (0 if covered or not loaded else 1)


class TestFallbackCounters:
    """Each drop from a native kernel to the eager or bignum code is counted."""

    def test_out_of_range_inner_operands_take_the_eager_einsum(self, counters):
        """An evaluation-key word of ``2^key_bits`` is outside the fused
        inner product's range: the level is eager's, counted once where
        the kernels load, and mod q it is the reduced key's level."""
        ring = RINGS[1024]
        gadget = Gadget(ring)
        packed = _residues(ring, 4, seed=7, kind="canonical").reshape(
            (2, 2, ring.rns_count, ring.n)
        )
        (r, key), = _evks(ring, 1, seed=8).items()
        wide = key.rows.copy()
        wide[1, 0, 0, :3] = 1 << (max(ring.params.moduli) - 1).bit_length()
        got = NATIVE.expand_window(packed, {r: SubsKey(r, ring, wide)}, 1, gadget)
        drops = int(native.load_library() is not None)
        assert counters("he_native_none") == drops
        reduced = {r: SubsKey(r, ring, wide % ring._moduli_col)}
        want = EAGER.expand_window(packed, reduced, 1, gadget)
        assert np.array_equal(got, want)
        assert np.array_equal(NATIVE.expand_window(packed, reduced, 1, gadget), want)
        assert counters("he_native_none") == drops

    @needs_native
    def test_a_gadget_outside_the_limb_walk_takes_the_eager_limbs(self, counters):
        """Five moduli: the kernels' limb walk covers at most four, so each
        expansion level and each ColTor round is the eager step, counted
        once per step."""
        ring = RingContext(PirParams(
            n=256, moduli=modmath.find_ntt_primes(28, 512, 5), plain_modulus=65537,
            gadget_base_log2=16, gadget_len=9, d0=8, num_dims=1,
        ))
        gadget = Gadget(ring)
        levels, rounds = 3, 2
        packed = _residues(ring, 4, seed=9, kind="canonical").reshape(
            (2, 2, ring.rns_count, ring.n)
        )
        evks = _evks(ring, levels, seed=10)
        entries = _residues(ring, 2 << rounds, seed=11, kind="canonical").reshape(
            (2, 1 << rounds, ring.rns_count, ring.n)
        )
        bits = [[_key_rows(ring, 2 * gadget.length, 12 + k)] for k in range(rounds)]
        want_expand = EAGER.expand_window(packed, evks, levels, gadget)
        want_coltor = EAGER.coltor_window(entries, bits, gadget)
        assert counters("he_native_none") == 0
        assert np.array_equal(NATIVE.expand_window(packed, evks, levels, gadget), want_expand)
        assert np.array_equal(NATIVE.coltor_window(entries, bits, gadget), want_coltor)
        assert counters("he_native_none") == levels + rounds

    def test_oversized_q_gemm_takes_object_bignums(self, counters):
        q = (1 << 45) + 59
        rng = np.random.default_rng(8)
        a = rng.integers(0, q, size=(3, 5))
        b = rng.integers(0, q, size=(5, 2))
        exact = ((a.astype(object) @ b.astype(object)) % q).astype(np.int64)
        for position, backend in enumerate((EAGER, NATIVE), start=1):
            assert np.array_equal(backend.modular_gemm(a, b, q), exact)
            assert counters("he_modular_gemm_bignum") == position
        NATIVE.modular_gemm(a % 256, b, q)  # a p-sized operand stays in range
        assert counters("he_modular_gemm_bignum") == 2


class TestNttDomainAutomorphism:
    @pytest.mark.parametrize("params", [
        PirParams.small(n=256, d0=256), PirParams.functional(d0=4096),
    ], ids=["n256", "n4096"])
    def test_gather_matches_coefficient_scatter_for_every_expand_power(
        self, params
    ):
        """The slot gather both backends run, against the per-poly
        coefficient scatter of ``RnsPoly.automorphism``."""
        ring = RingContext(params)
        levels = modmath.ilog2(params.d0)
        cts = _residues(ring, 4, seed=params.n, kind="canonical").reshape(
            (2, 2, ring.rns_count, ring.n)
        )
        for r in expansion_powers(params.n, levels):
            want = [
                [RnsPoly(ring, row, Domain.NTT).to_coeff().automorphism(r) for row in half]
                for half in cts
            ]
            want_a = np.stack([p.residues for p in want[0]])
            want_b = np.stack([p.to_ntt().residues for p in want[1]])
            for backend in {BACKEND, EAGER}:
                got_a, got_b = backend.automorphism(ring, cts, r)
                assert np.array_equal(got_a, want_a), (backend.name, r)
                assert np.array_equal(got_b, want_b), (backend.name, r)


def _ring_of(bits: int, n: int = 256, count: int = 3) -> RingContext:
    """An off-preset ring over ``count`` primes just below ``2^bits``."""
    return RingContext(PirParams(
        n=n, moduli=modmath.find_ntt_primes(bits, 2 * n, count),
        plain_modulus=65537, gadget_base_log2=16, gadget_len=6, d0=min(8, n),
        num_dims=1,
    ))


@needs_native
class TestNativeKernels:
    """The compiled primitives on the inputs that bound their arithmetic."""

    BATCHES = (0, 1, 7, 8, 9)

    @staticmethod
    def _edge_rows(ring: RingContext, batch: int) -> dict[str, np.ndarray]:
        top = np.broadcast_to(ring._moduli_col - 1, (batch, ring.rns_count, ring.n))
        striped = top.copy()
        striped[..., ::2] = 0
        return {
            "zeros": np.zeros_like(top), "top": top.copy(), "striped": striped,
            "partial": top + ring._moduli_col,  # 2q - 1: the [0, 2q) edge
        }

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_edge_vectors_both_directions(self, n, batch):
        ring = RINGS.get(n) or RingContext(PirParams.small(n=n))
        for name, x in self._edge_rows(ring, batch).items():
            for op in ("ntt_forward", "ntt_inverse"):
                got = getattr(NATIVE, op)(ring, x)
                assert got.shape == x.shape and got.dtype == np.int64
                assert np.array_equal(got, getattr(EAGER, op)(ring, x)), (name, op)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_signed_few_bit_rows_broadcast_into_every_modulus(self, batch):
        """Error and plaintext rows as the client hands them over: signed,
        a few bits wide, one coefficient row for the whole RNS axis."""
        ring = RINGS[4096]
        rows = np.random.default_rng(batch).integers(-19, 20, size=(batch, 1, ring.n))
        want = EAGER.ntt_forward(ring, rows % ring._moduli_col)
        assert np.array_equal(NATIVE.ntt_forward(ring, rows), want)
        edge = np.stack([1 - ring._moduli_col[:1], ring._moduli_col[:1] - 1])
        edge = np.broadcast_to(edge[:, :, :1], (2, 1, ring.n))  # -(q0-1), q0-1
        assert np.array_equal(
            NATIVE.ntt_forward(ring, edge),
            EAGER.ntt_forward(ring, edge % ring._moduli_col),
        )

    @pytest.mark.parametrize("batch", BATCHES)
    def test_partial_digits_stay_below_2q(self, batch, counters):
        """A ColTor round of ``batch`` outputs whose differences decompose
        to a digit row of 0 (coefficient 0) and of z - 1 (coefficient 1,
        the lift z^(ℓ-1) - 1): the fused round's partial ([0, 2q)) digit
        transforms at both ends, held to eager with no fallback."""
        ring = RINGS[1024]
        gadget = Gadget(ring)
        z = ring.params.gadget_base
        coeff = _residues(ring, 2 * batch, seed=batch, kind="canonical").reshape(
            (2, batch, ring.rns_count, ring.n)
        )
        coeff[..., 0] = 0
        coeff[..., 1] = ring.basis.constant_rns(z ** (gadget.length - 1) - 1)
        current, bits = _pairs_of(ring, coeff, seed=batch)
        got = NATIVE._coltor_round(current, bits, gadget)
        assert got.shape == (2, 1, batch, ring.rns_count, ring.n)
        assert np.array_equal(got, EAGER._coltor_round(current, bits, gadget))
        assert counters("he_native_none") == 0

    def test_views_are_transformed_where_they_lie(self):
        ring = RingContext(PirParams.small(n=256))
        rng = np.random.default_rng(3)
        base = rng.integers(0, 1 << 27, size=(6, 2, ring.rns_count, 2 * ring.n))
        views = {
            "batch-strided": base[::2, 1, :, : ring.n],
            "reversed": base[::-1, 0, :, : ring.n],
            "coefficient-strided": base[:, 0, :, ::2],
            "rns-reversed": base[:, 0, ::-1, : ring.n],
            "transposed-lead": base[:, :, :, : ring.n].transpose(1, 0, 2, 3),
            "broadcast": np.broadcast_to(base[0, 0, :1, : ring.n], (4, 1, ring.n)),
        }
        for name, view in views.items():
            assert not view.flags.c_contiguous, name
            dense = np.ascontiguousarray(view)
            for op in ("ntt_forward", "ntt_inverse"):
                assert np.array_equal(
                    getattr(NATIVE, op)(ring, view), getattr(EAGER, op)(ring, dense)
                ), (name, op)

    @pytest.mark.parametrize("n", [1 << k for k in range(1, 10)])
    def test_rings_shorter_than_a_vector(self, n, counters):
        """Every ring from 2 to 512 (RINGS covers 1024 up): where each of the
        fixed-span stages (t = 8, 4, 2) first runs, and rings too short to
        run them all — in the transforms, and in a ColTor round's partial
        ([0, 2q)) digit transforms, whose first query decomposes to a
        digit row of zeros and one of z - 1."""
        ring = _ring_of(20, n=n, count=2)
        x = _residues(ring, 5, seed=n, kind="signed")
        assert np.array_equal(NATIVE.ntt_forward(ring, x), EAGER.ntt_forward(ring, x))
        assert np.array_equal(NATIVE.ntt_inverse(ring, x), EAGER.ntt_inverse(ring, x))
        z = ring.params.gadget_base
        coeff = _residues(ring, 4, seed=n, kind="canonical").reshape(
            (2, 2, ring.rns_count, n)
        )
        coeff[:, 0] = ring.basis.constant_rns((z - 1) * z)[:, None]
        entries, bits = _round_of(ring, coeff, seed=n)
        gadget = Gadget(ring)
        assert np.array_equal(
            NATIVE.coltor_window(entries, bits, gadget),
            EAGER.coltor_window(entries, bits, gadget),
        )
        assert counters("he_native_none") == 0

    @pytest.mark.parametrize("params", [
        PirParams.small(), PirParams.paper(),
    ], ids=["base-2^14", "base-2^22"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_decompose_matches_the_per_poly_gadget(self, params, batch, counters):
        """Lifts at both ends of [0, Q) — 0, 1, Q - 1, Q / 2 and z - 1 — in
        ``2 * batch`` polynomials: ``decompose`` gives the per-poly gadget's
        digits, and as the differences of a ColTor round of ``batch``
        outputs the fused key switch's limb walk decomposes exactly them,
        held to eager with no fallback."""
        gadget = Gadget(RingContext(params))
        ring = gadget.ctx
        big_q = ring.basis.modulus_product
        lifts = [0, 1, big_q - 1, big_q // 2, ring.params.gadget_base - 1]
        residues = _residues(ring, 2 * batch, seed=batch, kind="canonical")
        for slot, lift in enumerate(lifts):
            residues[:, :, slot] = ring.basis.constant_rns(lift)
        vec = RnsPolyVec(ring, residues, Domain.COEFF)
        got = NATIVE.decompose(gadget, vec)
        assert got.shape == (2 * batch, gadget.length, ring.n) and got.dtype == np.int64
        for poly, digits in zip(vec.polys(), got):
            want = np.stack([d.residues[0] for d in gadget.decompose(poly)])
            assert np.array_equal(digits, want)
        current, bits = _pairs_of(ring, residues.reshape((2, batch) + residues.shape[1:]), batch)
        want = EAGER._coltor_round(current, bits, gadget)
        assert np.array_equal(NATIVE._coltor_round(current, bits, gadget), want)
        assert counters("he_native_none") == 0

    def test_inner_takes_partial_digits_and_hands_wider_ones_on(self, counters):
        """The fused inner product at its edges: digit rows of z - 1 (the
        partial transforms' largest inputs) against bit rows of q - 1, the
        bit's halves two strided views.  A bit word of ``2^key_bits``, or a
        negative one, is handed on to eager's round, counted, and mod q is
        the reduced bit's round."""
        ring = RINGS[1024]
        gadget = Gadget(ring)
        z = ring.params.gadget_base
        coeff = _residues(ring, 10, seed=11, kind="canonical").reshape(
            (2, 5, ring.rns_count, ring.n)
        )
        coeff[:, 0] = ring.basis.constant_rns(z ** (gadget.length - 1) - 1)[:, None]
        current, (rows,) = _pairs_of(ring, coeff, seed=12)
        rows[0, 0] = ring._moduli_col - 1
        base = np.zeros(rows.shape[:-1] + (2 * ring.n,), dtype=np.int64)
        base[..., ::2] = rows
        bit = [base[0, ..., ::2], base[1, ..., ::2]]
        want = EAGER._coltor_round(current, [rows], gadget)
        assert np.array_equal(NATIVE._coltor_round(current, [bit], gadget), want)
        assert counters("he_native_none") == 0
        key_bits = (max(ring.params.moduli) - 1).bit_length()
        for word in (1 << key_bits, -1):
            wide = rows.copy()
            wide[1, 3, 0, 5] = word
            assert np.array_equal(
                NATIVE._coltor_round(current, [wide], gadget),
                EAGER._coltor_round(current, [wide % ring._moduli_col], gadget),
            ), word
        assert counters("he_native_none") == 2

    def test_malformed_tensors_are_typed_errors_not_pointer_reads(self):
        ring = RINGS[1024]
        with pytest.raises(ParameterError, match="expected residues of shape"):
            NATIVE.ntt_forward(ring, np.zeros((3, ring.rns_count, ring.n + 1), np.int64))
        with pytest.raises(ParameterError, match="expected residues of shape"):
            NATIVE.ntt_inverse(ring, np.zeros((3, 2, ring.n), np.int64))
        gadget = Gadget(ring)
        packed = np.zeros((2, 1, ring.rns_count, ring.n), np.int64)
        r = ring.n + 1
        short = {r: SubsKey(r, ring, _key_rows(ring, gadget.length - 1, seed=1))}
        with pytest.raises(ParameterError, match="key rows"):
            NATIVE.expand_window(packed, short, 1, gadget)


class TestNativeBounds:
    """4q < 2^32 is the kernels' one bound: a ring outside it is refused by
    type, counted, and served by the eager primitives byte for byte."""

    @needs_native
    def test_the_constructor_raises_the_bound(self):
        lib = native.load_library()
        native.NativeRing(lib, _ring_of(30))  # 4q just below 2^32
        with pytest.raises(ParameterError, match=r"4q < 2\^32"):
            native.NativeRing(lib, _ring_of(31))
        with pytest.raises(ParameterError, match=r"4q < 2\^32"):
            native.modulus_consts((1 << 30,))

    @needs_native
    def test_a_31_bit_ring_is_counted_and_answers_identically(self, counters):
        ring = _ring_of(31)
        params = ring.params
        x = _residues(ring, 3, seed=31, kind="signed")
        assert np.array_equal(NATIVE.ntt_forward(ring, x), EAGER.ntt_forward(ring, x))
        assert counters("he_native_none") == 1
        db = PirDatabase.random(params, num_records=16, record_bytes=64, seed=1)
        oracle = PirProtocol(params, db, seed=2, backend="eager")
        under_test = PirProtocol(params, db, seed=2, backend="native")
        query = oracle.client.build_query(9, db.layout)
        before = counters("he_native_none")
        fast, ref = under_test.server.answer(query), oracle.server.answer(query)
        for got, want in zip(fast.plane_cts, ref.plane_cts, strict=True):
            assert np.array_equal(got.a.residues, want.a.residues)
            assert np.array_equal(got.b.residues, want.b.residues)
        assert under_test.client.decode_response(fast, 9, db.layout) == db.record(9)
        assert counters("he_native_none") > before


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """An empty kernel cache for one test, ``load_library`` decided afresh
    in it (and again, from the usual cache, after the test)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.load_library.cache_clear()
    yield tmp_path / "repro-ive"
    native.load_library.cache_clear()


@pytest.fixture
def hidden_compiler(empty_cache, monkeypatch):
    """No working C compiler and an empty cache, for one test."""
    monkeypatch.setenv("CC", "/bin/false")


class TestNativeBuildAndFallback:
    def test_native_is_registered_and_default_where_it_loads(self):
        assert "native" in backend_names()
        loaded = native.load_library() is not None
        assert DEFAULT_BACKEND == ("native" if loaded else "eager")
        assert get_backend().name == DEFAULT_BACKEND

    def test_no_compiler_is_counted_once_and_falls_back_to_eager(
        self, hidden_compiler, counters, caplog
    ):
        from repro.he import backend as backend_module

        with caplog.at_level("WARNING", logger="repro.he.native"):
            backend = get_backend("native")  # never an exception
            assert backend_module.DEFAULT_BACKEND == "eager"
            assert get_backend().name == "eager"
            ring = RINGS[1024]
            x = _residues(ring, 2, seed=4, kind="signed")
            assert np.array_equal(
                backend.ntt_forward(ring, x), EAGER.ntt_forward(ring, x)
            )
            gadget = Gadget(ring)
            packed = _residues(ring, 2, seed=5, kind="canonical")[:, None]
            evks = _evks(ring, 1, seed=6)
            assert np.array_equal(
                backend.expand_window(packed, evks, 1, gadget),
                EAGER.expand_window(packed, evks, 1, gadget),
            )
        assert counters("he_native_unavailable") == 1
        assert counters("he_native_none") == 0
        reasons = [r for r in caplog.records if "native kernels unavailable" in r.message]
        assert len(reasons) == 1 and "/bin/false" in reasons[0].getMessage()

    @needs_native
    def test_each_host_isa_builds_to_its_own_cache_file(
        self, empty_cache, monkeypatch
    ):
        """The probe's macro dump is in the cache key: a cache shared with a
        host of another ISA never hands this one a build it cannot run."""
        for dump in (b"#define __AVX2__ 1\n", b"#define __AVX512F__ 1\n"):
            monkeypatch.setattr(native, "_isa", lambda compiler, dump=dump: dump)
            assert native._build_and_load() is not None
        built = sorted(p.name for p in empty_cache.iterdir())
        assert len(built) == 2 and built[0] != built[1], built

    @needs_native
    def test_a_compiler_refusing_the_host_isa_builds_portable(
        self, empty_cache, monkeypatch, tmp_path, counters, caplog
    ):
        wrapper = tmp_path / "cc-without-march"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do [ "$arg" = -march=native ] && exit 1; done\n'
            f'exec {shlex.join(native._compiler())} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        with caplog.at_level("WARNING", logger="repro.he.native"):
            lib = native.load_library()
        assert lib is not None
        assert counters("he_native_portable") == 1
        assert counters("he_native_unavailable") == 0
        assert len(list(empty_cache.iterdir())) == 1  # the portable build only
        reasons = [r for r in caplog.records if "without -march=native" in r.message]
        assert len(reasons) == 1
        ring = RINGS[4096]
        x = _residues(ring, 3, seed=6, kind="signed")
        assert np.array_equal(
            native.NativeRing(lib, ring).transform(x), EAGER.ntt_forward(ring, x)
        )

    @needs_native
    def test_two_processes_racing_on_an_empty_cache_both_load(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import numpy as np\n"
            "from repro.he import native\n"
            "from repro.he.poly import RingContext\n"
            "from repro.params import PirParams\n"
            "lib = native.load_library()\n"
            "assert lib is not None\n"
            "ring = RingContext(PirParams.small())\n"
            "x = np.arange(ring.rns_count * ring.n).reshape(1, ring.rns_count, ring.n)\n"
            "back = native.NativeRing(lib, ring)\n"
            "assert np.array_equal(back.transform(back.transform(x), inverse=True), x)\n"
        )
        env = dict(
            os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(src),
        )
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            for _ in range(2)
        ]
        for racer in racers:
            output, _ = racer.communicate(timeout=180)
            assert racer.returncode == 0, output.decode()
        built = sorted(p.name for p in (tmp_path / "repro-ive").iterdir())
        assert len(built) == 1 and built[0].startswith("native-"), built
