"""The counter-based sampler: one generator, two implementations, bit-equal.

:meth:`ComputeBackend.sample` is the generator of :mod:`repro.he.sampling`
in numpy (``eager``) and one C entry point fanned over the cores
(``native``).  Held here: the two agree bit for bit at N = 256 and
N = 2^12; any split of the row range — slice bounds drawn by hypothesis,
the slices run on the live fan-out pool — writes the whole call's bytes;
the ``a`` residues are below each modulus and exactly uniform (a
chi-square per modulus, and the share of residues Lemire's rejection
exists to even out, at moduli where rejection is most frequent and at
the largest ``4q < 2^32`` admits); the errors follow the exact
rounded-Gaussian probabilities inside the table; a bad seed is a typed
refusal at the client and the server; and a refused native call runs
the eager twin, counted.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath, native
from repro.he.backend import get_backend
from repro.he.bfv import BfvContext, SecretKey
from repro.he.poly import RingContext
from repro.he.sampling import SEED_BYTES, Sampler, error_cdt
from repro.obs.metrics import MetricsRegistry, install
from repro.params import PirParams
from repro.pir.client import PirClient, PirQuery
from repro.pir.database import PirDatabase
from repro.pir.server import PirServer

EAGER = get_backend("eager")
NATIVE = get_backend("native")
#: Whose draws the distribution tests read; CI sets REPRO_BACKEND=eager / =native.
BACKEND = get_backend(os.environ.get("REPRO_BACKEND"))

needs_native = pytest.mark.skipif(
    native.load_library() is None,
    reason="the native kernels could not be built here (no C compiler, or "
    "the build or load failed): nothing compiled to test",
)


def _ntt_prime(start: int, step: int, order: int) -> int:
    """The first prime ``q ≡ 1 (mod order)`` from ``start`` on, walking by
    ``step`` (+1 up, -1 down)."""
    q = start - (start - 1) % order + (order if step > 0 else 0)
    while not modmath.is_prime(q):
        q += step * order
    return q


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ring(moduli: tuple[int, ...], n: int = 256, error_std: float = 3.2) -> RingContext:
    return RingContext(PirParams(
        n=n, moduli=moduli, plain_modulus=65537, gadget_base_log2=16,
        gadget_len=8, d0=min(8, n), num_dims=1, error_std=error_std,
    ))


#: Three moduli the native bound ``4q < 2^32`` admits: where rejection is
#: most frequent (just above 2^32 / 5: ~20 % of draws), where half the
#: residues have one preimage more than the rest without rejection
#: (2^32 / 4.5), and the largest below 2^30.
STRESS = _ring((
    _ntt_prime(2**32 // 5, 1, 512),
    _ntt_prime(2**32 * 2 // 9, 1, 512),
    _ntt_prime(2**30, -1, 512),
))
RINGS = {
    256: RingContext(PirParams.small()),
    4096: RingContext(PirParams.functional(d0=64, num_dims=4)),
}


def _seeds(count: int, salt: int) -> list[bytes]:
    rng = np.random.default_rng(salt)
    return [rng.bytes(SEED_BYTES) for _ in range(count)]


@pytest.fixture
def counters():
    """A registry installed behind ``obs.metrics.count`` for one test."""
    registry = MetricsRegistry()
    previous = install(registry)
    yield lambda name: registry.counter(name).value
    install(previous)


@needs_native
class TestBitEqual:
    @pytest.mark.parametrize("n", sorted(RINGS))
    def test_eager_and_native_draw_the_same_bytes(self, n):
        """A block of three seeds' 41 rows and one error row per ``a``
        row, then each half alone."""
        ring = RINGS[n]
        seeds, private = _seeds(3, n), _seeds(1, n + 1)[0]
        a, e = NATIVE.sample(ring, seeds, 41, private, 123)
        want_a, want_e = EAGER.sample(ring, seeds, 41, private, 123)
        assert a.shape == (123, ring.rns_count, n) and e.shape == (123, n)
        assert np.array_equal(a, want_a) and np.array_equal(e, want_e)
        assert np.array_equal(NATIVE.sample(ring, seeds, 41)[0], want_a)
        assert np.array_equal(NATIVE.sample(ring, [], 0, private, 123)[1], want_e)

    def test_a_seed_draws_the_same_rows_in_any_block(self):
        """Counter-based: seed ``k``'s rows do not depend on the other
        seeds of the call or on how many error rows ride along."""
        ring = RINGS[256]
        seeds = _seeds(4, 2)
        block, _ = NATIVE.sample(ring, seeds, 5, _seeds(1, 3)[0], 20)
        for k, seed in enumerate(seeds):
            alone, _ = EAGER.sample(ring, [seed], 5)
            assert np.array_equal(block[5 * k:5 * (k + 1)], alone)

    @pytest.mark.parametrize("n, std", [(2, 3.2), (16, 3.2), (128, 3.2), (256, 20.0)])
    def test_short_rows_and_wide_errors_agree_too(self, n, std):
        """Rows shorter than a sign word, and at ``σ = 20`` a table of 183
        entries, most magnitudes past the ones every coefficient is
        compared against first."""
        ring = _ring(modmath.find_ntt_primes(28, 2 * n, 2), n, std)
        seeds, private = _seeds(2, 23), _seeds(1, 24)[0]
        a, e = NATIVE.sample(ring, seeds, 5, private, 10)
        want_a, want_e = EAGER.sample(ring, seeds, 5, private, 10)
        assert np.array_equal(a, want_a) and np.array_equal(e, want_e)
        if std > 16:
            assert np.mean(np.abs(e) >= 16) > 0.3
            assert np.abs(e).max() <= len(error_cdt(std))

    def test_the_stress_moduli_agree_too(self):
        seeds, private = _seeds(2, 4), _seeds(1, 5)[0]
        a, e = NATIVE.sample(STRESS, seeds, 64, private, 7)
        want_a, want_e = EAGER.sample(STRESS, seeds, 64, private, 7)
        assert np.array_equal(a, want_a) and np.array_equal(e, want_e)


@needs_native
class TestAnySplit:
    UNITS = 24

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(0, UNITS), max_size=5))
    def test_any_slice_bounds_write_the_whole_calls_bytes(self, cuts):
        """Every slice runs on the fan-out pool at the drawn bounds (empty
        slices included), and the result is the eager whole call's."""
        ring = RINGS[256]
        seeds, private = _seeds(3, 6), _seeds(1, 7)[0]
        want_a, want_e = EAGER.sample(ring, seeds, 8, private, 20)
        bounds = [0] + sorted(cuts) + [self.UNITS]

        def split(units, unit_words, run):
            assert units == self.UNITS
            pool = native._executor()
            futures = [pool.submit(run, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            return sum(future.result() for future in futures)

        with mock.patch.object(native, "fan_out", split):
            a, e = NATIVE.sample(ring, seeds, 8, private, 20)
        assert np.array_equal(a, want_a) and np.array_equal(e, want_e)

    @pytest.mark.parametrize("width", [2, 3])
    def test_the_fanned_call_is_the_unsplit_one(self, monkeypatch, width):
        """Through the real fan-out, forced to split: an N = 2^12 query's
        block and a window's ``a`` rows alone."""
        ring = RINGS[4096]
        seeds, private = _seeds(2, 8), _seeds(1, 9)[0]
        want = EAGER.sample(ring, seeds, 41, private, 82)
        monkeypatch.setattr(native, "fan_width", lambda: width)
        monkeypatch.setattr(native, "FAN_FLOOR_WORDS", 0)
        got = NATIVE.sample(ring, seeds, 41, private, 82)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert np.array_equal(NATIVE.sample(ring, seeds, 41)[0], want[0])


class TestUniform:
    ROWS = 64

    @pytest.fixture(scope="class")
    def draws(self):
        """Two seeds' 64 rows over the stress moduli: 32 768 residues a
        modulus."""
        a, _ = BACKEND.sample(STRESS, _seeds(2, 10), self.ROWS)
        return a

    def test_every_residue_is_below_its_modulus(self, draws):
        for m, q in enumerate(STRESS.params.moduli):
            assert 0 <= draws[:, m].min() and draws[:, m].max() < q
        assert all(4 * q < 1 << 32 for q in STRESS.params.moduli)

    @pytest.mark.parametrize("m", range(3))
    def test_each_modulus_passes_a_chi_square(self, draws, m):
        """64 equal bins of ``[0, q)``: the statistic stays below the
        63-degree quantile at p = 1e-6 (~132)."""
        q = STRESS.params.moduli[m]
        x = draws[:, m].ravel()
        edges = (np.arange(65, dtype=np.int64) * q) // 64
        expected = np.diff(edges) / q * x.size
        observed = np.bincount(np.searchsorted(edges, x, side="right") - 1, minlength=64)
        assert ((observed - expected) ** 2 / expected).sum() < 132

    @pytest.mark.parametrize("m", range(3))
    def test_rejection_evens_out_the_preimage_counts(self, draws, m):
        """Without rejection the ``2^32 mod q`` residues that own one more
        32-bit preimage than the rest would come up more often; exactly
        uniform, their share is ``(2^32 mod q) / q``: a z-test at 5 sd
        where that share is near a half (a biased draw sits ~20 sd off),
        a 1 % band where it is near 0 or 1."""
        q = STRESS.params.moduli[m]
        x = draws[:, m].ravel().tolist()
        wide = np.array([_ceil_div((v + 1) << 32, q) - _ceil_div(v << 32, q) for v in x])
        low = (1 << 32) // q
        p = ((1 << 32) % q) / q
        share = np.mean(wide == low + 1)
        if 0.02 < p < 0.98:
            biased = p * (low + 1) / (p * (low + 1) + (1 - p) * low)
            sd = math.sqrt(p * (1 - p) / len(x))
            assert abs(share - p) < 5 * sd < abs(biased - p)
        else:
            assert abs(share - p) < 0.01


class TestErrors:
    def test_the_table_is_the_rounded_gaussian_to_2_to_the_minus_64(self):
        """Each entry is ``2^64·P(|e| ≤ k)`` (checked against the float
        tail where it is representable), increasing, and the table stops
        where the tail first drops below 2^-64."""
        cdt, width = error_cdt(3.2), 3.2 * math.sqrt(2)
        assert len(cdt) == 29 and np.all(np.diff(cdt) > 0)
        for k, entry in enumerate(cdt):
            tail = math.erfc((k + 0.5) / width) * 2.0 ** 64
            assert abs((2 ** 64 - int(entry)) - tail) <= max(1.0, tail * 1e-9), k
        assert math.erfc((len(cdt) - 0.5) / width) * 2.0 ** 64 >= 1
        assert math.erfc((len(cdt) + 0.5) / width) * 2.0 ** 64 < 1

    def test_the_histogram_matches_the_exact_probabilities(self):
        """51 200 errors: each value in [-10, 10] and the tail beyond as
        a bin, against ``P(e = k) = (erf((k+½)/σ√2) - erf((k-½)/σ√2)) / 2``;
        below the 21-degree quantile at p = 1e-6 (~68).  Every |e| is
        within the table."""
        ring = RINGS[256]
        _, e = BACKEND.sample(ring, [], 0, _seeds(1, 11)[0], 200)
        width = ring.params.error_std * math.sqrt(2)
        assert np.abs(e).max() <= len(error_cdt(ring.params.error_std))
        values = np.arange(-10, 11)
        probs = [(math.erf((k + 0.5) / width) - math.erf((k - 0.5) / width)) / 2 for k in values]
        probs.append(1 - sum(probs))
        observed = [np.count_nonzero(e == k) for k in values]
        observed.append(np.count_nonzero(np.abs(e) > 10))
        expected = np.array(probs) * e.size
        assert ((np.array(observed) - expected) ** 2 / expected).sum() < 68

    def test_error_rows_come_from_a_private_seed(self):
        """Two encryptions under one client draw different errors, and no
        error is a function of the upload seed alone."""
        ring = RINGS[256]
        sampler = Sampler(ring, seed=12)
        key = SecretKey.generate(ring, sampler)
        bfv = BfvContext(ring, sampler)
        seed = _seeds(1, 13)[0]
        first = bfv.encrypt_zeros(key, 2, seeds=[seed])
        second = bfv.encrypt_zeros(key, 2, seeds=[seed])
        assert np.array_equal(first[0], second[0])
        assert not np.array_equal(first[1], second[1])


class TestBadSeeds:
    BAD = [b"\x01" * (SEED_BYTES - 1), b"\x01" * (SEED_BYTES + 1), "x" * SEED_BYTES, 7, None]

    @pytest.mark.parametrize("seed", BAD, ids=["short", "long", "str", "int", "none"])
    def test_both_backends_refuse_typed(self, seed):
        ring = RINGS[256]
        for backend in (EAGER, NATIVE):
            with pytest.raises(ParameterError):
                backend.sample(ring, [_seeds(1, 14)[0], seed], 2)
            with pytest.raises(ParameterError):
                backend.sample(ring, [], 0, seed, 2)

    @pytest.fixture(scope="class")
    def deployment(self):
        params = PirParams.small()
        client = PirClient(params, seed=15)
        records = [bytes([i]) * 16 for i in range(16)]
        db = PirDatabase.from_records(records, params, 16)
        return client, db, PirServer(db.preprocess(client.ring), client.setup_message())

    @pytest.mark.parametrize("seed", BAD, ids=["short", "long", "str", "int", "none"])
    def test_the_client_and_the_server_refuse_typed(self, deployment, seed):
        client, db, server = deployment
        query = client.build_query(3, db.layout)
        bad = PirQuery(query.ring, seed, query.b)
        with pytest.raises(ParameterError):
            bad.packed
        with pytest.raises(ParameterError):
            client.bfv.encrypt_zeros(client.secret_key, 2, seeds=[seed])
        with pytest.raises(ParameterError):
            server.answer_batch([query, bad])
        assert server.answer(query).plane_cts


class TestRefusalIsCounted:
    def test_a_modulus_outside_the_native_bound_runs_eager_counted(self, counters):
        """Moduli with ``4q ≥ 2^32`` (but below 2^32, which the generator
        takes): native counts one ``he_native_none`` per call, where its
        library loads, and returns the eager draws."""
        ring = _ring(modmath.find_ntt_primes(31, 512, 3))
        assert max(ring.params.moduli) < 1 << 32 <= 4 * min(ring.params.moduli)
        seeds, private = _seeds(2, 16), _seeds(1, 17)[0]
        want = EAGER.sample(ring, seeds, 3, private, 6)
        assert counters("he_native_none") == 0
        got = NATIVE.sample(ring, seeds, 3, private, 6)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert counters("he_native_none") == int(native.load_library() is not None)

    def test_no_library_runs_the_eager_twin(self, monkeypatch, counters):
        """No compiler: ``load_library`` is None (its own
        ``he_native_unavailable`` counts that, once per process), and the
        draws are eager's, with no per-call count."""
        ring = RINGS[256]
        seeds, private = _seeds(2, 18), _seeds(1, 19)[0]
        want = EAGER.sample(ring, seeds, 3, private, 6)
        monkeypatch.setattr(native, "load_library", lambda: None)
        got = NATIVE.sample(ring, seeds, 3, private, 6)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert counters("he_native_none") == 0

    def test_the_shipped_rings_are_never_refused(self, counters):
        for ring in RINGS.values():
            NATIVE.sample(ring, _seeds(1, 20), 2, _seeds(1, 21)[0], 2)
        assert counters("he_native_none") == 0

    def test_a_modulus_past_32_bits_is_refused_typed(self):
        ring = _ring(modmath.find_ntt_primes(33, 512, 3))
        for backend in (EAGER, NATIVE):
            with pytest.raises(ParameterError):
                backend.sample(ring, _seeds(1, 22), 1)
