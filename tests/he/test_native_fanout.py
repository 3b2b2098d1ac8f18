"""The native kernels split across cores, byte for byte.

:func:`repro.he.native.fan_out` cuts a kernel call into contiguous slices
of its outermost axis, runs the first on the calling thread and the rest
on a pool, and ORs their statuses.  Every split here is forced — the fan
width patched to 2 and 3 and the per-slice floor to 0 — and each fanned
entry point (the fused expansion level and ColTor round, the key switch
inside both, RowSel, the NTT and the client's encryption pass) is held
to ``eager`` and to the same
call unsplit, and seeded client keys and queries to the eager build.
Then the failure paths inside a split (an operand the kernel refuses, in
the last slice only), one production answer at N = 2^12 (one C call per
level and per round, no gather or stack copy around them), the pool
under concurrent callers, and the pool's lifecycle: no thread at import,
none where the process may run on one core.  Last, the surface itself:
the six C entry points and the seven methods ``native`` replaces.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.he import backend as backend_module
from repro.he import modmath, native
from repro.he.backend import DEFAULT_BACKEND, get_backend
from repro.he.gadget import Gadget
from repro.he.poly import RingContext
from repro.he.subs import SubsKey
from repro.obs.metrics import MetricsRegistry, install
from repro.params import PirParams
from repro.pir.client import PirClient
from repro.pir.database import PirDatabase
from repro.pir.layout import RecordLayout
from repro.pir.server import PirServer

EAGER = get_backend("eager")
NATIVE = get_backend("native")

pytestmark = pytest.mark.skipif(
    native.load_library() is None,
    reason="the native kernels could not be built here (no C compiler, or "
    "the build or load failed): nothing compiled to split",
)


def _ring(n: int) -> RingContext:
    """The functional N = 2^12 ring, or two ~20-bit primes at degree n."""
    if n == 4096:
        return RingContext(PirParams.functional())
    return RingContext(PirParams(
        n=n, moduli=modmath.find_ntt_primes(20, 2 * n, 2), plain_modulus=65537,
        gadget_base_log2=16, gadget_len=6, d0=min(8, n), num_dims=1,
    ))


RINGS = {n: _ring(n) for n in (2, 4, 16, 256, 4096)}


def _residues(ring: RingContext, shape: tuple, seed: int) -> np.ndarray:
    """Canonical int64 residues of ``shape + (rns, n)``."""
    full = shape + (ring.rns_count, ring.n)
    return np.random.default_rng(seed).integers(0, 1 << 62, size=full) % ring._moduli_col


class _SpyPool:
    """The fan-out pool, counting the slices handed to it."""

    def __init__(self, pool):
        self.pool, self.submits = pool, 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


@pytest.fixture(params=[2, 3], ids=["width2", "width3"])
def split(request, monkeypatch):
    """Every fanned call splits into ``width`` slices wherever it has that
    many units; yields the spy on the pool."""
    monkeypatch.setattr(native, "fan_width", lambda: request.param)
    monkeypatch.setattr(native, "FAN_FLOOR_WORDS", 0)
    spy = _SpyPool(native._executor())
    spy.width = request.param
    monkeypatch.setattr(native, "_executor", lambda: spy)
    return spy


def _unsplit(monkeypatch, call):
    """``call()`` with the fan width at one: the whole call on this thread."""
    with monkeypatch.context() as m:
        m.setattr(native, "fan_width", lambda: 1)
        return call()


@pytest.fixture
def counters():
    """A registry installed behind ``obs.metrics.count`` for one test."""
    registry = MetricsRegistry()
    previous = install(registry)
    yield lambda name: registry.counter(name).value
    install(previous)


class TestRowsel:
    @pytest.mark.parametrize("cols", [1, 2, 3, 5])
    def test_one_query_splits_over_columns(self, split, monkeypatch, cols):
        """Q = 1 splits over columns, fewer columns than cores included;
        each slice writes its columns of ``out`` in place."""
        ring = RINGS[4096]
        db = _residues(ring, (1, cols, 4), cols).astype(np.uint32)
        query = _residues(ring, (2, 1, 4), cols + 1)
        out = np.full((2, 1, cols, ring.rns_count, ring.n), -1, dtype=np.int64)
        got = NATIVE.rowsel_gemm(db, query, ring._moduli_col, out=out)
        assert got is out
        want = EAGER.rowsel_gemm(db, query, ring._moduli_col)
        assert np.array_equal(out, want)
        whole = _unsplit(monkeypatch, lambda: NATIVE.rowsel_gemm(db, query, ring._moduli_col))
        assert np.array_equal(whole, want)
        assert split.submits == min(split.width, cols) - 1

    @pytest.mark.parametrize("halves", [1, 2])
    def test_a_shared_plane_splits_over_queries(self, split, halves):
        ring = RINGS[256]
        db = _residues(ring, (1, 3, 8), 10).astype(np.uint32)
        query = _residues(ring, (halves, 5, 8), 11)
        want = EAGER.rowsel_gemm(db, query, ring._moduli_col)
        assert np.array_equal(NATIVE.rowsel_gemm(db, query, ring._moduli_col), want)
        assert split.submits > 0

    def test_per_query_bucket_views_split_over_queries(self, split):
        ring = RINGS[256]
        store = _residues(ring, (5, 3, 2, 8), 12).astype(np.uint32)
        query = _residues(ring, (2, 5, 8), 13)
        for view in (store[:, 1], store[1:4, 2], store[::-1, 0]):
            q = query[:, : view.shape[0]]
            want = EAGER.rowsel_gemm(np.ascontiguousarray(view), q, ring._moduli_col)
            assert np.array_equal(NATIVE.rowsel_gemm(view, q, ring._moduli_col), want)
        assert split.submits > 0

    def test_a_bad_word_in_the_last_column_falls_back_once(self, split, counters):
        ring = RINGS[256]
        db = _residues(ring, (1, 4, 8), 14).astype(np.uint32)
        db[0, 3, 5, 1, 17] = 0xFFFFFFFF  # wider than every modulus
        query = _residues(ring, (2, 1, 8), 15)
        want = EAGER.rowsel_gemm(db, query, ring._moduli_col)
        assert np.array_equal(NATIVE.rowsel_gemm(db, query, ring._moduli_col), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0


class TestNtt:
    @pytest.mark.parametrize("n", sorted(RINGS))
    def test_rows_split(self, split, monkeypatch, n):
        ring = RINGS[n]
        x = _residues(ring, (7,), n)
        for transform in ("ntt_forward", "ntt_inverse"):
            want = getattr(EAGER, transform)(ring, x)
            assert np.array_equal(getattr(NATIVE, transform)(ring, x), want)
            whole = _unsplit(monkeypatch, lambda: getattr(NATIVE, transform)(ring, x))
            assert np.array_equal(whole, want)
        assert split.submits > 0

    def test_a_broadcast_rns_axis_and_strided_views(self, split):
        ring = RINGS[4096]
        rows = np.random.default_rng(20).integers(-(1 << 20), 1 << 20, size=(6, 1, ring.n))
        want = EAGER.ntt_forward(ring, rows)
        assert np.array_equal(NATIVE.ntt_forward(ring, rows), want)
        base = _residues(ring, (2, 6), 21)
        for view in (base[:, ::2], base[1, 1:], base[:, ::-1]):
            want = EAGER.ntt_inverse(ring, np.ascontiguousarray(view))
            assert np.array_equal(NATIVE.ntt_inverse(ring, view), want)
        assert split.submits > 0


def _evks(ring: RingContext, levels: int, seed: int) -> dict:
    """Evaluation keys of the first ``levels`` expansion levels (canonical
    rows: the fused level is exact arithmetic on any key)."""
    ell = Gadget(ring).length
    powers = [ring.n // (1 << a) + 1 for a in range(levels)]
    return {r: SubsKey(r, ring, _residues(ring, (2, ell), seed + r)) for r in powers}


def _bit_views(ring: RingContext, rounds: int, queries: int, seed: int) -> list:
    """Per round, each query's RGSW rows as a strided view into one tensor:
    what the kernel must read where it lies, never a stack."""
    rows = _residues(ring, (rounds, 2, queries, 2 * Gadget(ring).length), seed)
    return [[rows[k, :, q] for q in range(queries)] for k in range(rounds)]


def _expand(backend, ring, packed, evks, levels):
    return backend.expand_window(packed, evks, levels, Gadget(ring))


def _coltor(backend, ring, entries, bits):
    return backend.coltor_window(entries, bits, Gadget(ring))


#: Per ring degree, blocks of (query counts, level counts, round counts):
#: every query count 1-5 at every level count the ring allows and 1-4
#: ColTor rounds; at N = 2^12, where an eager level of five queries costs a
#: second, every count at Q = 1 and the first two at Q = 1-5.
GRID = {
    4: [((1, 2, 3, 4, 5), (1, 2), (1, 2, 3, 4))],
    16: [((1, 2, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4))],
    256: [((1, 2, 3, 4, 5), tuple(range(1, 9)), (1, 2, 3, 4))],
    4096: [((1,), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4)), ((2, 3, 4, 5), (1, 2), (1, 2))],
}


class TestButterfly:
    """The expansion level (its butterfly inside ``ive_expand_level``),
    split over ciphertexts."""

    @pytest.mark.parametrize("queries", [1, 2, 3])
    @pytest.mark.parametrize("step", [1, 4])
    def test_groups_split(self, split, monkeypatch, queries, step):
        """Up to a level of ``2 * step`` ciphertexts per query: every
        query count has a level of two or more to split."""
        ring = RINGS[256]
        levels = step.bit_length() + 1
        packed = _residues(ring, (2, queries), 30 + step)
        evks = _evks(ring, levels, 31 + step)
        want = _expand(EAGER, ring, packed, evks, levels)
        assert np.array_equal(_expand(NATIVE, ring, packed, evks, levels), want)
        whole = _unsplit(monkeypatch, lambda: _expand(NATIVE, ring, packed, evks, levels))
        assert np.array_equal(whole, want)
        assert split.submits > 0

    def test_a_bad_operand_in_the_last_group_falls_back_once(self, split, counters):
        ring = RINGS[256]
        packed = _residues(ring, (2, 2), 32)
        packed[1, 1, 1, 40] = ring.params.moduli[1]  # the last query: the last slice
        evks = _evks(ring, 1, 33)
        want = _expand(EAGER, ring, packed, evks, 1)
        assert np.array_equal(_expand(NATIVE, ring, packed, evks, 1), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0


class TestKeySwitch:
    """The fused key switch (``switch_one``) inside both window steps:
    ``parts = 1`` is an expansion level's Subs (the ``a`` half alone,
    one evaluation key for every ciphertext), ``parts = 2`` a ColTor
    round's external product (``a`` then ``b``, one RGSW bit per query);
    ``groups`` queries of ``batch`` ciphertexts each."""

    @staticmethod
    def _step(ring, parts, groups, batch, seed):
        """``backend -> output`` of one level or round over fresh operands."""
        gadget = Gadget(ring)
        if parts == 1:
            vec = _residues(ring, (2, groups * batch), seed)
            rows = _residues(ring, (2, gadget.length), seed + 1)
            evk = SubsKey(ring.n + 1, ring, rows)
            return lambda backend: backend._expand_level(vec, evk, batch, gadget)
        cur = _residues(ring, (2, groups, 2 * batch), seed)
        bits = _bit_views(ring, 1, groups, seed + 1)[0]
        return lambda backend: backend._coltor_round(cur, bits, gadget)

    @pytest.mark.parametrize("n", sorted(RINGS))
    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("groups", [1, 3])
    def test_matches_eager_and_the_unsplit_call(
        self, split, monkeypatch, n, parts, groups
    ):
        ring = RINGS[n]
        batches = (1, 2, 7) if n == 4096 else range(1, 8)
        for batch in batches:
            step = self._step(ring, parts, groups, batch, n * 100 + parts * 10 + groups + batch)
            got = step(NATIVE)
            outputs = (2 * groups * batch,) if parts == 1 else (groups, batch)
            assert got.shape == (2,) + outputs + (ring.rns_count, n)
            want = step(EAGER)
            assert np.array_equal(got, want), batch
            whole = _unsplit(monkeypatch, lambda: step(NATIVE))
            assert np.array_equal(whole, want), batch
        assert split.submits > 0

    def test_the_fused_kernel_is_the_three_call_path(self):
        """Fused or not, native's key switch is the per-primitive one: each
        compiled step equals the inherited step, which key-switches by
        ``decompose``, ``digits_forward`` and ``inner`` around native's own
        transforms."""
        ring = RINGS[256]
        three_calls = super(type(NATIVE), NATIVE)
        for parts in (1, 2):
            step = self._step(ring, parts, 2, 3, parts)
            assert np.array_equal(step(NATIVE), step(three_calls)), parts

    def test_a_bad_key_row_in_the_last_slice_falls_back_once(self, split, counters):
        ring = RINGS[256]
        gadget = Gadget(ring)
        entries = _residues(ring, (2, 2 * 2), 3)
        bits = _bit_views(ring, 1, 2, 4)
        bits[0][1][1, 2 * gadget.length - 1, 0, 9] = -1  # query 1: the last slice
        want = _coltor(EAGER, ring, entries, bits)
        assert np.array_equal(_coltor(NATIVE, ring, entries, bits), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0


class TestExpandLevel:
    @pytest.mark.parametrize("n", sorted(GRID))
    def test_matches_eager_and_the_unsplit_call(self, split, monkeypatch, n):
        ring = RINGS[n]
        for query_counts, depths, _ in GRID[n]:
            for queries in query_counts:
                packed = _residues(ring, (2, queries), n + queries)
                evks = _evks(ring, max(depths), n + queries)
                for levels in depths:
                    want = _expand(EAGER, ring, packed, evks, levels)
                    got = _expand(NATIVE, ring, packed, evks, levels)
                    assert np.array_equal(got, want), (queries, levels)
                whole = _unsplit(
                    monkeypatch, lambda: _expand(NATIVE, ring, packed, evks, levels)
                )
                assert np.array_equal(whole, want), queries
        assert split.submits > 0

    @pytest.mark.parametrize("operand", ["vec", "key"])
    def test_a_refused_word_in_the_last_slice_falls_back_once(
        self, split, counters, operand
    ):
        """A non-canonical ``vec`` word, or a key word at or above
        2^key_bits, in the last ciphertext of the level's last slice."""
        ring = RINGS[256]
        packed = _residues(ring, (2, 3), 34)
        evks = _evks(ring, 2, 35)
        if operand == "vec":
            packed[0, 2, 1, 200] = -5
            levels = 1
        else:
            key_bits = (max(ring.params.moduli) - 1).bit_length()
            evks[ring.n // 2 + 1].rows[1, -1, 0, 3] = 1 << key_bits
            levels = 2
        want = _expand(EAGER, ring, packed, evks, levels)
        assert np.array_equal(_expand(NATIVE, ring, packed, evks, levels), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0


class TestCmuxRound:
    @pytest.mark.parametrize("n", sorted(GRID))
    def test_matches_eager_and_the_unsplit_call(self, split, monkeypatch, n):
        """Bit rows per query are views, never a stack; at Q = 1 the one
        query's rows are a view too."""
        ring = RINGS[n]
        for query_counts, _, round_counts in GRID[n]:
            for queries in query_counts:
                for rounds in round_counts:
                    seed = n + 10 * queries + rounds
                    entries = _residues(ring, (2, queries << rounds), seed)
                    bits = _bit_views(ring, rounds, queries, seed)
                    assert not bits[0][0].flags.c_contiguous or queries == 1
                    want = _coltor(EAGER, ring, entries, bits)
                    assert want.shape == (2, queries, ring.rns_count, n)
                    got = _coltor(NATIVE, ring, entries, bits)
                    assert np.array_equal(got, want), (queries, rounds)
                whole = _unsplit(
                    monkeypatch, lambda: _coltor(NATIVE, ring, entries, bits)
                )
                assert np.array_equal(whole, want), queries
        assert split.submits > 0

    @pytest.mark.parametrize("operand", ["cur", "key"])
    def test_a_refused_word_in_the_last_slice_falls_back_once(
        self, split, counters, operand
    ):
        """A non-canonical entry word, or a key word at or above
        2^key_bits, in the round's last output (the last slice)."""
        ring = RINGS[256]
        entries = _residues(ring, (2, 3 * 2), 36)
        bits = _bit_views(ring, 1, 3, 37)
        if operand == "cur":
            entries[1, 5, 0, 11] = ring.params.moduli[0]
        else:
            key_bits = (max(ring.params.moduli) - 1).bit_length()
            bits[0][2][0, 3, 1, 8] = 1 << key_bits
        want = _coltor(EAGER, ring, entries, bits)
        assert np.array_equal(_coltor(NATIVE, ring, entries, bits), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0


class TestProductionAnswer:
    def test_one_call_per_level_and_per_round(self, monkeypatch):
        """One N = 2^12 answer: ``levels`` level calls, ``num_dims`` round
        calls, and no ``np.take`` gather or ``np.stack`` of bit rows in the
        compiled backend around them."""
        params = PirParams.functional()
        client = PirClient(params, seed=42)
        rng = np.random.default_rng(43)
        records = [rng.bytes(64) for _ in range(64)]
        db = PirDatabase.from_records(records, params, 64)
        server = PirServer(db.preprocess(client.ring), client.setup_message(), NATIVE)
        query = client.build_query(9, db.layout)
        server.answer(query)  # warm the slot and monomial tables
        calls = {"expand_level": 0, "cmux_round": 0, "take": 0, "stack": 0}

        def spy(owner, name, key, here=None):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                caller = Path(sys._getframe(1).f_code.co_filename).parent
                if here is None or caller == here:
                    calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        he = Path(native.__file__).parent
        spy(native.NativeRing, "expand_level", "expand_level")
        spy(native.NativeRing, "cmux_round", "cmux_round")
        spy(np, "take", "take", he)
        spy(np, "stack", "stack", he)
        response = server.answer(query)
        assert calls == {
            "expand_level": modmath.ilog2(params.d0), "cmux_round": params.num_dims,
            "take": 0, "stack": 0,
        }
        assert client.decode_response(response, 9, db.layout) == records[9]


def _encrypt_operands(ring: RingContext, count: int, seed: int, shifted: bool):
    """``encrypt_rows`` operands: key, rows with uniform ``a``, errors and
    (when ``shifted``) canonical per-row constants."""
    rng = np.random.default_rng(seed)
    rows = np.empty((2, count, ring.rns_count, ring.n), dtype=np.int64)
    rows[0] = _residues(ring, (count,), seed)
    errors = np.rint(rng.normal(0.0, 3.2, size=(count, ring.n))).astype(np.int64)
    shift = None
    if shifted:
        moduli = np.array(ring.params.moduli)
        shift = rng.integers(0, 1 << 62, size=(count, 2, ring.rns_count)) % moduli
    return _residues(ring, (), seed + 1), rows, errors, shift


class TestEncrypt:
    @pytest.mark.parametrize("n", sorted(RINGS))
    @pytest.mark.parametrize("shifted", [False, True], ids=["zeros", "shifted"])
    def test_matches_eager_and_the_unsplit_call(self, split, monkeypatch, n, shifted):
        ring = RINGS[n]
        counts = (1, 2, 3, 17, 50) if n == 4096 else range(1, 51)
        for count in counts:
            key, rows, errors, shift = _encrypt_operands(ring, count, n + count, shifted)
            want = EAGER.encrypt_rows(ring, key, rows.copy(), errors, shift)
            got = rows.copy()
            assert NATIVE.encrypt_rows(ring, key, got, errors, shift) is got
            assert np.array_equal(got, want), count
            whole = rows.copy()
            _unsplit(monkeypatch, lambda: NATIVE.encrypt_rows(ring, key, whole, errors, shift))
            assert np.array_equal(whole, want), count
        assert split.submits > 0

    @pytest.mark.parametrize("operand", ["a", "shift"])
    def test_a_bad_word_in_the_last_slice_falls_back_once(self, split, counters, operand):
        """The first slices finish and add their constants to ``a`` in
        place; the fallback must still see ``a`` as it was."""
        ring = RINGS[256]
        key, rows, errors, shift = _encrypt_operands(ring, 6, 60, True)
        if operand == "a":
            rows[0, 5, 1, 9] = ring.params.moduli[1]  # the last row: the last slice
        else:
            shift[5, 1, 1] = -1
        want = EAGER.encrypt_rows(ring, key, rows.copy(), errors, shift)
        assert np.array_equal(NATIVE.encrypt_rows(ring, key, rows.copy(), errors, shift), want)
        assert counters("he_native_none") == 1
        assert split.submits > 0

    @pytest.mark.parametrize("preset", ["small", "functional"])
    def test_seeded_queries_and_keys_are_the_eager_builds(self, split, monkeypatch, preset):
        params = PirParams.small() if preset == "small" else PirParams.functional()
        layout = RecordLayout(params, 64, 32)
        indices = [0, 5, 17] if preset == "small" else [9]

        def build():
            client = PirClient(params, seed=41)
            queries = client.build_queries(indices, [layout] * len(indices))
            return client.setup_message().evks, queries

        native_keys, native_queries = build()
        assert split.submits > 0
        monkeypatch.setattr(backend_module, "_default_name", lambda: "eager")
        eager_keys, eager_queries = build()
        assert native_keys.keys() == eager_keys.keys()
        for r in eager_keys:
            assert np.array_equal(native_keys[r].rows, eager_keys[r].rows), r
        for got, want in zip(native_queries, eager_queries, strict=True):
            for half in ("a", "b"):
                g, w = getattr(got.packed, half), getattr(want.packed, half)
                assert np.array_equal(g.residues, w.residues), half
            for g, w in zip(got.selection_bits, want.selection_bits, strict=True):
                assert np.array_equal(g.rows, w.rows)


class TestPool:
    def test_servers_answer_at_once_through_the_shared_pool(self, split):
        """Three threads — more callers than cores — each with its own
        server, split every kernel over the one pool at the same time, with
        the interpreter switching threads as often as it can: nothing
        deadlocks and every response is the serial run's."""
        backend = os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)
        params = PirParams.small(n=256, d0=8, num_dims=2)
        rng = np.random.default_rng(40)
        deployments = []
        for seed in (1, 2, 3):
            records = [rng.bytes(64) for _ in range(32)]
            client = PirClient(params, seed=seed)
            db = PirDatabase.from_records(records, params, 64)
            server = PirServer(db.preprocess(client.ring), client.setup_message(), backend)
            queries = [client.build_query(i * 5 % 32, db.layout) for i in range(4)]
            deployments.append((server, queries))
        serial = [[server.answer(q) for q in queries] for server, queries in deployments]
        concurrent = [None] * len(deployments)

        def serve(slot):
            server, queries = deployments[slot]
            concurrent[slot] = [server.answer(q) for q in queries]

        threads = [threading.Thread(target=serve, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a fanned answer did not finish"
        finally:
            sys.setswitchinterval(interval)
        for got_all, want_all in zip(concurrent, serial, strict=True):
            for got, want in zip(got_all, want_all, strict=True):
                for g, w in zip(got.plane_cts, want.plane_cts, strict=True):
                    assert np.array_equal(g.a.residues, w.a.residues)
                    assert np.array_equal(g.b.residues, w.b.residues)
        if backend == "native":
            assert split.submits > 0

    def test_one_core_starts_no_pool_thread(self, monkeypatch):
        monkeypatch.setattr(native.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(native.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(native, "FAN_FLOOR_WORDS", 0)
        monkeypatch.setattr(native, "_pool", None)
        native.fan_width.cache_clear()
        try:
            before = set(threading.enumerate())
            ring = RINGS[256]
            packed = _residues(ring, (2, 4), 50)
            evks = _evks(ring, 2, 51)
            assert np.array_equal(
                _expand(NATIVE, ring, packed, evks, 2),
                _expand(EAGER, ring, packed, evks, 2),
            )
            assert native.fan_width() == 1
            assert native._pool is None
            assert set(threading.enumerate()) <= before
        finally:
            native.fan_width.cache_clear()

    def test_importing_repro_starts_no_thread(self):
        code = (
            "import threading, repro, repro.he.backend, repro.pir.server; "
            "assert threading.active_count() == 1, threading.enumerate()"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


#: The C file's exported kernels: one NTT, one encryption pass, the two
#: fused window steps, RowSel and the seeded draws.
ENTRY_POINTS = {
    "ive_ntt", "ive_encrypt", "ive_expand_level", "ive_cmux_round", "ive_rowsel",
    "ive_sample",
}

#: What ``native`` replaces of the eager backend, and its private helpers.
OVERRIDES = {
    "ntt_forward", "ntt_inverse", "encrypt_rows", "rowsel_gemm",
    "_expand_level", "_coltor_round", "sample",
}


class TestSurface:
    def test_the_c_file_exports_the_six_entry_points_ctypes_binds(self):
        source = native._SOURCE.read_text()
        exported = set(re.findall(
            r"^(?!static\b)(?:\w+\s+\**)+(\w+)\s*\(", source, flags=re.MULTILINE
        ))
        assert exported == set(native._SIGNATURES) == ENTRY_POINTS

    def test_native_overrides_the_steps_production_runs_and_nothing_else(self):
        defined = {
            name for name, value in vars(backend_module.NativeBackend).items()
            if callable(value) or isinstance(value, staticmethod)
        }
        assert defined == OVERRIDES | {"__init__", "_ring", "_consts"}
        base = backend_module.ComputeBackend
        assert all(hasattr(base, name) for name in OVERRIDES)

    def test_the_eager_backend_has_no_abstract_stub(self):
        """Every ``ComputeBackend`` method has a body — none only raises
        ``NotImplementedError`` — and the class is the registered eager."""
        cls = backend_module.ComputeBackend
        (tree,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        for method in tree.body:
            if isinstance(method, ast.FunctionDef):
                code = [
                    node for node in method.body
                    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
                ]
                stub = len(code) == 1 and isinstance(code[0], ast.Raise)
                assert not (stub and "NotImplementedError" in ast.unparse(code[0])), method.name
        assert type(EAGER) is cls and cls.name == "eager"
