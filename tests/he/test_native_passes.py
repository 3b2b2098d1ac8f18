"""The answer's non-NTT passes, ``native`` against ``eager``, byte for byte.

Three passes carry everything of an answer that is not a transform or a
key switch: ``rowsel_gemm`` (the one-pass contraction over the uint32
database store), one ExpandQuery level's butterfly and the modular adds
(the ``b`` add of Subs, ColTor's ``ones - zeros`` and ``+ zeros``).  On
``native`` the last two live inside the fused window steps —
``expand_level`` (one C call per level) and ``coltor_round`` (one per
round) — so they are held to ``eager`` through ``expand_window`` and
``coltor_window``.  The cases are the ones that bound the C arithmetic:
the N = 256 / 3-moduli and N = 4096 / 4-moduli rings, residues 0 and
q - 1, a shared plane, the non-contiguous per-query bucket views of the
batch and keyword tiers, contractions long enough to need the
overflow-safe reduction, non-canonical operands (which must fall back,
not corrupt), and the frozen staged replay's own
``np.array(params.moduli)[:, None]`` modulus column.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.he import native
from repro.he.backend import get_backend
from repro.he.gadget import Gadget
from repro.he.poly import BLOCK_BYTES, RingContext
from repro.he.subs import SubsKey
from repro.params import PirParams

EAGER = get_backend("eager")
NATIVE = get_backend("native")

needs_native = pytest.mark.skipif(
    native.load_library() is None,
    reason="the native kernels could not be built here (no C compiler, or "
    "the build or load failed): nothing compiled to test",
)

RINGS = {
    256: RingContext(PirParams.small()),
    4096: RingContext(PirParams.functional()),
}


def _moduli(ring: RingContext, kind: str) -> np.ndarray:
    """The ring's own modulus column, or the one the staged replay builds."""
    if kind == "ring":
        return ring._moduli_col
    return np.array(ring.params.moduli, dtype=np.int64)[:, None]


def _residues(ring: RingContext, shape: tuple, seed: int, fill: str) -> np.ndarray:
    """Canonical int64 residues of ``shape + (rns, n)``: random, all zero,
    all q - 1, or zero and q - 1 striped across the coefficients."""
    q = ring._moduli_col
    full = shape + (ring.rns_count, ring.n)
    if fill == "random":
        return np.random.default_rng(seed).integers(0, 1 << 62, size=full) % q
    top = np.broadcast_to(q - 1, full).copy()
    if fill == "zeros":
        return np.zeros_like(top)
    if fill == "striped":
        top[..., seed % 2::2] = 0
    return top


FILLS = ("random", "zeros", "top", "striped")
BACKENDS = pytest.mark.parametrize("backend", [NATIVE], ids=["native"])


class TestRowselGemm:
    @BACKENDS
    @pytest.mark.parametrize("n", sorted(RINGS))
    @pytest.mark.parametrize("db_fill", FILLS)
    @pytest.mark.parametrize("query_fill", FILLS)
    def test_shared_plane_matches_eager(self, backend, n, db_fill, query_fill):
        ring = RINGS[n]
        cols, d0 = (4, 8) if n == 256 else (2, 4)
        db = _residues(ring, (1, cols, d0), 1, db_fill).astype(np.uint32)
        query = _residues(ring, (2, 3, d0), 2, query_fill)
        for kind in ("ring", "replay"):
            moduli = _moduli(ring, kind)
            want = EAGER.rowsel_gemm(db, query, moduli)
            assert want.shape == (2, 3, cols, ring.rns_count, n)
            got = backend.rowsel_gemm(db, query, moduli)
            assert got.dtype == np.int64 and np.array_equal(got, want), kind

    def test_eager_matches_the_int64_definition(self):
        ring = RINGS[256]
        db = _residues(ring, (2, 3, 8), 3, "random")
        query = _residues(ring, (2, 2, 8), 4, "random")
        want = np.stack([
            np.stack([
                sum(
                    db[q, c, r].astype(object) * query[h, q, r].astype(object)
                    for r in range(8)
                ) % ring._moduli_col
                for c in range(3)
            ])
            for h in range(2) for q in range(2)
        ]).reshape(2, 2, 3, ring.rns_count, ring.n).astype(np.int64)
        got = EAGER.rowsel_gemm(db.astype(np.uint32), query, ring._moduli_col)
        assert np.array_equal(got, want)

    @BACKENDS
    def test_per_query_bucket_views_are_read_in_place(self, backend):
        """``tensor[:, plane]`` of a ``(buckets, planes, cols, d0, rns, n)``
        store, and a slice of it, as the batch and keyword tiers hand them."""
        ring = RINGS[256]
        store = _residues(ring, (5, 3, 2, 8), 5, "random").astype(np.uint32)
        query = _residues(ring, (2, 5, 8), 6, "striped")
        for view in (store[:, 1], store[1:4, 2], store[::-1, 0]):
            assert not view.flags.c_contiguous
            q = query[:, : view.shape[0]]
            want = EAGER.rowsel_gemm(np.ascontiguousarray(view), q, ring._moduli_col)
            assert np.array_equal(backend.rowsel_gemm(view, q, ring._moduli_col), want)

    @BACKENDS
    @pytest.mark.parametrize("halves", [1, 2])
    def test_long_contractions_reduce_in_overflow_safe_chunks(self, backend, halves):
        """At 28-bit moduli a uint64 sums ~256 products; 600 rows of q - 1
        overflow it unless the sums are reduced on the way."""
        ring = RingContext(PirParams.small(n=16))
        db = _residues(ring, (1, 2, 600), 7, "top").astype(np.uint32)
        query = _residues(ring, (halves, 1, 600), 8, "top")
        want = EAGER.rowsel_gemm(db, query, ring._moduli_col)
        assert np.array_equal(backend.rowsel_gemm(db, query, ring._moduli_col), want)

    @BACKENDS
    def test_out_is_written_in_place(self, backend):
        ring = RINGS[256]
        db = _residues(ring, (1, 2, 8), 9, "random").astype(np.uint32)
        query = _residues(ring, (2, 1, 8), 10, "random")
        out = np.full((2, 1, 2, ring.rns_count, ring.n), -1, dtype=np.int64)
        got = backend.rowsel_gemm(db, query, ring._moduli_col, out=out)
        assert got is out
        assert np.array_equal(out, EAGER.rowsel_gemm(db, query, ring._moduli_col))

    @needs_native
    def test_a_non_canonical_query_falls_back_to_the_eager_contraction(self):
        ring = RINGS[256]
        db = _residues(ring, (1, 2, 8), 11, "random").astype(np.uint32)
        query = _residues(ring, (2, 1, 8), 12, "random")
        query[1, 0, 3, 0, 5] = -7
        want = EAGER.rowsel_gemm(db, query, ring._moduli_col)
        assert np.array_equal(NATIVE.rowsel_gemm(db, query, ring._moduli_col), want)

    @needs_native
    def test_the_kernel_rejects_shapes_before_reading(self):
        lib = native.load_library()
        consts = native.modulus_consts(RINGS[256].params.moduli)
        db = np.zeros((1, 2, 8, 3, 256), dtype=np.uint32)
        for store, query_shape in (
            (db.astype(np.int64), (2, 1, 8, 3, 256)),  # not the uint32 store
            (db, (3, 1, 8, 3, 256)),  # three halves
            (db, (2, 1, 7, 3, 256)),  # rows disagree
        ):
            with pytest.raises(ParameterError):
                native.rowsel_gemm(lib, consts, store, np.zeros(query_shape), None)

    def test_eager_widens_the_store_a_block_at_a_time(self):
        """The oracle never holds an int64 copy of the whole plane: its
        temporaries stay under one uint32 plane's worth."""
        ring = RINGS[4096]
        db = _residues(ring, (1, 8, 16), 13, "random").astype(np.uint32)
        assert db.nbytes > 2 * BLOCK_BYTES
        query = _residues(ring, (2, 1, 16), 14, "random")
        out = np.empty((2, 1, 8, ring.rns_count, ring.n), dtype=np.int64)
        tracemalloc.start()
        try:
            EAGER.rowsel_gemm(db, query, ring._moduli_col, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < db.nbytes, (peak, db.nbytes)

    @needs_native
    def test_native_reads_a_bucket_view_without_copying_it(self):
        ring = RINGS[4096]
        store = _residues(ring, (2, 2, 2, 8), 15, "random").astype(np.uint32)
        view = store[:, 1]
        query = _residues(ring, (2, 2, 8), 16, "random")
        out = np.empty((2, 2, 2, ring.rns_count, ring.n), dtype=np.int64)
        NATIVE.rowsel_gemm(view, query, ring._moduli_col, out=out)  # warm caches
        tracemalloc.start()
        try:
            NATIVE.rowsel_gemm(view, query, ring._moduli_col, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < view.nbytes // 4, (peak, view.nbytes)


def _evks(ring: RingContext, levels: int, seed: int, fill: str) -> dict:
    """Evaluation keys of the first ``levels`` expansion levels: rows of
    canonical residues (the ops are exact arithmetic on any key)."""
    gadget = Gadget(ring)
    return {
        ring.n // (1 << a) + 1: SubsKey(
            ring.n // (1 << a) + 1, ring,
            _residues(ring, (2, gadget.length), seed + a, fill),
        )
        for a in range(levels)
    }


def _bits(ring: RingContext, queries: int, seed: int, fill: str) -> list:
    """One round's per-query RGSW rows, each a view into one tensor."""
    rows = _residues(ring, (2, queries, 2 * Gadget(ring).length), seed, fill)
    return [rows[:, q] for q in range(queries)]


def _expand(backend, ring: RingContext, packed: np.ndarray, evks: dict, levels: int):
    return backend.expand_window(packed, evks, levels, Gadget(ring))


def _coltor(backend, ring: RingContext, entries: np.ndarray, bits: list):
    return backend.coltor_window(entries, bits, Gadget(ring))


class TestExpandButterfly:
    """The level's butterfly — ``vec + Subs(vec)``, ``(vec - Subs(vec)) *
    X^-step`` — which ``native`` runs inside ``ive_expand_level``."""

    @BACKENDS
    @pytest.mark.parametrize("n", sorted(RINGS))
    @pytest.mark.parametrize("step", [1, 2, 4])
    def test_matches_eager(self, backend, n, step):
        """Up to the level of ``step`` ciphertexts per query."""
        ring = RINGS[n]
        levels = step.bit_length()
        for fills in (("random", "random"), ("zeros", "top"), ("top", "zeros"),
                      ("top", "top"), ("striped", "random")):
            packed = _residues(ring, (2, 3), step, fills[0])
            evks = _evks(ring, levels, step + 1, fills[1])
            want = _expand(EAGER, ring, packed, evks, levels)
            assert want.shape == (2, 3 * 2 * step, ring.rns_count, n)
            got = _expand(backend, ring, packed, evks, levels)
            assert got.dtype == np.int64 and np.array_equal(got, want), fills

    def test_eager_is_the_level_definition(self):
        ring = RINGS[256]
        vec = _residues(ring, (2, 1, 2), 20, "random")
        swapped = _residues(ring, (2, 1, 2), 21, "random")
        got = EAGER.expand_butterfly(ring, vec, swapped, 2)
        q = ring._moduli_col
        assert np.array_equal(got[:, :, :2], (vec + swapped) % q)
        assert np.array_equal(
            got[:, :, 2:], (vec - swapped) % q * ring.monomial_ntt(-2) % q
        )

    @BACKENDS
    def test_views_match_eager(self, backend):
        ring = RINGS[256]
        base = _residues(ring, (2, 4), 22, "random")
        packed = base[:, ::2]
        assert not packed.flags.c_contiguous
        evks = _evks(ring, 2, 23, "random")
        want = _expand(EAGER, ring, np.ascontiguousarray(packed), evks, 2)
        assert np.array_equal(_expand(backend, ring, packed, evks, 2), want)

    @needs_native
    def test_a_non_canonical_operand_falls_back(self):
        ring = RINGS[256]
        packed = _residues(ring, (2, 1), 23, "random")
        packed[1, 0, 1, 9] = ring.params.moduli[1]
        evks = _evks(ring, 1, 24, "random")
        want = _expand(EAGER, ring, packed, evks, 1)
        assert np.array_equal(_expand(NATIVE, ring, packed, evks, 1), want)


class TestModularAdd:
    """The modular adds ``native`` folds into the window steps: Subs'
    ``b`` add inside a level (``subtract`` False) and ColTor's ``ones -
    zeros`` / ``+ zeros`` inside a round (``subtract`` True)."""

    @BACKENDS
    @pytest.mark.parametrize("n", sorted(RINGS))
    @pytest.mark.parametrize("subtract", [False, True])
    def test_matches_eager(self, backend, n, subtract):
        ring = RINGS[n]
        for fa in FILLS:
            for fb in FILLS:
                if subtract:  # fa the zeros entries, fb the ones entries
                    entries = np.stack([
                        _residues(ring, (2, 2), 30, fa),
                        _residues(ring, (2, 2), 31, fb),
                    ], axis=2).reshape((2, 4, ring.rns_count, n))
                    bits = [_bits(ring, 2, 32, "random")]
                    want = _coltor(EAGER, ring, entries, bits)
                    got = _coltor(backend, ring, entries, bits)
                else:  # fa the a halves, fb the b halves Subs gathers and adds
                    packed = np.stack([
                        _residues(ring, (2,), 30, fa), _residues(ring, (2,), 31, fb)
                    ])
                    evks = _evks(ring, 1, 32, "random")
                    want = _expand(EAGER, ring, packed, evks, 1)
                    got = _expand(backend, ring, packed, evks, 1)
                assert np.array_equal(got, want), (fa, fb)

    @BACKENDS
    @pytest.mark.parametrize("shared", [False, True])
    def test_coltor_views_and_in_place_out(self, backend, shared):
        """Strided entries, and per-query bit rows that are views — one
        query's own tensor (``shared`` False) or slices of one tensor all
        queries share (True) — are read where they lie; the round's input
        is never written."""
        ring = RINGS[256]
        queries = 3 if shared else 1
        base = _residues(ring, (2, queries, 8), 32, "random")
        entries = base[:, :, ::2].reshape((2, queries * 4, ring.rns_count, ring.n))
        before = base.copy()
        if shared:
            bits = [_bits(ring, queries, 33 + k, "random") for k in range(2)]
        else:
            rows = 4 * Gadget(ring).length
            bits = [[_residues(ring, (2, rows), 33 + k, "random")[:, ::2]] for k in range(2)]
        want = _coltor(EAGER, ring, np.ascontiguousarray(entries), bits)
        assert np.array_equal(_coltor(backend, ring, entries, bits), want)
        assert np.array_equal(base, before)

    @needs_native
    def test_a_non_canonical_operand_falls_back_and_leaves_out_intact(
        self, monkeypatch
    ):
        """A refused entry word in the last output — also where the
        fan-out splits the round (width 2 or 3, no floor), so that the
        first slices finish before the last one refuses — gives eager's
        round, and the round's input is as it was."""
        ring = RINGS[256]
        monkeypatch.setattr(native, "FAN_FLOOR_WORDS", 0)
        for width in (1, 2, 3):
            monkeypatch.setattr(native, "fan_width", lambda: width)
            entries = _residues(ring, (2, 8), 35, "random")
            entries[1, 7, 2, 7] = -1
            before = entries.copy()
            bits = [_bits(ring, 1, 36 + k, "random") for k in range(3)]
            want = _coltor(EAGER, ring, entries.copy(), bits)
            got = _coltor(NATIVE, ring, entries, bits)
            assert np.array_equal(got, want), width
            assert np.array_equal(entries, before), width
