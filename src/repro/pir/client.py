"""PIR client: key generation, query construction, response decoding.

The client packs the one-hot initial-dimension index into a single BFV
ciphertext (coefficient i0 set, everything else zero) and sends the d
subsequent-dimension selection bits as direct RGSW encryptions — the
paper's practical D_i = 2 construction (Section II-C), which needs exactly
one RGSW ciphertext per dimension.  Evaluation keys for ExpandQuery
(one per tree depth, Section II-A) are shipped once at setup.

Wire format.  Every upload — a :class:`PirQuery`, and the evaluation
keys of :class:`ClientSetup` — is one 32-byte seed plus the ``b`` rows
of its RLWE ciphertexts.  The ``a`` rows are uniform, so the client
draws a seed from its sampler, expands it with the counter-based
generator of :mod:`repro.he.sampling` and encrypts under those rows; the
server expands the same seed back, a dispatch group's seeds in one
call.  An RGSW row ``i < ℓ`` carries its gadget term ``m·z^i`` on ``a``: the client
subtracts it from the expanded ``a`` before encrypting and the
encryption pass adds it back, so the sent ``a`` is exactly the
expansion and ``b`` absorbs ``m·z^i·s`` — the rows' joint distribution
is unchanged.  The hint tier ships its LWE matrix the same way
(:func:`repro.pir.simplepir.lwe_public_matrix`).

The expansion, like every stream in this repo (secrets and errors
included), is not a cryptographic PRG, so seeding changes no security
claim the repo makes; a deployment would expand the seed with SHAKE-128
or AES-CTR.  ``size_bytes`` counts what a message holds —
its ``b`` rows at :attr:`~repro.params.PirParams.poly_bytes` each plus
32 bytes per seed — while the performance models keep the paper's full
ciphertext sizes (``PirParams.ct_bytes`` / ``rgsw_bytes`` /
``evk_bytes``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.he import modmath
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.he.rgsw import RgswCiphertext, gadget_shift
from repro.he.sampling import SEED_BYTES, Sampler, expand_a
from repro.he.subs import SubsKey, subs_key_rows, subs_keys
from repro.params import PirParams
from repro.pir.expand import expansion_powers
from repro.pir.layout import RecordLayout


def upload_rows(ring: RingContext, seed: bytes, b: np.ndarray) -> np.ndarray:
    """The ``(2, rows, rns, n)`` RLWE rows a seeded upload stands for: the
    ``a`` rows expanded from ``seed`` beside the sent ``b`` rows."""
    out = np.empty((2,) + b.shape, dtype=np.int64)
    expand_a(seed, len(b), ring, out=out[0])
    out[1] = b
    return out


def b_half(rows: np.ndarray) -> np.ndarray:
    """The ``b`` rows of a fresh ``(2, count, rns, n)`` encryption tensor.

    Where nothing else refers to ``rows`` — true of what
    :meth:`~repro.he.bfv.BfvContext.encrypt_zeros` returns, unless a
    tracer or profiler holds a reference — ``b`` moves over ``a`` and the
    buffer shrinks to it, so an upload holds no ``a`` row and costs no
    second allocation.  Otherwise ``b`` is copied out: a view still
    reaching the freed half would read released memory.
    """
    if not rows.flags.owndata:
        raise ParameterError("b_half needs the tensor that owns its buffer")
    rows[0] = rows[1]
    try:
        rows.resize(rows.shape[1:])
    except ValueError:
        return rows[0].copy()
    return rows


def upload_bytes(b: np.ndarray, params: PirParams) -> int:
    """Wire size of a seeded upload: its ``b`` rows and one seed."""
    return len(b) * params.poly_bytes + SEED_BYTES


@dataclass(frozen=True)
class ClientSetup:
    """One-time public material the client uploads: the evaluation keys.

    ``b`` is ``(levels·ℓ, rns, n)``, ℓ key rows per ExpandQuery level in
    level order (powers ``N+1, N/2+1, ...``); their ``a`` rows are
    :func:`expand_a` of ``seed``.
    """

    ring: RingContext
    seed: bytes
    b: np.ndarray

    def size_bytes(self, params: PirParams) -> int:
        return upload_bytes(self.b, params)

    @functools.cached_property
    def evks(self) -> dict[int, SubsKey]:
        """The keys the message stands for, ``a`` rows regenerated once, so
        every server built from this message shares them."""
        levels = len(self.b) // self.ring.params.gadget_len
        return subs_keys(
            self.ring, expansion_powers(self.ring.n, levels),
            upload_rows(self.ring, self.seed, self.b),
        )

    def __getstate__(self) -> dict:
        """What travels: the seed and the ``b`` rows, never the keys."""
        return {k: v for k, v in self.__dict__.items() if k != "evks"}


@dataclass
class PirQuery:
    """Per-retrieval upload: one packed BFV ct + d RGSW selection bits,
    as one seed and their ``b`` rows.

    ``b`` is ``(1 + d·2ℓ, rns, n)``: the packed ciphertext's row, then
    each bit's ``2ℓ`` rows.  ``packed`` and ``selection_bits`` rebuild
    the ciphertexts (what the per-poly oracle reads) beside the live
    ``b`` rows; the ``a`` rows they need are expanded once per seed and
    kept, read-only, with the object but never pickled.  The server
    expands a whole window's ``a`` rows itself.
    """

    ring: RingContext
    seed: bytes
    b: np.ndarray

    def size_bytes(self, params: PirParams) -> int:
        return upload_bytes(self.b, params)

    def _a_rows(self) -> np.ndarray:
        """The ``a`` rows ``seed`` expands to for ``len(b)`` rows."""
        key = (self.seed, len(self.b))
        cached = self.__dict__.get("_a")
        if cached is None or cached[0] != key:
            a = np.empty(np.shape(self.b), dtype=np.int64)
            expand_a(self.seed, len(self.b), self.ring, out=a)
            a.flags.writeable = False
            cached = self.__dict__["_a"] = (key, a)
        return cached[1]

    @property
    def packed(self) -> BfvCiphertext:
        return BfvCiphertext(
            RnsPoly(self.ring, self._a_rows()[0], Domain.NTT),
            RnsPoly(self.ring, self.b[0], Domain.NTT),
        )

    @property
    def selection_bits(self) -> list[RgswCiphertext]:
        rows = np.stack((self._a_rows()[1:], self.b[1:]))
        width = 2 * self.ring.params.gadget_len
        return [
            RgswCiphertext(self.ring, rows[:, lo:lo + width])
            for lo in range(0, len(self.b) - 1, width)
        ]

    def __getstate__(self) -> dict:
        """What travels: the seed and the ``b`` rows, never the ``a`` rows."""
        return {k: v for k, v in self.__dict__.items() if k != "_a"}


@dataclass
class PirResponse:
    """One BFV ciphertext per record plane."""

    plane_cts: list[BfvCiphertext]

    def size_bytes(self, params: PirParams) -> int:
        return len(self.plane_cts) * params.ct_bytes


class PirClient:
    """Holds the secret key; builds queries and decodes responses."""

    def __init__(self, params: PirParams, ring: RingContext | None = None, seed: int | None = None):
        self.params = params
        self.ring = ring if ring is not None else RingContext(params)
        self.sampler = Sampler(self.ring, seed=seed)
        self.bfv = BfvContext(self.ring, self.sampler)
        self.gadget = Gadget(self.ring)
        self.secret_key = SecretKey.generate(self.ring, self.sampler)
        levels = modmath.ilog2(params.d0)
        self._evk_seed = self.sampler.seed()
        self._evk_b = b_half(subs_key_rows(
            self.bfv, self.gadget, self.secret_key,
            expansion_powers(params.n, levels), self._evk_seed,
        ))

    def setup_message(self) -> ClientSetup:
        return ClientSetup(self.ring, self._evk_seed, self._evk_b)

    # -- query construction -------------------------------------------------
    def build_query(self, record_index: int, layout: RecordLayout) -> PirQuery:
        """One query: a pass of one."""
        return self.build_queries([record_index], [layout])[0]

    def build_queries(
        self, record_indices: list[int], layouts: list[RecordLayout]
    ) -> list[PirQuery]:
        """Build a whole pass of queries from stacked encryptions.

        Query ``i`` retrieves ``record_indices[i]`` under ``layouts[i]``
        (a batch pass has one layout per bucket, all of one geometry).
        The pass is cut into blocks of queries whose RLWE rows — per
        query the packed ciphertext and ``d`` RGSW bits of ``2ℓ`` rows —
        fill the kernels' scratch budget; each block is one
        :meth:`~repro.he.bfv.BfvContext.encrypt_zeros` tensor, one seed
        per query — the gadget terms added by the encryption pass itself,
        the one-hot plaintexts in place after it — and its queries hold
        views of the block's ``b`` half, which :func:`b_half` leaves alone
        in the tensor's buffer.
        (One tensor for a whole 36-query pass measured no faster and cost
        9 MiB more peak RSS.)
        """
        params, ell, dims = self.params, self.gadget.length, self.params.num_dims
        if len(record_indices) != len(layouts):
            raise LayoutError(
                f"{len(record_indices)} record indices for {len(layouts)} layouts"
            )
        count = len(record_indices)
        onehot = np.zeros((count, params.n), dtype=np.int64)
        bits = np.zeros((count, dims), dtype=np.int64)
        for i, (index, layout) in enumerate(zip(record_indices, layouts)):
            if layout.params is not params and layout.params != params:
                raise LayoutError("layout was built for different parameters")
            row, bits[i] = layout.dimension_indices(index)
            onehot[i, row] = self._query_scale()
        per_query = 1 + dims * 2 * ell
        step = max(1, BLOCK_BYTES // (per_query * 16 * self.ring.rns_count * params.n))
        queries: list[PirQuery] = []
        for lo in range(0, count, step):
            queries.extend(
                self._encrypt_block(onehot[lo:lo + step], bits[lo:lo + step])
            )
        return queries

    def _encrypt_block(self, onehot: np.ndarray, bits: np.ndarray) -> list[PirQuery]:
        """Queries for plaintext rows ``onehot`` and bit rows ``bits``: one
        stacked encryption, one seed per query, the messages added in
        place."""
        count, dims = bits.shape
        ell, rns = self.gadget.length, self.ring.rns_count
        per_query = 1 + dims * 2 * ell
        shift = np.zeros((count, per_query, 2, rns), dtype=np.int64)
        shift[:, 1:] = gadget_shift(self.gadget, bits).reshape(count, -1, 2, rns)
        seeds = [self.sampler.seed() for _ in range(count)]
        b = b_half(self.bfv.encrypt_zeros(
            self.secret_key, count * per_query, shift.reshape(-1, 2, rns), seeds
        ))
        self.bfv.add_plain(b[::per_query], onehot)
        b = b.reshape((count, per_query) + b.shape[1:])
        return [PirQuery(self.ring, seed, b[i]) for i, seed in enumerate(seeds)]

    def _query_scale(self) -> int:
        """Compensation for the D0 factor ExpandQuery introduces."""
        p = self.params.plain_modulus
        if self.params.plain_is_power_of_two:
            return 1  # decoded values carry a D0 factor; decode divides it out
        return modmath.mod_inverse(self.params.d0, p)

    # -- response decoding -----------------------------------------------------
    def decode_response(
        self, response: PirResponse, record_index: int, layout: RecordLayout
    ) -> bytes:
        return self.decode_responses([response], [record_index], [layout])[0]

    def decode_responses(
        self, responses: list[PirResponse], record_indices: list[int],
        layouts: list[RecordLayout],
    ) -> list[bytes]:
        """Records from a stack of responses (a batch round): every plane
        of every response decrypted together — one phase tensor, one
        inverse NTT — then each record assembled from its planes."""
        if not len(responses) == len(record_indices) == len(layouts):
            raise LayoutError(
                f"{len(responses)} responses for {len(record_indices)} record "
                f"indices and {len(layouts)} layouts"
            )
        plain = self.bfv.decrypt_many(
            [ct for response in responses for ct in response.plane_cts],
            self.secret_key,
        )
        records, at = [], 0
        for response, index, layout in zip(responses, record_indices, layouts):
            planes = len(response.plane_cts)
            records.append(self.assemble_record(plain[at:at + planes], index, layout))
            at += planes
        return records

    def assemble_record(
        self, plane_coeffs: list, record_index: int, layout: RecordLayout
    ) -> bytes:
        """Decoded per-plane coefficient vectors -> record bytes.

        Shared by the plain and modulus-switched response paths.
        """
        if len(plane_coeffs) != layout.plane_count:
            raise LayoutError(
                f"response has {len(plane_coeffs)} planes, layout expects "
                f"{layout.plane_count}"
            )
        chunks: list[bytes] = []
        remaining = layout.record_bytes
        for coeffs in plane_coeffs:
            if self.params.plain_is_power_of_two:
                coeffs = coeffs // self.params.d0
            nbytes = min(remaining, layout.bytes_per_plane_poly)
            offset = 0
            if layout.plane_count == 1:
                offset = layout.slot_offset_bytes(record_index)
            chunk = layout.unpack_poly(coeffs, offset + nbytes)
            chunks.append(chunk[offset : offset + nbytes])
            remaining -= nbytes
        return b"".join(chunks)
