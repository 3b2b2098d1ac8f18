"""PIR client: key generation, query construction, response decoding.

The client packs the one-hot initial-dimension index into a single BFV
ciphertext (coefficient i0 set, everything else zero) and sends the d
subsequent-dimension selection bits as direct RGSW encryptions — the
paper's practical D_i = 2 construction (Section II-C), which needs exactly
one RGSW ciphertext per dimension.  Evaluation keys for ExpandQuery
(one per tree depth, Section II-A) are shipped once at setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.he import modmath
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.gadget import Gadget
from repro.he.poly import BLOCK_BYTES, RingContext
from repro.he.rgsw import RgswCiphertext, gadget_shift
from repro.he.sampling import Sampler
from repro.he.subs import SubsKey, generate_subs_keys
from repro.params import PirParams
from repro.pir.expand import expansion_powers
from repro.pir.layout import RecordLayout


@dataclass
class ClientSetup:
    """One-time public material the client uploads to the server."""

    evks: dict[int, SubsKey]

    def size_bytes(self, params: PirParams) -> int:
        return len(self.evks) * params.evk_bytes


@dataclass
class PirQuery:
    """Per-retrieval message: one packed BFV ct + d RGSW selection bits."""

    packed: BfvCiphertext
    selection_bits: list[RgswCiphertext]

    def size_bytes(self, params: PirParams) -> int:
        return params.ct_bytes + len(self.selection_bits) * params.rgsw_bytes


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
        self._evks = generate_subs_keys(
            self.bfv, self.gadget, self.secret_key,
            expansion_powers(params.n, levels),
        )

    def setup_message(self) -> ClientSetup:
        return ClientSetup(evks=dict(self._evks))

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
        :meth:`~repro.he.bfv.BfvContext.encrypt_zeros` tensor — the
        gadget terms added by the encryption pass itself, the one-hot
        plaintexts in place after it — and its queries are views into
        it.  (One tensor for a whole 36-query pass measured no faster
        and cost 9 MiB more peak RSS.)
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
        query_bytes = (1 + dims * 2 * ell) * 16 * self.ring.rns_count * params.n
        step = max(1, BLOCK_BYTES // query_bytes)
        queries: list[PirQuery] = []
        for lo in range(0, count, step):
            queries.extend(
                self._encrypt_block(onehot[lo:lo + step], bits[lo:lo + step])
            )
        return queries

    def _encrypt_block(self, onehot: np.ndarray, bits: np.ndarray) -> list[PirQuery]:
        """Queries for plaintext rows ``onehot`` and bit rows ``bits``: one
        stacked encryption, the messages added in place."""
        count, dims = bits.shape
        ell, rns = self.gadget.length, self.ring.rns_count
        per_query = 1 + dims * 2 * ell
        shift = np.zeros((count, per_query, 2, rns), dtype=np.int64)
        shift[:, 1:] = gadget_shift(self.gadget, bits).reshape(count, -1, 2, rns)
        rows = self.bfv.encrypt_zeros(
            self.secret_key, count * per_query, shift.reshape(-1, 2, rns)
        )
        rows = rows.reshape((2, count, per_query) + rows.shape[2:])
        self.bfv.add_plain(rows[1, :, 0], onehot)
        rgsw = rows[:, :, 1:].reshape((2, count, dims, 2 * ell) + rows.shape[3:])
        return [
            PirQuery(
                packed=self.bfv.row_ct(rows[:, i], 0),
                selection_bits=[
                    RgswCiphertext(self.ring, rgsw[:, i, dim]) for dim in range(dims)
                ],
            )
            for i in range(count)
        ]

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
