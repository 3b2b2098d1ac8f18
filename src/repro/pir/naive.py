"""Naive one-dimensional PIR (Section II-A): one ciphertext per record.

The client sends D BFV ciphertexts encrypting the one-hot representation
of its index; the server computes Eq. 1 directly:

    sum_i DB[i] * ct[i]  ->  Enc(DB[i*])

This is the construction every HE-based PIR scheme starts from, and the
reason ExpandQuery exists: the naive query costs ``2 * D * logQ`` bits of
upload, whereas the packed query is a single ciphertext (the paper's
communication argument in Section II-A).  Implemented to quantify that
trade-off; use :class:`repro.pir.protocol.PirProtocol` for anything real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.he.bfv import BfvCiphertext, BfvContext, SecretKey
from repro.he.poly import RingContext
from repro.he.sampling import Sampler
from repro.params import PirParams
from repro.pir.database import PirDatabase


@dataclass
class NaiveQuery:
    """D ciphertexts, exactly one of which encrypts 1."""

    cts: list[BfvCiphertext]

    def size_bytes(self, params: PirParams) -> int:
        return len(self.cts) * params.ct_bytes


class NaiveOneHotPir:
    """Client+server pair for the Section II-A construction (single plane)."""

    def __init__(self, params: PirParams, db: PirDatabase, seed: int | None = None):
        if db.layout.plane_count != 1:
            raise LayoutError("naive PIR demo supports single-plane databases")
        self.params = params
        self.db = db
        self.ring = RingContext(params)
        self.sampler = Sampler(self.ring, seed=seed)
        self.bfv = BfvContext(self.ring, self.sampler)
        self.secret_key = SecretKey.generate(self.ring, self.sampler)
        self.preprocessed = db.preprocess(self.ring)

    # -- client ------------------------------------------------------------
    def build_query(self, record_index: int) -> NaiveQuery:
        target_poly = self.db.layout.poly_index(record_index)
        cts = []
        for i in range(self.params.num_db_polys):
            coeffs = np.zeros(self.params.n, dtype=np.int64)
            coeffs[0] = 1 if i == target_poly else 0
            cts.append(self.bfv.encrypt(coeffs, self.secret_key))
        return NaiveQuery(cts=cts)

    # -- server -------------------------------------------------------------
    def answer(self, query: NaiveQuery) -> BfvCiphertext:
        """Eq. 1: one plaintext-ciphertext MAC per database polynomial."""
        if len(query.cts) != self.params.num_db_polys:
            raise LayoutError(
                f"naive query needs {self.params.num_db_polys} ciphertexts, "
                f"got {len(query.cts)}"
            )
        pre, d0 = self.preprocessed, self.params.d0
        acc = query.cts[0].plain_mul(pre.poly(0, 0, 0))
        for i, ct in enumerate(query.cts[1:], start=1):
            acc = acc + ct.plain_mul(pre.poly(0, i % d0, i // d0))
        return acc

    # -- decode -------------------------------------------------------------
    def retrieve(self, record_index: int) -> bytes:
        response = self.answer(self.build_query(record_index))
        coeffs = self.bfv.decrypt(response, self.secret_key)
        layout = self.db.layout
        offset = layout.slot_offset_bytes(record_index)
        data = layout.unpack_poly(coeffs, offset + layout.record_bytes)
        return data[offset : offset + layout.record_bytes]


def query_size_ratio(params: PirParams) -> float:
    """Upload blow-up of naive vs packed queries (Section II-A).

    Naive: D ciphertexts.  Packed: 1 ciphertext + d RGSW selection bits.
    """
    naive = params.num_db_polys * params.ct_bytes
    packed = params.ct_bytes + params.num_dims * params.rgsw_bytes
    return naive / packed
