"""Seeded bytes pinned as data: evk, query and response sha256s.

At N = 256 (``small``) and N = 2^12 with d = 2 and d = 4 selection
bits (``functional``, ``functional_d4``: the benchmark's 41-row query),
a client seeded with 12 builds its evaluation keys and, one at a time,
queries for indices 3, 17 and 40 of a 64-record store (64 bytes each,
from ``default_rng(12)``); the server answers the three as one window.
The evk hash covers each key's rows by ascending power ``r``; the query
hash each query's packed ``a`` and ``b`` and then its bit rows; the
response hash each plane ciphertext's ``a`` and ``b`` — all as int64
bytes.  Backends may only reassociate exact arithmetic and the sampler's
stream is part of the format, so every hash must equal the committed
one in ``golden_bytes.json``.  A change that moves bytes on purpose
edits that file in the same commit and says why.  ``REPRO_BACKEND``
selects the server's backend so CI can run the file once per backend.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.he.backend import DEFAULT_BACKEND
from repro.params import PirParams
from repro.pir.client import PirClient
from repro.pir.database import PirDatabase
from repro.pir.server import PirServer

#: Backend under test; CI sets REPRO_BACKEND=eager / =native.
BACKEND = os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)
GOLDEN = json.loads((Path(__file__).parent / "golden_bytes.json").read_text())
RINGS = {
    "small": PirParams.small(),
    "functional": PirParams.functional(d0=64, num_dims=2),
    "functional_d4": PirParams.functional(d0=64, num_dims=4),
}
INDICES = (3, 17, 40)


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(RINGS))
def hashes(request):
    params = RINGS[request.param]
    rng = np.random.default_rng(12)
    records = [rng.bytes(64) for _ in range(64)]
    client = PirClient(params, seed=12)
    db = PirDatabase.from_records(records, params, 64)
    evks = client.setup_message().evks
    server = PirServer(db.preprocess(client.ring), client.setup_message(), BACKEND)
    queries = [client.build_query(index, db.layout) for index in INDICES]
    responses = server.answer_batch(queries)
    for index, response in zip(INDICES, responses):
        assert client.decode_response(response, index, db.layout) == records[index]
    got = {
        "evk": sha256(evks[r].rows for r in sorted(evks)),
        "queries": sha256(
            array
            for query in queries
            for array in [query.packed.a.residues, query.packed.b.residues]
            + [bit.rows for bit in query.selection_bits]
        ),
        "responses": sha256(
            half.residues
            for response in responses
            for ct in response.plane_cts
            for half in (ct.a, ct.b)
        ),
    }
    return request.param, got


@pytest.mark.parametrize("message", ["evk", "queries", "responses"])
def test_seeded_bytes_match_the_committed_hash(hashes, message):
    ring, got = hashes
    assert got[message] == GOLDEN[ring][message], (
        f"{ring} {message} bytes moved: sha256 {got[message]}"
    )
