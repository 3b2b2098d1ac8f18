"""End-to-end protocol orchestration and communication accounting.

``PirProtocol`` wires a client and server together over one database and
reports a :class:`Transcript` of communication sizes — the quantities the
paper compares across PIR schemes (query size 2*D*logQ bits for BFV vs
n*D*logQ for Regev, Section II-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.he.backend import ComputeBackend
from repro.params import PirParams
from repro.pir.client import PirClient, PirQuery, PirResponse
from repro.pir.database import PirDatabase
from repro.pir.server import PirServer


@dataclass
class Transcript:
    """Bytes exchanged, split by message type."""

    setup_bytes: int = 0
    query_bytes: int = 0
    response_bytes: int = 0
    queries_served: int = 0


@dataclass
class RetrievalResult:
    """Returned by :meth:`PirProtocol.retrieve`."""

    record: bytes
    query: PirQuery
    response: PirResponse


class PirProtocol:
    """A client/server pair sharing one ring context (functional harness)."""

    def __init__(
        self,
        params: PirParams,
        db: PirDatabase,
        seed: int | None = None,
        backend: "str | ComputeBackend | None" = None,
    ):
        self.params = params
        self.db = db
        self.client = PirClient(params, seed=seed)
        self.preprocessed = db.preprocess(self.client.ring, backend=backend)
        setup = self.client.setup_message()
        self.server = PirServer(self.preprocessed, setup, backend=backend)
        self.transcript = Transcript(setup_bytes=setup.size_bytes(params))

    def retrieve(self, record_index: int) -> RetrievalResult:
        """Full round trip: build query, answer, decode."""
        query = self.client.build_query(record_index, self.db.layout)
        response = self.server.answer(query)
        record = self.client.decode_response(response, record_index, self.db.layout)
        self.transcript.query_bytes += query.size_bytes(self.params)
        self.transcript.response_bytes += response.size_bytes(self.params)
        self.transcript.queries_served += 1
        return RetrievalResult(record=record, query=query, response=response)

    def retrieve_compressed(
        self, record_index: int, num_moduli: int | None = None
    ) -> bytes:
        """Retrieve with a modulus-switched (compressed) response.

        The server rescales each response ciphertext to a prefix RNS basis
        before transmission, shrinking the response by rns_count/num_moduli
        (the OnionPIR-family response-compression technique).  The default
        basis is the smallest that the Section II-C noise estimate permits.
        """
        from repro.he import noise as noise_mod
        from repro.he.modswitch import ModulusSwitcher, min_moduli_for_noise

        if num_moduli is None:
            bound = noise_mod.estimate(self.params).response_bound()
            num_moduli = min_moduli_for_noise(self.params, bound)
        query = self.client.build_query(record_index, self.db.layout)
        response = self.server.answer(query)
        switcher = ModulusSwitcher(self.client.ring, num_moduli)
        switched = [switcher.switch(ct) for ct in response.plane_cts]
        plain = [
            switcher.decrypt(ct, self.client.secret_key.coeffs) for ct in switched
        ]
        record = self.client.assemble_record(plain, record_index, self.db.layout)
        self.transcript.query_bytes += query.size_bytes(self.params)
        self.transcript.response_bytes += sum(
            ct.size_bytes(self.params) for ct in switched
        )
        self.transcript.queries_served += 1
        return record
