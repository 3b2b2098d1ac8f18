"""Failure injection: the protocol must fail loudly or soundly, not silently.

These tests deliberately corrupt queries, keys, and responses to verify
(a) wrong inputs produce wrong-but-well-formed results (PIR gives no
integrity guarantee — corruption must not crash the pipeline), and
(b) structurally invalid inputs are rejected with clear errors.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import LayoutError, ParameterError
from repro.he.bfv import BfvCiphertext
from repro.he.rgsw import gadget_shift
from repro.he.sampling import Sampler
from repro.kvpir.client import KvPirClient
from repro.kvpir.layout import KvDatabase
from repro.kvpir.server import KvPirServer
from repro.params import PirParams
from repro.pir.client import PirClient, PirResponse
from repro.pir.database import PirDatabase
from repro.pir.layout import RecordLayout
from repro.pir.protocol import PirProtocol
from repro.pir.server import PirServer


@pytest.fixture()
def setup(small_params):
    db = PirDatabase.random(small_params, num_records=32, record_bytes=64, seed=21)
    protocol = PirProtocol(small_params, db, seed=22)
    return protocol, db


class TestCorruptedInputs:
    def test_flipped_selection_bit_fetches_sibling(self, small_params):
        """Flipping a ColTor bit retrieves the neighbouring column."""
        # One record per polynomial so poly index == record index.
        db = PirDatabase.random(small_params, num_records=32, record_bytes=512, seed=23)
        protocol = PirProtocol(small_params, db, seed=24)
        client, layout = protocol.client, db.layout
        index = 5  # poly 5: row 5, col 0 -> flipping bit 0 selects col 1
        query = client.build_query(index, layout)
        # Bit 0 re-encrypted as a 1 under the query's own seeded a rows.
        width = 2 * client.gadget.length
        shift = np.zeros((len(query.b), 2, client.ring.rns_count), dtype=np.int64)
        shift[1:1 + width] = gadget_shift(client.gadget, 1)
        rows = client.bfv.encrypt_zeros(
            client.secret_key, len(query.b), shift, [query.seed]
        )
        query.b[1:1 + width] = rows[1, 1:1 + width]
        response = protocol.server.answer(query)
        record = client.decode_response(response, index, layout)
        sibling = index + small_params.d0  # same row, next column
        assert record == db.record(sibling)
        assert record != db.record(index)

    def test_garbage_query_ct_decodes_to_garbage_not_crash(self, setup):
        protocol, db = setup
        client, layout = protocol.client, db.layout
        query = client.build_query(3, layout)
        # Replace the packed ct with an encryption of a non-one-hot mess
        # under the query's own seeded a row.
        noise = np.arange(protocol.params.n, dtype=np.int64) % 7
        rows = client.bfv.encrypt_zeros(client.secret_key, len(query.b), seeds=[query.seed])
        client.bfv.add_plain(rows[1, :1], noise[None])
        query.b[0] = rows[1, 0]
        response = protocol.server.answer(query)
        record = client.decode_response(response, 3, layout)
        assert record != db.record(3)

    def test_wrong_client_cannot_decode(self, setup):
        """A different key holder decrypts noise, not the record."""
        protocol, db = setup
        other = PirClient(protocol.params, seed=999)
        query = protocol.client.build_query(7, db.layout)
        response = protocol.server.answer(query)
        record = other.decode_response(response, 7, db.layout)
        assert record != db.record(7)

    def test_decoding_wrong_slot_returns_wrong_record(self, setup):
        """Packed records: the offset is the client's responsibility."""
        protocol, db = setup
        params = protocol.params
        if db.layout.records_per_poly < 2:
            pytest.skip("geometry does not pack multiple records per poly")
        query = protocol.client.build_query(0, db.layout)
        response = protocol.server.answer(query)
        wrong = protocol.client.decode_response(response, 1, db.layout)
        assert wrong == db.record(1)  # same poly, different slot


def small_params_d0(protocol) -> int:
    return protocol.params.d0


class TestStructuralRejection:
    def test_missing_selection_bits(self, setup):
        protocol, db = setup
        query = protocol.client.build_query(0, db.layout)
        query.b = query.b[:1]
        with pytest.raises(ParameterError, match="1 b rows"):
            protocol.server.answer(query)

    def test_extra_selection_bits(self, setup):
        protocol, db = setup
        client = protocol.client
        query = client.build_query(0, db.layout)
        width = 2 * client.gadget.length
        query.b = np.concatenate([query.b, query.b[1:1 + width]])
        with pytest.raises(ParameterError, match="selection bits"):
            protocol.server.answer(query)

    @pytest.mark.parametrize("backend", ["eager", "native"])
    @pytest.mark.parametrize("shift", ["+q", "-q", "2^40"])
    def test_a_packed_residue_outside_the_ring_is_refused(self, setup, backend, shift):
        """A packed word moved off [0, q) is a typed refusal naming its
        window position, on every backend: shifted by +-q the backends'
        answers would differ, shifted far both would decode a wrong record."""
        protocol, db = setup
        client = protocol.client
        server = PirServer(protocol.preprocessed, client.setup_message(), backend)
        window = [client.build_query(i, db.layout) for i in (0, 1, 2)]
        q = protocol.params.moduli[1]
        residues = window[2].b[0]
        residues[1, 17] += {"+q": q, "-q": -q, "2^40": 1 << 40}[shift]
        if shift == "-q" and residues[1, 17] >= 0:
            residues[1, 17] -= q
        with pytest.raises(ParameterError, match="query 2 of the window"):
            server.answer_batch(window)

    @pytest.mark.parametrize("seed", [b"", bytes(31), bytes(33), "0" * 32, None])
    def test_a_seed_that_is_not_32_bytes_is_refused(self, setup, seed):
        protocol, db = setup
        query = protocol.client.build_query(0, db.layout)
        query.seed = seed
        with pytest.raises(ParameterError, match="query 0 of the window carries a seed"):
            protocol.server.answer(query)

    @pytest.mark.parametrize("damage", ["dtype", "coefficients", "flat", "list"])
    def test_b_rows_of_the_wrong_form_are_refused(self, setup, damage):
        protocol, db = setup
        query = protocol.client.build_query(0, db.layout)
        b = query.b
        query.b = {
            "dtype": b.astype(np.uint32),
            "coefficients": b[:, :, :-1],
            "flat": b.reshape(len(b), -1),
            "list": b.tolist(),
        }[damage]
        with pytest.raises(ParameterError, match="query 0 of the window"):
            protocol.server.answer(query)

    @pytest.mark.parametrize("backend", ["eager", "native"])
    @pytest.mark.parametrize("shift", ["+q", "-q"])
    def test_a_selection_bit_residue_outside_the_ring_is_refused(self, setup, backend, shift):
        """The bit rows' b halves are range-checked like the packed row's."""
        protocol, db = setup
        client = protocol.client
        server = PirServer(protocol.preprocessed, client.setup_message(), backend)
        window = [client.build_query(i, db.layout) for i in (0, 1)]
        q = protocol.params.moduli[0]
        window[1].b[-1, 0, 5] += q if shift == "+q" else -q - window[1].b[-1, 0, 5] % q
        with pytest.raises(ParameterError, match="query 1 of the window has a b residue"):
            server.answer_batch(window)

    @pytest.mark.parametrize("damage", ["seed", "rows", "range"])
    def test_a_malformed_client_setup_is_refused(self, setup, damage):
        protocol, _ = setup
        message = protocol.client.setup_message()
        if damage == "seed":
            message = replace(message, seed=message.seed[:8])
        elif damage == "rows":
            message = replace(message, b=message.b[1:])
        else:
            b = message.b.copy()
            b[2, 1, 0] = protocol.params.moduli[1]
            message = replace(message, b=b)
        with pytest.raises(ParameterError, match="the client setup"):
            PirServer(protocol.preprocessed, message)

    @pytest.mark.parametrize("backend", ["eager", "native"])
    def test_the_keyword_window_refuses_it_too(self, backend):
        rng = np.random.default_rng(25)
        items = {rng.bytes(8): rng.bytes(32) for _ in range(16)}
        params = PirParams.small(n=256, d0=8, num_dims=1)
        db = KvDatabase.from_items(params, items, max_lookup_batch=2)
        client = KvPirClient(db.layout, seed=26)
        server = KvPirServer(db, client.batch.pir.ring, client.setup_message(), backend)
        query = client.build_queries(client.plan(list(items)[:2]))
        window = query.chunks[0].rounds[0]
        window[-1].b[0, 0, 3] = -1
        with pytest.raises(ParameterError, match=f"query {len(window) - 1} of the window"):
            server.answer(query)

    def test_response_plane_mismatch_rejected(self, setup):
        protocol, db = setup
        query = protocol.client.build_query(0, db.layout)
        response = protocol.server.answer(query)
        response.plane_cts.append(response.plane_cts[0])
        with pytest.raises(LayoutError):
            protocol.client.decode_response(response, 0, db.layout)


class TestNoiseExhaustion:
    def test_noise_overflow_corrupts_decryption(self, small_params):
        """Scalar-multiplying the error past Δ/2 destroys the plaintext and
        leaves (nearly) no measurable budget."""
        from repro.errors import NoiseOverflowError
        from repro.he.bfv import BfvContext, SecretKey
        from repro.he.poly import RingContext
        from repro.he.sampling import Sampler

        ring = RingContext(small_params)
        sampler = Sampler(ring, seed=33)
        bfv = BfvContext(ring, sampler)
        key = SecretKey.generate(ring, sampler)
        ct = bfv.encrypt_zero(key)
        for _ in range(12):
            ct = ct.scalar_mul(1 << 8)
        # Decryption of the once-zero plaintext is now garbage.
        assert np.count_nonzero(bfv.decrypt(ct, key)) > small_params.n // 2
        # The headroom is (near) exhausted: either the check fires or at
        # most a couple of bits remain (the wrapped error aliases below Δ/2).
        try:
            assert bfv.noise_budget_bits(ct, key) < 2.0
        except NoiseOverflowError:
            pass


class TestUndecodableResponse:
    """A response decrypting to coefficients wider than ``coeff_bytes`` is a
    typed :class:`LayoutError` — never a bare ``OverflowError`` from the byte
    packing, never silently truncated bytes."""

    PRESETS = {"small": PirParams.small(), "functional": PirParams.functional()}

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_uniform_junk(self, preset):
        params = self.PRESETS[preset]
        client = PirClient(params, seed=51)
        layout = RecordLayout(params, 64, 16)
        junk = Sampler(client.ring, seed=52)
        response = PirResponse(plane_cts=[
            BfvCiphertext(junk.uniform_poly(), junk.uniform_poly())
        ])
        if preset == "functional":  # P = 786433: 11 in 12 junk values >= 2^16
            with pytest.raises(LayoutError, match="outside"):
                client.decode_response(response, 0, layout)
        else:  # P = 65537: every value but P - 1 = 2^16 is two bytes of junk
            assert len(client.decode_response(response, 0, layout)) == 64

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_a_coefficient_past_the_record_bytes(self, preset):
        params = self.PRESETS[preset]
        client = PirClient(params, seed=53)
        layout = RecordLayout(params, 64, 16)
        plain = np.zeros(params.n, dtype=np.int64)
        plain[5] = params.plain_modulus - 1  # >= 2^16 at both presets
        response = PirResponse(plane_cts=[client.bfv.encrypt(plain, client.secret_key)])
        with pytest.raises(LayoutError, match="outside"):
            client.decode_response(response, 0, layout)
