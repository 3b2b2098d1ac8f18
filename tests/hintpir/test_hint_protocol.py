"""Hint-PIR protocol: offline/online phases, epoch deltas, typed staleness.

The load-bearing invariant, exercised from several angles below: a stale
hint NEVER decodes to a wrong byte — it is delta-patched or refused with
a typed :class:`~repro.errors.HintStale`.
"""

import numpy as np
import pytest

from repro.errors import HintPirError, HintStale, LayoutError
from repro.hintpir.protocol import (
    HintAnswer,
    HintPirClient,
    HintPirProtocol,
    HintPirServer,
)
from repro.mutate.log import UpdateLog
from repro.pir.simplepir import SimplePirParams

PARAMS = SimplePirParams(lwe_dim=64)
RECORD_BYTES = 24


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.bytes(RECORD_BYTES) for _ in range(n)]


def put_log(*entries):
    log = UpdateLog()
    for index, record in entries:
        log.put(index, record)
    return log


class TestOfflineOnline:
    def test_fetch_every_record(self):
        records = make_records(12)
        proto = HintPirProtocol(records, RECORD_BYTES, PARAMS)
        for i, record in enumerate(records):
            assert proto.fetch(i) == record

    def test_transcript_separates_phases(self):
        proto = HintPirProtocol(make_records(64), RECORD_BYTES, PARAMS)
        t = proto.server.transcript()
        assert t.offline_bytes == t.hint_bytes + t.seed_bytes
        assert t.online_bytes == t.query_bytes + t.answer_bytes
        assert t.seed_bytes == 8  # A ships as a seed, not a matrix

    def test_online_sublinear_in_database(self):
        """The tier's point: per-query online traffic << database size."""
        proto = HintPirProtocol(make_records(256), RECORD_BYTES, PARAMS)
        t = proto.server.transcript()
        assert t.online_bytes < t.db_bytes / 2

    def test_batched_window_matches_single_answers(self):
        server = HintPirServer(make_records(10), RECORD_BYTES, PARAMS)
        client = HintPirClient(server)
        queries = [client.build_query(i) for i in (0, 3, 9, 3)]
        window = server.answer_window(queries)
        for query, answer in zip(queries, window):
            alone = server.answer(query)
            assert np.array_equal(answer.vector, alone.vector)
            assert client.decode(query, answer) == client.decode(query, alone)

    def test_bad_record_index_rejected(self):
        proto = HintPirProtocol(make_records(4), RECORD_BYTES, PARAMS)
        with pytest.raises(LayoutError):
            proto.client.build_query(4)


class TestEpochPublish:
    def test_delta_patch_decodes_new_values(self):
        records = make_records(8)
        proto = HintPirProtocol(records, RECORD_BYTES, PARAMS)
        new = b"\x5a" * RECORD_BYTES
        report = proto.publish(put_log((3, new)))
        assert report.epoch == 1
        assert report.num_dirty == 1
        # Client still holds the epoch-0 hint; the answer bundles the delta.
        assert proto.client.hint_epoch == 0
        assert proto.fetch(3) == new
        assert proto.client.hint_epoch == 1
        assert proto.client.downloads == 1  # patched, not re-downloaded
        # Untouched records survive the patch.
        assert proto.fetch(0) == records[0]

    def test_tombstone_decodes_to_zeros(self):
        proto = HintPirProtocol(make_records(8), RECORD_BYTES, PARAMS)
        log = UpdateLog()
        log.delete(5)
        proto.publish(log)
        assert proto.fetch(5) == b"\x00" * RECORD_BYTES

    def test_incremental_hint_matches_rebuild(self):
        """Server-side Δhint maintenance must equal hint-from-scratch."""
        server = HintPirServer(make_records(16), RECORD_BYTES, PARAMS)
        server.publish(put_log((2, b"a" * RECORD_BYTES), (11, b"b" * RECORD_BYTES)))
        log = UpdateLog()
        log.delete(2)
        server.publish(log)
        assert np.array_equal(server.hint(), server.core.hint())

    def test_report_patch_bytes_match_layout(self):
        server = HintPirServer(make_records(8), RECORD_BYTES, PARAMS)
        report = server.publish(put_log((0, b"x"), (4, b"y")))
        assert report.patch_bytes == server.layout.patch_bytes(2)

    def test_append_refused(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS)
        log = UpdateLog()
        log.append(b"new record")
        with pytest.raises(HintPirError):
            server.publish(log)

    def test_chained_deltas_across_epochs(self):
        records = make_records(8)
        proto = HintPirProtocol(records, RECORD_BYTES, PARAMS)
        for epoch in range(3):
            proto.publish(put_log((epoch, bytes([epoch + 1]) * RECORD_BYTES)))
        # One fetch folds the whole 0 -> 3 chain.
        assert proto.fetch(2) == b"\x03" * RECORD_BYTES
        assert proto.client.hint_epoch == 3
        assert proto.client.patched_epochs == 3


class TestStaleness:
    def test_past_retain_window_is_typed_stale(self):
        server = HintPirServer(make_records(8), RECORD_BYTES, PARAMS, retain_epochs=2)
        client = HintPirClient(server)
        for i in range(3):  # epoch 3 > retain window of 2
            server.publish(put_log((i, b"z" * RECORD_BYTES)))
        outcome = server.answer(client.build_query(0))
        assert isinstance(outcome, HintStale)
        assert outcome.hint_epoch == 0
        assert outcome.oldest_patchable == 1

    def test_stale_is_a_value_not_a_window_fault(self):
        server = HintPirServer(make_records(8), RECORD_BYTES, PARAMS, retain_epochs=1)
        fresh = HintPirClient(server, seed=2)
        stale = HintPirClient(server, seed=3)
        server.publish(put_log((1, b"q" * RECORD_BYTES)))
        server.publish(put_log((2, b"r" * RECORD_BYTES)))
        fresh.refresh(server)
        fresh_query = fresh.build_query(2)
        outcomes = server.answer_window([stale.build_query(1), fresh_query])
        assert isinstance(outcomes[0], HintStale)
        assert isinstance(outcomes[1], HintAnswer)
        assert fresh.decode(fresh_query, outcomes[1]) == b"r" * RECORD_BYTES

    def test_fetch_recovers_by_redownload(self):
        proto = HintPirProtocol(
            make_records(8), RECORD_BYTES, PARAMS, retain_epochs=1
        )
        for i in range(4):
            proto.publish(put_log((0, bytes([i]) * RECORD_BYTES)))
        assert proto.fetch(0) == b"\x03" * RECORD_BYTES
        assert proto.client.downloads == 2  # initial + recovery

    def test_future_hint_is_a_client_bug(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS)
        query = HintPirClient(server).build_query(0)
        query.hint_epoch = 1
        with pytest.raises(HintPirError):
            server.answer(query)

    def test_retain_zero_strands_every_stale_client(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS, retain_epochs=0)
        client = HintPirClient(server)
        server.publish(put_log((0, b"w" * RECORD_BYTES)))
        assert isinstance(server.answer(client.build_query(0)), HintStale)


class TestClientHintHistory:
    def test_in_flight_answer_decodes_after_later_patch(self):
        """An answer from epoch e stays decodable after we patched past e."""
        records = make_records(8)
        server = HintPirServer(records, RECORD_BYTES, PARAMS)
        client = HintPirClient(server)
        early = client.build_query(2)
        in_flight = server.answer(early)  # epoch 0
        server.publish(put_log((5, b"n" * RECORD_BYTES)))
        later = client.build_query(5)
        assert client.decode(later, server.answer(later)) == b"n" * RECORD_BYTES
        assert client.hint_epoch == 1
        # The epoch-0 answer still decodes against the retained epoch-0 hint.
        assert client.decode(early, in_flight) == records[2]

    def test_partial_overlap_delta_applies_suffix(self):
        """Regression: a 0->2 delta must patch a client already at epoch 1.

        Answers race in a concurrent session — a query built at epoch 0
        can be answered at epoch 2 after another answer's 0->1 delta has
        already moved the client.  Only the suffix (epoch 2) applies.
        """
        records = make_records(8)
        server = HintPirServer(records, RECORD_BYTES, PARAMS)
        client = HintPirClient(server)
        query_a = client.build_query(0)  # epoch 0
        query_b = client.build_query(1)  # epoch 0
        server.publish(put_log((0, b"1" * RECORD_BYTES)))
        answer_a = server.answer(query_a)  # epoch 1, delta 0->1
        server.publish(put_log((1, b"2" * RECORD_BYTES)))
        answer_b = server.answer(query_b)  # epoch 2, delta 0->2
        assert client.decode(query_a, answer_a) == b"1" * RECORD_BYTES
        assert client.hint_epoch == 1
        assert client.decode(query_b, answer_b) == b"2" * RECORD_BYTES
        assert client.hint_epoch == 2

    def test_delta_ahead_of_hint_rejected(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS)
        client = HintPirClient(server)
        server.publish(put_log((0, b"u" * RECORD_BYTES)))
        ahead = HintPirClient(server).build_query(0)  # a session at epoch 1
        server.publish(put_log((1, b"v" * RECORD_BYTES)))
        chain = server.answer(ahead).delta  # starts at 1; client is at 0
        with pytest.raises(HintPirError):
            client.apply_delta(chain)

    def test_history_bound_evicts_oldest(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS, retain_epochs=8)
        client = HintPirClient(server, history=2)
        for i in range(3):
            server.publish(put_log((0, bytes([i]) * RECORD_BYTES)))
            query = client.build_query(0)
            client.decode(query, server.answer(query))
        with pytest.raises(HintPirError):
            client.hint_at(1)  # evicted; only epochs 2 and 3 retained
        assert client.hint_at(3) is not None

    def test_history_must_hold_current(self):
        server = HintPirServer(make_records(4), RECORD_BYTES, PARAMS)
        with pytest.raises(HintPirError):
            HintPirClient(server, history=0)
