"""Keyword-PIR client: candidate derivation, batched probes, tag decoding.

A lookup for key k becomes index PIR on the slot table: the client
derives k's candidate slots (cuckoo candidates plus the public stash
slots) from the key alone, retrieves every candidate, and recognizes the
right one — if any — by its ``tag(k)`` prefix.  The probes of one call,
across *all* its keys, are deduplicated and fed through the batch-PIR
planner, so a window of lookups costs amortized cuckoo-batched passes
instead of ``candidates_per_lookup`` independent scans each.

The server learns only how many batched passes ran — candidate slots
travel inside ordinary PIR queries, and every untouched bucket still gets
a dummy query, exactly as in :mod:`repro.batchpir.client`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batchpir.client import (
    BatchPirClient,
    BatchPlan,
    BatchQuery,
    BatchResponse,
)
from repro.errors import ParameterError
from repro.hashing.cuckoo import key_bytes
from repro.kvpir.layout import KvLayout
from repro.params import PirParams
from repro.pir.client import ClientSetup


@dataclass(frozen=True)
class KvPlan:
    """Client-secret lookup plan; never sent to the server."""

    keys: tuple[bytes, ...]
    slots_by_key: dict[bytes, tuple[int, ...]]
    chunks: tuple[BatchPlan, ...]

    @property
    def num_slots_probed(self) -> int:
        return sum(len(c.indices) for c in self.chunks)


@dataclass
class KvQuery:
    """What travels to the server: one batch query per slot chunk."""

    chunks: list[BatchQuery]

    def size_bytes(self, params: PirParams) -> int:
        return sum(q.size_bytes(params) for q in self.chunks)


@dataclass
class KvResponse:
    """One batch response per slot chunk."""

    chunks: list[BatchResponse]

    def size_bytes(self, params: PirParams) -> int:
        return sum(r.size_bytes(params) for r in self.chunks)


class KvPirClient:
    """Plans, encrypts, and tag-decodes keyword lookups."""

    def __init__(self, layout: KvLayout, seed: int | None = None):
        self.layout = layout
        self.batch = BatchPirClient(layout.batch, seed=seed)

    def setup_message(self) -> ClientSetup:
        return self.batch.setup_message()

    # -- planning ---------------------------------------------------------
    def plan(self, keys: list[bytes]) -> KvPlan:
        """Dedupe the keys' candidate slots and cuckoo-plan them in chunks.

        Chunks are capped at the batch layout's design size so each chunk
        is one guaranteed-plannable pass; duplicate keys (and shared
        candidate slots, e.g. the stash) are probed once.
        """
        keys = [key_bytes(k) for k in keys]
        if not keys:
            raise ParameterError("keyword lookup needs at least one key")
        distinct_keys = tuple(dict.fromkeys(keys))
        slots_by_key = {k: self.layout.candidate_slots(k) for k in distinct_keys}
        distinct_slots = list(
            dict.fromkeys(s for k in distinct_keys for s in slots_by_key[k])
        )
        step = max(1, self.layout.batch.config.design_batch)
        chunks = tuple(
            self.batch.plan(distinct_slots[at : at + step])
            for at in range(0, len(distinct_slots), step)
        )
        return KvPlan(keys=distinct_keys, slots_by_key=slots_by_key, chunks=chunks)

    # -- query construction ------------------------------------------------
    def build_queries(self, plan: KvPlan) -> KvQuery:
        return KvQuery(chunks=[self.batch.build_queries(c) for c in plan.chunks])

    # -- decoding ----------------------------------------------------------
    def slot_records(self, plan: KvPlan, response: KvResponse) -> dict[int, bytes]:
        """Decrypt every probed slot -> {slot index: record bytes}."""
        if len(response.chunks) != len(plan.chunks):
            raise ParameterError(
                f"response has {len(response.chunks)} chunks, plan has "
                f"{len(plan.chunks)}"
            )
        records: dict[int, bytes] = {}
        for chunk_plan, chunk_response in zip(plan.chunks, response.chunks):
            records.update(self.batch.decode(chunk_plan, chunk_response))
        return records

    def decode(self, plan: KvPlan, response: KvResponse) -> dict[bytes, bytes]:
        """Tag-match every planned key -> {key: value}, absent keys omitted."""
        records = self.slot_records(plan, response)
        values: dict[bytes, bytes] = {}
        for key in plan.keys:
            for slot in plan.slots_by_key[key]:
                value = self.layout.match(key, records[slot])
                if value is not None:
                    values[key] = value
                    break
        return values
