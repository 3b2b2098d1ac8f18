"""Batch PIR client: cuckoo planning, per-bucket queries, reassembly.

``plan`` maps k wanted indices onto buckets so that each bucket serves at
most one of them; ``build_queries`` then emits exactly one PIR query per
bucket per round — a real query for the planned bucket, a dummy (an
encryption of slot 0, indistinguishable from any other query) for every
untouched bucket — so the server learns nothing about which buckets carry
real retrievals, or even how many.

Stash handling: keys the cuckoo walk could not place are served by extra
full-width rounds (every round again queries all buckets).  Each round
costs one amortized pass over the replicated bucket set; with the 1.5x
bucket provisioning the stash is empty almost always, and overflow beyond
the configured bound raises the typed
:class:`~repro.errors.BatchPlanError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batchpir.layout import BatchLayout
from repro.errors import BatchPlanError, LayoutError, ParameterError
from repro.hashing.cuckoo import cuckoo_assign
from repro.params import PirParams
from repro.pir.client import ClientSetup, PirClient, PirQuery, PirResponse


@dataclass(frozen=True)
class BatchPlan:
    """Client-secret placement of wanted indices; never sent to the server."""

    rounds: tuple[dict[int, int], ...]  # per round: bucket id -> global index

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def indices(self) -> list[int]:
        return [g for slots in self.rounds for g in slots.values()]


@dataclass
class BatchQuery:
    """What actually travels to the server: one query per bucket per round."""

    rounds: list[list[PirQuery]]

    def size_bytes(self, params: PirParams) -> int:
        return sum(q.size_bytes(params) for rnd in self.rounds for q in rnd)


@dataclass
class BatchResponse:
    """One PIR response per bucket per round."""

    rounds: list[list[PirResponse]]

    def size_bytes(self, params: PirParams) -> int:
        return sum(r.size_bytes(params) for rnd in self.rounds for r in rnd)


class BatchPirClient:
    """Plans, encrypts, and decodes multi-record retrievals."""

    def __init__(self, layout: BatchLayout, seed: int | None = None):
        self.layout = layout
        self.pir = PirClient(layout.bucket_params, seed=seed)

    def setup_message(self) -> ClientSetup:
        """Evaluation keys, valid for every bucket (shared geometry)."""
        return self.pir.setup_message()

    # -- planning ---------------------------------------------------------
    def plan(self, indices: list[int]) -> BatchPlan:
        """Cuckoo-place the wanted indices; stash spills into extra rounds."""
        indices = [int(g) for g in indices]
        if not indices:
            raise ParameterError("batch retrieval needs at least one index")
        for g in indices:
            if not 0 <= g < self.layout.num_records:
                raise LayoutError(
                    f"record index {g} out of range [0, {self.layout.num_records})"
                )
        assignment = cuckoo_assign(indices, self.layout.config)
        rounds = [dict(assignment.slots)]
        leftover = list(assignment.stash)
        while leftover:
            slots: dict[int, int] = {}
            still: list[int] = []
            for key in leftover:
                free = [
                    b for b in self.layout.config.candidates(key) if b not in slots
                ]
                if free:
                    slots[free[0]] = key
                else:
                    still.append(key)
            if not slots:  # pragma: no cover — needs fully colliding candidates
                raise BatchPlanError("stash keys collide on every candidate bucket")
            rounds.append(slots)
            leftover = still
        return BatchPlan(rounds=tuple(rounds))

    # -- query construction -----------------------------------------------
    def build_queries(self, plan: BatchPlan) -> BatchQuery:
        """One stacked encryption per round: a query for every bucket."""
        layouts = self.layout.bucket_layouts
        rounds = []
        for slots in plan.rounds:
            # A dummy asks for slot 0: any slot works, nothing is decoded.
            locals_ = [
                self.layout.local_index(bucket, slots[bucket])
                if bucket in slots else 0
                for bucket in range(self.layout.num_buckets)
            ]
            rounds.append(self.pir.build_queries(locals_, layouts))
        return BatchQuery(rounds=rounds)

    # -- decoding ---------------------------------------------------------
    def decode(self, plan: BatchPlan, response: BatchResponse) -> dict[int, bytes]:
        """Decrypt the planned buckets' responses -> {global index: record}."""
        if len(response.rounds) != plan.num_rounds:
            raise ParameterError(
                f"response has {len(response.rounds)} rounds, plan has "
                f"{plan.num_rounds}"
            )
        records: dict[int, bytes] = {}
        for slots, responses in zip(plan.rounds, response.rounds):
            # One stacked decode per round: the planned buckets' responses.
            records.update(zip(slots.values(), self.pir.decode_responses(
                [responses[bucket] for bucket in slots],
                [self.layout.local_index(bucket, g) for bucket, g in slots.items()],
                [self.layout.bucket_layouts[bucket] for bucket in slots],
            )))
        return records
