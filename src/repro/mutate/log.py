"""Typed record-mutation logs for mutable PIR databases.

An :class:`UpdateLog` is an ordered sequence of index-space mutations
(:class:`Put`, :class:`Delete`, :class:`Append`) against one dense record
database.  Logs are pure data: the cost of building one is O(entries),
and nothing touches the database until the log is *applied*
(``repro.mutate.versioned``), at which point consecutive writes to the
same record coalesce — one churn window's worth of updates to a hot
record re-packs its polynomial once, not once per write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import MutateError


@dataclass(frozen=True)
class Put:
    """Overwrite the record at ``index`` with ``record`` bytes."""

    index: int
    record: bytes


@dataclass(frozen=True)
class Delete:
    """Tombstone the record at ``index`` (index space stays dense)."""

    index: int


@dataclass(frozen=True)
class Append:
    """Add a record at the next free index (grows the database)."""

    record: bytes


Mutation = Union[Put, Delete, Append]


def _check_index(index) -> int:
    if isinstance(index, bool) or not isinstance(index, int):
        raise MutateError(f"record index must be an int, got {type(index).__name__}")
    if index < 0:
        raise MutateError(f"record index must be non-negative, got {index}")
    return index


class UpdateLog:
    """Ordered index-space mutations, coalesced at apply time.

    Indices refer to the database the log is applied *to*; an index that
    does not exist there (and is not created by an earlier ``Append`` in
    the same log) fails with a typed error at apply time, not at append
    time — the log itself carries no database reference.
    """

    def __init__(self, mutations: list[Mutation] | None = None):
        self._ops: list[Mutation] = []
        for op in mutations or []:
            self._add(op)

    def _add(self, op: Mutation) -> None:
        if isinstance(op, Put):
            _check_index(op.index)
        elif isinstance(op, Delete):
            _check_index(op.index)
        elif not isinstance(op, Append):
            raise MutateError(f"unknown mutation type {type(op).__name__}")
        self._ops.append(op)

    # -- builders (chainable) ---------------------------------------------
    def put(self, index: int, record: bytes) -> "UpdateLog":
        self._add(Put(index=index, record=bytes(record)))
        return self

    def delete(self, index: int) -> "UpdateLog":
        self._add(Delete(index=index))
        return self

    def append(self, record: bytes) -> "UpdateLog":
        self._add(Append(record=bytes(record)))
        return self

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self._ops)

    @property
    def num_appends(self) -> int:
        return sum(1 for op in self._ops if isinstance(op, Append))

    def coalesced(self, num_records: int) -> tuple[dict[int, bytes | None], list[bytes]]:
        """Last-write-wins view against a database of ``num_records``.

        Returns ``(writes, appends)``: ``writes`` maps record index to its
        final bytes (``None`` = tombstone), ``appends`` is the ordered
        tail of genuinely-new records.  A ``Put``/``Delete`` against an
        index created by an earlier ``Append`` in this log folds into the
        append itself; out-of-range indices raise :class:`MutateError`.
        """
        writes: dict[int, bytes | None] = {}
        appends: list[bytes | None] = []

        def _slot(index: int):
            if index < num_records:
                return None
            offset = index - num_records
            if offset >= len(appends):
                raise MutateError(
                    f"index {index} is beyond the database ({num_records} "
                    f"records) and the log's appends so far ({len(appends)})"
                )
            return offset

        for op in self._ops:
            if isinstance(op, Append):
                appends.append(op.record)
            elif isinstance(op, Put):
                offset = _slot(op.index)
                if offset is None:
                    writes[op.index] = op.record
                else:
                    appends[offset] = op.record
            else:  # Delete
                offset = _slot(op.index)
                if offset is None:
                    writes[op.index] = None
                else:
                    appends[offset] = None
        # A deleted append still occupies its index (the space is dense):
        # it becomes a tombstone record at apply time.
        return writes, appends


def split_by_shard(
    log: UpdateLog, shard_map, record_bytes: int
) -> list[tuple[Mutation, ...]]:
    """Validate a global-index log and split it into per-shard local ops.

    Everything that can fail — appends, routing, record sizes — fails
    *here*, before any shard sees the log, so a rejected publish leaves
    every shard at the current epoch, in one process or across worker
    pipes.  ``shard_map`` needs ``num_shards`` and ``route(index)``.
    """
    if log.num_appends:
        raise MutateError(
            "online appends would re-route the shard partition; "
            "rebuild the deployment to grow the record space"
        )
    shard_ops: list[list[Mutation]] = [[] for _ in range(shard_map.num_shards)]
    for op in log:
        shard_id, local = shard_map.route(op.index)
        if isinstance(op, Put):
            if len(op.record) != record_bytes:
                raise MutateError(
                    f"update for record {op.index} has {len(op.record)} "
                    f"bytes, registry expects {record_bytes}"
                )
            shard_ops[shard_id].append(Put(local, op.record))
        else:
            shard_ops[shard_id].append(Delete(local))
    return [tuple(ops) for ops in shard_ops]
