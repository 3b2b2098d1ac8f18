"""Epoch-versioned database snapshots with dirty-plane delta application.

A full ``PirDatabase.preprocess`` CRT+NTTs every polynomial of every
plane — linear in the database.  But a churn window touches a handful of
records, and a record lives in exactly one polynomial per plane: applying
the delta only needs to re-pack and re-NTT the *dirty* ``(plane, poly)``
cells.  :class:`VersionedDatabase` does exactly that, producing an
:class:`EpochSnapshot` per applied :class:`~repro.mutate.log.UpdateLog`:

* the raw plaintext planes are copied (one memcpy) and dirty cells are
  re-packed through the vectorized packer;
* the preprocessed NTT-domain store — the logQ/logP-inflated uint32
  tensor that dominates both storage and preprocessing time — is copied
  (one memcpy, no transform) and only its dirty cells are re-NTT'd;
* every apply returns an :class:`UpdateCost` whose counters prove the
  work was proportional to the delta, not the database.

Snapshots are immutable once published: in-flight queries keep decoding
against the epoch they were admitted under (``repro.serve.registry``)
while new admissions see the new epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MutateError
from repro.he.backend import ComputeBackend, resolve_backend
from repro.he.poly import Domain, RingContext, RnsPoly
from repro.mutate.log import UpdateLog
from repro.pir.database import PirDatabase, PreprocessedDatabase
from repro.pir.layout import RecordLayout


@dataclass(frozen=True)
class UpdateCost:
    """Work accounting for one delta application.

    ``full_polys`` is what a from-scratch ``preprocess()`` would have
    CRT+NTT'd (every plane row of the geometry); the ratio proves the
    delta path is sublinear in the database for sublinear churn.
    """

    records_touched: int
    records_appended: int
    polys_repacked: int  # dirty (plane, poly) cells re-packed from bytes
    polys_ntted: int  # dirty cells re-CRT/NTT'd into the preprocessed form
    full_polys: int  # plane_count * num_db_polys: the full-preprocess cost
    #: Preprocessed-store polynomials memcpy'd into the new snapshot.  A
    #: pure copy (no CRT/NTT arithmetic), so it is accounted separately
    #: from the sublinear ``polys_repacked``/``polys_ntted`` work counters.
    tensor_polys_copied: int = 0

    def merge(self, other: "UpdateCost") -> "UpdateCost":
        """Combine accounting across shards / buckets of one logical apply."""
        return UpdateCost(
            records_touched=self.records_touched + other.records_touched,
            records_appended=self.records_appended + other.records_appended,
            polys_repacked=self.polys_repacked + other.polys_repacked,
            polys_ntted=self.polys_ntted + other.polys_ntted,
            full_polys=self.full_polys + other.full_polys,
            tensor_polys_copied=self.tensor_polys_copied + other.tensor_polys_copied,
        )


def _dirty_cells(layout: RecordLayout, indices) -> set[tuple[int, int]]:
    """The ``(plane, poly)`` cells whose packed bytes a record set touches."""
    cells: set[tuple[int, int]] = set()
    for idx in indices:
        poly = layout.poly_index(idx)
        for plane in range(layout.plane_count):
            cells.add((plane, poly))
    return cells


def apply_record_updates(
    db: PirDatabase,
    writes: dict[int, bytes | None],
    appends: list[bytes | None],
    pre: PreprocessedDatabase | None = None,
    ring: RingContext | None = None,
    backend: "str | ComputeBackend | None" = None,
) -> tuple[PirDatabase, PreprocessedDatabase | None, UpdateCost]:
    """Apply coalesced writes/appends to one database, dirty cells only.

    Returns ``(new_db, new_pre, cost)``.  ``new_pre`` is a copy of
    ``pre`` with only the dirty cells re-NTT'd.  ``None`` in
    ``writes``/``appends`` means tombstone (a zeroed record; the index
    space stays dense).  :class:`VersionedDatabase` drives it.
    """
    layout = db.layout
    tombstone = b"\0" * layout.record_bytes
    if pre is not None and ring is None:
        ring = pre.ring
    if pre is None and ring is not None:
        raise MutateError("a ring without a preprocessed database is meaningless")

    records = list(db._records)
    touched: list[int] = []
    for index, record in sorted(writes.items()):
        if not 0 <= index < layout.num_records:
            raise MutateError(
                f"record index {index} out of range [0, {layout.num_records})"
            )
        record = tombstone if record is None else record
        if len(record) != layout.record_bytes:
            raise MutateError(
                f"update for record {index} has {len(record)} bytes, layout "
                f"expects {layout.record_bytes}"
            )
        if records[index] != record:
            records[index] = record
            touched.append(index)
    appended = list(range(layout.num_records, layout.num_records + len(appends)))
    for record in appends:
        record = tombstone if record is None else record
        if len(record) != layout.record_bytes:
            raise MutateError(
                f"appended record has {len(record)} bytes, layout expects "
                f"{layout.record_bytes}"
            )
        records.append(record)

    if appends:
        # Same geometry, more records; LayoutError surfaces when the
        # geometry is out of polynomials (the typed "database full").
        layout = RecordLayout(
            params=layout.params,
            record_bytes=layout.record_bytes,
            num_records=len(records),
        )

    cells = sorted(_dirty_cells(layout, touched + appended))
    if not cells and not appends:
        cost = UpdateCost(0, 0, 0, 0, layout.plane_count * layout.params.num_db_polys)
        return db, pre, cost

    planes = db.planes if not cells else db.planes.copy()
    new_db = PirDatabase.from_parts(layout, records, planes)
    # Re-pack every dirty cell in one vectorized call per plane.
    by_plane: dict[int, list[int]] = {}
    for plane, poly in cells:
        by_plane.setdefault(plane, []).append(poly)
    for plane, polys in by_plane.items():
        blobs = [new_db.poly_blob(plane, poly) for poly in polys]
        planes[plane, polys] = layout.pack_polys(blobs)

    new_pre = pre
    tensor_copied = 0
    if pre is not None:
        # The new snapshot's store starts as a copy of the parent's (a
        # memcpy of the uint32 words, no NTT work); the parent keeps
        # serving its own epoch from the original.
        new_pre = PreprocessedDatabase(
            layout=layout, ring=ring, tensor=pre.tensor.copy()
        )
        tensor_copied = pre.plane_count * pre.num_polys
        # One stacked NTT per plane over just the dirty cells, on the
        # broadcast RNS axis ``preprocess`` uses, written through
        # set_poly into the copied store.
        resolved = resolve_backend(backend)
        for plane, polys in by_plane.items():
            tensor = resolved.ntt_forward(ring, planes[plane, polys][:, None, :])
            for j, poly in enumerate(polys):
                new_pre.set_poly(plane, poly, RnsPoly(ring, tensor[j], Domain.NTT))

    cost = UpdateCost(
        records_touched=len(touched),
        records_appended=len(appended),
        polys_repacked=len(cells),
        polys_ntted=len(cells) if pre is not None else 0,
        full_polys=layout.plane_count * layout.params.num_db_polys,
        tensor_polys_copied=tensor_copied,
    )
    return new_db, new_pre, cost


@dataclass(frozen=True)
class EpochSnapshot:
    """One immutable database version: epoch stamp + raw and NTT forms."""

    epoch: int
    db: PirDatabase
    pre: PreprocessedDatabase | None
    cost: UpdateCost

    @property
    def num_records(self) -> int:
        return self.db.num_records


class VersionedDatabase:
    """A mutable PIR database: apply update logs, get epoch snapshots.

    The wrapper owns the *current* epoch; older snapshots stay valid for
    whoever still holds them (serving keeps a bounded retention window).
    Without a ``ring`` only the plaintext planes are maintained —
    preprocessing stays the caller's job; with one, every epoch carries
    its NTT-domain form, copied from its parent with the dirty cells redone.
    """

    def __init__(
        self,
        params,
        records: list[bytes],
        record_bytes: int | None = None,
        ring: RingContext | None = None,
        backend: "str | ComputeBackend | None" = None,
    ):
        db = PirDatabase.from_records(records, params, record_bytes)
        self.backend = resolve_backend(backend)
        pre = db.preprocess(ring, backend=self.backend) if ring is not None else None
        self.ring = ring
        full = db.layout.plane_count * params.num_db_polys
        base_cost = UpdateCost(
            records_touched=0,
            records_appended=db.num_records,
            polys_repacked=db.layout.plane_count * db.layout.polys_needed,
            polys_ntted=full if ring is not None else 0,
            full_polys=full,
        )
        self.current = EpochSnapshot(epoch=0, db=db, pre=pre, cost=base_cost)

    @property
    def epoch(self) -> int:
        return self.current.epoch

    @property
    def num_records(self) -> int:
        return self.current.db.num_records

    def record(self, index: int) -> bytes:
        return self.current.db.record(index)

    def apply(self, log: UpdateLog) -> EpochSnapshot:
        """Apply one log; returns (and installs) the next epoch snapshot."""
        cur = self.current
        writes, appends = log.coalesced(cur.db.num_records)
        db, pre, cost = apply_record_updates(
            cur.db, writes, appends, pre=cur.pre, ring=self.ring,
            backend=self.backend,
        )
        self.current = EpochSnapshot(
            epoch=cur.epoch + 1, db=db, pre=pre, cost=cost
        )
        return self.current
