"""PIR database: raw records and their preprocessed NTT form.

``PirDatabase`` holds the records, the one plaintext copy of the
database, and packs any block of polynomials from them on demand
(:meth:`PirDatabase.pack_block`).  ``preprocess`` (:func:`fill_store`)
applies CRT + NTT ahead of time (Section II-B), trading logQ/logP more
storage for >3.9x faster RowSel — the preprocessed form is what the
server actually multiplies against during Eq. 1, and the only resident
copy of the database's coefficients.  It is stored as uint32 residues:
every modulus is below 2^32, so the 4-byte word is exact, and it is the
width RowSel streams.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby, islice

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.he.backend import ComputeBackend, resolve_backend
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.params import PirParams
from repro.pir.layout import RecordLayout


class PirDatabase:
    """Plaintext database: the records, packed into (plane, poly,
    coefficient) form one block at a time."""

    def __init__(self, layout: RecordLayout, records: list[bytes]):
        if len(records) != layout.num_records:
            raise LayoutError(
                f"layout expects {layout.num_records} records, got {len(records)}"
            )
        size = layout.record_bytes
        if set(map(len, records)) != {size}:
            i = next(i for i, rec in enumerate(records) if len(rec) != size)
            raise LayoutError(f"record {i} has {len(records[i])} bytes, expected {size}")
        self.layout = layout
        self.params: PirParams = layout.params
        self._records = list(records)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_records(
        cls, records: list[bytes], params: PirParams, record_bytes: int | None = None
    ) -> "PirDatabase":
        if not records:
            raise LayoutError("cannot build an empty database")
        size = record_bytes if record_bytes is not None else len(records[0])
        layout = RecordLayout(params=params, record_bytes=size, num_records=len(records))
        return cls(layout, records)

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_records: int,
        record_bytes: int,
        seed: int | None = None,
    ) -> "PirDatabase":
        rng = np.random.default_rng(seed)
        records = [rng.bytes(record_bytes) for _ in range(num_records)]
        return cls.from_records(records, params, record_bytes)

    def pack_block(self, plane: int, polys: Sequence[int]) -> np.ndarray:
        """Coefficients (mod P) of the polynomials ``polys`` of one plane —
        a run of a streamed block, or a publish's dirty cells — as a
        ``(len(polys), N)`` int64 matrix, packed from the records.

        A cell packs its concatenated records, or on a striped layout
        its record's plane stripe; a cell past the last record packs to
        zero.
        """
        lay, records = self.layout, self._records
        if lay.plane_count == 1:
            per = lay.records_per_poly
            blobs = [b"".join(records[p * per : (p + 1) * per]) for p in polys]
        else:
            lo = plane * lay.bytes_per_plane_poly
            hi = lo + lay.bytes_per_plane_poly
            blobs = [records[p][lo:hi] if p < len(records) else b"" for p in polys]
        return lay.pack_polys(blobs)

    # -- access -------------------------------------------------------------
    def record(self, index: int) -> bytes:
        """Ground-truth record bytes (for verification in tests/examples)."""
        self.layout._check_index(index)
        return self._records[index]

    @property
    def num_records(self) -> int:
        return self.layout.num_records

    @property
    def raw_bytes(self) -> int:
        return self.layout.num_records * self.layout.record_bytes

    def preprocess(
        self,
        ring: RingContext,
        backend: "str | ComputeBackend | None" = None,
    ) -> "PreprocessedDatabase":
        """CRT + NTT every polynomial (Section II-B preprocessing), streamed
        into a fresh uint32 store by :func:`fill_store`."""
        lay = self.layout
        store = np.empty(
            (1, lay.plane_count, self.params.num_db_polys, ring.rns_count, ring.n),
            dtype=np.uint32,
        )
        fill_store(store, [self], ring, backend)
        return PreprocessedDatabase(lay, ring, store[0])


def fill_store(
    store: np.ndarray,
    dbs: list[PirDatabase],
    ring: RingContext,
    backend: "str | ComputeBackend | None" = None,
) -> None:
    """Write the NTT form of ``dbs`` (one geometry) into ``store``, a
    ``(len(dbs), planes, polys, rns, n)`` uint32 array.

    Streamed ``BLOCK_BYTES`` of int64 transform output at a time: each
    block of cells is packed from the records (:meth:`PirDatabase.
    pack_block`), transformed through the resolved compute backend and
    narrowed into the store as it lands, so no int64 array of the whole
    database ever exists.  A block runs across planes and databases, so a
    batch server's small buckets share transform calls.  The blocks go in
    with a length-1 RNS axis: their coefficients (mod P) are the same
    integers under every modulus, so the transform's own reduction is the
    CRT.  Cells past a database's last record are zero under every
    transform and are written as such.
    """
    resolved = resolve_backend(backend)
    for i, db in enumerate(dbs):
        store[i, :, db.layout.polys_needed:] = 0
    cells = (
        (i, plane, poly)
        for i, db in enumerate(dbs)
        for plane in range(db.layout.plane_count)
        for poly in range(db.layout.polys_needed)
    )
    step = max(1, BLOCK_BYTES // (8 * ring.rns_count * ring.n))
    while block := list(islice(cells, step)):
        coeffs = np.concatenate([
            dbs[i].pack_block(plane, [poly for *_, poly in run])
            for (i, plane), run in groupby(block, key=lambda cell: cell[:2])
        ])
        store[tuple(np.array(block).T)] = resolved.ntt_forward(ring, coeffs[:, None])


@dataclass
class PreprocessedDatabase:
    """NTT/RNS-domain database the server computes RowSel against.

    ``tensor`` is the whole store, ``(planes, polys, rns, n)`` canonical
    residues as ``uint32`` — exact, since every modulus is below 2^32 —
    and possibly a view (one bucket of a batch server's single
    ``(buckets, planes, polys, rns, n)`` allocation).  The RowSel
    kernels read it in place; the per-poly oracle gets int64
    :class:`RnsPoly` copies from :meth:`poly` on demand.
    """

    layout: RecordLayout
    ring: RingContext
    tensor: np.ndarray

    def __post_init__(self):
        if self.tensor.dtype != np.uint32 or self.tensor.ndim != 4:
            raise LayoutError(
                f"expected a (planes, polys, rns, n) uint32 store, got "
                f"{self.tensor.dtype} {self.tensor.shape}"
            )
        if max(self.ring.params.moduli) >> 32:
            raise ParameterError(
                f"modulus {max(self.ring.params.moduli)} does not fit the "
                f"database's 32-bit residue words"
            )

    @property
    def plane_count(self) -> int:
        return self.tensor.shape[0]

    @property
    def num_polys(self) -> int:
        return self.tensor.shape[1]

    def poly(self, plane: int, row: int, col: int) -> RnsPoly:
        """An int64 copy of the polynomial at initial-dimension ``row`` and
        ColTor column ``col``, for the per-poly oracle."""
        index = col * self.layout.params.d0 + row
        return RnsPoly(
            self.ring, self.tensor[plane, index].astype(np.int64), Domain.NTT
        )

    def plane_tensor(self, plane: int) -> np.ndarray:
        """One plane of the store, shape (num_polys, rns_count, n): the
        uint32 view the batched RowSel GEMM contracts against."""
        return self.tensor[plane]

    def set_poly(self, plane: int, index: int, poly: RnsPoly) -> None:
        """Replace one ``(plane, poly)`` cell of the store.

        ``poly`` must be NTT-form canonical residues, which the uint32
        cell holds exactly.
        """
        self.tensor[plane, index] = poly.residues
