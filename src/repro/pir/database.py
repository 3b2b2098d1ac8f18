"""PIR database: raw records, plaintext polynomials, preprocessed NTT form.

``PirDatabase`` holds the packed plaintext coefficients (mod P).
``preprocess`` applies CRT + NTT ahead of time (Section II-B), trading
logQ/logP more storage for >3.9x faster RowSel — the preprocessed form is
what the server actually multiplies against during Eq. 1.  It is stored
as uint32 residues: every modulus is below 2^32, so the 4-byte word is
exact, and it is the width RowSel streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.he.backend import ComputeBackend, resolve_backend
from repro.he.poly import BLOCK_BYTES, Domain, RingContext, RnsPoly
from repro.params import PirParams
from repro.pir.layout import RecordLayout


class PirDatabase:
    """Plaintext database, organized as (plane, poly, coefficient)."""

    def __init__(self, layout: RecordLayout, records: list[bytes]):
        if len(records) != layout.num_records:
            raise LayoutError(
                f"layout expects {layout.num_records} records, got {len(records)}"
            )
        self.layout = layout
        self.params: PirParams = layout.params
        self._records = list(records)
        self.planes = self._pack(records)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_records(
        cls, records: list[bytes], params: PirParams, record_bytes: int | None = None
    ) -> "PirDatabase":
        if not records:
            raise LayoutError("cannot build an empty database")
        size = record_bytes if record_bytes is not None else len(records[0])
        for i, rec in enumerate(records):
            if len(rec) != size:
                raise LayoutError(f"record {i} has {len(rec)} bytes, expected {size}")
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

    @classmethod
    def from_parts(
        cls, layout: RecordLayout, records: list[bytes], planes: np.ndarray
    ) -> "PirDatabase":
        """Assemble a database from already-packed planes (no re-packing).

        Trusted constructor for delta application (``repro.mutate``): the
        caller guarantees ``planes`` matches ``records`` under ``layout``,
        which is what lets an epoch snapshot share every clean polynomial
        with its predecessor instead of re-packing the whole database.
        """
        db = cls.__new__(cls)
        db.layout = layout
        db.params = layout.params
        db._records = list(records)
        db.planes = planes
        return db

    def _pack(self, records: list[bytes]) -> np.ndarray:
        lay = self.layout
        planes = np.zeros(
            (lay.plane_count, self.params.num_db_polys, self.params.n), dtype=np.int64
        )
        if lay.plane_count == 1:
            blobs = [
                b"".join(records[p * lay.records_per_poly : (p + 1) * lay.records_per_poly])
                for p in range(lay.polys_needed)
            ]
            planes[0, : lay.polys_needed] = lay.pack_polys(blobs)
        else:
            # Striped records: one record per polynomial on every plane.
            size = lay.bytes_per_plane_poly
            for plane in range(lay.plane_count):
                blobs = [rec[plane * size : (plane + 1) * size] for rec in records]
                planes[plane, : len(records)] = lay.pack_polys(blobs)
        return planes

    def poly_blob(self, plane: int, poly: int) -> bytes:
        """Current byte content of one ``(plane, poly)`` cell.

        The inverse view ``_pack`` consumes: the concatenated records (or
        the record's plane stripe) that cell packs.  Delta application
        re-packs exactly these blobs for dirty cells only.
        """
        lay = self.layout
        if lay.plane_count == 1:
            start = poly * lay.records_per_poly
            return b"".join(self._records[start : start + lay.records_per_poly])
        size = lay.bytes_per_plane_poly
        return self._records[poly][plane * size : (plane + 1) * size]

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
        """CRT + NTT every polynomial (Section II-B preprocessing).

        Stacked NTT calls routed through the resolved compute backend,
        ``BLOCK_BYTES`` of int64 output at a time, each block narrowed
        into the uint32 store as it lands — so no int64 copy of the
        whole database is ever live beside it.  The planes go in with a
        length-1 RNS axis: their coefficients (mod P) are the same
        integers under every modulus, so the transform's own reduction
        is the CRT and no ``(polys, rns, n)`` coefficient tensor is ever
        built.
        """
        resolved = resolve_backend(backend)
        polys = self.planes.reshape(-1, self.params.n)
        store = np.empty((len(polys), ring.rns_count, ring.n), dtype=np.uint32)
        step = max(1, BLOCK_BYTES // (8 * ring.rns_count * ring.n))
        for lo in range(0, len(polys), step):
            store[lo:lo + step] = resolved.ntt_forward(
                ring, polys[lo:lo + step, None]
            )
        return PreprocessedDatabase(
            self.layout, ring,
            store.reshape(self.planes.shape[:2] + store.shape[1:]),
        )


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
