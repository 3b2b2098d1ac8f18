"""PIR database: raw records, plaintext polynomials, preprocessed NTT form.

``PirDatabase`` holds the packed plaintext coefficients (mod P).
``preprocess`` applies CRT + NTT ahead of time (Section II-B), trading
logQ/logP more storage for >3.9x faster RowSel — the preprocessed form is
what the server actually multiplies against during Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import LayoutError
from repro.he.backend import ComputeBackend, resolve_backend
from repro.he.poly import Domain, RingContext, RnsPoly
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

        One stacked NTT call, routed through the resolved compute
        backend; the per-poly ``RnsPoly`` entries are views into the
        resulting residue tensor, which is seeded straight into the
        RowSel GEMM cache.  The planes go in with a length-1 RNS axis:
        their coefficients (mod P) are the same integers under every
        modulus, so the transform's own reduction is the CRT and no
        ``(polys, rns, n)`` coefficient tensor is ever built.
        """
        tensor = resolve_backend(backend).ntt_forward(
            ring, self.planes[:, :, None, :]
        )
        return PreprocessedDatabase.from_tensor(self.layout, ring, tensor)


@dataclass
class PreprocessedDatabase:
    """NTT/RNS-domain database the server computes RowSel against."""

    layout: RecordLayout
    ring: RingContext
    planes: list[list[RnsPoly]]
    #: Per-plane (num_polys, rns_count, n) residue tensors for the batched
    #: RowSel GEMM, built lazily (and seeded by ``preprocess``).
    _tensors: dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_tensor(
        cls, layout: RecordLayout, ring: RingContext, tensor: np.ndarray
    ) -> "PreprocessedDatabase":
        """Wrap a ``(planes, polys, rns, n)`` NTT-form tensor without copying.

        The per-poly entries and the RowSel GEMM cache are both views
        of ``tensor`` — which may itself be a view, e.g. one bucket of
        a batch server's single ``(buckets, planes, polys, rns, n)``
        allocation.
        """
        pre = cls(
            layout, ring,
            [[RnsPoly(ring, poly, Domain.NTT) for poly in plane] for plane in tensor],
        )
        pre._tensors = dict(enumerate(tensor))
        return pre

    @property
    def plane_count(self) -> int:
        return len(self.planes)

    @property
    def num_polys(self) -> int:
        return len(self.planes[0])

    @property
    def stored_bytes(self) -> int:
        """Preprocessed storage footprint (logQ/logP blowup, Section II-B)."""
        return self.plane_count * self.num_polys * self.layout.params.poly_bytes

    def poly(self, plane: int, row: int, col: int) -> RnsPoly:
        """Polynomial at initial-dimension ``row`` and ColTor column ``col``."""
        return self.planes[plane][col * self.layout.params.d0 + row]

    def plane_tensor(self, plane: int) -> np.ndarray:
        """Stacked residues of one plane, shape (num_polys, rns_count, n).

        The contiguous tensor the batched RowSel GEMM contracts against;
        stacked once per plane and cached.  Mutators must go through
        :meth:`set_poly` so the cache never diverges from ``planes``.
        """
        if plane not in self._tensors:
            self._tensors[plane] = np.stack(
                [p.residues for p in self.planes[plane]]
            )
        return self._tensors[plane]

    def set_poly(self, plane: int, index: int, poly: RnsPoly) -> None:
        """Replace one ``(plane, poly)`` cell, keeping the GEMM cache coherent."""
        self.planes[plane][index] = poly
        if plane in self._tensors:
            self._tensors[plane][index] = poly.residues
