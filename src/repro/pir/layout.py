"""Record packing and database geometry (Section II-B "Preprocessing DB").

A record is a byte string.  Each plaintext polynomial carries
``N * payload_bits_per_coeff`` bits of record data; records smaller than a
polynomial are packed side by side, records larger than a polynomial are
striped across ``plane_count`` parallel databases ("planes") that share one
query (the selection vector is identical for every plane, so ExpandQuery
runs once per query regardless of record size).

The logical polynomial index ``p`` maps into the multi-dimensional DB as
``row = p % D0`` (initial dimension, resolved by RowSel) and
``col = p // D0`` (subsequent dimensions, resolved bit-by-bit by ColTor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.params import PirParams


@dataclass(frozen=True)
class RecordLayout:
    """Mapping between user records and database polynomials."""

    params: PirParams
    record_bytes: int
    num_records: int

    def __post_init__(self):
        if self.record_bytes < 1:
            raise LayoutError("record size must be at least one byte")
        if self.num_records < 1:
            raise LayoutError("database must contain at least one record")
        if self.coeff_bytes < 1:
            raise LayoutError(
                f"payload of {self.params.payload_bits_per_coeff} bits/coeff "
                "cannot carry even one byte"
            )
        if self.polys_needed > self.params.num_db_polys:
            raise LayoutError(
                f"{self.num_records} records of {self.record_bytes} B need "
                f"{self.polys_needed} polynomials but the geometry has only "
                f"{self.params.num_db_polys}"
            )

    # -- derived geometry ------------------------------------------------
    @property
    def coeff_bytes(self) -> int:
        """Record bytes carried per coefficient (byte-granular packing)."""
        return self.params.payload_bits_per_coeff // 8

    @property
    def poly_capacity_bytes(self) -> int:
        return self.params.n * self.coeff_bytes

    @property
    def plane_count(self) -> int:
        """Parallel databases a record is striped across (1 if it fits)."""
        return max(1, math.ceil(self.record_bytes / self.poly_capacity_bytes))

    @property
    def records_per_poly(self) -> int:
        if self.plane_count > 1:
            return 1
        return max(1, self.poly_capacity_bytes // self.record_bytes)

    @property
    def polys_needed(self) -> int:
        return math.ceil(self.num_records / self.records_per_poly)

    @property
    def bytes_per_plane_poly(self) -> int:
        """Bytes of one record stored in one plane's polynomial."""
        if self.plane_count == 1:
            return self.record_bytes
        return math.ceil(self.record_bytes / self.plane_count)

    # -- index mapping -----------------------------------------------------
    def poly_index(self, record_index: int) -> int:
        self._check_index(record_index)
        return record_index // self.records_per_poly

    def slot_offset_bytes(self, record_index: int) -> int:
        """Byte offset of a record inside its polynomial (single plane)."""
        self._check_index(record_index)
        return (record_index % self.records_per_poly) * self.record_bytes

    def _check_index(self, record_index: int) -> None:
        if not 0 <= record_index < self.num_records:
            raise LayoutError(
                f"record index {record_index} out of range [0, {self.num_records})"
            )

    # -- byte <-> coefficient packing ---------------------------------------
    def pack_polys(self, blobs: list[bytes]) -> np.ndarray:
        """Bytes -> coefficient vectors (mod P), little-endian per coefficient.

        Returns a ``(len(blobs), N)`` int64 coefficient matrix.  The whole
        batch is one ``np.frombuffer`` + reshape + little-endian recombine
        over a zero-padded buffer — one pass per coefficient byte, no
        per-coefficient Python loop — which is what makes both streamed
        preprocessing and delta re-packing (``repro.mutate``) cheap.
        Coefficients wider than 7 bytes could overflow the int64
        recombine, so they take a scalar fallback; no supported parameter
        set gets near that (payload bits < 63).
        """
        cb = self.coeff_bytes
        cap = self.poly_capacity_bytes
        for blob in blobs:
            if len(blob) > cap:
                raise LayoutError(
                    f"{len(blob)} bytes exceed polynomial capacity {cap}"
                )
        if not blobs:
            return np.zeros((0, self.params.n), dtype=np.int64)
        if cb > 7:  # 255 << 56 overflows int64; take the loop path
            return np.stack([self._pack_poly_scalar(b) for b in blobs])
        buf = b"".join(blob + b"\0" * (cap - len(blob)) for blob in blobs)
        raw = np.frombuffer(buf, dtype=np.uint8).reshape(
            len(blobs), self.params.n, cb
        )
        # Horner from the top byte down, in place: the output is the only
        # int64 array, so a streamed block packs in its own footprint.
        coeffs = np.zeros((len(blobs), self.params.n), dtype=np.int64)
        for k in reversed(range(cb)):
            coeffs <<= 8
            coeffs |= raw[..., k]
        return coeffs

    def _pack_poly_scalar(self, data: bytes) -> np.ndarray:
        """Reference per-coefficient loop (kept as the wide-coeff fallback)."""
        cb = self.coeff_bytes
        padded = data + b"\0" * (self.poly_capacity_bytes - len(data))
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        for i in range(self.params.n):
            coeffs[i] = int.from_bytes(padded[i * cb : (i + 1) * cb], "little")
        return coeffs

    def unpack_poly(self, coeffs: np.ndarray, nbytes: int) -> bytes:
        """Coefficient vector -> first ``nbytes`` bytes of record data.

        The inverse of :meth:`pack_polys`, vectorised: each coefficient's
        little-endian bytes, the first ``coeff_bytes`` of them.  A
        coefficient outside ``[0, 2^(8 * coeff_bytes))`` carries no record
        bytes (a wrong key or a corrupt response decrypts to such values)
        and raises :class:`~repro.errors.LayoutError`; nothing is
        truncated.
        """
        cb = self.coeff_bytes
        used = np.asarray(coeffs, dtype=np.int64)[: math.ceil(nbytes / cb)]
        if used.size and (used.min() < 0 or int(used.max()) >= 1 << 8 * cb):
            raise LayoutError(
                f"decoded coefficient outside [0, 2^{8 * cb}): not "
                f"{cb}-byte record data"
            )
        raw = np.zeros((used.size, max(cb, 8)), dtype=np.uint8)
        raw[:, :8] = used.astype("<u8")[:, None].view(np.uint8)
        return raw[:, :cb].tobytes()[:nbytes]

    # -- multi-dimensional decomposition -------------------------------------
    def dimension_indices(self, record_index: int) -> tuple[int, list[int]]:
        """(initial-dimension index, ColTor selection bits LSB-first)."""
        poly = self.poly_index(record_index)
        row = poly % self.params.d0
        col = poly // self.params.d0
        bits = [(col >> k) & 1 for k in range(self.params.num_dims)]
        return row, bits
