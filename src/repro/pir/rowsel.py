"""RowSel (Fig. 2-(2)): first-dimension selection via plaintext-ct GEMM.

For every ColTor column ``m`` the server accumulates

    ct_out[m] = sum_{i < D0} DB[i][m] * ct_expanded[i]

which is Eq. 1 restricted to the initial dimension.  With RNS + NTT this
is exactly the 4N-parallel modular GEMM the accelerator's sysNTTUs run in
GEMM mode (Section III-A / Fig. 5).

Two implementations share the geometry checks: :func:`row_select` is the
per-poly reference (one ``plain_mul`` per ``(row, col)`` pair — the
correctness oracle), and the production path is
:meth:`repro.he.backend.ComputeBackend.rowsel_window` — one tensor
contraction per ciphertext half over the plane's stacked residue tensor,
which :func:`rowsel_plane_tensor` hands it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext
from repro.pir.database import PreprocessedDatabase


def num_rowsel_cols(db: PreprocessedDatabase) -> int:
    """Number of ColTor columns; rejects non-divisible geometry.

    A database whose polynomial count is not a multiple of ``D0`` would
    silently drop the trailing ``num_polys % d0`` polynomials from every
    RowSel pass — records in them could never be retrieved — so that
    geometry is a hard error.
    """
    d0 = db.layout.params.d0
    if db.num_polys % d0 != 0:
        raise ParameterError(
            f"database has {db.num_polys} polynomials, which is not a "
            f"multiple of D0={d0}; {db.num_polys % d0} trailing polynomials "
            "would be silently dropped from RowSel"
        )
    return db.num_polys // d0


def row_select(
    expanded: list[BfvCiphertext],
    db: PreprocessedDatabase,
    plane: int,
) -> list[BfvCiphertext]:
    """Reduce the initial dimension: D polynomials -> 2^d ciphertexts.

    Per-poly reference path, kept as the oracle for the backends'
    ``rowsel_window``.
    """
    d0 = db.layout.params.d0
    if len(expanded) != d0:
        raise ParameterError(
            f"expected {d0} expanded ciphertexts, got {len(expanded)}"
        )
    num_cols = num_rowsel_cols(db)
    selected: list[BfvCiphertext] = []
    for col in range(num_cols):
        acc = expanded[0].plain_mul(db.poly(plane, 0, col))
        for row in range(1, d0):
            acc = acc + expanded[row].plain_mul(db.poly(plane, row, col))
        selected.append(acc)
    return selected


def rowsel_plane_tensor(db: PreprocessedDatabase, plane: int) -> np.ndarray:
    """One plane as the RowSel GEMM operand: (num_cols, d0, rns_count, n).

    A reshaped view of :meth:`PreprocessedDatabase.plane_tensor` (poly
    index = col * d0 + row) with the geometry validated — the tensor the
    compute backends contract the expanded query against.
    """
    d0 = db.layout.params.d0
    num_cols = num_rowsel_cols(db)
    tensor = db.plane_tensor(plane)
    return tensor.reshape((num_cols, d0) + tensor.shape[1:])
