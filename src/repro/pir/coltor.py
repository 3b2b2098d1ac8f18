"""ColTor (Fig. 2-(3)): tournament reduction over the subsequent dimensions.

Each round k halves the candidate set using the k-th RGSW selection bit:

    Z = ct_RGSW,k ⊡ (Y - X) + X      (bit = 1 selects Y, bit = 0 selects X)

Rounds consume the column-index bits LSB-first, matching the layout in
``repro.pir.layout`` (col = sum bits_k * 2^k).  The traversal order here is
the breadth-first reference; the ``repro.sched`` package reasons about
BFS/DFS/hierarchical orders for the hardware, which reorder *scheduling*
but never the per-ciphertext operation sequence (Section IV-A), so this
functional implementation is order-equivalent.

:func:`column_tournament_reference` is the per-pair oracle; the
production tournament is
:meth:`repro.he.backend.ComputeBackend.coltor_window` (each round one
grouped cmux — all of the round's digit decompositions, NTTs, and
external-product contractions stacked).
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.rgsw import RgswCiphertext, cmux
from repro.obs.profile import kernel_stage


def column_tournament_reference(
    entries: list[BfvCiphertext],
    selection_bits: list[RgswCiphertext],
    gadget: Gadget,
) -> BfvCiphertext:
    """Per-pair oracle: one scalar cmux per surviving pair per round."""
    count = len(entries)
    if count == 0:
        raise ParameterError("ColTor needs at least one entry")
    if count & (count - 1):
        raise ParameterError(f"ColTor entry count {count} must be a power of two")
    if (1 << len(selection_bits)) != count:
        raise ParameterError(
            f"{count} entries need {count.bit_length() - 1} selection bits, "
            f"got {len(selection_bits)}"
        )
    current = list(entries)
    nbytes = sum(
        ct.a.residues.nbytes + ct.b.residues.nbytes for ct in entries
    )
    with kernel_stage("coltor", nbytes):
        for rgsw_bit in selection_bits:
            current = [
                cmux(rgsw_bit, current[2 * i], current[2 * i + 1], gadget)
                for i in range(len(current) // 2)
            ]
        return current[0]
