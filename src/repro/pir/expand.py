"""ExpandQuery (Section II-A, Fig. 2-(1)): one query ct -> D0 one-hot cts.

The binary-tree expansion splits the encrypted polynomial into even/odd
halves at each level using Subs with r = N/2^a + 1:

    even = ct + Subs(ct, r)
    odd  = (ct - Subs(ct, r)) * X^(-2^a)

After log2(D0) levels, output j encrypts ``D0 * c_j`` where ``c_j`` is the
j-th query coefficient; the client compensates for the D0 factor (inverse
scaling with odd P, payload headroom with power-of-two P).

:func:`expand_query` is the per-poly oracle; the production tree is
:meth:`repro.he.backend.ComputeBackend.expand_window`.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.subs import SubsKey, substitute


def expansion_powers(n: int, levels: int) -> list[int]:
    """Substitution powers r used at each tree level: N+1, N/2+1, ..."""
    if (1 << levels) > n:
        raise ParameterError(f"cannot expand {levels} levels in a degree-{n} ring")
    return [n // (1 << a) + 1 for a in range(levels)]


def expand_query(
    ct: BfvCiphertext,
    evks: dict[int, SubsKey],
    levels: int,
    gadget: Gadget,
) -> list[BfvCiphertext]:
    """Expand one packed query ciphertext into 2^levels coefficient cts."""
    n = ct.a.ctx.n
    cts = [ct]
    for a, r in enumerate(expansion_powers(n, levels)):
        if r not in evks:
            raise ParameterError(f"missing evk for substitution power r={r}")
        evk = evks[r]
        step = 1 << a
        expanded: list[BfvCiphertext] = [None] * (2 * len(cts))  # type: ignore[list-item]
        for j, current in enumerate(cts):
            swapped = substitute(current, evk, gadget)
            expanded[j] = current + swapped
            expanded[j + step] = (current - swapped).monomial_mul(-step)
        cts = expanded
    return cts
