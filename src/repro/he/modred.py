"""``%``-free modular reductions for the stacked kernels.

:func:`modred` canonicalises what one modular add or subtract leaves
behind, in place, with one unsigned minimum.  :func:`barrett_reduce`
finishes the float64 accumulators of the dense SimplePIR/hintpir GEMM
(:meth:`repro.he.backend.EagerBackend.modular_gemm`), which runs as a
BLAS dgemm over integer-valued doubles — exact below 2^53.  Reducing
those with numpy's ``%`` would first require an int64 round trip and
then pay the slow hardware modulo; :func:`barrett_reduce` instead
estimates the quotient with one float multiply by the reciprocal and
finishes with exact int64 corrections — the classic Barrett form,
specialised to the float-resident accumulator.

Exactness argument for :func:`barrett_reduce` (why the mixed
float/int64 dance cannot be off):

* inputs are integer-valued float64 with ``|x| < 2^53`` — exactly
  representable, no rounding has happened yet;
* ``k = floor(x * (1/q))`` computed in float64 differs from the true
  ``floor(x / q)`` by at most 1 (one rounding of the reciprocal, one of
  the product);
* the remainder ``x - k*q`` is computed **in int64** — ``k*q <= |x| + q``
  can exceed 2^53, where float64 spacing is 2 ulp, so a float multiply
  there could round and silently corrupt the result by ±1;
* with ``k`` off by at most one, the int64 remainder lies in ``(-q, 2q)``
  and a single conditional ``±q`` correction canonicalises it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

#: Largest integer magnitude float64 represents exactly (2^53).
FLOAT64_EXACT_MAX = 1 << 53


def modred(r: np.ndarray, q) -> np.ndarray:
    """In place: int64 ``r`` in ``[-q, q)`` -> canonical ``[0, q)``, no ``%``.

    The range is what one modular add or subtract leaves behind: a
    difference of canonical residues lands in ``(-q, q)``, a negation in
    ``(-q, 0]`` and a sum, after subtracting ``q``, in ``[-q, q - 1)``.
    ``q`` is a scalar or an int64 array broadcastable against ``r``,
    below 2^62 so that ``r + q`` cannot wrap.  Read as unsigned, a
    negative ``r`` is at least 2^63 while ``r + q`` is its canonical
    residue, and for ``r >= 0`` the sum is the larger of the two — one
    unsigned minimum picks the right one either way.
    """
    unsigned = r.view(np.uint64)
    np.minimum(unsigned, (r + q).view(np.uint64), out=unsigned)
    return r


def barrett_reduce(acc: np.ndarray, q) -> np.ndarray:
    """Exact ``acc mod q`` for an integer-valued float64 tensor.

    ``acc`` must hold exact integers with ``|acc| < 2^53`` (the caller's
    accumulation bound guarantees this for the chunked dgemm).  Returns
    canonical residues in ``[0, q)`` as int64.

    ``q`` is a scalar modulus or an int64 array broadcastable against
    ``acc`` (e.g. ``(rns, 1)`` against a ``(..., rns, n)`` accumulator),
    so a whole RNS stack reduces in one set of full-tensor passes
    instead of a per-modulus loop over strided slices.
    """
    if isinstance(q, (int, np.integer)):
        if q < 2:
            raise ParameterError(f"modulus {q} must be at least 2")
        if q >= FLOAT64_EXACT_MAX:
            raise ParameterError(
                f"modulus {q} exceeds the float64-exact Barrett range"
            )
        quot = np.floor(acc * (1.0 / q))
    else:
        q = np.asarray(q, dtype=np.int64)
        if np.any(q < 2):
            raise ParameterError("every modulus must be at least 2")
        if np.any(q >= FLOAT64_EXACT_MAX):
            raise ParameterError(
                "a modulus exceeds the float64-exact Barrett range"
            )
        quot = np.floor(acc * (1.0 / q))
    # Both casts are exact: |acc| < 2^53 by contract and |quot| <= |acc|/q + 1.
    r = acc.astype(np.int64) - quot.astype(np.int64) * q
    r += q * (r < 0)
    r -= q * (r >= q)
    return r
