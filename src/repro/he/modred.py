"""Barrett modular-reduction forms for the planned backend.

The planned compute backend (:mod:`repro.he.backend`) evaluates NTTs as
dense GEMMs, so its hot accumulators live in *float64* — every value is
an exact integer below 2^53 (dgemm over integer-valued doubles is exact
in that range).  Reducing those accumulators with numpy's ``%`` would
first require an int64 round trip and then pay the slow hardware modulo;
:func:`barrett_reduce` instead estimates the quotient with one float
multiply by the precomputed reciprocal and finishes with exact int64
corrections — the classic Barrett form, specialised to the float-resident
accumulator.

The non-negative forms (:func:`barrett_reduce_nonneg` and the in-place
:func:`barrett_fold` / :func:`barrett_store` the blocked transforms run
on scratch buffers) bias the reciprocal low instead, which removes the
negative branch; :func:`twist_mulmod` is the one place a *product*
leaves the float64-exact range (the four-step plan's diagonal twist) and
keeps the remainder in int64, estimating only the quotient in float64.

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
    below 2^62 so that ``r + q`` cannot wrap.  The correction is the one
    :func:`barrett_store` uses: read as unsigned, a negative ``r`` is at
    least 2^63 while ``r + q`` is its canonical residue, and for
    ``r >= 0`` the sum is the larger of the two — one unsigned minimum
    picks the right one either way.
    """
    unsigned = r.view(np.uint64)
    np.minimum(unsigned, (r + q).view(np.uint64), out=unsigned)
    return r


def barrett_reduce(acc: np.ndarray, q) -> np.ndarray:
    """Exact ``acc mod q`` for an integer-valued float64 tensor.

    ``acc`` must hold exact integers with ``|acc| < 2^53`` (the caller's
    accumulation bound guarantees this for the GEMM-NTT plans).  Returns
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


def biased_reciprocal(q: int) -> float:
    """``1/q`` rounded two ulps toward zero, for non-negative Barrett forms.

    With this reciprocal ``x * recip`` never exceeds ``x / q``, so a
    truncated (or floored) quotient never exceeds ``floor(x / q)`` and
    the remainder ``x - k*q`` has no negative branch.  The downward bias
    costs at most one quotient: the error is ``<= (x/q) * 2^-51 < 1``
    for ``x < 2^53`` once ``q >= 2^14`` — hence the tighter modulus
    floor than :func:`barrett_reduce` (which handles any ``q >= 2``).
    """
    if q < (1 << 14):
        raise ParameterError(
            f"modulus {q} below 2^14: the biased-reciprocal quotient bound "
            f"needs q >= 2^14 (use barrett_reduce)"
        )
    if q >= FLOAT64_EXACT_MAX:
        raise ParameterError(
            f"modulus {q} exceeds the float64-exact Barrett range"
        )
    return float(np.nextafter(np.nextafter(1.0 / q, 0.0), 0.0))


def barrett_fold(
    acc: np.ndarray, q: int, recip: float, tmp: np.ndarray
) -> np.ndarray:
    """In place, float64-resident: ``acc`` in ``[0, 2^53)`` -> ``[0, 2q)``.

    ``recip`` is :func:`biased_reciprocal` of ``q``; ``tmp`` is float64
    scratch of ``acc``'s shape.  ``k = floor(acc * recip)`` is
    ``floor(acc / q)`` or one less, so ``k*q <= acc`` is an integer below
    2^53 — the float product is exact, and so is the difference.  The
    result stays float64 for a consumer that needs it there (the
    four-step twist's quotient estimate).
    """
    np.multiply(acc, recip, out=tmp)
    np.floor(tmp, out=tmp)
    tmp *= q
    acc -= tmp
    return acc


def barrett_store(
    acc: np.ndarray, q: int, recip: float, out: np.ndarray,
    quot: np.ndarray, tmp: np.ndarray, partial: bool = False,
) -> np.ndarray:
    """float64 ``acc`` in ``[0, 2^53)`` -> int64 ``out``, no allocation.

    ``recip`` is :func:`biased_reciprocal` of ``q``; ``quot`` (int64)
    and ``tmp`` (float64) are scratch of ``acc``'s shape.  The truncated
    quotient is ``floor(acc / q)`` or one less, so the int64 remainder
    lands in ``[0, 2q)``; ``partial`` returns it as is, otherwise one
    unsigned minimum against ``out - q`` (which wraps above 2^63 exactly
    when ``out < q``) canonicalises to ``[0, q)``.
    """
    np.multiply(acc, recip, out=tmp)
    np.copyto(quot, tmp, casting="unsafe")
    quot *= q
    np.copyto(out, acc, casting="unsafe")
    out -= quot
    if not partial:
        np.subtract(out, q, out=quot)
        unsigned = out.view(np.uint64)
        np.minimum(unsigned, quot.view(np.uint64), out=unsigned)
    return out


def biased_quotient(twist: np.ndarray, q: int) -> np.ndarray:
    """``twist / q`` as float64, two ulps toward zero (see :func:`twist_mulmod`)."""
    if q >= (1 << 31):
        raise ParameterError(
            f"modulus {q} too large: a [0, 2q) x [0, q) product must fit int64"
        )
    ratio = np.asarray(twist, dtype=np.float64) / q
    return np.nextafter(np.nextafter(ratio, 0.0), 0.0)


def twist_mulmod(
    v: np.ndarray, twist: np.ndarray, twist_over_q: np.ndarray, q: int,
    out: np.ndarray, quot: np.ndarray, tmp: np.ndarray,
) -> np.ndarray:
    """``out = v * twist mod q`` in ``[0, 2q)``, for products beyond 2^53.

    ``v`` is integer-valued float64 in ``[0, 2q)`` (a
    :func:`barrett_fold` result), ``twist`` int64 in ``[0, q)`` and
    ``twist_over_q`` its :func:`biased_quotient` table; ``out``/``quot``
    (int64) and ``tmp`` (float64) are scratch of ``v``'s shape.  The
    product ``v * twist < 2q^2`` (2^57 at 28-bit moduli) is outside the
    float64-exact range, so it is formed exactly in int64 and only the
    *quotient* is estimated in float64: the true quotient is below
    ``2q < 2^32``, ``twist_over_q`` is low by 1.5 to 2.5 ulps and the
    product rounds once, so the estimate never exceeds the true quotient
    and falls short of it by less than ``2^32 * 3 * 2^-52 < 1``.  Its
    truncation is therefore ``floor`` or one less and the int64
    remainder is in ``[0, 2q)``.  Both bounds need ``q < 2^31`` (so
    that ``2q^2 < 2^63``), which :func:`biased_quotient` enforces.
    """
    np.multiply(v, twist_over_q, out=tmp)
    np.copyto(quot, tmp, casting="unsafe")
    quot *= q
    np.copyto(out, v, casting="unsafe")
    out *= twist
    out -= quot
    return out


def barrett_reduce_nonneg(
    acc: np.ndarray, q: int, partial: bool = False
) -> np.ndarray:
    """Barrett for *non-negative* accumulators: fewer full-tensor passes.

    The allocating form of :func:`barrett_store`: the reciprocal is
    biased two ulps low (:func:`biased_reciprocal`), so the truncated
    quotient never exceeds ``floor(acc / q)`` — the remainder lands in
    ``[0, 2q)`` with no negative branch and no ``np.floor`` pass.  With
    ``partial=True`` that ``[0, 2q)`` value is returned as-is for
    consumers that re-reduce anyway (the key-switch inner product sizes
    its chunks on the actual operand range); otherwise it is
    canonicalised to ``[0, q)``.
    """
    acc = np.asarray(acc, dtype=np.float64)
    out = np.empty(acc.shape, dtype=np.int64)
    return barrett_store(
        acc, q, biased_reciprocal(q), out,
        np.empty_like(out), np.empty_like(acc), partial,
    )
