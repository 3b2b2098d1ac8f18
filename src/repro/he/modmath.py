"""Modular arithmetic primitives and NTT-friendly prime selection.

This module provides the scalar number theory the HE layer is built on:
deterministic primality testing, NTT-friendly prime search, and the paper's
"special primes" of the form ``2^27 + 2^k + 1`` (Section IV-G) that IVE uses
to cheapen modular-reduction circuits.
"""

from __future__ import annotations


from repro.errors import ParameterError

# Witness set that makes Miller-Rabin deterministic for all n < 3.3 * 10^24,
# far beyond any modulus used here (< 2^32).
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Exponents from Section IV-G: four primes of the form 2^27 + 2^k + 1.
SPECIAL_PRIME_EXPONENTS = (15, 17, 21, 22)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for moduli-sized integers."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def special_primes(order: int, count: int = 4) -> tuple[int, ...]:
    """Return the paper's Solinas-like primes ``2^27 + 2^k + 1``.

    Each prime must satisfy ``q ≡ 1 (mod order)`` so that a primitive
    ``order``-th root of unity exists (``order`` is ``2N`` for negacyclic
    NTT). All four paper primes are ≡ 1 mod 2^13, so they support N ≤ 2^12.
    """
    primes = []
    for k in SPECIAL_PRIME_EXPONENTS:
        q = 2**27 + 2**k + 1
        if q % order == 1 and is_prime(q):
            primes.append(q)
    if len(primes) < count:
        raise ParameterError(
            f"only {len(primes)} special primes support NTT order {order}; "
            f"need {count} (order must divide 2^13)"
        )
    return tuple(primes[:count])


def find_ntt_primes(bits: int, order: int, count: int) -> tuple[int, ...]:
    """Find ``count`` primes of roughly ``bits`` bits with ``q ≡ 1 (mod order)``.

    Used for non-paper parameter sets (e.g. small test rings). The search
    walks downward from ``2^bits`` in steps of ``order`` so every candidate
    already satisfies the congruence.
    """
    primes = []
    q = (2**bits - 1) // order * order + 1
    while len(primes) < count:
        if q < 2 ** (bits - 1):
            raise ParameterError(
                f"could not find {count} NTT-friendly primes of {bits} bits "
                f"for order {order}"
            )
        if is_prime(q):
            primes.append(q)
        q -= order
    return tuple(primes)


def mod_inverse(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m`` (raises if none exists)."""
    g, x, _ = _extended_gcd(a % m, m)
    if g != 1:
        raise ParameterError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of ``Z_q`` (q prime)."""
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for {q}")


def root_of_unity(order: int, q: int) -> int:
    """An element of exact multiplicative order ``order`` in ``Z_q``."""
    if (q - 1) % order != 0:
        raise ParameterError(f"{order} does not divide {q} - 1")
    g = primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # The construction guarantees root^order == 1; check exactness.
    if order % 2 == 0 and pow(root, order // 2, q) == 1:
        raise ParameterError(f"root {root} has order smaller than {order}")
    return root


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def bit_reverse(x: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``x``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (x & 1)
        x >>= 1
    return result


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Exact log2 of a power of two."""
    if not is_power_of_two(n):
        raise ParameterError(f"{n} is not a power of two")
    return n.bit_length() - 1


def montgomery_modmul_area_units(prime_bits: int, special: bool) -> float:
    """Relative area of a modular-multiply circuit (Section IV-G model).

    The paper reports that special primes of the form ``2^27 + 2^k + 1``
    reduce the area of a Montgomery-reduction multiplier by 9.1% versus
    generic primes with ``q ≡ 1 mod 2^14``.  We model the generic multiplier
    area as growing quadratically in the operand width (array multiplier)
    and apply the paper's measured discount for the special form, in which
    the second reduction multiply degenerates into shift-and-add.
    """
    base = (prime_bits / 28.0) ** 2
    return base * (1.0 - 0.091) if special else base
