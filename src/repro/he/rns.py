"""Residue number system (RNS) for the ciphertext modulus Q (Section II-B).

Q is a product of NTT-friendly primes; a coefficient ``c`` mod Q is stored
as the vector of residues ``c mod q_i`` (Eq. 2).  ``from_rns`` implements
inverse CRT reconstruction (Eq. 3).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he import modmath


class RnsBasis:
    """A fixed set of co-prime moduli with precomputed CRT constants."""

    def __init__(self, moduli: tuple[int, ...]):
        if len(set(moduli)) != len(moduli):
            raise ParameterError(f"duplicate moduli in RNS basis: {moduli}")
        self.moduli = tuple(int(q) for q in moduli)
        self.modulus_product = 1
        for q in self.moduli:
            self.modulus_product *= q
        # Q_hat_i = Q / q_i and its inverse mod q_i (Eq. 3 constants).
        self._q_hat = tuple(self.modulus_product // q for q in self.moduli)
        self._q_hat_inv = tuple(
            modmath.mod_inverse(h % q, q) for h, q in zip(self._q_hat, self.moduli)
        )
        self._moduli_arr = np.array(self.moduli, dtype=np.int64)
        self._q_hat_inv_arr = np.array(self._q_hat_inv, dtype=np.int64)
        self._q_hat_obj = np.array(self._q_hat, dtype=object)

    @property
    def count(self) -> int:
        return len(self.moduli)

    @property
    def log2_q(self) -> float:
        return float(np.log2(float(self.modulus_product)))

    def to_rns(self, coeffs) -> np.ndarray:
        """Integers (mod Q) -> residue matrix of shape (count, n), int64."""
        arr = np.asarray(coeffs, dtype=object)
        out = np.empty((self.count, arr.shape[0]), dtype=np.int64)
        for i, q in enumerate(self.moduli):
            out[i] = np.array([int(c) % q for c in arr], dtype=np.int64)
        return out

    def from_rns(self, residues: np.ndarray) -> np.ndarray:
        """Residue matrix (count, n) -> object array of ints in [0, Q) (Eq. 3)."""
        residues = np.asarray(residues, dtype=np.int64)
        if residues.shape[0] != self.count:
            raise ParameterError(
                f"residue matrix has {residues.shape[0]} rows, basis has {self.count}"
            )
        # t_i = [c]_{q_i} * (Q/q_i)^{-1} mod q_i, done in int64 ...
        t = (residues * self._q_hat_inv_arr[:, None]) % self._moduli_arr[:, None]
        # ... then the big-int accumulation c = sum t_i * (Q/q_i) mod Q.
        acc = (t.astype(object) * self._q_hat_obj[:, None]).sum(axis=0)
        return acc % self.modulus_product

    def constant_rns(self, value: int) -> np.ndarray:
        """RNS residues of a scalar constant, shape (count,)."""
        return np.array([value % q for q in self.moduli], dtype=np.int64)
