"""SimplePIR [49]: Regev-encryption PIR with a client-side hint (Table IV).

The database is a sqrt(D) x sqrt(D) matrix over Z_P.  The client downloads
``hint = DB @ A`` once offline; online it sends one Regev vector selecting
a column, and the server answers with a single matrix-vector product —
"one server for the price of two".  This functional implementation backs
the Table IV comparison and the Section VI-D claim that IVE's modular GEMM
path covers SimplePIR's entire server computation.

All server-side products are taken mod q through the resolved
:class:`~repro.he.backend.ComputeBackend` (every backend runs them as
chunked BLAS dgemms with Barrett tails); :func:`modular_gemm` — re-
exported from ``repro.he.backend`` — is the exact chunked-int64 form the
client keeps using, and the oracle every backend matches byte for byte.
The naive ``(a @ b) % q`` is only accidentally correct when q is a power
of two (int64 wraparound is congruent mod 2^k) and silently wrong
otherwise, which is why every product routes through one of these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.he.backend import ComputeBackend, modular_gemm, resolve_backend

__all__ = [
    "SimplePirParams",
    "SimplePirServer",
    "SimplePirClient",
    "modular_gemm",
    "lwe_public_matrix",
]


@dataclass(frozen=True)
class SimplePirParams:
    """LWE parameters: Z_q ciphertexts, Z_p plaintext entries."""

    lwe_dim: int = 512  # n: secret dimension (paper uses 2^10)
    q_log2: int = 28  # ciphertext modulus (power of two, fits int64 math)
    p_log2: int = 8  # plaintext modulus of DB entries
    error_std: float = 3.2

    @property
    def q(self) -> int:
        return 1 << self.q_log2

    @property
    def p(self) -> int:
        return 1 << self.p_log2

    @property
    def delta(self) -> int:
        return self.q // self.p

    def __post_init__(self):
        # Each product term of a p-size by q-size value must leave room for
        # at least one accumulation step (modular_gemm chunks the rest).
        if self.q_log2 + self.p_log2 >= 60:
            raise ParameterError("q*p too large for int64 accumulation")
        if self.p_log2 >= self.q_log2:
            raise ParameterError(
                "p must be smaller than q (delta = q/p scales the payload)"
            )
        if self.lwe_dim < 1 or self.q_log2 < 1 or self.p_log2 < 1:
            raise ParameterError("lwe_dim, q_log2, p_log2 must be positive")


class SimplePirServer:
    """Holds the DB matrix and the public LWE matrix A."""

    def __init__(
        self,
        db_matrix: np.ndarray,
        params: SimplePirParams,
        seed: int = 0,
        backend: str | ComputeBackend | None = None,
    ):
        db_matrix = np.asarray(db_matrix, dtype=np.int64)
        if db_matrix.ndim != 2:
            raise LayoutError("SimplePIR database must be a 2-D matrix")
        if db_matrix.max(initial=0) >= params.p:
            raise LayoutError(f"database entries must be < p = {params.p}")
        if db_matrix.min(initial=0) < 0:
            raise LayoutError("database entries must be non-negative")
        self.db = db_matrix
        self.params = params
        self.seed = seed
        self.backend = resolve_backend(backend)
        self.a_matrix = lwe_public_matrix(
            db_matrix.shape[1], params.lwe_dim, params.q, seed
        )

    def hint(self) -> np.ndarray:
        """Offline download: DB @ A mod q (rows x lwe_dim)."""
        return self.backend.modular_gemm(self.db, self.a_matrix, self.params.q)

    def answer(self, query_vector: np.ndarray) -> np.ndarray:
        """Online answer: DB @ query mod q (one pass over the whole DB)."""
        query_vector = np.asarray(query_vector, dtype=np.int64)
        if query_vector.shape != (self.db.shape[1],):
            raise LayoutError(
                f"query must have {self.db.shape[1]} entries, got {query_vector.shape}"
            )
        return self.backend.modular_gemm(self.db, query_vector, self.params.q)

    def answer_batch(self, query_matrix: np.ndarray) -> np.ndarray:
        """Answer a stack of queries with one DB @ Q GEMM.

        ``query_matrix`` is (cols, batch) — one query vector per column —
        and the result is (rows, batch), column i answering query i.  One
        GEMM amortizes the single pass over the database across the whole
        batch; chunked accumulation makes the result byte-identical to
        answering each query alone.
        """
        query_matrix = np.asarray(query_matrix, dtype=np.int64)
        if query_matrix.ndim != 2 or query_matrix.shape[0] != self.db.shape[1]:
            raise LayoutError(
                f"query matrix must be ({self.db.shape[1]}, batch), "
                f"got {query_matrix.shape}"
            )
        return self.backend.modular_gemm(self.db, query_matrix, self.params.q)


def lwe_public_matrix(cols: int, lwe_dim: int, q: int, seed: int) -> np.ndarray:
    """The public LWE matrix A, derived deterministically from ``seed``.

    Client and server expand the same seed instead of shipping the
    (cols x lwe_dim) matrix: the transcript carries 8 bytes, not ~n*N*4.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=(cols, lwe_dim), dtype=np.int64)


class SimplePirClient:
    """Builds Regev queries and recovers entries using the offline hint."""

    def __init__(self, server: SimplePirServer, seed: int = 1):
        self.params = server.params
        self.a_matrix = server.a_matrix
        self.hint = server.hint()
        self.rng = np.random.default_rng(seed)
        self.num_rows, self.num_cols = server.db.shape

    def build_query(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(query vector, secret) for retrieving column ``col``."""
        if not 0 <= col < self.num_cols:
            raise LayoutError(f"column {col} out of range")
        params = self.params
        secret = self.rng.integers(0, params.q, size=params.lwe_dim, dtype=np.int64)
        error = np.rint(
            self.rng.normal(0.0, params.error_std, size=self.num_cols)
        ).astype(np.int64)
        one_hot = np.zeros(self.num_cols, dtype=np.int64)
        one_hot[col] = params.delta
        query = (
            modular_gemm(self.a_matrix, secret, params.q) + error + one_hot
        ) % params.q
        return query, secret

    def recover(self, answer: np.ndarray, secret: np.ndarray, row: int) -> int:
        """Decode DB[row, col] from the server's answer."""
        params = self.params
        noisy = (answer - modular_gemm(self.hint, secret, params.q)) % params.q
        value = int((int(noisy[row]) + params.delta // 2) // params.delta) % params.p
        return value
