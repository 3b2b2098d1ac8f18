"""PIR server: the ExpandQuery -> RowSel -> ColTor pipeline (Fig. 2).

The server never sees the secret key; it only holds the preprocessed
database and the client's public evaluation keys.  The pipeline runs on
a :class:`~repro.he.backend.ComputeBackend` resolved once at
construction (``native`` where its C kernels build, else ``eager`` —
see :mod:`repro.he.backend`); ``answer_reference`` runs the per-poly
pipeline, the independent oracle both are checked against.  All paths produce byte-identical
``PirResponse`` transcripts — every backend only reassociates exact
modular arithmetic.

The unit of computation is the *dispatch window* (Section III-B): a
batch of queries whose packed ciphertexts, expanded one-hot vectors,
RowSel outputs and ColTor rounds each travel through the backend as one
stacked tensor with a leading query axis, so every kernel launch — the
Subs of an expansion level under the shared evaluation key, the digit
NTTs, the grouped external products against each query's own RGSW bit —
is shared by the window.  ``answer_batch`` is that pipeline;
``answer`` is its batch of one.

A window is cut into *groups* of queries, and each group is one stacked
pass.  The group size is not a knob: it is how many queries' stacked
working set (:meth:`PirServer.group_size`) fits the scratch budget the
backends' blocked transforms already use
(:data:`~repro.he.poly.BLOCK_BYTES`).  Stacking amortises per-call
overhead only while the intermediates stay cache-resident: on the toy
N = 256 bucket geometry groups of 6-12 halve a 36-query pass while the
whole pass at once is slower than that again, and at N = 2^12 one
query's intermediates are already eight times the budget, so every
group is one query and a window costs what a loop did.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.backend import ComputeBackend, resolve_backend
from repro.he.bfv import BfvCiphertext
from repro.he.gadget import Gadget
from repro.he.poly import BLOCK_BYTES, Domain, RnsPoly
from repro.he.sampling import SEED_BYTES
from repro.obs.metrics import count
from repro.pir.client import ClientSetup, PirQuery, PirResponse
from repro.pir.coltor import column_tournament_reference
from repro.pir.database import PreprocessedDatabase
from repro.pir.expand import expand_query
from repro.pir.rowsel import row_select, rowsel_plane_tensor


class PirServer:
    """Answers PIR queries against one preprocessed database."""

    def __init__(
        self,
        db: PreprocessedDatabase,
        setup: ClientSetup,
        backend: str | ComputeBackend | None = None,
    ):
        self.db = db
        self.params = db.layout.params
        self.ring = db.ring
        self.gadget = Gadget(self.ring)
        self.backend = resolve_backend(backend)
        self._levels = modmath.ilog2(self.params.d0)
        self._check_upload(
            "the client setup", setup.seed, setup.b,
            self._levels * self.gadget.length,
            f"{self._levels} evaluation keys of {self.gadget.length} rows",
        )
        self.evks = setup.evks

    def _check_upload(
        self, what: str, seed, b, rows: int, needs: str
    ) -> None:
        """A seeded upload this server can expand, or a typed refusal: a
        32-byte seed, ``rows`` canonical int64 ``b`` rows of this ring."""
        if not isinstance(seed, bytes) or len(seed) != SEED_BYTES:
            size = len(seed) if isinstance(seed, bytes) else type(seed).__name__
            raise ParameterError(
                f"{what} carries a seed of {size}; uploads expand their a "
                f"rows from {SEED_BYTES} bytes"
            )
        poly = (self.ring.rns_count, self.ring.n)
        if not isinstance(b, np.ndarray) or b.ndim != 3 or b.shape[1:] != poly:
            shape = b.shape if isinstance(b, np.ndarray) else type(b).__name__
            raise ParameterError(
                f"{what} was built for another geometry: b rows of {shape}, "
                f"this server stacks {poly} polynomials"
            )
        if b.dtype != np.int64:
            raise ParameterError(f"{what} has {b.dtype} b rows, not int64 residues")
        if len(b) != rows:
            raise ParameterError(
                f"{what} has {len(b)} b rows; this server needs {rows} "
                f"({needs})"
            )
        # As unsigned words a negative residue is past every modulus too.
        if rows and np.any(
            b.view(np.uint64).max(axis=(0, 2))
            >= self.ring._moduli_col[:, 0].astype(np.uint64)
        ):
            raise ParameterError(
                f"{what} has a b residue outside [0, q): not a ciphertext "
                f"of this ring"
            )

    def _check_query(self, query: PirQuery, position: int = 0) -> None:
        ell, dims = self.gadget.length, self.params.num_dims
        self._check_upload(
            f"query {position} of the window", query.seed, query.b,
            1 + dims * 2 * ell,
            f"the packed ciphertext and {dims} selection bits of {2 * ell} rows",
        )

    @property
    def group_size(self) -> int:
        """Queries per stacked pass under the transforms' scratch budget.

        One query's stacked working set is what the stages hand each
        other — the ``d0`` expanded and ``2^d`` RowSel-output
        ciphertexts — plus the NTT-form digit tensor of the widest key
        switch (the last expansion level's ``d0/2`` Subs of ``ℓ`` digits,
        or the first ColTor round's ``2^d/2`` external products of
        ``2ℓ``).
        """
        cols = 1 << self.params.num_dims
        ell = self.gadget.length
        polys = 2 * (self.params.d0 + cols) + max(self.params.d0 // 2, cols) * ell
        return max(1, BLOCK_BYTES // (polys * 8 * self.ring.rns_count * self.ring.n))

    def answer(self, query: PirQuery) -> PirResponse:
        """Run the full pipeline for one query: a window of one."""
        return self.answer_batch([query])[0]

    def answer_batch(self, queries: list[PirQuery]) -> list[PirResponse]:
        """Serve a dispatch window against this server's database."""
        planes = [
            rowsel_plane_tensor(self.db, plane)[None]
            for plane in range(self.db.plane_count)
        ]
        return self.answer_window(queries, planes)

    def answer_window(
        self, queries: list[PirQuery], planes: list[np.ndarray]
    ) -> list[PirResponse]:
        """The stacked pipeline against caller-supplied plane tensors.

        ``planes`` holds one ``(len(queries) or 1, cols, d0, rns, n)``
        tensor per record plane: a leading axis of one is a database
        every query shares (``answer_batch``), otherwise query ``i``
        runs against ``planes[p][i]`` — what
        :class:`~repro.batchpir.server.BatchPirServer` feeds with views
        of its bucket tensor.  The window is validated whole before any
        kernel runs, then answered group by group.
        """
        if not queries:
            return []
        for position, query in enumerate(queries):
            self._check_query(query, position)
        for plane in planes:
            if plane.shape[0] not in (1, len(queries)):
                raise ParameterError(
                    f"{plane.shape[0]} plane tensors for a window of "
                    f"{len(queries)} queries"
                )
        groups = -(-len(queries) // self.group_size)
        count("pir_window_queries", len(queries))
        count("pir_window_groups", groups)
        bounds = np.linspace(0, len(queries), groups + 1).astype(int)
        responses: list[PirResponse] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            responses.extend(
                self._answer_group(
                    queries[lo:hi],
                    [p if p.shape[0] == 1 else p[lo:hi] for p in planes],
                )
            )
        return responses

    def _answer_group(
        self, queries: list[PirQuery], planes: list[np.ndarray]
    ) -> list[PirResponse]:
        """One stacked pass: every stage sees all of the group's queries.

        The queries' ``a`` rows are expanded from their seeds into one
        tensor by one :meth:`~repro.he.backend.ComputeBackend.sample`
        call; the packed ciphertexts are stacked from it and the queries'
        ``b`` rows, and each RGSW bit is the pair of its ``a`` and ``b``
        halves, read where they lie.
        """
        backend, gadget, ring = self.backend, self.gadget, self.ring
        rows = len(queries[0].b)
        a = np.empty((len(queries),) + queries[0].b.shape, dtype=np.int64)
        backend.sample(ring, [query.seed for query in queries], rows, out=a)
        packed = np.stack([a[:, 0], np.stack([q.b[0] for q in queries])])
        expanded = backend.expand_window(packed, self.evks, self._levels, gadget)
        width = 2 * gadget.length
        bits = [
            [(a[i, lo:lo + width], q.b[lo:lo + width]) for i, q in enumerate(queries)]
            for lo in range(1, rows, width)
        ]
        results = []
        for plane in planes:
            entries = backend.rowsel_window(expanded, plane, ring._moduli_col)
            results.append(
                backend.coltor_window(entries, bits, gadget) if bits else entries
            )
        return [
            PirResponse(plane_cts=[
                BfvCiphertext(
                    RnsPoly(ring, result[0, i], Domain.NTT),
                    RnsPoly(ring, result[1, i], Domain.NTT),
                )
                for result in results
            ])
            for i in range(len(queries))
        ]

    def answer_reference(self, query: PirQuery) -> PirResponse:
        """Per-poly oracle pipeline, regardless of the resolved backend."""
        self._check_query(query)
        expanded = expand_query(query.packed, self.evks, self._levels, self.gadget)
        plane_cts = []
        for plane in range(self.db.plane_count):
            entries = row_select(expanded, self.db, plane)
            if query.selection_bits:
                result = column_tournament_reference(
                    entries, query.selection_bits, self.gadget
                )
            else:
                result = entries[0]
            plane_cts.append(result)
        return PirResponse(plane_cts=plane_cts)
