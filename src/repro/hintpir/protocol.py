"""Hint-PIR protocol: offline hint download, online queries, epoch deltas.

The protocol family wraps the SimplePIR core with the two things a
*served* hint tier needs and a bare PIR scheme lacks:

* **Explicit phase accounting.**  :class:`HintTranscript` sizes the
  offline download (hint + A-seed) and the per-query online traffic so
  the refresh-vs-online trade is a number, not a vibe.

* **Epoch-aware hint refresh.**  A mutation publish
  (:meth:`HintPirServer.publish`) carries a dirty-column summary.  The
  server retains a bounded window of per-epoch deltas; a client holding
  a stale hint is patched with a delta-hint — the signed column changes,
  from which the client recomputes ``ΔDB @ A`` locally over dirty
  columns only — or, past the window, rejected with a typed
  :class:`~repro.errors.HintStale`.  The invariant the serving tier
  builds on: **a stale hint never decodes to a wrong byte**; it is
  either patched or refused.

Epoch bookkeeping mirrors ``repro.mutate`` (monotonic epochs, bounded
retain window, typed staleness), but the versioned artifact here is the
*client-side hint*, not a server-side database snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import HintPirError, HintStale, LayoutError
from repro.he.backend import ComputeBackend
from repro.hintpir.layout import HintLayout
from repro.mutate.log import UpdateLog
from repro.pir.simplepir import (
    SimplePirParams,
    SimplePirServer,
    lwe_public_matrix,
    modular_gemm,
)


@dataclass(frozen=True)
class HintTranscript:
    """Byte accounting for one deployment: offline vs online traffic."""

    hint_bytes: int
    seed_bytes: int
    query_bytes: int
    answer_bytes: int
    db_bytes: int

    @property
    def offline_bytes(self) -> int:
        return self.hint_bytes + self.seed_bytes

    @property
    def online_bytes(self) -> int:
        """Per-query wire traffic once the hint is in place."""
        return self.query_bytes + self.answer_bytes


@dataclass(frozen=True)
class HintEpochDelta:
    """The dirty-column summary advancing a hint from ``epoch - 1`` to ``epoch``.

    ``values`` holds ``new - old`` for each dirty column (entries in
    ``(-(p-1), p-1)``); the client folds ``values @ A[dirty_cols]`` into
    its hint locally, so the wire carries churn-proportional bytes.
    """

    epoch: int
    dirty_cols: np.ndarray  # sorted unique column indices, int64
    values: np.ndarray  # (rows, len(dirty_cols)) signed deltas

    @property
    def num_dirty(self) -> int:
        return int(self.dirty_cols.size)


@dataclass(frozen=True)
class HintDelta:
    """A chain of epoch deltas patching a hint from ``from_epoch`` to ``to_epoch``."""

    from_epoch: int
    to_epoch: int
    steps: tuple[HintEpochDelta, ...]
    patch_bytes: int

    @property
    def num_dirty(self) -> int:
        return sum(step.num_dirty for step in self.steps)


@dataclass(frozen=True)
class HintPublishReport:
    """What one epoch publish cost: dirty footprint and delta wire size."""

    epoch: int
    num_dirty: int
    patch_bytes: int


@dataclass
class HintQuery:
    """One online query.  The server reads ``vector`` and ``hint_epoch``;
    ``secret`` and ``col`` never leave the client and exist so the caller
    can decode the answer later."""

    vector: np.ndarray
    secret: np.ndarray = field(repr=False)
    col: int
    hint_epoch: int


@dataclass
class HintAnswer:
    """One online answer: the Regev response plus, when the querying hint
    was stale but patchable, the delta chain bringing it current."""

    vector: np.ndarray
    epoch: int
    delta: HintDelta | None = None


class HintPirServer:
    """SimplePIR server with epoch-versioned hints and batched answering.

    ``records`` are laid out as matrix columns (record ``i`` = column
    ``i``); :meth:`publish` applies an :class:`~repro.mutate.log.UpdateLog`
    as one epoch step, maintaining the cached hint *incrementally* (cost
    proportional to the dirty columns, not the database) and retaining
    the last ``retain_epochs`` delta summaries for stale clients.
    """

    def __init__(
        self,
        records,
        record_bytes: int,
        params: SimplePirParams | None = None,
        seed: int = 0,
        retain_epochs: int = 4,
        backend: str | ComputeBackend | None = None,
    ):
        if retain_epochs < 0:
            raise HintPirError("retain_epochs must be >= 0")
        params = params or SimplePirParams()
        records = [bytes(r) for r in records]
        self.layout = HintLayout(len(records), record_bytes, params)
        self.params = params
        self.seed = seed
        self.retain_epochs = retain_epochs
        self.core = SimplePirServer(
            self.layout.pack_records(records), params, seed, backend=backend
        )
        self.epoch = 0
        self._deltas: dict[int, HintEpochDelta] = {}
        self._hint = self.core.hint()
        self._lock = threading.Lock()

    # -- offline phase ----------------------------------------------------

    def hint(self) -> np.ndarray:
        """The current (rows x lwe_dim) hint — the offline download."""
        with self._lock:
            return self._hint.copy()

    def hint_state(self) -> tuple[int, np.ndarray]:
        """(epoch, hint) read atomically — what a fresh download ships."""
        with self._lock:
            return self.epoch, self._hint.copy()

    def transcript(self) -> HintTranscript:
        layout = self.layout
        return HintTranscript(
            hint_bytes=layout.hint_bytes,
            seed_bytes=8,
            query_bytes=layout.query_bytes,
            answer_bytes=layout.answer_bytes,
            db_bytes=layout.db_bytes,
        )

    # -- epoch publishes --------------------------------------------------

    def publish(self, log: UpdateLog) -> HintPublishReport:
        """Apply one update log as an epoch step with a dirty-column delta.

        Appends are refused: growing the column count changes the query
        geometry (vector length) and would invalidate every outstanding
        hint and in-flight query at once — that is a rebuild, not a
        publish.
        """
        writes, appends = log.coalesced(self.layout.num_records)
        if appends:
            raise HintPirError(
                "hint-PIR publishes cannot append records (query geometry "
                "would change); rebuild the deployment instead"
            )
        with self._lock:
            dirty = np.array(sorted(writes), dtype=np.int64)
            if dirty.size == 0:
                self.epoch += 1
                self._deltas[self.epoch] = HintEpochDelta(
                    epoch=self.epoch,
                    dirty_cols=dirty,
                    values=np.zeros((self.layout.rows, 0), dtype=np.int64),
                )
                self._prune()
                return HintPublishReport(self.epoch, 0, self.layout.patch_bytes(0))
            new_cols = np.empty((self.layout.rows, dirty.size), dtype=np.int64)
            for j, index in enumerate(dirty):
                record = writes[int(index)]
                if record is None:  # tombstone: zeroed slot
                    new_cols[:, j] = 0
                else:
                    new_cols[:, j] = self.layout.pack_record(record)
            old_cols = self.core.db[:, dirty]
            values = new_cols - old_cols
            self.core.db[:, dirty] = new_cols
            # Incremental hint maintenance: Δhint = ΔDB @ A over dirty
            # columns only — the same computation the patched client does.
            self._hint = (
                self._hint
                + self.core.backend.modular_gemm(
                    values, self.core.a_matrix[dirty], self.params.q
                )
            ) % self.params.q
            self.epoch += 1
            self._deltas[self.epoch] = HintEpochDelta(
                epoch=self.epoch, dirty_cols=dirty, values=values
            )
            self._prune()
            return HintPublishReport(
                self.epoch,
                int(dirty.size),
                self.layout.patch_bytes(int(dirty.size)),
            )

    def _prune(self):
        horizon = self.epoch - self.retain_epochs
        for target in [e for e in self._deltas if e <= horizon]:
            del self._deltas[target]

    @property
    def oldest_patchable(self) -> int:
        """The oldest hint epoch a retained delta chain can bring current."""
        epoch = self.epoch
        while epoch > 0 and epoch in self._deltas:
            epoch -= 1
        return epoch

    def _delta_since_locked(self, hint_epoch: int) -> HintDelta:
        """The delta chain patching a hint at ``hint_epoch`` to current.

        Raises :class:`HintStale` when the chain has been pruned past the
        retain window, and :class:`HintPirError` for a hint from the
        future (a client bug).
        """
        if hint_epoch > self.epoch:
            raise HintPirError(
                f"hint epoch {hint_epoch} is ahead of the server ({self.epoch})"
            )
        oldest = self.oldest_patchable
        if hint_epoch < oldest:
            raise HintStale(hint_epoch, self.epoch, oldest)
        steps = tuple(self._deltas[e] for e in range(hint_epoch + 1, self.epoch + 1))
        patch = sum(self.layout.patch_bytes(step.num_dirty) for step in steps)
        return HintDelta(hint_epoch, self.epoch, steps, patch)

    # -- online phase -----------------------------------------------------

    def answer_window(self, queries) -> list:
        """Answer a waiting window of queries with one ``DB @ Q`` GEMM.

        Returns one entry per query, in order: a :class:`HintAnswer`
        (with the delta chain bundled when the query's hint is behind),
        or a :class:`~repro.errors.HintStale` *value* when the hint is
        past the retain window.  Staleness is per-request data, not an
        exception — one unpatchable client must not fail the rest of the
        window.
        """
        queries = list(queries)
        with self._lock:
            outcomes: list = [None] * len(queries)
            live: list[int] = []
            for i, query in enumerate(queries):
                try:
                    outcomes[i] = self._delta_since_locked(query.hint_epoch)
                except HintStale as stale:
                    outcomes[i] = stale
                else:
                    live.append(i)
            if live:
                stacked = np.stack([queries[i].vector for i in live], axis=1)
                answers = self.core.answer_batch(stacked)
                for j, i in enumerate(live):
                    delta = outcomes[i]
                    outcomes[i] = HintAnswer(
                        vector=answers[:, j],
                        epoch=self.epoch,
                        delta=delta if delta.steps else None,
                    )
            return outcomes

    def answer(self, query: HintQuery):
        """Answer a single query (a window of one)."""
        return self.answer_window([query])[0]


class HintPirClient:
    """Holds the offline hint, builds queries, patches or re-downloads.

    The client keeps a bounded per-epoch hint history so an in-flight
    answer from epoch ``e`` can still be decoded after a later answer
    has already patched the client past ``e``.
    """

    def __init__(self, server: HintPirServer, seed: int = 1, history: int = 8):
        if history < 1:
            raise HintPirError("history must keep at least the current hint")
        self.params = server.params
        self.layout = server.layout
        self.a_matrix = lwe_public_matrix(
            self.layout.cols, self.params.lwe_dim, self.params.q, server.seed
        )
        self.history = history
        self.rng = np.random.default_rng(seed)
        self.downloads = 0
        self.patched_epochs = 0
        self._hints: dict[int, np.ndarray] = {}
        self.hint_epoch = -1
        self.refresh(server)

    # -- hint lifecycle ---------------------------------------------------

    def refresh(self, server: HintPirServer):
        """Full offline re-download of the current hint."""
        epoch, hint = server.hint_state()
        self._hints = {epoch: hint}
        self.hint_epoch = epoch
        self.downloads += 1

    def apply_delta(self, delta: HintDelta):
        """Fold a delta chain into the hint: ``ΔDB @ A`` over dirty columns.

        The chain may start behind the current hint (answers from
        different epochs race in a concurrent session) — steps at or
        below ``hint_epoch`` were already applied and are skipped; each
        step is a self-contained epoch increment, so only the suffix
        matters.  A chain starting *ahead* of the hint cannot bridge the
        gap and is a protocol error.
        """
        if delta.from_epoch > self.hint_epoch:
            raise HintPirError(
                f"delta patches from epoch {delta.from_epoch}, hint is at "
                f"{self.hint_epoch}"
            )
        if delta.to_epoch <= self.hint_epoch:
            return
        hint = self._hints[self.hint_epoch]
        for step in delta.steps:
            if step.epoch <= self.hint_epoch:
                continue
            if step.num_dirty:
                patch = modular_gemm(
                    step.values, self.a_matrix[step.dirty_cols], self.params.q
                )
                hint = (hint + patch) % self.params.q
            self._hints[step.epoch] = hint
            self.patched_epochs += 1
        self.hint_epoch = delta.to_epoch
        self._trim()

    def _trim(self):
        for epoch in sorted(self._hints)[: -self.history]:
            del self._hints[epoch]

    def hint_at(self, epoch: int) -> np.ndarray:
        try:
            return self._hints[epoch]
        except KeyError:
            raise HintPirError(
                f"no hint retained for epoch {epoch} (held: "
                f"{sorted(self._hints)})"
            ) from None

    # -- online phase -----------------------------------------------------

    def build_query(self, record_index: int) -> HintQuery:
        """A Regev query for record ``record_index``, tagged with our epoch."""
        if not 0 <= record_index < self.layout.cols:
            raise LayoutError(f"record index {record_index} out of range")
        params = self.params
        secret = self.rng.integers(0, params.q, size=params.lwe_dim, dtype=np.int64)
        error = np.rint(
            self.rng.normal(0.0, params.error_std, size=self.layout.cols)
        ).astype(np.int64)
        one_hot = np.zeros(self.layout.cols, dtype=np.int64)
        one_hot[record_index] = params.delta
        vector = (
            modular_gemm(self.a_matrix, secret, params.q) + error + one_hot
        ) % params.q
        return HintQuery(
            vector=vector, secret=secret, col=record_index, hint_epoch=self.hint_epoch
        )

    def decode(self, query: HintQuery, answer: HintAnswer) -> bytes:
        """Recover the record bytes from an answer.

        The answer was computed against the database at ``answer.epoch``,
        so decoding needs the hint at that epoch: the bundled delta is
        applied first if we are behind, and the per-epoch history covers
        answers that arrive after a later patch already moved us ahead.
        """
        if (
            answer.delta is not None
            and answer.delta.from_epoch <= self.hint_epoch < answer.delta.to_epoch
        ):
            self.apply_delta(answer.delta)
        hint = self.hint_at(answer.epoch)
        params = self.params
        noisy = (answer.vector - modular_gemm(hint, query.secret, params.q)) % params.q
        values = ((noisy + params.delta // 2) // params.delta) % params.p
        return self.layout.unpack_column(values)


class HintPirProtocol:
    """Single-process convenience wrapper: build, fetch, publish.

    Drives one server and one client through the full offline/online
    handshake — the shape the CLI and the benchmarks exercise.  A
    :class:`HintStale` outcome triggers one full re-download and retry,
    which is the protocol's prescribed recovery.
    """

    def __init__(
        self,
        records,
        record_bytes: int,
        params: SimplePirParams | None = None,
        seed: int = 0,
        retain_epochs: int = 4,
        client_seed: int = 1,
        backend: str | ComputeBackend | None = None,
    ):
        self.server = HintPirServer(
            records, record_bytes, params, seed=seed, retain_epochs=retain_epochs,
            backend=backend,
        )
        self.client = HintPirClient(self.server, seed=client_seed)

    def fetch(self, record_index: int) -> bytes:
        query = self.client.build_query(record_index)
        outcome = self.server.answer(query)
        if isinstance(outcome, HintStale):
            self.client.refresh(self.server)
            query = self.client.build_query(record_index)
            outcome = self.server.answer(query)
            if isinstance(outcome, HintStale):
                raise outcome  # fresh hint still refused: server bug
        return self.client.decode(query, outcome)

    def publish(self, log: UpdateLog) -> HintPublishReport:
        return self.server.publish(log)
