"""Hint-PIR tier: SimplePIR serving with epoch-aware hint refresh.

Layers:

* :mod:`repro.hintpir.layout` — records as matrix columns, transcript
  byte arithmetic.
* :mod:`repro.hintpir.protocol` — :class:`HintPirServer` /
  :class:`HintPirClient`: offline hint download, batched online
  answering, per-epoch delta-hints, typed :class:`~repro.errors.HintStale`.
* :mod:`repro.hintpir.serving` — keyed shard routing and the
  :class:`~repro.serve.registry.ServingMode` registry plugging the tier
  into :class:`~repro.serve.dispatcher.ServeRuntime` (``--serving hintpir``).
* :mod:`repro.hintpir.model` — refresh economics: online savings vs
  churn-driven hint refresh, and the crossover between them.
"""

from repro.hintpir.layout import HintLayout
from repro.hintpir.model import (
    HintGeometry,
    HintOnlinePoint,
    HintRefreshPoint,
    churn_refresh_curve,
    crossover_churn,
    hintpir_vs_full,
)
from repro.hintpir.protocol import (
    HintAnswer,
    HintDelta,
    HintEpochDelta,
    HintPirClient,
    HintPirProtocol,
    HintPirServer,
    HintPublishReport,
    HintQuery,
    HintTranscript,
)
from repro.hintpir.serving import HintServeRegistry, HintShardMap

__all__ = [
    "HintAnswer",
    "HintDelta",
    "HintEpochDelta",
    "HintGeometry",
    "HintLayout",
    "HintOnlinePoint",
    "HintPirClient",
    "HintPirProtocol",
    "HintPirServer",
    "HintPublishReport",
    "HintQuery",
    "HintRefreshPoint",
    "HintServeRegistry",
    "HintShardMap",
    "HintTranscript",
    "churn_refresh_curve",
    "crossover_churn",
    "hintpir_vs_full",
]
