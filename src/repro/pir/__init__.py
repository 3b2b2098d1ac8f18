"""Single-server PIR protocol (OnionPIR-style) built on the HE substrate.

Implements the full server pipeline from Fig. 2 — ExpandQuery, RowSel,
ColTor — plus record packing, database preprocessing, client query
construction/decoding, and the SimplePIR baseline used in Table IV.
"""

from repro.pir.client import ClientSetup, PirClient, PirQuery, PirResponse
from repro.pir.database import PirDatabase, PreprocessedDatabase
from repro.pir.expand import expand_query, expansion_powers
from repro.pir.layout import RecordLayout
from repro.pir.protocol import PirProtocol, RetrievalResult, Transcript
from repro.pir.rowsel import num_rowsel_cols, row_select
from repro.pir.server import PirServer
from repro.pir.simplepir import (
    SimplePirClient,
    SimplePirParams,
    SimplePirServer,
    lwe_public_matrix,
    modular_gemm,
)

__all__ = [
    "ClientSetup",
    "PirClient",
    "PirDatabase",
    "PirProtocol",
    "PirQuery",
    "PirResponse",
    "PirServer",
    "PreprocessedDatabase",
    "RecordLayout",
    "RetrievalResult",
    "SimplePirClient",
    "SimplePirParams",
    "SimplePirServer",
    "Transcript",
    "expand_query",
    "expansion_powers",
    "lwe_public_matrix",
    "modular_gemm",
    "num_rowsel_cols",
    "row_select",
]

# The hint tier (repro.hintpir) builds its protocol family on the
# SimplePIR core above; re-exported here so the PIR surface is one
# import.  Deliberately at the end of the module: repro.hintpir imports
# repro.pir.simplepir (the submodule, never this package's attributes),
# so this late import cannot form a cycle.
from repro.hintpir.protocol import (  # noqa: E402
    HintAnswer,
    HintDelta,
    HintEpochDelta,
    HintPirClient,
    HintPirProtocol,
    HintPirServer,
    HintQuery,
    HintTranscript,
)

__all__ += [
    "HintAnswer",
    "HintDelta",
    "HintEpochDelta",
    "HintPirClient",
    "HintPirProtocol",
    "HintPirServer",
    "HintQuery",
    "HintTranscript",
]
