"""The uint32 NTT store is the only resident form of the database.

Building a database keeps the records and nothing packed; preprocessing
streams pack -> NTT -> narrow a block at a time, and a publish repacks
only its dirty cells.  ``tracemalloc`` sees numpy's buffers, so each
build's peak is held to the store's bytes plus a few blocks of scratch,
at a geometry where a whole-database int64 coefficient array alone would
break that allowance.  ``REPRO_BACKEND`` restricts the backends under
test, since each backend allocates its transform's output its own way.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.he.backend import backend_names
from repro.he.poly import RingContext
from repro.mutate import UpdateLog, VersionedDatabase
from repro.params import PirParams
from repro.pir.database import PirDatabase

#: Backends under test; CI sets REPRO_BACKEND=eager / =native.
BACKENDS = (
    [os.environ["REPRO_BACKEND"]] if "REPRO_BACKEND" in os.environ else backend_names()
)
#: The streaming block for these tests, and the scratch a build may add
#: to the store: a small multiple of the block.
BLOCK = 1 << 17
ALLOWANCE = 6 * BLOCK
#: Packed (16 records a poly, 2048 polys) and striped (2 planes) shapes.
SHAPES = {
    "packed": (PirParams.small(n=256, d0=32, num_dims=6), 4096, 256),
    "striped": (PirParams.small(n=256, d0=16, num_dims=4), 256, 1500),
}


@pytest.fixture(params=list(SHAPES))
def shape(request, monkeypatch):
    monkeypatch.setattr("repro.pir.database.BLOCK_BYTES", BLOCK)
    params, num, size = SHAPES[request.param]
    rng = np.random.default_rng(1)
    return params, RingContext(params), [rng.bytes(size) for _ in range(num)], size


def _peak(build) -> tuple[object, int, int]:
    """``build()``'s result, the traced bytes it keeps and its traced peak."""
    tracemalloc.start()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.mark.parametrize("backend", BACKENDS)
def test_build_peaks_at_the_store_plus_a_few_blocks(shape, backend):
    params, ring, records, size = shape
    # Warm the backend's per-ring tables outside the trace.
    PirDatabase.from_records(records[:4], params, size).preprocess(ring, backend)
    db, kept, peak = _peak(lambda: PirDatabase.from_records(records, params, size))
    planes = db.layout.plane_count * params.num_db_polys * params.n * 8
    assert planes > ALLOWANCE  # a packed copy of the whole database would show
    assert peak < ALLOWANCE  # the database holds the records and nothing packed
    pre, _, peak = _peak(lambda: db.preprocess(ring, backend))
    assert peak <= pre.tensor.nbytes + ALLOWANCE


@pytest.mark.parametrize("backend", BACKENDS)
def test_publish_of_one_record_peaks_at_the_store_plus_a_few_blocks(shape, backend):
    params, ring, records, size = shape
    vdb = VersionedDatabase(params, records, size, ring=ring, backend=backend)
    vdb.apply(UpdateLog().put(1, b"\x01" * size))  # warm outside the trace
    snap, _, peak = _peak(lambda: vdb.apply(UpdateLog().put(3, b"\x02" * size)))
    # The store copy is the publish's one O(database) allocation.
    assert peak <= snap.pre.tensor.nbytes + ALLOWANCE
    assert snap.cost.polys_ntted == snap.db.layout.plane_count
    fresh = PirDatabase.from_records(
        [vdb.record(i) for i in range(len(records))], params, size
    )
    assert np.array_equal(snap.pre.tensor, fresh.preprocess(ring, backend).tensor)
