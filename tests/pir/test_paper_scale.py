"""Integration at paper-shaped ring degree (N = 2^12).

One full retrieval on the ``PirParams.functional()`` preset — the same
ring/moduli/gadget the paper's Table I uses (with the odd plaintext
modulus noted in DESIGN.md).  Slow (~tens of seconds), so only the
essential end-to-end properties are checked here; breadth lives in the
fast small-ring suites.
"""

import pytest

from repro.he import noise
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.protocol import PirProtocol


@pytest.fixture(scope="module")
def paper_scale():
    params = PirParams.functional(d0=16, num_dims=2)  # 64 polynomials, N=4096
    db = PirDatabase.random(params, num_records=64, record_bytes=1024, seed=77)
    protocol = PirProtocol(params, db, seed=78)
    return params, db, protocol


@pytest.mark.slow
class TestPaperScale:
    def test_retrieval(self, paper_scale):
        params, db, protocol = paper_scale
        result = protocol.retrieve(37)
        assert result.record == db.record(37)

    def test_noise_margin_comfortable(self, paper_scale):
        """At N=2^12 / 4 moduli the response keeps a wide noise budget."""
        params, db, protocol = paper_scale
        result = protocol.retrieve(5)
        client = protocol.client
        budget = min(
            client.bfv.noise_budget_bits(ct, client.secret_key)
            for ct in result.response.plane_cts
        )
        assert budget > 20.0
        est = noise.estimate(params)
        measured = max(
            client.bfv.noise(ct, client.secret_key)
            for ct in result.response.plane_cts
        )
        assert measured < est.response_bound()

    def test_communication_sizes_match_table1_formulas(self, paper_scale):
        params, db, protocol = paper_scale
        # ct = 112 KB, RGSW = 1120 KB, evk = 560 KB at the paper's ring.
        assert params.ct_bytes == 112 * 1024
        assert params.rgsw_bytes == 1120 * 1024
        assert params.evk_bytes == 560 * 1024
        query = protocol.client.build_query(0, db.layout)
        # The wire carries one seed and the b rows: half the modelled sizes.
        assert query.size_bytes(params) == (params.ct_bytes + 2 * params.rgsw_bytes) // 2 + 32
