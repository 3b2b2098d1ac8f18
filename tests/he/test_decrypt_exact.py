"""Decryption rounds in RNS exactly: the big-int formula, bit for bit.

:meth:`BfvContext.round_phase` splits the CRT lift into int64 quotients
and remainders and sums the remainders' fractions in float64, falling
back to big integers within a guard band of a rounding boundary, and for
the whole call where ``max q·P`` leaves int64.  Each case here is held
to ``⌊(x·P + (Q-1)/2) / Q⌋ mod P`` on the lifted phase ``x``, computed
independently with Python integers: uniform junk phases, fresh
encryptions, and phases built to sit on or one unit beside a boundary
(with a spy on the fallback), at the ``small``, ``functional`` and
``paper`` (P = 2^32) presets.  ``REPRO_BACKEND`` picks the backend whose
inverse NTT the decryptions run (default: ``DEFAULT_BACKEND``).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import backend as backend_module
from repro.he.bfv import BfvContext, SecretKey
from repro.he.poly import RingContext
from repro.he.sampling import Sampler
from repro.params import PirParams

PRESETS = {
    "small": PirParams.small(),
    "functional": PirParams.functional(),
    "paper": PirParams.paper(),
}
RINGS = {name: RingContext(params) for name, params in PRESETS.items()}


@pytest.fixture(autouse=True)
def _backend(monkeypatch):
    """Decrypt through ``REPRO_BACKEND`` when CI names one."""
    if "REPRO_BACKEND" in os.environ:
        name = os.environ["REPRO_BACKEND"]
        monkeypatch.setattr(backend_module, "_default_name", lambda: name)


def _reference(ring: RingContext, residues: np.ndarray) -> np.ndarray:
    """The big-int formula on ``(count, rns, n)`` coefficient residues."""
    q, p = ring.params.q, ring.params.plain_modulus
    out = np.empty((residues.shape[0], ring.n), dtype=np.int64)
    for row, poly in zip(out, residues):
        lifted = ring.basis.from_rns(poly)
        row[:] = [(int(x) * p + q // 2) // q % p for x in lifted]
    return out


def _residues_of(ring: RingContext, values: list[int]) -> np.ndarray:
    """Integers in [0, Q) as one ``(1, rns, n)`` residue tensor, cycled to n."""
    values = (values * (ring.n // len(values) + 1))[: ring.n]
    return ring.basis.to_rns(values)[None]


@pytest.fixture
def spy(monkeypatch):
    """Counts the columns the big-int fallback rounds."""
    calls = []
    exact = BfvContext._round_exact

    def counted(self, residues):
        calls.append(residues.shape[1])
        return exact(self, residues)

    monkeypatch.setattr(BfvContext, "_round_exact", counted)
    return calls


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestRoundPhase:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_uniform_junk_phases(self, preset, seed):
        ring = RINGS[preset]
        bfv = BfvContext(ring, Sampler(ring, seed=seed))
        junk = np.random.default_rng(seed).integers(
            0, 1 << 62, size=(2, ring.rns_count, ring.n)
        ) % ring._moduli_col
        assert np.array_equal(bfv.round_phase(junk), _reference(ring, junk))

    def test_fresh_encryptions(self, preset):
        ring = RINGS[preset]
        sampler = Sampler(ring, seed=5)
        bfv = BfvContext(ring, sampler)
        key = SecretKey.generate(ring, sampler)
        p = ring.params.plain_modulus
        m = np.random.default_rng(6).integers(0, p, size=ring.n, dtype=np.int64)
        cts = [bfv.encrypt(m, key), bfv.encrypt_zero(key), -bfv.encrypt(m, key)]
        got = bfv.decrypt_many(cts, key)
        want = np.stack([
            [(int(x) * p + ring.params.q // 2) // ring.params.q % p for x in bfv.phase(ct, key)]
            for ct in cts
        ])
        assert np.array_equal(got, want)
        assert np.array_equal(got[0], m)
        assert np.array_equal(bfv.decrypt(cts[2], key), (-m) % p)

    def test_on_and_beside_a_rounding_boundary(self, preset, spy):
        """``x·P/Q + ½`` within P/Q of an integer: the float sum cannot tell
        the side, so the guard band must hand those to big integers."""
        ring = RINGS[preset]
        q, p = ring.params.q, ring.params.plain_modulus
        values = []
        for j in (1, 2, p // 3, p // 2, p - 1, p):
            edge = (2 * j - 1) * q // (2 * p)  # the largest x below the boundary
            values += [edge - 1, edge, edge + 1, edge + 2]
        residues = _residues_of(ring, values)
        bfv = BfvContext(ring, Sampler(ring, seed=7))
        assert np.array_equal(bfv.round_phase(residues), _reference(ring, residues))
        assert spy and sum(spy) >= len(values)


def test_a_wide_plaintext_modulus_takes_the_big_int_path_whole(spy):
    """``max q·P ≥ 2^62``: no int64 split, one fallback over every column."""
    params = PirParams.small(plain_modulus=(1 << 40) + 15)
    assert max(params.moduli) * params.plain_modulus >= 1 << 62
    ring = RingContext(params)
    bfv = BfvContext(ring, Sampler(ring, seed=8))
    junk = np.random.default_rng(9).integers(
        0, 1 << 62, size=(3, ring.rns_count, ring.n)
    ) % ring._moduli_col
    assert np.array_equal(bfv.round_phase(junk), _reference(ring, junk))
    assert spy == [3 * ring.n]
