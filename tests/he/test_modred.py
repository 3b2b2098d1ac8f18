"""Property tests pinning the Barrett forms against plain ``%``.

The planned backend's exactness rests entirely on these reductions
(:mod:`repro.he.modred`): every GEMM-NTT accumulator is finished by
``barrett_reduce``, so an off-by-one anywhere in the float/int64 dance
would corrupt transcripts silently.  Hypothesis drives them across
the full :class:`~repro.params.PirParams` modulus range *and* the
adversarial edges — accumulators hugging the float64-exact bound, moduli
just below the Barrett limits — where a rounding bug would
hide from the fixed-seed pipeline tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he.modred import (
    FLOAT64_EXACT_MAX,
    barrett_fold,
    barrett_reduce,
    barrett_reduce_nonneg,
    biased_quotient,
    biased_reciprocal,
    modred,
    twist_mulmod,
)
from repro.params import PirParams

#: Every NTT modulus the parameter sets can produce, plus edge moduli:
#: tiny, the largest odd modulus under the 2^31 twist bound, and a
#: Barrett-only modulus just under the float64-exact bound.
PIR_MODULI = sorted(set(PirParams.paper().moduli) | set(PirParams.small().moduli))
EDGE_MODULI = [3, 17, (1 << 31) - 1, (1 << 52) + 1]

#: Accumulators the GEMM plans feed Barrett: anywhere in the exact range,
#: including negative values (the hi/lo split transform is canonical but
#: signed inputs must still reduce correctly).
accumulators = st.integers(
    min_value=-(FLOAT64_EXACT_MAX - 1), max_value=FLOAT64_EXACT_MAX - 1
)


class TestBarrett:
    @given(
        acc=st.lists(accumulators, min_size=1, max_size=32),
        q=st.sampled_from(PIR_MODULI + EDGE_MODULI),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_modulo(self, acc, q):
        arr = np.array(acc, dtype=np.float64)
        got = barrett_reduce(arr, q)
        want = np.array(acc, dtype=object) % q  # big-int oracle
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))

    @given(q=st.sampled_from(PIR_MODULI + EDGE_MODULI))
    @settings(max_examples=50, deadline=None)
    def test_exact_at_the_float64_bound(self, q):
        """The worst case: |acc| hugging 2^53 where float spacing is 2."""
        edge = FLOAT64_EXACT_MAX - 2  # largest even exactly-representable
        acc = np.array(
            [edge, -edge, edge - 1, -(edge - 1), q - 1, -(q - 1), 0],
            dtype=np.float64,
        )
        want = acc.astype(object).astype(int)
        got = barrett_reduce(acc, q)
        assert np.array_equal(got, np.array([v % q for v in want]))

    @given(
        acc=st.lists(accumulators, min_size=1, max_size=16),
        q=st.integers(min_value=2, max_value=FLOAT64_EXACT_MAX - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_moduli(self, acc, q):
        got = barrett_reduce(np.array(acc, dtype=np.float64), q)
        assert np.array_equal(got, np.array([v % q for v in acc]))

    def test_rejects_out_of_range_moduli(self):
        with pytest.raises(ParameterError, match="at least 2"):
            barrett_reduce(np.zeros(1), 1)
        with pytest.raises(ParameterError, match="float64-exact"):
            barrett_reduce(np.zeros(1), FLOAT64_EXACT_MAX)

    @given(
        acc=st.lists(accumulators, min_size=2, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_moduli_match_per_modulus_calls(self, acc, data):
        """An (rns, 1)-style modulus column reduces like a scalar loop."""
        qs = data.draw(
            st.lists(
                st.sampled_from(PIR_MODULI + EDGE_MODULI),
                min_size=len(acc),
                max_size=len(acc),
            )
        )
        arr = np.array(acc, dtype=np.float64)[:, None]
        q_col = np.array(qs, dtype=np.int64)[:, None]
        got = barrett_reduce(arr, q_col)
        want = np.array(
            [barrett_reduce(np.array([a], dtype=np.float64), q)[0]
             for a, q in zip(acc, qs)]
        )
        assert np.array_equal(got[:, 0], want)

    def test_array_moduli_rejected_out_of_range(self):
        with pytest.raises(ParameterError, match="at least 2"):
            barrett_reduce(np.zeros((2, 1)), np.array([[5], [1]]))
        with pytest.raises(ParameterError, match="float64-exact"):
            barrett_reduce(
                np.zeros((2, 1)), np.array([[5], [FLOAT64_EXACT_MAX]])
            )


#: Non-negative accumulators for the biased-reciprocal fast path.
nonneg_accumulators = st.integers(min_value=0, max_value=FLOAT64_EXACT_MAX - 1)


class TestBarrettNonneg:
    @given(
        acc=st.lists(nonneg_accumulators, min_size=1, max_size=32),
        q=st.sampled_from(
            [m for m in PIR_MODULI + EDGE_MODULI if m >= (1 << 14)]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_canonical_matches_plain_modulo(self, acc, q):
        got = barrett_reduce_nonneg(np.array(acc, dtype=np.float64), q)
        assert np.array_equal(got, np.array(acc, dtype=object) % q)

    @given(
        acc=st.lists(nonneg_accumulators, min_size=1, max_size=32),
        q=st.sampled_from(
            [m for m in PIR_MODULI + EDGE_MODULI if m >= (1 << 14)]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_partial_is_congruent_and_below_2q(self, acc, q):
        """partial=True may stop in [0, 2q) but must stay congruent."""
        got = barrett_reduce_nonneg(
            np.array(acc, dtype=np.float64), q, partial=True
        )
        assert np.all(got >= 0) and np.all(got < 2 * q)
        assert np.array_equal(got % q, np.array(acc, dtype=object) % q)

    @given(q=st.sampled_from([m for m in PIR_MODULI if m >= (1 << 14)]))
    @settings(max_examples=50, deadline=None)
    def test_exact_at_the_float64_bound(self, q):
        edge = FLOAT64_EXACT_MAX - 2
        acc = np.array([edge, edge - 1, q - 1, q, 2 * q - 1, 0], dtype=np.float64)
        got = barrett_reduce_nonneg(acc, q)
        assert np.array_equal(got, np.array([int(v) % q for v in acc]))

    def test_rejects_out_of_range_moduli(self):
        with pytest.raises(ParameterError, match="2\\^14"):
            barrett_reduce_nonneg(np.zeros(1), (1 << 14) - 1)
        with pytest.raises(ParameterError, match="float64-exact"):
            barrett_reduce_nonneg(np.zeros(1), FLOAT64_EXACT_MAX)


class TestFourStepReductions:
    """The in-place forms between the two GEMMs of a four-step plan."""

    @given(
        acc=st.lists(nonneg_accumulators, min_size=1, max_size=32),
        q=st.sampled_from(
            [m for m in PIR_MODULI + EDGE_MODULI if m >= (1 << 14)]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_stays_float_exact_and_below_2q(self, acc, q):
        arr = np.array(acc, dtype=np.float64)
        got = barrett_fold(arr, q, biased_reciprocal(q), np.empty_like(arr))
        assert got is arr and got.dtype == np.float64
        assert np.all(got >= 0) and np.all(got < 2 * q)
        assert np.array_equal(got.astype(np.int64) % q, np.array(acc, dtype=object) % q)

    @given(
        q=st.one_of(
            st.sampled_from(PIR_MODULI),
            st.integers(min_value=1 << 14, max_value=(1 << 31) - 1),
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_twist_product_beyond_2_53_reduces_into_0_2q(self, q, data):
        """v * twist reaches 2q^2 (2^63 at the top): only the quotient is float."""
        v = data.draw(st.lists(
            st.integers(min_value=0, max_value=2 * q - 1), min_size=1, max_size=16
        ))
        twist = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=q - 1),
            min_size=len(v), max_size=len(v),
        )), dtype=np.int64)
        vf = np.array(v, dtype=np.float64)
        out, quot = np.empty(len(v), dtype=np.int64), np.empty(len(v), dtype=np.int64)
        got = twist_mulmod(
            vf, twist, biased_quotient(twist, q), q, out, quot, np.empty_like(vf)
        )
        assert np.all(got >= 0) and np.all(got < 2 * q)
        assert np.array_equal(got % q, (np.array(v, dtype=object) * twist) % q)

    @pytest.mark.parametrize("q", PIR_MODULI + [(1 << 31) - 1])
    def test_twist_extremes(self, q):
        v = np.array([0, 1, q - 1, q, 2 * q - 1] * 2, dtype=np.float64)
        twist = np.array([q - 1] * 5 + [0, 1, q // 2, q - 2, q - 1], dtype=np.int64)
        got = twist_mulmod(
            v, twist, biased_quotient(twist, q), q, np.empty(10, dtype=np.int64),
            np.empty(10, dtype=np.int64), np.empty(10),
        )
        assert np.all(got >= 0) and np.all(got < 2 * q)
        assert np.array_equal(got % q, (v.astype(np.int64).astype(object) * twist) % q)

    def test_rejects_out_of_range_moduli(self):
        with pytest.raises(ParameterError, match="2\\^14"):
            biased_reciprocal((1 << 14) - 1)
        with pytest.raises(ParameterError, match="fit int64"):
            biased_quotient(np.array([1]), 1 << 31)


class TestModred:
    """The ``%``-free add/sub/neg correction on the stacked hot path."""

    @given(
        q=st.sampled_from(PIR_MODULI + [3, 17, (1 << 31) - 1]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_modulo_over_its_whole_input_range(self, q, data):
        # Signed (negative), unreduced-looking (up to q - 1) and the two
        # boundaries -q and q - 1 themselves.
        values = data.draw(
            st.lists(st.integers(min_value=-q, max_value=q - 1), min_size=1, max_size=32)
        )
        r = np.array(values + [-q, -1, 0, q - 1], dtype=np.int64)
        want = r % q
        assert modred(r, q) is r  # in place
        assert np.array_equal(r, want)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_add_sub_neg_of_canonical_residues(self, data):
        """The three callers' forms, with per-modulus broadcasting: a sum
        less q, a difference and a negation are all in range."""
        moduli = np.array(PirParams.small().moduli, dtype=np.int64)[:, None]
        residues = st.lists(st.integers(0, 1), min_size=4, max_size=4)
        edge = np.array(data.draw(residues))  # 0 -> residue 0, 1 -> residue q - 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        a = np.concatenate([rng.integers(0, moduli, size=(3, 12)), edge * (moduli - 1)], axis=1)
        b = np.concatenate([rng.integers(0, moduli, size=(3, 12)), edge[::-1] * (moduli - 1)], axis=1)
        assert np.array_equal(modred(a + b - moduli, moduli), (a + b) % moduli)
        assert np.array_equal(modred(a - b, moduli), (a - b) % moduli)
        assert np.array_equal(modred(-a, moduli), (-a) % moduli)

    def test_strided_views_reduce_in_place(self):
        q = PirParams.small().moduli[0]
        base = np.arange(-q, -q + 24, dtype=np.int64).reshape(2, 3, 4)
        want = base % q
        modred(base[:, 1:], q)
        assert np.array_equal(base[:, 1:], want[:, 1:])
        assert np.array_equal(base[:, 0], np.arange(-q, -q + 24).reshape(2, 3, 4)[:, 0])
