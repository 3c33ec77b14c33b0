import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorcs import (
    InvalidInputError,
    error_terms,
    format_index_set,
    prior_support_for,
    support_model,
)
from oracles import best_tail_by_enumeration, proof_error_multiplier


def top_k(x, k):
    """T0, the support of the best k-term approximation of x, as a tuple (or
    one tuple per row of a stack), read from the support model's mask."""
    x = np.asarray(x, dtype=float)
    in_t0 = support_model(x, np.zeros((*x.shape[:-1], 0), dtype=int), k, 0.5).in_t0
    if in_t0.ndim == 1:
        return tuple(np.flatnonzero(in_t0).tolist())
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in in_t0)


def tail(x, k) -> float:
    """||x - x_k||_1, the l1 error of the best k-term approximation."""
    return error_terms(x, support_model(x, (), k, 0.5)).tail_k


class TestBestKTerm:
    """T0 and tail_k are the support and the l1 error of the best k-term
    approximation: the k largest magnitudes, ties to the lowest index."""

    def test_magnitude_selection(self):
        x = np.array([3.0, -1.0, 0.0, 2.0])
        assert top_k(x, 2) == (0, 3)
        assert format_index_set(top_k(x, 2)) == "1,4"
        assert tail(x, 2) == 1.0
        assert prior_support_for(x, 2, rho=1.0, alpha=1.0) == (0, 3)

    def test_already_sparse_is_fixed_point(self):
        x = np.array([0.0, 5.0, 0.0, -1.0])
        assert top_k(x, 2) == (1, 3)
        assert tail(x, 2) == 0.0

    def test_tie_break_lowest_index(self):
        x = np.array([1.0, 1.0, 1.0])
        assert top_k(x, 2) == (0, 1)
        assert prior_support_for(x, 2, rho=0.5, alpha=1.0) == (0,)

    def test_zero_entries_not_in_support(self):
        x = np.array([0.0, 2.0, 0.0])
        assert top_k(x, 2) == (1,)
        assert tail(x, 2) == 0.0
        # the zero entry among the top 2 is not there to overlap
        with pytest.raises(InvalidInputError):
            prior_support_for(x, 2, rho=1.0, alpha=1.0)

    def test_k_validation(self):
        for k in (0, 3):
            with pytest.raises(InvalidInputError):
                support_model([1.0, 2.0], (), k, 0.5)
            with pytest.raises(InvalidInputError):
                prior_support_for([1.0, 2.0], k, rho=0.0, alpha=0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=10),
        st.data(),
    )
    def test_tail_is_minimal_over_all_supports(self, values, data):
        x = np.asarray(values)
        k = data.draw(st.integers(1, x.size))
        assert tail(x, k) <= best_tail_by_enumeration(x, k) + 1e-12

    def test_tail_optimality_1000_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            k = int(rng.integers(1, n + 1))
            assert tail(x, k) <= best_tail_by_enumeration(x, k) + 1e-12


class TestSupportModel:
    def test_rho_alpha_from_counts(self):
        # |T| = 2, k = 4, |T inter T0| = 1  ->  rho = 0.5, alpha = 0.5
        x = np.array([5.0, 4.0, 3.0, 2.0, 0.5, 0.1, 0.0, 0.0])
        model = support_model(x, T=(0, 6), k=4, w=0.5)
        assert top_k(x, 4) == (0, 1, 2, 3)
        assert model.rho == 0.5
        assert model.alpha == 0.5

    def test_full_overlap(self):
        x = np.array([3.0, 2.0, 1.0, 0.0])
        model = support_model(x, T=(0, 1), k=2, w=0.0)
        assert model.alpha == 1.0
        assert model.rho == 1.0

    def test_disjoint(self):
        x = np.array([3.0, 2.0, 1.0, 0.5])
        model = support_model(x, T=(2, 3), k=2, w=1.0)
        assert model.alpha == 0.0

    def test_empty_prior_support(self):
        x = np.array([1.0, 2.0])
        model = support_model(x, T=(), k=1, w=0.3)
        assert model.rho == 0.0
        assert model.alpha == 0.0

    def test_exact_rational_identities(self):
        # rho and alpha are the correctly rounded quotients of the counts
        x = np.arange(1.0, 15.0)[::-1]
        model = support_model(x, T=(0, 1, 2, 9, 10, 11), k=7, w=0.2)
        assert top_k(x, 7) == (0, 1, 2, 3, 4, 5, 6)
        assert model.rho == float(Fraction(6, 7))
        assert model.alpha == float(Fraction(3, 6))
        model = support_model(x, T=(0, 1, 2, 9, 10, 11, 12), k=7, w=0.2)
        assert model.alpha == float(Fraction(3, 7))

    def test_w_and_index_validation(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            support_model(x, T=(0,), k=1, w=1.5)
        with pytest.raises(InvalidInputError):
            support_model(x, T=(5,), k=1, w=0.5)
        with pytest.raises(InvalidInputError):
            support_model(x, T=(0, 0), k=1, w=0.5)


class TestErrorTerms:
    def test_sparse_signal_inside_prior_support(self):
        x = np.array([0.0, 2.0, -3.0, 0.0, 0.0])
        model = support_model(x, T=(1, 2, 3), k=2, w=0.5)
        terms = error_terms(x, model)
        assert terms.e_local == 0.0
        assert terms.missed_top == 0.0

    def test_sparse_signal_disjoint_prior_support(self):
        x = np.array([0.0, 2.0, -3.0, 0.0, 0.0])
        model = support_model(x, T=(0, 4), k=2, w=0.7)
        terms = error_terms(x, model)
        assert terms.e_local == pytest.approx(np.abs(x).sum(), abs=1e-15)
        assert terms.missed_top == pytest.approx(5.0, abs=1e-15)

    def test_hand_decomposition(self):
        # x = (1, -2, 3), T = {0}, k = 1: T0 = {2}, tail = 3,
        # off-prior-off-top = |-2| = 2, missed top = |3| = 3
        terms = error_terms(
            np.array([1.0, -2.0, 3.0]),
            support_model(np.array([1.0, -2.0, 3.0]), T=(0,), k=1, w=0.25),
        )
        assert terms.tail_k == 3.0
        assert terms.off_prior_off_top == 2.0
        assert terms.missed_top == 3.0
        assert terms.e_local == pytest.approx(0.25 * 3.0 + 0.75 * 2.0 + 3.0)

    def test_dimension_mismatch(self):
        x = np.array([1.0, 2.0])
        model = support_model(x, T=(0,), k=1, w=0.5)
        with pytest.raises(InvalidInputError):
            error_terms(np.array([1.0, 2.0, 3.0]), model)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
        st.data(),
    )
    def test_proof_identity(self, values, data):
        """w*|x_{T & T0^c}|_1 + |x_{T^c}|_1 equals the three-term multiplier."""
        x = np.asarray(values)
        n = x.size
        k = data.draw(st.integers(1, n))
        t = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
        w = data.draw(st.floats(0.0, 1.0))
        model = support_model(x, t, k, w)
        e_proof = proof_error_multiplier(x, t, top_k(x, k), w)
        assert e_proof == pytest.approx(error_terms(x, model).e_local, abs=1e-12)

    def test_e_local_nonincreasing_as_prior_absorbs_top_indices(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(20)
        k, w = 6, 0.4
        ranked = sorted(top_k(x, k), key=lambda i: (-abs(x[i]), i))
        previous = np.inf
        for j in range(len(ranked) + 1):
            terms = error_terms(x, support_model(x, tuple(sorted(ranked[:j])), k, w))
            assert terms.e_local <= previous + 1e-12
            previous = terms.e_local


class TestPriorSupportFor:
    def test_exact_overlap_and_size(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(30)
        k = 5
        t = prior_support_for(x, k, rho=0.8, alpha=0.75)
        model = support_model(x, t, k, 0.5)
        assert len(t) == 4
        assert len(set(t) & set(top_k(x, k))) == 3

    def test_overlap_takes_largest_magnitudes(self):
        x = np.array([0.5, -4.0, 3.0, 0.0, 1.0])
        t = prior_support_for(x, k=3, rho=1.0 / 3.0, alpha=1.0)
        assert t == (1,)

    def test_fill_takes_lowest_outside_indices(self):
        x = np.array([0.5, -4.0, 3.0, 0.0, 1.0])
        # T0 = {1, 2, 4}; fill goes to 0 then 3
        t = prior_support_for(x, k=3, rho=1.0, alpha=1.0 / 3.0)
        assert t == (0, 1, 3)

    def test_non_integer_sizes_rejected(self):
        x = np.arange(1.0, 9.0)
        with pytest.raises(InvalidInputError):
            prior_support_for(x, k=3, rho=0.5, alpha=1.0)
        with pytest.raises(InvalidInputError):
            prior_support_for(x, k=4, rho=0.5, alpha=0.3)

    def test_unachievable_overlap_rejected(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        # top-2 support has a single nonzero entry; overlap 2 is impossible
        with pytest.raises(InvalidInputError):
            prior_support_for(x, k=2, rho=1.0, alpha=1.0)


class TestIndexSetSerialization:
    def test_round_trip(self):
        assert format_index_set((3, 0)) == "1,4"
        assert format_index_set(()) == ""
        t = (0, 5, 17)
        assert tuple(int(i) - 1 for i in format_index_set(t).split(",")) == t


class TestMalformedInput:
    @pytest.mark.parametrize("call, message", [
        (lambda: support_model(np.array([3.0, 1.0, 2.0]), [1.5], 2, 0.5),  # was index 1
         "indices must be integers"),
        (lambda: format_index_set([2.0, 1]), "indices must be integers"),  # was "2,3.0"
        (lambda: format_index_set(5), "an index set must be a sequence of integers"),
        (lambda: support_model(np.array([3.0, 1.0, 2.0]), (0,), 2.5, 0.5),  # was a TypeError
         "k must be an integer, got 2.5"),
        (lambda: support_model(np.array([3.0, 1.0, 2.0]), (0,), "2", 0.5),
         "k must be an integer, got '2'"),
        (lambda: support_model(np.array([3.0, np.nan, 2.0]), (0,), 2, 0.5),  # was a T0 skipping the NaN
         "x must be finite"),
        (lambda: prior_support_for(np.array([3.0, np.nan, 2.0, 0.5]), 2, 1.0, 0.5), "x must be finite"),
        (lambda: error_terms(np.array([3.0, np.nan]), support_model(np.array([3.0, 1.0]), (0,), 1, 0.5)),
         "x must be finite"),
        (lambda: support_model(np.ones((2, 4)), (0, 1), 2, 0.5),  # a stack needs one set per row
         r"expected 2 index set\(s\) of equal size"),
        (lambda: prior_support_for(np.ones((0, 4)), 2, 1.0, 0.5),  # no signal at all
         "x must be a signal or a stack of signals"),
        (lambda: prior_support_for(np.arange(1.0, 9.0), 2, 1.0, 1.5), r"overlap 3 exceeds \|T\| = 2"),
        (lambda: prior_support_for(np.arange(1.0, 5.0), 2, 3.0, 0.0),
         r"\|T\| = 6 exceeds the dimension 4"),
        (lambda: format_index_set(np.zeros((1, 1, 1), dtype=int)),
         r"expected an index set or a stack of them, got shape \(1, 1, 1\)"),
        (lambda: support_model(["a", "b"], (0,), 1, 0.5), "x must be numeric"),
    ], ids=["support-model-float-index", "format-float-index", "format-scalar", "k-float", "k-str",
            "best-k-nan", "prior-support-nan", "error-terms-nan", "stack-one-set", "empty-stack",
            "alpha-above-one", "prior-support-above-n", "format-3d", "x-text"])
    def test_rejected(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call()


def bits(value) -> bytes:
    return struct.pack("<d", value)


class TestStacks:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_each_row_is_the_one_dimensional_call(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        b = data.draw(st.integers(1, 5), label="rows")
        # zeros in the rows, so their T0 sizes differ
        entry = st.one_of(st.just(0.0), st.floats(-10, 10, allow_nan=False))
        x = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=b, max_size=b)))
        k = data.draw(st.integers(1, n), label="k")
        t_size = data.draw(st.integers(0, n), label="t_size")
        t = np.array([data.draw(st.permutations(range(n)))[:t_size] for _ in range(b)], dtype=int)
        t = t.reshape(b, t_size)
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=b, max_size=b)))

        model = support_model(x, t, k, w)
        terms = error_terms(x, model)
        sets = format_index_set(t)
        assert model.rho == t_size / k
        for i in range(b):
            row = support_model(x[i], t[i], k, float(w[i]))
            assert np.array_equal(model.in_t[i], row.in_t)
            assert np.array_equal(model.in_t0[i], row.in_t0) and model.rho == row.rho
            assert bits(model.alpha[i]) == bits(row.alpha)
            row_terms = error_terms(x[i], row)
            for name in ("tail_k", "off_prior_off_top", "missed_top", "e_local"):
                assert bits(getattr(terms, name)[i]) == bits(getattr(row_terms, name))
            assert sets[i] == format_index_set(t[i])

        overlap = data.draw(st.integers(0, t_size), label="overlap")
        rho, alpha = t_size / k, (overlap / t_size if t_size else 0.0)
        outcomes = []
        for i in range(b):
            try:
                outcomes.append(prior_support_for(x[i], k, rho, alpha))
            except InvalidInputError:
                outcomes.append(None)
        if None in outcomes:  # the stack fails when one of its rows does
            with pytest.raises(InvalidInputError):
                prior_support_for(x, k, rho, alpha)
        else:
            stacked = prior_support_for(x, k, rho, alpha)
            assert [tuple(row) for row in stacked.tolist()] == outcomes

    def test_rows_whose_top_supports_differ_in_size(self):
        # T0 has 2, 1 and 3 entries, so each error term sums rows of three
        # different counts
        x = np.array([[3.0, 0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 2.0, 0.0], [1.0, -2.0, 3.0, 4.0, 0.5]])
        model = support_model(x, [(0, 4), (1, 2), (3, 4)], 3, 0.25)
        assert top_k(x, 3) == ((0, 3), (3,), (1, 2, 3))
        assert np.array_equal(model.alpha, [0.5, 0.0, 0.5])
        terms = error_terms(x, model)
        assert np.array_equal(terms.tail_k, [0.0, 0.0, 1.5])
        assert np.array_equal(terms.missed_top, [1.0, 2.0, 5.0])
        for i, row in enumerate(x):
            assert terms.e_local[i] == error_terms(row, support_model(row, np.flatnonzero(model.in_t[i]), 3, 0.25)).e_local
