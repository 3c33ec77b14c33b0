import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorcs import (
    BudgetExceededError,
    InvalidInputError,
    SensingMatrix,
    coherence,
    generate_matrix,
    isometry_report,
    ric_exact,
    roc_exact,
)
from priorcs.matrices import read_matrix_text, write_matrix_text

SQRT2 = math.sqrt(2.0)


class TestCoherence:
    def test_orthonormal_columns(self, identity4):
        assert coherence(identity4) == 0.0

    def test_tri_matrix_value(self, tri_matrix):
        assert coherence(tri_matrix) == pytest.approx(1.0 / SQRT2, abs=1e-14)

    def test_duplicated_column(self):
        m = SensingMatrix.from_array(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert coherence(m) == pytest.approx(1.0, abs=1e-14)

    def test_single_column_rejected(self):
        m = SensingMatrix.from_array(np.array([[1.0]]))
        with pytest.raises(InvalidInputError):
            coherence(m)

    def test_zero_column_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            SensingMatrix.from_array(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_cached_value_matches_recomputation(self, tri_matrix):
        cached = tri_matrix.mu
        assert abs(cached - coherence(tri_matrix)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 8))
    def test_permutation_and_sign_invariance(self, seed, m, extra):
        n = m + extra
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((m, n))
        mu = coherence(SensingMatrix.from_array(arr))
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        shuffled = arr[:, perm] * signs
        assert coherence(SensingMatrix.from_array(shuffled)) == pytest.approx(mu, abs=1e-12)


class TestRicExact:
    def test_identity_k2(self, identity4):
        assert ric_exact(identity4, 2) == 0.0

    def test_tri_matrix_k2(self, tri_matrix):
        # worst support {e1, (e1+e2)/sqrt2}: Gram eigenvalues 1 +- 1/sqrt2
        assert ric_exact(tri_matrix, 2) == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_k1_is_zero_for_unit_columns(self):
        rng = np.random.default_rng(5)
        m = SensingMatrix.from_array(rng.standard_normal((4, 7)))
        assert ric_exact(m, 1) <= 1e-10

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        m = SensingMatrix.from_array(rng.standard_normal((6, 9)))
        values = [ric_exact(m, k) for k in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_budget(self):
        rng = np.random.default_rng(0)
        m = SensingMatrix.from_array(rng.standard_normal((17, 17)))
        with pytest.raises(BudgetExceededError):
            ric_exact(m, 2)
        small = SensingMatrix.from_array(rng.standard_normal((8, 10)))
        with pytest.raises(BudgetExceededError):
            ric_exact(small, 7)

    def test_bad_k(self, identity4):
        with pytest.raises(InvalidInputError):
            ric_exact(identity4, 0)
        with pytest.raises(InvalidInputError):
            ric_exact(identity4, 5)
        for k in (0, 5):
            with pytest.raises(InvalidInputError, match=rf"k must be in \[1, 4\], got {k}"):
                isometry_report(identity4, k)


class TestRocExact:
    def test_identity(self, identity4):
        assert roc_exact(identity4, 1, 1) == 0.0

    def test_tri_matrix_singletons(self, tri_matrix):
        assert roc_exact(tri_matrix, 1, 1) == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_theta11_equals_coherence(self):
        rng = np.random.default_rng(3)
        m = SensingMatrix.from_array(rng.standard_normal((5, 9)))
        assert abs(roc_exact(m, 1, 1) - coherence(m)) <= 1e-12

    def test_size_validation(self, identity4):
        with pytest.raises(InvalidInputError):
            roc_exact(identity4, 3, 2)
        with pytest.raises(InvalidInputError):
            roc_exact(identity4, 0, 1)

    def test_budget(self):
        rng = np.random.default_rng(0)
        m = SensingMatrix.from_array(rng.standard_normal((17, 17)))
        with pytest.raises(BudgetExceededError):
            roc_exact(m, 1, 1)


class TestCoherenceBoundsOnExactConstants:
    """The substitutions delta_k <= (k-1)mu and theta_{k,k} <= delta_2k."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ric_below_coherence_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 13))
        m = SensingMatrix.from_array(rng.standard_normal((max(4, n - 4), n)))
        mu = coherence(m)
        for k in (2, 3):
            assert ric_exact(m, k) <= (k - 1) * mu + 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_roc_below_ric_2k(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = SensingMatrix.from_array(rng.standard_normal((6, 10)))
        for k in (1, 2):
            assert roc_exact(m, k, k) <= ric_exact(m, 2 * k) + 1e-10


class TestGenerateMatrix:
    def test_gaussian_deterministic(self):
        a = generate_matrix("gaussian-normalized", 6, 12, 42)
        b = generate_matrix("gaussian-normalized", 6, 12, 42)
        assert np.array_equal(a.entries, b.entries)
        c = generate_matrix("gaussian-normalized", 6, 12, 43)
        assert not np.array_equal(a.entries, c.entries)

    def test_gaussian_unit_columns(self):
        a = generate_matrix("gaussian-normalized", 6, 12, 0)
        assert np.allclose(np.linalg.norm(a.entries, axis=0), 1.0, atol=1e-12)

    def test_ipo_coherence_is_inverse_sqrt_m(self):
        a = generate_matrix("identity-plus-orthobasis", 64, 128, 0)
        assert abs(a.mu - 0.125) <= 1e-12
        b = generate_matrix("identity-plus-orthobasis", 16, 32, 0)
        assert abs(b.mu - 0.25) <= 1e-12

    def test_ipo_shape_constraints(self):
        with pytest.raises(InvalidInputError):
            generate_matrix("identity-plus-orthobasis", 8, 17, 0)
        with pytest.raises(InvalidInputError):
            generate_matrix("identity-plus-orthobasis", 12, 24, 0)  # not a power of two
        with pytest.raises(InvalidInputError, match="m must be >= 1, got 0"):
            generate_matrix("gaussian-normalized", 0, 3, 0)
        with pytest.raises(InvalidInputError, match="gaussian-normalized needs n >= m, got 4x3"):
            generate_matrix("gaussian-normalized", 4, 3, 0)

    def test_explicit_round_trip_up_to_normalization(self):
        raw = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        a = generate_matrix("explicit", 2, 3, 0, entries=raw)
        norms = np.linalg.norm(raw, axis=0)
        assert np.allclose(a.entries, raw / norms, atol=1e-15)

    def test_explicit_requires_entries(self):
        with pytest.raises(InvalidInputError):
            generate_matrix("explicit", 2, 3, 0)
        with pytest.raises(InvalidInputError,
                           match=r"explicit entries have shape \(3, 2\), expected \(2, 3\)"):
            generate_matrix("explicit", 2, 3, 0, entries=np.ones((3, 2)))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            generate_matrix("fourier", 4, 8, 0)


class TestMatrixText:
    def test_round_trip_bitwise(self):
        a = generate_matrix("gaussian-normalized", 5, 9, 17)
        again = read_matrix_text(write_matrix_text(a))
        assert np.array_equal(a.entries, again.entries)

    def test_header(self):
        a = generate_matrix("gaussian-normalized", 3, 5, 0)
        assert write_matrix_text(a).splitlines()[0] == "3 5"

    def test_malformed(self):
        with pytest.raises(InvalidInputError):
            read_matrix_text("2 2\n1.0 0.0 0.0")
        with pytest.raises(InvalidInputError):
            read_matrix_text("2 two\n1 0 0 1")

    @pytest.mark.parametrize("text", ["-1 -1\n1.0", "0 3\n", "2 -3\n"])
    def test_sizes_below_one_name_the_header(self, text):
        with pytest.raises(InvalidInputError, match="bad matrix header"):
            read_matrix_text(text)


class TestIsometryReport:
    def test_within_budget(self, tri_matrix):
        report = isometry_report(tri_matrix, 1)
        assert report.delta_exact is not None
        assert report.theta_exact is not None
        assert report.delta_coherence_bound == 0.0
        assert report.delta_exact <= 1e-10

    def test_out_of_budget_falls_back_to_bound(self):
        a = generate_matrix("gaussian-normalized", 20, 40, 0)
        report = isometry_report(a, 3)
        assert report.delta_exact is None
        assert report.delta_coherence_bound == pytest.approx(2 * a.mu)


def test_tall_matrix_rejected():
    with pytest.raises(InvalidInputError):
        SensingMatrix.from_array(np.ones((3, 2)))
    with pytest.raises(InvalidInputError, match=r"matrix must be 2-d, got shape \(3,\)"):
        SensingMatrix.from_array(np.ones(3))
    with pytest.raises(InvalidInputError, match="matrix must be nonempty, got 0x0"):
        SensingMatrix.from_array(np.empty((0, 0)))


def test_overflowing_column_norm_rejected():
    # finite entries whose squares overflow: normalizing by an infinite norm
    # would turn the column into zeros
    with pytest.raises(InvalidInputError, match="column 2"):
        SensingMatrix.from_array(np.array([[1.0, 1e200], [0.0, 1e200]]))
