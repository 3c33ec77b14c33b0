import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorcs import (
    GuaranteeParams,
    InvalidInputError,
    cai_bound,
    chen_bound,
    friedlander_bound,
    ge_bound,
    haixiao_bound,
    k_ratios,
    local_bound,
)
from priorcs.baselines import THEOREMS, evaluate
from priorcs.bounds import _result, local_denominator
from priorcs.experiments import admissible_alphas, float_grid

import oracles

# Frozen oracle values (mpmath, 50 digits; see oracles.py for the evaluators).
LOCAL_RHO05_W0 = (0.9, 2.3306863292670034, 0.31426968052735446, 22.0)
LOCAL_A0_W1 = (1.0414213562373095, 2.0141873255980332, 0.27159296357867988, 29.708203932499369)
LOCAL_A1_W1 = (0.64142135623730950, 3.2702648203753262, 0.44096241842308480, 8.7258402882967551)
CAI_MU01_K2 = (4.4624314384909443, 0.94760708295868567, 5.5)
HAIXIAO_W05 = (3.5839761616160269, 0.82915619758884996, 22.0 / 3.0)
HAIXIAO_W0_A1_R1 = (2.9007331684910912, 0.73702773119008886, 11.0)
FRIEDLANDER_W1_DEN = -0.099118993643307441
CHEN_FIG4_W1 = (4.9441323247304420, 2.4142135623730950)
GE_FIG4_W1 = (5.6013580602907139, 2.7528033365105276, 2.1927120970564062)
GE_W0_A1_R1 = (4.6070044275991712, 2.3400336621456465)


# free and isometry constants the CLI can pass: None (flag not given), edges,
# and non-finite values
EDGE_VALUES = [None, 0.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan]


def params(mu=0.1, k=4, rho=0.5, alpha=0.0, w=0.0, **kw):
    return GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=w, **kw)


class TestLocalBound:
    def test_pinned_w0(self):
        res = local_bound(params())
        d, c0, c1, k_max = LOCAL_RHO05_W0
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)
        assert res.k_max == pytest.approx(k_max, abs=1e-12)
        assert local_denominator(0.1, 4, 0.5, 0.0, 0.0) == pytest.approx(d, abs=1e-12)
        assert res.valid

    def test_pinned_alpha0_w1(self):
        res = local_bound(params(alpha=0.0, w=1.0))
        _, c0, c1, k_max = LOCAL_A0_W1
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)
        assert res.k_max == pytest.approx(k_max, abs=1e-11)
        # the alpha = 0 sparsity cap grows with w
        assert res.k_max > 22.0

    def test_pinned_alpha1_w1(self):
        res = local_bound(params(alpha=1.0, w=1.0))
        d, c0, c1, _ = LOCAL_A1_W1
        assert local_denominator(0.1, 4, 0.5, 1.0, 1.0) == pytest.approx(d, abs=1e-14)
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)

    def test_matches_oracle_on_a_grid(self):
        for w in (0.0, 0.3, 0.7, 1.0):
            for alpha in (0.0, 0.5, 1.0):
                for rho in (0.25, 0.5, 1.0):
                    res = local_bound(params(rho=rho, alpha=alpha, w=w))
                    _, c0, c1, k_max = oracles.local_coeffs(0.1, 4, rho, alpha, w)
                    assert res.c0 == pytest.approx(float(c0), rel=1e-12)
                    assert res.c1 == pytest.approx(float(c1), rel=1e-12)
                    assert res.k_max == pytest.approx(float(k_max), rel=1e-12)

    def test_k_max_continuous_at_w0(self):
        for rho in (0.25, 0.5, 1.0):
            for alpha in (0.0, 0.5, 1.0):
                at_zero = local_bound(params(rho=rho, alpha=alpha, w=0.0)).k_max
                near_zero = local_bound(params(rho=rho, alpha=alpha, w=1e-9)).k_max
                assert at_zero == pytest.approx(near_zero, abs=1e-6)
                assert at_zero == pytest.approx(near_zero, rel=1e-7)

    def test_invalid_beyond_k_max(self):
        res = local_bound(params(mu=0.5, k=10, rho=1.0, alpha=1.0, w=1.0))
        assert not res.valid
        assert res.reason

    def test_empty_prior_support_degenerate(self):
        res = local_bound(params(rho=0.0))
        assert not res.valid
        assert res.c1 == 0.0
        assert "rho = 0" in res.reason

    def test_validity_equivalent_to_positive_denominator(self):
        for mu in (0.05, 0.1, 0.3):
            for k in (2, 4, 8):
                for rho in (0.5, 1.0, 2.0):
                    for alpha in (0.0, 0.5, 1.0):
                        if alpha * rho > 1.0:
                            continue  # overlap would exceed the top-k support
                        for w in (0.0, 0.4, 1.0):
                            res = local_bound(GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=w))
                            d = local_denominator(mu, k, rho, alpha, w)
                            assert res.valid == (d > 0 and k < res.k_max)
                            if res.valid:
                                assert res.c0 > 0 and res.c1 > 0


class TestLocalMonotonicity:
    W_GRID = [round(i * 0.01, 12) for i in range(101)]

    def test_decreasing_in_w_at_alpha0(self):
        for rho in (0.5, 1.0):
            values = [local_bound(params(rho=rho, alpha=0.0, w=w)) for w in self.W_GRID]
            assert all(r.valid for r in values)
            for a, b in zip(values, values[1:]):
                assert b.c0 < a.c0 and b.c1 < a.c1

    def test_increasing_in_w_at_positive_alpha_overlap(self):
        # every admissible alpha != 0 at k = 4 has alpha*rho*k >= 1
        for rho, alphas in ((0.5, (0.5, 1.0)), (1.0, (0.25, 0.5, 0.75, 1.0))):
            for alpha in alphas:
                values = [local_bound(params(rho=rho, alpha=alpha, w=w)) for w in self.W_GRID]
                assert all(r.valid for r in values)
                for a, b in zip(values, values[1:]):
                    assert b.c0 > a.c0 and b.c1 > a.c1

    def test_coefficients_shrink_with_rho(self):
        # smaller prior support, smaller coefficients (grid with rho*k >= 1)
        for alpha in (0.0, 0.5, 1.0):
            for w in (0.0, 0.5, 1.0):
                results = [local_bound(params(rho=rho, alpha=alpha, w=w))
                           for rho in (0.25, 0.5, 0.75, 1.0)]
                assert all(r.valid for r in results)
                for a, b in zip(results, results[1:]):
                    assert a.c0 < b.c0 and a.c1 < b.c1

    def test_k_max_monotonicity_in_w(self):
        ks = [local_bound(params(rho=0.5, alpha=0.0, w=w)).k_max for w in self.W_GRID]
        assert all(a < b for a, b in zip(ks, ks[1:]))  # alpha = 0: increasing
        ks = [local_bound(params(rho=0.5, alpha=1.0, w=w)).k_max for w in self.W_GRID]
        assert all(a > b for a, b in zip(ks, ks[1:]))  # alpha = 1: decreasing


class TestCaiBound:
    def test_pinned(self):
        res = cai_bound(GuaranteeParams(mu=0.1, k=2))
        c0, c1, k_max = CAI_MU01_K2
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)
        assert res.k_max == 5.5
        assert res.valid

    def test_invalid_at_boundary(self):
        res = cai_bound(GuaranteeParams(mu=0.1, k=6))
        assert not res.valid
        assert "(1 + 1/mu)/2" in res.reason
        # at k = 2, mu = 1/3 the gap 1 + mu - 2 mu k is exactly 0
        res = cai_bound(GuaranteeParams(mu=1.0 / 3.0, k=2))
        assert not res.valid and math.isnan(res.c0) and math.isnan(res.c1)
        assert res.reason == "sparsity bound violated: k = 2 >= (1 + 1/mu)/2 = 2"

    def test_vanishing_mu_limit(self):
        res = cai_bound(GuaranteeParams(mu=1e-6, k=2))
        assert res.k_max == pytest.approx(500000.5, rel=1e-12)


class TestHaixiaoBound:
    def test_w1_collapses_to_cai(self):
        for mu in (0.05, 0.1, 0.2, 0.45):
            for k in (1, 2, 3, 5):
                for rho, alpha in ((0.5, 0.3), (1.0, 1.0), (2.0, 0.0)):
                    hx = haixiao_bound(GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=1.0))
                    cai = cai_bound(GuaranteeParams(mu=mu, k=k))
                    if cai.valid:
                        assert hx.c0 == pytest.approx(cai.c0, abs=1e-12)
                        assert hx.c1 == pytest.approx(cai.c1, abs=1e-12)
                    assert hx.k_max == pytest.approx(cai.k_max, abs=1e-12)

    def test_degenerate_q_path(self):
        # w = 0, alpha = 1, rho = 1: Q = 0 and L = 2 with no division trouble
        res = haixiao_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=0.0))
        c0, c1, k_max = HAIXIAO_W0_A1_R1
        assert res.k_max == pytest.approx(k_max, abs=1e-12)
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)

    def test_pinned_intermediate_w(self):
        res = haixiao_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=0.5))
        c0, c1, k_max = HAIXIAO_W05
        assert res.valid
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)
        assert res.k_max == pytest.approx(k_max, abs=1e-12)


class TestFriedlanderBound:
    def test_negative_denominator_at_w1(self):
        res = friedlander_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, a=2.0))
        assert not res.valid
        den, *_ = oracles.friedlander_coeffs(0.1, 2, 1.0, 1.0, 1.0, 2.0)
        assert float(den) == pytest.approx(FRIEDLANDER_W1_DEN, abs=1e-12)

    def test_zero_ric_simplification(self):
        res = friedlander_bound(
            GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, a=2.0), 0.0, 0.0
        )
        s = math.sqrt(2.0)
        assert res.c0 == pytest.approx(2 * (1 + 1 / s) / (1 - 1 / s), abs=1e-12)
        assert res.c1 == pytest.approx(4 / (2 * (1 - 1 / s)), abs=1e-12)
        assert res.valid

    def test_beta_zero_case_recorded(self):
        # w = 0, alpha = 1, rho = 0.5: beta = sqrt(0.5), premise from the oracle
        res = friedlander_bound(GuaranteeParams(mu=0.1, k=2, rho=0.5, alpha=1.0, w=0.0, a=2.0))
        den, c0, c1, premise = oracles.friedlander_coeffs(0.1, 2, 0.5, 1.0, 0.0, 2.0)
        assert res.valid == bool(premise)
        assert res.c0 == pytest.approx(float(c0), rel=1e-12)
        assert res.c1 == pytest.approx(float(c1), rel=1e-12)

    def test_validity_crossover_on_w_grid(self):
        # exact crossover at mu=0.1, k=2, rho=alpha=1 sits near w = 0.877
        grid = [round(i * 0.05, 12) for i in range(21)]
        for w in grid:
            res = friedlander_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=w, a=2.0))
            assert res.valid == (w <= 0.85)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            friedlander_bound(GuaranteeParams(mu=0.1, k=2, a=1.0), 0.1, 0.1)
        with pytest.raises(InvalidInputError):
            friedlander_bound(GuaranteeParams(mu=0.1, k=2, a=1.3), 0.1, 0.1)  # a*k not integral
        with pytest.raises(InvalidInputError):
            friedlander_bound(GuaranteeParams(mu=0.1, k=2, a=2.0), 0.1, 1.2)
        with pytest.raises(InvalidInputError):
            friedlander_bound(GuaranteeParams(mu=0.1, k=2), 0.1, 0.1)  # missing a

    def test_closed_form_k_max_matches_premise(self):
        res = friedlander_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, a=2.0))
        assert res.k_max == pytest.approx(1.625, abs=1e-12)
        ok = friedlander_bound(GuaranteeParams(mu=0.1, k=1, rho=1.0, alpha=1.0, w=1.0, a=2.0))
        assert ok.valid  # k = 1 < 1.625


class TestChenBound:
    def test_pinned_fig4_point(self):
        res = chen_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0))
        c0, c1 = CHEN_FIG4_W1
        assert res.valid
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)

    def test_s_zero_reported_invalid(self):
        res = chen_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=0.0))
        assert not res.valid
        assert "s = 0" in res.reason

    def test_zero_constants_simplification(self):
        res = chen_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, a=2.0, b=2.0), 0.0, 0.0)
        d = 2.0
        assert res.c0 == pytest.approx(2 * math.sqrt(2 * d / 2.0), abs=1e-12)
        assert res.c1 == pytest.approx(2 / math.sqrt(d), abs=1e-12)

    def test_oracle_grid(self):
        for w in (0.05, 0.3, 0.6, 1.0):
            res = chen_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=w))
            s, c0, c1 = oracles.chen_coeffs(0.1, 2, 1.0, 1.0, w, 2, 2)
            assert res.c0 == pytest.approx(float(c0), rel=1e-12)
            assert res.c1 == pytest.approx(float(c1), rel=1e-12)

    def test_preconditions(self):
        p = GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, a=3.0, b=2.0)
        with pytest.raises(InvalidInputError):
            chen_bound(p, 0.1, 0.1)  # a > k
        with pytest.raises(InvalidInputError):
            chen_bound(GuaranteeParams(mu=0.1, k=2, a=2.0, b=2.0), -0.1, 0.1)
        with pytest.raises(InvalidInputError, match="b must be an integer >= 1, got 1.5"):
            chen_bound(GuaranteeParams(mu=0.1, k=2, a=2.0, b=1.5))


class TestGeBound:
    def test_pinned_fig4_point(self):
        shared = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0))
        printed = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0),
                           c1_form="printed")
        c0, c1_shared, c1_printed = GE_FIG4_W1
        assert shared.valid
        assert shared.c0 == pytest.approx(c0, abs=1e-12)
        assert shared.c1 == pytest.approx(c1_shared, abs=1e-12)
        assert printed.c1 == pytest.approx(c1_printed, abs=1e-12)
        assert printed.c0 == shared.c0

    def test_zero_ric_simplification(self):
        res = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, t=2.0), 0.0)
        assert res.c0 == pytest.approx(2 * math.sqrt(2.0), abs=1e-12)

    def test_w0_alpha1_branch(self):
        res = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=0.0))
        c0, c1 = GE_W0_A1_R1
        assert res.valid  # ups = 0 turns the premise into delta < 1
        assert res.c0 == pytest.approx(c0, abs=1e-12)
        assert res.c1 == pytest.approx(c1, abs=1e-12)
        # both c1 readings coincide when ups = 0 (g = t - d)
        printed = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=0.0),
                           c1_form="printed")
        assert printed.c1 == pytest.approx(res.c1, abs=1e-14)

    def test_low_alpha_d_branch(self):
        # alpha < 1/2 and w < 1 switches d to 1 + rho - 2 alpha rho
        res = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=0.25, w=0.5, t=3.0),
                       delta_tk=(3.0 * 2 - 1.0) * 0.1)
        prem, c0, c1, _ = oracles.ge_coeffs(0.1, 2, 1.0, 0.25, 0.5, 3.0)
        assert res.valid == bool(prem)
        assert res.c0 == pytest.approx(float(c0), rel=1e-12)
        assert res.c1 == pytest.approx(float(c1), rel=1e-12)

    def test_t_le_d_rejected(self):
        with pytest.raises(InvalidInputError):
            ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, t=1.0), 0.1)
        with pytest.raises(InvalidInputError, match="unknown c1_form 'other'"):
            ge_bound(GuaranteeParams(mu=0.1, k=2), c1_form="other")

    def test_premise_failure_recorded(self):
        res = ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=1.0, w=1.0, t=2.0), 0.9)
        assert not res.valid
        assert "premise" in res.reason or "undefined" in res.reason


class TestKRatio:
    def test_standard_ratio_pinned(self):
        standard, _ = k_ratios(params())
        assert standard == pytest.approx(4.0, abs=1e-12)

    def test_weighted_ratio_at_w1(self):
        # L = 1 at w = 1, so the weighted baseline equals the standard one
        standard, weighted = k_ratios(params(alpha=0.3, w=1.0))
        assert weighted == pytest.approx(standard, abs=1e-12)

    def test_ratios_above_one_on_default_grids(self):
        for rho in (0.5, 0.75):
            for alpha in np.linspace(0.0, 1.0, 21):
                for w in np.linspace(0.0, 1.0, 21):
                    p = GuaranteeParams(mu=0.1, k=4, rho=rho, alpha=float(alpha), w=float(w))
                    standard, weighted = k_ratios(p)
                    assert standard > 1.0
                    assert weighted > 1.0

    def test_non_positive_baseline_rejected(self):
        # haixiao's L loses every digit to cancellation at this spread, so its k_max is 0
        with pytest.raises(InvalidInputError, match="baseline k_max must be positive, got 0.0"):
            k_ratios(params(rho=1e17, w=np.array([0.5, 0.0])))


class TestEvaluate:
    def test_without_constants_each_theorem_is_its_coherence_form(self):
        p = params(k=2, rho=1.0, alpha=1.0, w=0.5)
        forms = [local_bound, cai_bound, haixiao_bound,
                 friedlander_bound, chen_bound, ge_bound]
        assert list(THEOREMS) == ["local", "cai", "haixiao", "friedlander", "chen", "ge"]
        for name, form in zip(THEOREMS, forms):
            assert evaluate(name, p) == form(p)

    def test_full_sets_use_the_explicit_form(self):
        p = params(k=2, rho=1.0, alpha=1.0, w=0.5, a=2.0, b=2.0, t=3.0)
        assert evaluate("friedlander", p, delta_ak=0.1, delta_a1k=0.2) \
            == friedlander_bound(p, 0.1, 0.2)
        assert evaluate("chen", p, delta_a=0.1, theta_ab=0.2) == chen_bound(p, 0.1, 0.2)
        assert evaluate("ge", p, delta_tk=0.1) == ge_bound(p, 0.1)

    def test_constants_of_other_theorems_and_none_are_ignored(self):
        p = params(k=2, rho=1.0, alpha=1.0, w=0.5)
        assert evaluate("chen", p, delta_ak=0.1, delta_tk=0.1, delta_a=None) \
            == chen_bound(p)
        assert evaluate("local", p, delta_tk=0.1) == local_bound(p)

    def test_partial_set_and_unknown_name_rejected(self):
        p = params(k=2, rho=1.0, alpha=1.0, w=0.5)
        with pytest.raises(InvalidInputError, match="missing theta_ab"):
            evaluate("chen", p, delta_a=0.9)
        with pytest.raises(InvalidInputError, match="missing delta_ak"):
            evaluate("friedlander", p, delta_ak=None, delta_a1k=0.2)
        with pytest.raises(InvalidInputError):
            evaluate("candes", p)

    @settings(max_examples=1000, deadline=None)
    @given(
        name=st.sampled_from(list(THEOREMS)),
        point=st.sampled_from([(0.01, 1, 0.0, 0.0, 1.0), (0.1, 2, 1.0, 0.5, 0.5),
                               (0.25, 3, 2.0, 0.25, 0.0), (0.5, 6, 0.5, 1.0, 1.0),
                               (1.0, 4, 1.0, 0.0, 0.0)]),
        free=st.tuples(*[st.sampled_from(EDGE_VALUES)] * 3),
        constants=st.fixed_dictionaries(
            {c: st.sampled_from(EDGE_VALUES) for *_, own in THEOREMS.values() for c in own}),
    )
    def test_any_constants_give_a_result_or_invalid_input(self, name, point, free, constants):
        mu, k, rho, alpha, w = point
        a, b, t = free
        try:
            res = evaluate(name, GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=w,
                                                 a=a, b=b, t=t), **constants)
        except InvalidInputError:
            return
        assert res.theorem == name


class TestValidityMonotoneInMu:
    def test_shrinking_mu_preserves_validity(self):
        mus = (0.3, 0.2, 0.1, 0.05, 0.01)
        makers = (
            local_bound,
            cai_bound,
            haixiao_bound,
            lambda p: friedlander_bound(p),
            lambda p: chen_bound(p),
            lambda p: ge_bound(p),
        )
        for maker in makers:
            for rho, alpha, w in ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 0.0, 0.25)):
                seen_valid = False
                for mu in mus:
                    # t = 4 keeps the ge structural precondition t > d satisfied
                    # at every (rho, alpha, w) visited here
                    res = maker(GuaranteeParams(mu=mu, k=2, rho=rho, alpha=alpha, w=w, t=4.0))
                    if seen_valid:
                        assert res.valid, f"{res.theorem} lost validity shrinking mu to {mu}"
                    seen_valid = seen_valid or res.valid


class TestParamsValidation:
    def test_ranges(self):
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.0, k=2)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=1.5, k=2)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.1, k=0)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.1, k=2, alpha=1.2)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.1, k=2, w=-0.1)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.1, k=2, rho=-1.0)
        with pytest.raises(InvalidInputError):
            GuaranteeParams(mu=0.1, k=2, rho=2.0, alpha=1.0)  # overlap exceeds k

    def test_replace_and_make_check_too(self):
        p = GuaranteeParams(mu=0.1, k=2)
        with pytest.raises(InvalidInputError, match="mu must be in"):
            p._replace(mu=2.0)
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            GuaranteeParams._make([0.1, 0])
        q = p._replace(w=0.5)
        assert type(q) is GuaranteeParams and q.w == 0.5 and q[:2] == (0.1, 2)


def bits(values):
    """Bit patterns of floats, every nan mapped to one pattern."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), -1, values.view(np.int64))


def blocks(pairs, ws):
    rho, alpha = np.array(pairs, dtype=float).T
    return np.repeat(rho, len(ws)), np.repeat(alpha, len(ws)), np.tile(ws, len(pairs))


class TestReasons:
    """A point's reason joins, in check order, the texts of the checks it fails."""

    @staticmethod
    def expected(checks, idx):
        return "; ".join(text.format(values[0][idx]) if values else text
                         for holds, text, *values in checks if not holds[idx])

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    def test_each_point_joins_its_failed_checks(self, order):
        rng = np.random.default_rng(1)
        shape = (4, 6)
        value = rng.standard_normal(shape)
        # a text without a value is taken as it is, braces included
        checks = [(rng.random(shape) < 0.7, "a {}"), (rng.random(shape) < 0.7, "b = {:.3g}", value),
                  (rng.random(shape) < 0.7, "c")]
        checks = [checks[i] for i in order]
        res = _result("t", shape, 1.0, 2.0, 3.0, *checks)
        assert res.reason.shape == shape and res.valid.shape == shape
        for idx in np.ndindex(shape):
            assert res.reason[idx] == self.expected(checks, idx)
            assert res.valid[idx] == all(holds[idx] for holds, *_ in checks)
        assert (~res.valid).any() and res.valid.any()
        assert any("; " in reason for reason in res.reason.ravel())

    def test_grid_of_one(self):
        res = _result("t", (), 1.0, 2.0, 3.0, (False, "a"), (True, "b"),
                      (np.array(False), "k_max = {:.6g}", np.float64(2.5)))
        assert res.reason == "a; k_max = 2.5" and res.valid is False and res.c0 == 1.0
        assert _result("t", (), 1.0, 2.0, 3.0, (True, "a")).reason == ""


class TestGridIndependence:
    """A point's result does not depend on the grid it is evaluated in."""

    W = np.array(float_grid(0.001))
    FIG1 = [(rho, alpha) for rho in (0.5, 1.0, 1.5, 2.0) for alpha in admissible_alphas(rho, 8)]
    FIG3 = [(rho, alpha) for rho in (0.5, 0.75) for alpha in float_grid(0.05)]
    # (mu, k, blocks): the fig1 benchmark blocks and the fig3 default blocks, at
    # coherences where every theorem has valid and invalid points
    SETTINGS = [(0.02, 8, FIG1), (0.0825, 8, FIG1), (0.05, 4, FIG3), (0.1, 4, FIG3)]

    @staticmethod
    def assert_same(grid, index, other):
        for field in ("c0", "c1", "k_max"):
            assert np.array_equal(bits(getattr(grid, field)[index]), bits(getattr(other, field))), field
        assert np.array_equal(grid.valid[index], other.valid)
        assert np.array_equal(grid.reason[index], other.reason)

    @pytest.mark.parametrize("name", list(THEOREMS))
    def test_points_match_the_grid_of_one_and_a_reversed_subgrid(self, name):
        seen_valid = seen_invalid = 0
        for mu, k, pairs in self.SETTINGS:
            rho, alpha, w = blocks(pairs, self.W)
            # t = 4 keeps ge's t > d on every block; only ge reads t
            grid = evaluate(name, GuaranteeParams(mu=mu, k=k, rho=rho, alpha=alpha, w=w, t=4.0))
            seen_valid += grid.valid.sum()
            seen_invalid += (~grid.valid).sum()
            sub = slice(None, None, -3)
            reversed_sub = evaluate(
                name, GuaranteeParams(mu=mu, k=k, rho=rho[sub], alpha=alpha[sub], w=w[sub], t=4.0))
            self.assert_same(grid, sub, reversed_sub)
            # every 61st point, and both sides of every change of verdict
            flips = np.flatnonzero(grid.valid[1:] != grid.valid[:-1])
            for i in sorted(set(range(0, rho.size, 61)) | set(flips) | set(flips + 1)):
                one = evaluate(name, GuaranteeParams(mu=mu, k=k, rho=float(rho[i]),
                                                     alpha=float(alpha[i]), w=float(w[i]), t=4.0))
                assert isinstance(one.c0, float) and isinstance(one.valid, bool)
                self.assert_same(grid, i, one)
        assert seen_valid and seen_invalid

    def test_first_failing_point_names_the_error(self):
        # d = 1 + rho/2 where w < 1: points 2 and 3 fail, with d = 1.5 and 1.4
        p = GuaranteeParams(mu=0.1, k=2, rho=np.array([1.0, 1.0, 1.0, 0.8]), alpha=0.25,
                            w=np.array([1.0, 1.0, 0.5, 0.3]), t=1.2)
        with pytest.raises(InvalidInputError) as alone:
            ge_bound(GuaranteeParams(mu=0.1, k=2, rho=1.0, alpha=0.25, w=0.5, t=1.2), 0.1)
        assert str(alone.value) == "t must exceed d, got t = 1.2, d = 1.5"
        with pytest.raises(InvalidInputError, match="^t must exceed d, got t = 1.2, d = 1.5$"):
            ge_bound(p, 0.1)
        # the first failing point, with the first check it fails
        with pytest.raises(InvalidInputError, match=r"^alpha\*rho must be <= 1, got 1.5 "):
            GuaranteeParams(mu=0.1, k=2, rho=np.array([1.0, 1.5, -1.0]), alpha=1.0,
                            w=np.array([0.5, 2.0, 0.5]))
        # a bad free constant fails every point, so the first point reports it
        with pytest.raises(InvalidInputError, match="^a must be finite, got inf$"):
            GuaranteeParams(mu=0.1, k=2, rho=np.array([1.0, -1.0]), alpha=0.5, a=math.inf)

