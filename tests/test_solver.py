"""Exact solver: enumeration, optimality against naive search, pruning, budget."""

import pytest

from jrvoting.axioms import exists_sjr_committee
from jrvoting.core import (
    AV,
    BudgetExhausted,
    Committee,
    MAV,
    SAV,
    TieBreak,
    WeightVector,
    score_committee,
    wpav_objective,
)
from jrvoting.corpus import build_fixture
from jrvoting.solver import (
    OptimizationRequest,
    enumerate_committees,
    optimize_committee,
)

from conftest import naive_optimize, profile_of, random_instances


class TestEnumerate:
    def test_lexicographic_order(self):
        assert [c.members for c in enumerate_committees(3, 2)] == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_full_committee(self):
        assert [c.members for c in enumerate_committees(4, 4)] == [(0, 1, 2, 3)]

    def test_count(self):
        assert sum(1 for _ in enumerate_committees(4, 2)) == 6

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            list(enumerate_committees(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_committees(3, 4))


def _solve(profile, k, objective, tiebreak=TieBreak.LEXICOGRAPHIC, budget=None):
    request = OptimizationRequest(profile, k, objective, tiebreak, budget)
    return optimize_committee(request)


class TestKnownOptima:
    def test_av_prefers_the_slate(self):
        # 1 voter on c0, two voters on {c1,c2,c3}
        fixture = build_fixture("thm4")
        result = _solve(fixture.profile, 3, AV)
        assert result.committee.members == (1, 2, 3)
        assert result.score == 6

    def test_mav_transversal(self):
        fixture = build_fixture("thm5_mav", k=2)
        result = _solve(fixture.profile, 2, MAV)
        assert result.committee.members == (0, 1)
        assert result.score == 3

    def test_sav_narrow_ballots_win(self):
        fixture = build_fixture("thm5_sav", k=2)
        result = _solve(fixture.profile, 2, SAV)
        assert result.committee.members == (3, 4)
        assert result.score == 1

    def test_single_feasible_committee(self):
        profile = profile_of(3, ({0}, 1))
        for objective in (AV, SAV, MAV, wpav_objective(WeightVector.harmonic(3))):
            assert _solve(profile, 3, objective).committee.members == (0, 1, 2)

    def test_wpav_lex_among_co_optima(self):
        # 98 x {a,b}, 1 x {c}, 1 x {d}: {a,b,c} and {a,b,d} tie at 148
        profile = profile_of(4, ({0, 1}, 98), {2}, {3})
        objective = wpav_objective(WeightVector.harmonic(4))
        score, co = naive_optimize(profile, 3, objective)
        assert score == 148 and co == [(0, 1, 2), (0, 1, 3)]
        result = _solve(profile, 3, objective)
        assert result.committee.members == (0, 1, 2)
        assert result.score == 148


class TestOptimalityOracle:
    @pytest.mark.parametrize("kind", ["av", "sav", "mav", "pav", "cc"])
    def test_agrees_with_naive_enumeration(self, kind):
        for profile, k in random_instances(seed=101, count=40, max_n=8, max_m=7):
            if kind == "pav":
                objective = wpav_objective(WeightVector.harmonic(profile.m))
            elif kind == "cc":
                objective = wpav_objective(WeightVector.coverage(profile.m))
            else:
                objective = {"av": AV, "sav": SAV, "mav": MAV}[kind]
            score, co = naive_optimize(profile, k, objective)
            result = _solve(profile, k, objective)
            assert result.score == score
            assert result.committee.members == co[0]

    def test_agrees_with_naive_enumeration_at_larger_m(self):
        for seed, (m, k) in enumerate([(10, 4), (11, 3), (12, 5)]):
            profile, _ = next(
                iter(random_instances(seed=300 + seed, count=1, max_n=9, min_m=m, max_m=m))
            )
            objective = wpav_objective(WeightVector.harmonic(m))
            score, co = naive_optimize(profile, k, objective)
            result = _solve(profile, k, objective)
            assert result.score == score and result.committee.members == co[0]

    def test_pruning_never_changes_the_answer(self):
        for profile, k in random_instances(seed=202, count=30, max_n=8, max_m=7):
            for objective in (
                MAV,
                SAV,
                wpav_objective(WeightVector.harmonic(profile.m)),
            ):
                pruned = _solve(profile, k, objective)
                score, co = naive_optimize(profile, k, objective)
                assert pruned.committee.members == co[0]
                assert pruned.score == score

    def test_repeat_runs_identical(self):
        profile = profile_of(5, ({0, 1}, 3), ({2, 3}, 2), ({4}, 1))
        objective = wpav_objective(WeightVector.harmonic(5))
        first = _solve(profile, 2, objective)
        second = _solve(profile, 2, objective)
        assert first == second


class TestTieBreak:
    def test_prefer_jr_filters_co_optima(self):
        # {0,1} x1, {2} x1: all three pairs score 2 under approval;
        # only committees covering voter 2 provide representation.
        profile = profile_of(3, ({0, 1}, 1), ({2}, 1))
        lex = _solve(profile, 2, AV)
        assert lex.committee.members == (0, 1)
        preferred = _solve(profile, 2, AV, tiebreak=TieBreak.PREFER_JR)
        assert preferred.committee.members == (0, 2)
        assert preferred.co_optimal_count == 3

    def test_prefer_jr_falls_back_when_no_co_optimum_qualifies(self):
        # unique approval optimum {1,2,3} fails representation: fall back to it
        fixture = build_fixture("thm4")
        result = _solve(fixture.profile, 3, AV, tiebreak=TieBreak.PREFER_JR)
        assert result.committee.members == (1, 2, 3)
        assert result.co_optimal_count == 1

    def test_lexicographic_mode_reports_no_co_optimal_count(self):
        profile = profile_of(3, ({0, 1}, 1), ({2}, 1))
        assert _solve(profile, 2, SAV).co_optimal_count is None


class TestBudget:
    def test_budget_carries_best_so_far(self):
        profile = profile_of(6, ({0, 1}, 2), ({2, 3}, 2), ({4, 5}, 1))
        objective = wpav_objective(WeightVector.harmonic(6))
        with pytest.raises(BudgetExhausted) as excinfo:
            _solve(profile, 3, objective, budget=12)
        err = excinfo.value
        assert err.nodes_explored == 13
        assert err.best_committee is not None
        assert err.best_score is not None

    def test_tiny_budget_may_have_no_incumbent(self):
        profile = profile_of(4, ({0}, 1))
        with pytest.raises(BudgetExhausted) as excinfo:
            _solve(profile, 2, SAV, budget=1)
        assert excinfo.value.best_committee is None

    def test_sufficient_budget_is_silent(self):
        profile = profile_of(4, ({0}, 1))
        result = _solve(profile, 2, SAV, budget=10_000)
        assert result.committee.members == (0, 1)

    def test_mav_best_so_far_carries_the_positive_distance(self):
        exhausted = 0
        for profile, k in random_instances(seed=404, count=30, max_n=8, max_m=7):
            for budget in (2, 5, 11, 23):
                try:
                    _solve(profile, k, MAV, budget=budget)
                except BudgetExhausted as err:
                    if err.best_committee is None:
                        continue
                    exhausted += 1
                    assert err.best_score == score_committee(profile, err.best_committee, MAV)
        assert exhausted > 10

    def test_budget_validation(self):
        profile = profile_of(4, ({0}, 1))
        with pytest.raises(ValueError):
            OptimizationRequest(profile, 2, SAV, budget=0)


class TestDeepSearch:
    def test_exists_sjr_at_1099_seats(self):
        # the open nodes live on an explicit stack, so k has no depth limit
        profile = profile_of(1100, {0, 1, 2})
        assert exists_sjr_committee(profile, 1099) == Committee(range(1099))


class TestRequestValidation:
    def test_k_out_of_range(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            OptimizationRequest(profile, 4, AV)
        with pytest.raises(ValueError):
            OptimizationRequest(profile, 0, AV)

    def test_weight_length_must_match(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            OptimizationRequest(profile, 2, wpav_objective(WeightVector.harmonic(5)))

    def test_nodes_explored_positive(self):
        profile = profile_of(3, ({0}, 1))
        assert _solve(profile, 2, SAV).nodes_explored > 0
