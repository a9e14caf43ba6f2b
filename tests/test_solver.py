"""Exact solver: enumeration, optimality against naive search, pruning, budget."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from jrvoting.axioms import check_jr, exists_sjr_committee, oracle_check_jr, oracle_check_sjr
from jrvoting.cli import main
from jrvoting.core import (
    AV,
    BallotProfile,
    BudgetExhausted,
    Committee,
    MAV,
    SAV,
    TieBreak,
    WeightVector,
    normalize_profile,
    score_committee,
    wpav_objective,
)
from jrvoting.corpus import build_fixture
from jrvoting.rules import compute_ejrav, compute_ujrav
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


def _objectives(m):
    return {
        "av": AV,
        "sav": SAV,
        "mav": MAV,
        "pav": wpav_objective(WeightVector.harmonic(m)),
        "cc": wpav_objective(WeightVector.coverage(m)),
    }


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
            objective = _objectives(profile.m)[kind]
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

    def test_search_sees_only_merged_ballot_groups(self):
        for raw, k in random_instances(seed=505, count=40, max_n=12, max_m=7, cultures=["urn"]):
            # the stream's ballots all have multiplicity 1, repeats included
            profile = normalize_profile(raw)
            expanded = profile.expand()
            for objective in _objectives(profile.m).values():
                for tiebreak in TieBreak:
                    assert _solve(profile, k, objective, tiebreak) == _solve(
                        expanded, k, objective, tiebreak
                    )
            for search in (compute_ujrav, compute_ejrav, exists_sjr_committee):
                assert search(profile, k) == search(expanded, k)

    def test_mav_agrees_with_naive_enumeration_on_mixed_ballot_sizes(self):
        # one demand per ballot size: mix the sizes, from empty ballots to
        # ballots approving every candidate, and fill every seat now and then
        rng = random.Random("mav-sizes")
        for raw, k in random_instances(seed=808, count=60, max_n=7, max_m=7,
                                       cultures=["uniform", "fixed", "urn"]):
            m = raw.num_candidates
            groups = [(b.approved, b.multiplicity) for b in raw.ballots]
            if rng.random() < 0.5:
                groups.append(((), rng.randint(1, 2)))
            if rng.random() < 0.5:
                groups.append((range(m), 1))
            profile = BallotProfile.from_groups(m, groups)
            if rng.random() < 0.25:
                k = m
            score, co = naive_optimize(profile, k, MAV)
            passing = [w for w in co if oracle_check_jr(profile, k, Committee(w))]
            lex = _solve(profile, k, MAV)
            assert (lex.committee.members, lex.score) == (co[0], score)
            preferred = _solve(profile, k, MAV, TieBreak.PREFER_JR)
            assert preferred.committee.members == (passing or co)[0]
            assert preferred.score == score

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

    def test_prefer_jr_falls_back_when_no_co_optimum_qualifies(self):
        # unique approval optimum {1,2,3} fails representation: fall back to it
        fixture = build_fixture("thm4")
        result = _solve(fixture.profile, 3, AV, tiebreak=TieBreak.PREFER_JR)
        assert result.committee.members == (1, 2, 3)

    def test_prefer_jr_takes_the_first_co_optimum_providing_jr(self):
        for profile, k in random_instances(seed=606, count=40, max_n=10, max_m=7, cultures=["urn"]):
            for objective in _objectives(profile.m).values():
                _, co = naive_optimize(profile, k, objective)
                passing = [w for w in co if oracle_check_jr(profile, k, Committee(w))]
                result = _solve(profile, k, objective, TieBreak.PREFER_JR)
                assert result.committee.members == (passing or co)[0]

    def test_lexicographic_mode_reports_no_co_optimal_count(self):
        profile = profile_of(3, ({0, 1}, 1), ({2}, 1))
        assert _solve(profile, 2, SAV).co_optimal_count is None

    def test_prefer_jr_mode_reports_no_co_optimal_count(self):
        # the one-pass search stops walking ties once an optimum providing
        # JR is held, so it does not count them
        profile = profile_of(3, ({0, 1}, 1), ({2}, 1))
        assert _solve(profile, 2, SAV, TieBreak.PREFER_JR).co_optimal_count is None


class TestGreedyFloorAndOnePassTies:
    @staticmethod
    def _instances():
        cultures = ["uniform", "urn", "fixed"]
        yield from random_instances(seed=909, count=60, max_n=9, min_m=4, max_m=9,
                                    cultures=cultures)
        # disjoint blocs of consecutive candidates with tied approval counts:
        # the first optimum seats the early blocs and often leaves a later
        # bloc, a quota, unrepresented, so prefer-JR settles further on
        rng = random.Random("one-pass ties")
        for _ in range(80):
            m = rng.randint(4, 9)
            cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(3, m - 1))))
            groups = [(range(a, b), rng.randint(1, 2)) for a, b in zip([0] + cuts, cuts + [m])]
            if rng.random() < 0.5:
                groups.append((rng.sample(range(m), rng.randint(1, m)), 1))
            yield BallotProfile.from_groups(m, groups), rng.randint(2, m - 1)

    def test_both_tie_breaks_agree_with_naive_enumeration(self):
        # the greedy floor must prune no optimum, and the one-pass prefer-JR
        # search must settle on the first optimum providing JR, or else the
        # first optimum
        for profile, k in self._instances():
            m = profile.m
            stepped = WeightVector.from_values(([1, 1, Fraction(1, 3), Fraction(1, 3)] + [0] * m)[:m])
            for objective in (
                SAV,
                wpav_objective(WeightVector.harmonic(m)),
                wpav_objective(WeightVector.coverage(m)),
                wpav_objective(stepped),
                wpav_objective(WeightVector.all_ones(m)),
            ):
                score, co = naive_optimize(profile, k, objective)
                passing = next(
                    (w for w in co if oracle_check_jr(profile, k, Committee(w))), co[0]
                )
                lex = _solve(profile, k, objective)
                assert (lex.committee.members, lex.score) == (co[0], score)
                preferred = _solve(profile, k, objective, TieBreak.PREFER_JR)
                assert (preferred.committee.members, preferred.score) == (passing, score)

    def test_no_floor_under_a_leaf_requirement(self):
        # 1 voter on c0, two on {c1, c2, c3}: the greedy approval committee
        # {1, 2, 3} scores 6 and leaves the lone voter, a quota at k = 3,
        # unrepresented; every JR committee holds c0 and scores 5 at most.
        # A floor at 6 would reject every JR committee.
        profile = build_fixture("thm4").profile
        k = 3
        assert _solve(profile, k, AV).committee.members == (1, 2, 3)
        assert not oracle_check_jr(profile, k, Committee((1, 2, 3)))
        justified = [
            w for w in itertools.combinations(range(profile.m), k)
            if oracle_check_jr(profile, k, Committee(w))
        ]
        assert max(score_committee(profile, Committee(w), AV) for w in justified) == 5
        approvals = {w: score_committee(profile, Committee(w), AV) for w in justified}
        best = max(approvals.values())
        assert compute_ujrav(profile, k).members == next(w for w in justified if approvals[w] == best)
        strong = next(
            w for w in itertools.combinations(range(profile.m), k)
            if oracle_check_sjr(profile, k, Committee(w))
        )
        assert exists_sjr_committee(profile, k).members == strong

    def test_prefer_jr_stops_on_the_plateau_once_jr_is_held(self):
        # every committee with one candidate from each bloc covers all four
        # voters: nine co-optima.  The greedy floor, {0, 3}, is the ceiling 4.
        # Under {0} (score 2) seating 1 or 2 gains 0, so {0} bounds both
        # children at 2 and skips them unvisited; {0, 3} reaches the ceiling,
        # is checked at once, provides JR, and the search ends there.
        # Walking the whole plateau took 18 nodes
        profile = profile_of(6, ({0, 1, 2}, 2), ({3, 4, 5}, 2))
        objective = wpav_objective(WeightVector.coverage(6))
        assert len(naive_optimize(profile, 2, objective)[1]) == 9
        result = _solve(profile, 2, objective, TieBreak.PREFER_JR)
        assert result.committee.members == (0, 3)
        assert result.score == 4
        assert result.nodes_explored == 3  # root, {0}, {0, 3}

    def test_prefer_jr_stops_at_a_tie_on_the_ceiling(self):
        # MAV's ceiling is distance 3, set by the five-candidate ballot.  The
        # first committee there, {1, 2}, leaves the voter on {3}, a quota at
        # k = 2, unrepresented; it is checked at once and fails.  The tie
        # {1, 3} provides JR and ends the search
        profile = profile_of(6, {1, 2, 3, 4, 5}, {3})
        score, co = naive_optimize(profile, 2, MAV)
        assert co[:2] == [(1, 2), (1, 3)]
        assert not oracle_check_jr(profile, 2, Committee(co[0]))
        result = _solve(profile, 2, MAV, TieBreak.PREFER_JR)
        assert (result.committee.members, result.score) == ((1, 3), score)
        assert result.nodes_explored == 10

    def test_greedy_floor_prunes_before_the_first_incumbent(self):
        # the greedy committee {1, 2} scores 3/2.  At the root, c0 gains 0
        # and the largest gain after it is 1, so the root bounds {0} at 1 and
        # skips it before any leaf is seen.  Without the floor the search
        # took 6 nodes
        profile = profile_of(3, {1, 2})
        result = _solve(profile, 2, wpav_objective(WeightVector.harmonic(3)))
        assert result.committee.members == (1, 2)
        assert result.score == Fraction(3, 2)
        assert result.nodes_explored == 3  # root, {1}, {1, 2}


class TestBitsetSearch:
    # each bit stands for one unit of a base-64 digit of its group's
    # multiplicity: these carry into a new digit, or sit just below one
    MULTIPLICITIES = (1, 63, 64, 65, 4095, 4096, 10**9)

    @classmethod
    def _carrying(cls, seed, count, max_m=7):
        rng = random.Random(f"carrying|{seed}")
        for raw, k in random_instances(seed=seed, count=count, max_n=8, max_m=max_m,
                                       cultures=["uniform", "urn", "fixed"]):
            groups = [(b.approved, rng.choice(cls.MULTIPLICITIES))
                      for b in normalize_profile(raw).ballots]
            yield BallotProfile.from_groups(raw.m, groups), k

    @staticmethod
    def _additive(m):
        stepped = WeightVector.from_values(([1, 1, Fraction(1, 3), Fraction(1, 3)] + [0] * m)[:m])
        return (AV, SAV, wpav_objective(WeightVector.harmonic(m)),
                wpav_objective(WeightVector.coverage(m)), wpav_objective(stepped))

    def test_both_tie_breaks_agree_with_naive_enumeration(self):
        for profile, k in self._carrying(1111, 40):
            for objective in self._additive(profile.m):
                score, co = naive_optimize(profile, k, objective)
                # the unit-ballot oracle cannot expand a billion voters;
                # check_jr agrees with it on every small stream
                passing = next((w for w in co if check_jr(profile, k, Committee(w)).passed), co[0])
                # a budget keeps approval voting off its separable fast path
                lex = _solve(profile, k, objective, budget=10**6)
                assert (lex.committee.members, lex.score) == (co[0], score)
                preferred = _solve(profile, k, objective, TieBreak.PREFER_JR)
                assert (preferred.committee.members, preferred.score) == (passing, score)

    def test_multiplicities_near_a_billion_stay_small(self, tmp_path, capsys):
        # one bit per voter would take four billion bits here; base-64 digits
        # take at most 63 bits per digit and group
        path = tmp_path / "big.profile"
        path.write_text("m 6\nk 3\n999999999: 0 1 2\n1000000000: 2 3\n"
                        "999999937: 4 5\n1000000007: 0 5\n")
        profile = profile_of(6, ({0, 1, 2}, 999999999), ({2, 3}, 1000000000),
                             ({4, 5}, 999999937), ({0, 5}, 1000000007))
        for rule, objective, tiebreak in (
            ("pav", wpav_objective(WeightVector.harmonic(6)), "lex"),
            ("cc", wpav_objective(WeightVector.coverage(6)), "lex"),
            ("sav", SAV, "prefer-jr"),
        ):
            argv = ["compute", "--rule", rule, "--tiebreak", tiebreak, "--format", "machine", str(path)]
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
            assert code == 0 and peak < 1 << 20
            score, co = naive_optimize(profile, 3, objective)
            assert out["committee"] == ",".join(map(str, co[0]))
            assert Fraction(out["score"]) == score

    def test_budget_best_so_far_scores_as_reported(self):
        # the budget counts visited nodes only: a search that visits N nodes
        # runs out under every budget below N, and not at N
        exhausted = 0
        for profile, k in self._carrying(1212, 80, max_m=9):
            for objective in self._additive(profile.m)[1:]:
                full = _solve(profile, k, objective).nodes_explored
                assert _solve(profile, k, objective, budget=full).nodes_explored == full
                for budget in range(1, full):
                    with pytest.raises(BudgetExhausted) as excinfo:
                        _solve(profile, k, objective, budget=budget)
                    err = excinfo.value
                    assert err.nodes_explored == budget + 1
                    if err.best_committee is not None:
                        exhausted += 1
                        assert err.best_score == score_committee(profile, err.best_committee, objective)
        assert exhausted > 50


class TestCeiling:
    def test_search_ends_at_the_first_committee_covering_every_voter(self):
        # {0, 1, 2} covers every voter: chamberlin-courant can do no better,
        # so the search stops at its first leaf, k + 1 nodes in
        profile = profile_of(6, ({0, 3}, 2), {1, 4}, ({2, 5}, 3), {0, 5}, {1, 3})
        result = _solve(profile, 3, wpav_objective(WeightVector.coverage(6)))
        assert result.committee.members == (0, 1, 2)
        assert result.score == 8
        assert result.nodes_explored == 4


class TestMinimaxBound:
    def test_mav_counts_only_the_approved_candidates_left(self):
        # {0, 1} is at distance 2 from both ballots.  Under {1} ballot {0} is
        # at distance 2 with one seat open but none of its candidates left,
        # so the search prunes there instead of visiting {1, 2}
        profile = profile_of(3, {0}, {1, 2})
        result = _solve(profile, 2, MAV)
        assert result.committee.members == (0, 1)
        assert result.score == 2
        assert result.nodes_explored == 5  # root, {0}, {0, 1}, {0, 2}, {1}


class TestBudget:
    def test_budget_carries_best_so_far(self):
        # the greedy floor {0, 1, 2} scores 5, the optimum.  The search
        # visits the root, {0}, {0, 1} and the leaf {0, 1, 2}, the incumbent
        # at 5; {0, 1} closes, since seating 3, 4 or 5 there adds 1 at most,
        # and {0} seats 2.  {0, 2} is the fifth node, and the sixth, {1},
        # runs out of the budget of 5.  The whole search takes 7 nodes
        profile = profile_of(6, ({0, 1}, 2), ({2, 3}, 2), ({4, 5}, 1))
        objective = wpav_objective(WeightVector.harmonic(6))
        assert _solve(profile, 3, objective).nodes_explored == 7
        with pytest.raises(BudgetExhausted) as excinfo:
            _solve(profile, 3, objective, budget=5)
        err = excinfo.value
        assert err.nodes_explored == 6
        assert err.best_committee == Committee((0, 1, 2))
        assert err.best_score == 5 == score_committee(profile, err.best_committee, objective)

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
