"""Exact solver: enumeration, optimality against naive search, pruning, budget."""

import collections
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from jrvoting.axioms import check_jr, exists_sjr_committee, oracle_check_jr, oracle_check_sjr
from jrvoting import solver
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
    _gain_rows,
    _greedy_rounds,
    wpav_objective,
)
from jrvoting.corpus import build_fixture
from jrvoting.rules import compute_ejrav, compute_ujrav
from jrvoting.solver import OptimizationRequest, optimize_committee

from conftest import (
    group_jr,
    group_maximin,
    naive_greedy,
    naive_optimize,
    naive_score,
    profile_of,
    random_instances,
    weighted_instances,
)


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
        # neither pass walks the ties, so neither counts them
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
        # children at 2 and skips them unvisited; {0, 3} reaches the ceiling
        # and ends the search, and it provides JR, so no second pass runs.
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
        # plain search runs in two passes.  The first visits the candidates
        # in descending approval score, 3 (two voters), then 1, 2, 4, 5 and
        # 0: the root, {3} and its first leaf {1, 3}, at the ceiling: 3
        # nodes.  The second runs in label order from distance 3: the root,
        # {0} (pruned: one seat cannot give the five-candidate ballot its two
        # winners), {1} and {1, 2}, the first committee at distance 3: 4
        # more.  {1, 2} leaves the voter on {3}, a quota at k = 2,
        # unrepresented, so prefer-JR's pass runs from distance 3: the root,
        # {0} (pruned), {1}, {1, 2} (fails JR) and the tie {1, 3}, which
        # provides JR and ends the search: 5 more, 12 in all.  In label
        # order the plain search took 9 nodes, {0} opening its five leaves
        # (distance 5) before any incumbent
        profile = profile_of(6, {1, 2, 3, 4, 5}, {3})
        score, co = naive_optimize(profile, 2, MAV)
        assert co[:2] == [(1, 2), (1, 3)]
        assert not oracle_check_jr(profile, 2, Committee(co[0]))
        result = _solve(profile, 2, MAV, TieBreak.PREFER_JR)
        assert (result.committee.members, result.score) == ((1, 3), score)
        assert result.nodes_explored == 12

    def test_prefer_jr_second_pass_ends_at_its_first_accepted_leaf(self):
        # MAV's ceiling is distance 1, which no committee reaches.  The first
        # pass visits the root, {0} and its four leaves (the demand search
        # bounds no children), the first, {0, 1}, at distance 3.  Distance 2
        # needs two winners of the three-candidate ballot and one of the
        # voter on {2}.  {1} can still reach both, but its one open seat
        # pays at most one of the two winners they lack (2 and 3 each pay
        # one, 4 none), so it is pruned, and {2} and {3} cannot give the
        # three-candidate ballot its two: 9 nodes.  Without the count {1}
        # opened its three leaves.
        # {0, 1} leaves the voter on {2}, a quota at k = 2, unrepresented, so
        # the second pass visits the root, {0}, {0, 1} (fails JR) and {0, 2},
        # which is worth the first optimum, provides JR and ends the search:
        # 4 more, 13 in all
        profile = profile_of(5, {0, 1, 3}, {2})
        score, co = naive_optimize(profile, 2, MAV)
        assert (score, co[:2]) == (3, [(0, 1), (0, 2)])
        result = _solve(profile, 2, MAV, TieBreak.PREFER_JR)
        assert (result.committee.members, result.score) == ((0, 2), 3)
        assert result.nodes_explored == 13
        with pytest.raises(BudgetExhausted) as excinfo:
            _solve(profile, 2, MAV, TieBreak.PREFER_JR, budget=12)
        assert excinfo.value.best_committee == Committee((0, 1))

    def test_prefer_jr_costs_nothing_when_the_first_optimum_provides_jr(self):
        # the first optimum is checked once; only if it fails JR does a
        # second pass run
        second = 0
        for profile, k in self._instances():
            for objective in _objectives(profile.m).values():
                # a budget keeps approval voting off its separable fast path
                lex = _solve(profile, k, objective, budget=10**6)
                preferred = _solve(profile, k, objective, TieBreak.PREFER_JR)
                if check_jr(profile, k, lex.committee).passed:
                    assert preferred.nodes_explored == lex.nodes_explored
                else:
                    second += 1
                    assert preferred.nodes_explored > lex.nodes_explored
        assert second > 0

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

    def test_greedy_floor_is_the_score_of_the_naive_greedy_committee(self, monkeypatch):
        # the round loop, on the search's rows, elects the first candidate of
        # largest marginal gain each round, and the search's floor is the
        # sum of those gains: the naive greedy committee's score
        floors = []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            floors.append(search.score(floor))
            return real(search, add, undo, leaf, bound, ceiling, floor, strict)

        monkeypatch.setattr(solver._Search, "run", spy)
        for profile, k in self._carrying(1717, 40):
            sizes = set(map(len, profile.index.members))
            for objective in self._additive(profile.m):
                greedy = naive_greedy(profile, k, objective)
                score = naive_score(profile, greedy, objective)
                rows, denominator = _gain_rows(objective, sizes, k)
                winners, total = [], 0
                for best, gains in _greedy_rounds(profile, k, rows):
                    winners.append(best)
                    total += gains[best]
                assert Committee.of(winners) == greedy
                assert Fraction(total, denominator) == score
                # a budget keeps approval voting off its separable fast path;
                # a search that reaches the ceiling in root-gain order runs
                # again in label order from the ceiling, so the floor is the
                # first search's
                floors.clear()
                _solve(profile, k, objective, budget=10**6)
                assert floors[0] == score

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
        for profile, k in self._carrying(1212, 160, max_m=9):
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


class TestExactChildBound:
    """A child whose worth at its parent reaches the target is visited only if
    its own exact node bound, from gains updated for the candidate it seats,
    reaches the target too.  The test is exact, so answers, scores and
    budgets in visited nodes behave as before; only node counts fall."""

    @staticmethod
    def _instances():
        # 300 seeded profiles, m 3-14, with 1 < k < m and at most 120
        # committees, so that naive enumeration stays cheap
        stream = random_instances(seed=1717, count=2000, max_n=6, min_m=3, max_m=14,
                                  cultures=["uniform", "urn", "fixed"])
        kept = ((p, k) for p, k in stream if 1 < k < p.m and math.comb(p.m, k) <= 120)
        return itertools.islice(kept, 300)

    @staticmethod
    def _additive(m):
        stepped = WeightVector.from_values(([1, 1, Fraction(1, 3), Fraction(1, 3)] + [0] * m)[:m])
        return (AV, SAV, wpav_objective(WeightVector.harmonic(m)),
                wpav_objective(WeightVector.coverage(m)), wpav_objective(stepped))

    @staticmethod
    def _check_budgets(run, nodes, expected, objective, profile):
        """``run(budget)`` answers ``expected`` at a budget of ``nodes``, and
        runs out one node past every budget below it, with a best-so-far
        scored as reported."""
        for budget in range(1, nodes):
            with pytest.raises(BudgetExhausted) as excinfo:
                run(budget)
            err = excinfo.value
            assert err.nodes_explored == budget + 1
            if err.best_committee is not None:
                assert err.best_score == score_committee(profile, err.best_committee, objective)
        assert run(nodes) == expected

    def test_a_child_failing_its_own_bound_is_skipped_unvisited(self, monkeypatch):
        # two voters on {0, 1}, two on {2, 3}, one on {4, 5}, k = 3, PAV;
        # values in halves, the rows' denominator.  The greedy floor
        # {0, 1, 2} scores 10, the optimum, below the ceiling 15, so the
        # search visits the candidates in descending root gain, 4 4 4 4 2 2:
        # label order, so positions are labels here.  Until the leaf
        # {0, 1, 2} is the incumbent a child must reach 10; after, a child
        # must reach 11 to beat it, or tie it at 10 with a committee that
        # comes first in label order.
        # - Root (score 0): {0} is worth 4 + 4 + 4 = 12.  Seating 0 halves
        #   1's gain, so {0}'s gains after it are 2 4 4 2 2 and its own
        #   bound is 4 + 4 + 4 = 12: visited.
        # - {0} (score 4): {0, 1} is worth 4 + 2 + 4 = 10 and its own bound
        #   is 6 + 4 = 10: visited, and its first leaf {0, 1, 2} scores 10.
        # - {0} then bounds {0, 2} at 4 + 4 + 4 = 12, above 11, but seating
        #   2 halves 3's gain: {0, 2}'s own bound is 8 + 2 = 10.  That only
        #   ties, and every committee below {0, 2} comes after {0, 1, 2}, so
        #   it is skipped unvisited.  Before the test it was the fifth node.
        # - The root's {1} passes at 12 and skips {1, 2} the same way.
        profile = profile_of(6, ({0, 1}, 2), ({2, 3}, 2), ({4, 5}, 1))
        objective = wpav_objective(WeightVector.harmonic(6))
        seated, asked = [], []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            chosen = []

            def seat(c):
                chosen.append(c)
                seated.append(tuple(chosen))
                add(c)

            def unseat(c):
                chosen.pop()
                undo(c)

            def bounds(start, depth, target):
                children = bound(start, depth, target)
                if not children:
                    return children
                worth, best, reaches, rest = children

                def test(c):
                    value = reaches(c)
                    asked.append((tuple(chosen) + (c,), worth[c], value))
                    return value

                return worth, best, test, rest

            return real(search, seat, unseat, leaf, bounds, ceiling, floor, strict)

        monkeypatch.setattr(solver._Search, "run", spy)
        result = _solve(profile, 3, objective)
        assert (result.committee.members, result.score, result.nodes_explored) == ((0, 1, 2), 5, 5)
        assert seated == [(0,), (0, 1), (0, 1, 2), (1,)]
        # (child, its worth at the parent, its own exact bound)
        assert asked == [((0,), 12, 12), ((0, 1), 10, 10), ((0, 2), 12, 10),
                         ((1,), 12, 12), ((1, 2), 12, 10)]

    def test_a_child_seated_without_a_test_builds_its_own_gains(self):
        # under a leaf requirement the root is opened before any incumbent
        # and bounds none of its children.  Values in sixths: the leaf
        # {0, 2, 4} is the incumbent at 44 when {1} bounds {1, 2} at 51,
        # but {1, 2}'s own bound is below 45 and it is skipped unvisited.
        # The root then seats 2 untested: {2} must bound its children from
        # its own gains, not the ones just built for {1, 2}, which count 1 as
        # seated and so give less to 3, 4 and 5, the other candidates of the
        # voters on {1, 4, 5} and {0, 1, 2, 3, 4}.
        # {2, 4} passes and {2, 4, 5} scores 45, the best committee
        # providing JR; read with {1, 2}'s gains, {2} closes at once
        profile = profile_of(6, {1, 4, 5}, ({2, 4}, 2), {0, 2, 3, 5}, {0, 1, 2, 3, 4})
        k = 3
        objective = wpav_objective(WeightVector.harmonic(6))
        committees = list(itertools.combinations(range(6), k))
        justified = [w for w in committees if oracle_check_jr(profile, k, Committee(w))]
        scores = {w: naive_score(profile, Committee(w), objective) for w in justified}
        assert max(scores, key=scores.get) == (2, 4, 5) and scores[2, 4, 5] == Fraction(15, 2)
        found = solver._best_accepted(profile, k, lambda w: check_jr(profile, k, w).passed, objective)
        assert found.members == (2, 4, 5)

    def test_agrees_with_naive_enumeration_under_every_budget(self):
        # every budget is tried on every third profile
        for i, (profile, k) in enumerate(self._instances()):
            for objective in self._additive(profile.m):
                score, co = naive_optimize(profile, k, objective)
                passing = next((w for w in co if oracle_check_jr(profile, k, Committee(w))), co[0])
                for tiebreak, expected in ((TieBreak.LEXICOGRAPHIC, co[0]), (TieBreak.PREFER_JR, passing)):
                    # a budget keeps approval voting off its separable fast path
                    result = _solve(profile, k, objective, tiebreak, budget=10**6)
                    assert (result.committee.members, result.score) == (expected, score)
                    if i % 3 == 0:
                        self._check_budgets(
                            lambda budget: _solve(profile, k, objective, tiebreak, budget).committee.members,
                            result.nodes_explored, expected, objective, profile)

    def test_searches_under_a_leaf_requirement_agree_with_naive_enumeration(self):
        # such a search has no floor: its nodes opened before the first
        # incumbent bound none of their children, and one of them may seat a
        # child right after a child of its own has tested candidates, so it
        # builds its gains from its parent's without a test.  The carrying
        # profiles give their groups several base-64 digit classes.  Every
        # budget is tried on every third profile
        carrying = TestBitsetSearch._carrying(1818, 60)
        for i, (profile, k) in enumerate(itertools.chain(self._instances(), carrying)):
            def provides_jr(committee):
                return check_jr(profile, k, committee).passed

            # the unit-ballot oracle cannot expand a billion voters;
            # check_jr agrees with it on every small stream
            committees = list(itertools.combinations(range(profile.m), k))
            justified = [w for w in committees if provides_jr(Committee(w))]

            for objective in self._additive(profile.m):
                scores = {w: naive_score(profile, Committee(w), objective) for w in justified}
                best = max(scores.values())
                expected = next(w for w in justified if scores[w] == best)
                if objective is AV:
                    assert compute_ujrav(profile, k).members == expected
                found = solver._best_accepted(profile, k, provides_jr, objective)
                assert found.members == expected
                if i % 3 == 0:
                    search = solver._Search(profile, k, None, accept=provides_jr)
                    solver._run_search(search, objective)
                    self._check_budgets(
                        lambda budget: solver._best_accepted(profile, k, provides_jr, objective, budget).members,
                        search.nodes, expected, objective, profile)


class TestRootGainOrder:
    """With no leaf requirement, no known optimum and a greedy floor below
    the ceiling, the Thiele search visits the candidates in descending root
    gain, ties by label.  Ties still go to the first optimum in label order:
    a leaf that ties the incumbent and comes first replaces it, and a child
    whose bound only ties is entered only if a committee below it that could
    tie comes first.  A search that reaches the ceiling ends there, and a
    label-order search from the ceiling finds the first committee worth it."""

    @staticmethod
    def _instances():
        # blocs of consecutive candidates with tied approval counts, the
        # later blocs often approved by more voters, so that root-gain order
        # runs against label order among many ties; every relabelling of two
        # profiles whose greedy coverage committee leaves a voter out although
        # some committee covers them all; then the seeded stream
        rng = random.Random("root-gain order")
        for _ in range(150):
            m = rng.randint(4, 9)
            cuts = sorted(rng.sample(range(1, m), rng.randint(1, min(3, m - 1))))
            groups = [(range(a, b), rng.randint(1, 3)) for a, b in zip([0] + cuts, cuts + [m])]
            for _ in range(rng.randint(0, 2)):
                groups.append((rng.sample(range(m), rng.randint(1, m)), 1))
            yield BallotProfile.from_groups(m, groups), rng.randint(2, m - 1)
        for m, k, groups in (
            (4, 2, [({0, 1, 2}, 1), ({0, 3}, 1), ({0, 2, 3}, 4), ({1}, 3), ({1, 2, 3}, 3), ({1, 2}, 1)]),
            (5, 3, [({1, 3}, 1), ({4}, 1), ({3}, 1), ({0, 2}, 3), ({0, 1, 4}, 1), ({2, 3}, 3), ({1, 2, 4}, 2)]),
        ):
            for label in itertools.permutations(range(m)):
                yield BallotProfile.from_groups(m, [([label[c] for c in ballot], mult)
                                                    for ballot, mult in groups]), k
        yield from random_instances(seed=2020, count=100, max_n=9, min_m=4, max_m=9,
                                    cultures=["uniform", "urn", "fixed"])

    @staticmethod
    def _objectives(m, rng):
        stepped = WeightVector.from_values(([1, 1, Fraction(1, 3), Fraction(1, 3)] + [0] * m)[:m])
        drawn = [1] + sorted((Fraction(rng.randint(0, 4), 4) for _ in range(m - 1)), reverse=True)
        return (wpav_objective(WeightVector.harmonic(m)), wpav_objective(WeightVector.coverage(m)),
                SAV, AV, wpav_objective(stepped), wpav_objective(WeightVector.from_values(drawn)))

    def test_both_tie_breaks_agree_with_naive_enumeration(self, monkeypatch):
        # count the searches run out of label order, and those that reached
        # the ceiling and ran again in label order with no leaf requirement
        runs = []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            runs.append((search.labels, search.accept))
            return real(search, add, undo, leaf, bound, ceiling, floor, strict)

        monkeypatch.setattr(solver._Search, "run", spy)
        rng = random.Random("drawn weights")
        reordered = handed_over = 0
        for profile, k in self._instances():
            for objective in self._objectives(profile.m, rng):
                score, co = naive_optimize(profile, k, objective)
                passing = next((w for w in co if oracle_check_jr(profile, k, Committee(w))), co[0])
                for tiebreak, expected in ((TieBreak.LEXICOGRAPHIC, co[0]), (TieBreak.PREFER_JR, passing)):
                    runs.clear()
                    # a budget keeps approval voting off its separable fast path
                    result = _solve(profile, k, objective, tiebreak, budget=10**6)
                    assert (result.committee.members, result.score) == (expected, score)
                    labels = runs[0][0]
                    reordered += labels is not None and labels != sorted(labels)
                    handed_over += labels is not None and runs[1:2] == [(None, None)]
        assert reordered > 2500 and handed_over > 100

    def test_a_tie_below_a_child_whose_own_bound_only_ties(self, monkeypatch):
        # one voter on {0}, two on {1, 2, 3}, one on {2} and one on
        # {0, 1, 3}, k = 2, PAV; values in halves.  The greedy floor
        # {1, 2} scores 10, below the ceiling 13, so the search visits the
        # candidates in descending root gain: 1, 2, 3 (6 each) and 0 (4), at
        # positions 0 to 3.
        # - The root bounds {1} at 6 + 6 = 12; its own bound is 6 + 4 = 10,
        #   the floor: visited, and its first leaf {1, 2} is the incumbent
        #   at 10.  A child must now reach 11, or tie at 10 with a
        #   committee that comes first.
        # - The root bounds {2} at 12, which clears 11, but seating 2 leaves
        #   0 and 3 gains of 4 each: {2}'s own bound is 10, a tie.  A tying
        #   committee below it seats a candidate of gain 4, the earliest 0,
        #   and {0, 2} comes before {1, 2}: visited.  {2, 3} comes after
        #   {1, 2} and is skipped; the leaf {0, 2} ties and replaces it.
        # - {3} could tie only with {0, 3}, after {0, 2}: skipped.
        # 5 nodes: the root, {1}, {1, 2}, {2} and {0, 2}.  Skipping a child
        # whose own bound falls short of 11 would end at {1, 2}
        profile = profile_of(4, {0}, ({1, 2, 3}, 2), {2}, {0, 1, 3})
        objective = wpav_objective(WeightVector.harmonic(4))
        score, co = naive_optimize(profile, 2, objective)
        assert (score, co) == (5, [(0, 2), (1, 2), (2, 3)])
        asked = []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            labels = search.labels
            assert labels == [1, 2, 3, 0]

            def bounds(start, depth, target):
                children = bound(start, depth, target)
                worth, best, reaches, rest = children

                def test(c):
                    value = reaches(c)
                    asked.append((labels[c], worth[c], value))
                    return value

                return worth, best, test, rest

            return real(search, add, undo, leaf, bounds, ceiling, floor, strict)

        monkeypatch.setattr(solver._Search, "run", spy)
        result = _solve(profile, 2, objective)
        assert (result.committee.members, result.score, result.nodes_explored) == ((0, 2), 5, 5)
        # (the child's candidate, its worth at the root, its own exact bound)
        assert asked == [(1, 12, 10), (2, 12, 10)]

    def test_a_search_that_reaches_the_ceiling_runs_again_in_label_order(self, monkeypatch):
        # chamberlin-courant, k = 2, 13 voters: one on {0, 1, 2}, one on
        # {0, 3}, four on {0, 2, 3}, three on {1}, three on {1, 2, 3} and
        # one on {1, 2}.  The greedy committee {1, 2} covers 12, below the
        # ceiling 13, so the search visits the candidates in descending root
        # gain: 2 (9), 1 and 3 (8 each), 0 (6).  The root, {2} and the leaf
        # {1, 2}, the incumbent at 12; {2, 3} and {0, 2} cover 10.  The root
        # bounds {1} at 16 and its own bound is 13, so it is visited, and
        # its first leaf, {1, 3}, covers every voter: the search stops after
        # 5 nodes.  The first committee covering everyone in label order is
        # {0, 1}, which a search from 13 in label order finds in 3 more: the
        # root, {0} and {0, 1}
        profile = profile_of(4, ({0, 1, 2}, 1), ({0, 3}, 1), ({0, 2, 3}, 4), ({1}, 3),
                             ({1, 2, 3}, 3), ({1, 2}, 1))
        objective = wpav_objective(WeightVector.coverage(4))
        assert naive_optimize(profile, 2, objective) == (13, [(0, 1), (1, 3)])
        runs = []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            real(search, add, undo, leaf, bound, ceiling, floor, strict)
            runs.append((search.labels, floor, ceiling, search.best_members, search.nodes))

        monkeypatch.setattr(solver._Search, "run", spy)
        result = _solve(profile, 2, objective)
        assert (result.committee.members, result.score, result.nodes_explored) == ((0, 1), 13, 8)
        assert runs == [([2, 1, 3, 0], 12, 13, (1, 3), 5), (None, 13, 13, (0, 1), 8)]

    def test_budget_reports_the_best_so_far_in_labels(self):
        # the search above: its incumbent {1, 2} sits at positions 0 and 1,
        # and {0, 1} would cover all 13 voters.  A budget that runs out in
        # the label-order search reports the committee that reached the
        # ceiling
        profile = profile_of(4, ({0, 1, 2}, 1), ({0, 3}, 1), ({0, 2, 3}, 4), ({1}, 3),
                             ({1, 2, 3}, 3), ({1, 2}, 1))
        objective = wpav_objective(WeightVector.coverage(4))
        reported = {}
        for budget in range(1, 8):
            with pytest.raises(BudgetExhausted) as excinfo:
                _solve(profile, 2, objective, budget=budget)
            err = excinfo.value
            assert err.nodes_explored == budget + 1
            best = err.best_committee
            reported[budget] = best and (best.members, err.best_score)
            if best is not None:
                assert err.best_score == score_committee(profile, best, objective)
        assert reported == {1: None, 2: None, 3: ((1, 2), 12), 4: ((1, 2), 12),
                            5: ((1, 3), 13), 6: ((1, 3), 13), 7: ((1, 3), 13)}
        assert _solve(profile, 2, objective, budget=8).committee.members == (0, 1)

    def test_every_budget_reports_a_best_so_far_scored_as_reported(self):
        # every third profile
        exhausted = 0
        rng = random.Random("drawn weights")
        for profile, k in itertools.islice(self._instances(), 0, None, 3):
            for objective in self._objectives(profile.m, rng):
                full = _solve(profile, k, objective, budget=10**6).nodes_explored
                for budget in range(1, full):
                    with pytest.raises(BudgetExhausted) as excinfo:
                        _solve(profile, k, objective, budget=budget)
                    err = excinfo.value
                    assert err.nodes_explored == budget + 1
                    if err.best_committee is not None:
                        exhausted += 1
                        assert err.best_score == score_committee(profile, err.best_committee, objective)
        assert exhausted > 100

    def test_no_table_quadratic_in_m(self, tmp_path, capsys):
        # 1,200 candidates, k = 3: the optimum seats one candidate of each
        # three-voter bloc and one of {0, 1}; root-gain order visits 900
        # first.  A table of m * m entries would take megabytes
        path = tmp_path / "wide.profile"
        path.write_text("m 1200\nk 3\n3: 900 901 902\n3: 903 904 905\n2: 0 1\n1: 1199\n")
        tracemalloc.start()
        try:
            code = main(["compute", "--rule", "pav", "--format", "machine", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
        assert code == 0 and peak < 1 << 20
        assert (out["committee"], out["score"]) == ("0,900,903", "8")


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


class TestDemandCountingBound:
    """The demand search behind MAV and ejrav also prunes a node whose
    deficit, the winners its groups still lack, exceeds what its open seats
    can pay: each seat pays at most one winner to each group still short
    that approves its candidate.  The test is admissible, so answers, scores
    and budgets in visited nodes behave as before; only node counts fall."""

    def test_mav_agrees_with_naive_enumeration_under_every_budget(self):
        # the unit-ballot oracle cannot expand a billion voters; check_jr
        # agrees with it on every small stream.  Every budget is tried on
        # every other profile
        for i, (profile, k) in enumerate(weighted_instances(1919, 200)):
            score, co = naive_optimize(profile, k, MAV)
            passing = next((w for w in co if check_jr(profile, k, Committee(w)).passed), co[0])
            for tiebreak, expected in ((TieBreak.LEXICOGRAPHIC, co[0]), (TieBreak.PREFER_JR, passing)):
                result = _solve(profile, k, MAV, tiebreak)
                assert (result.committee.members, result.score) == (expected, score)
                if i % 2 == 0:
                    TestExactChildBound._check_budgets(
                        lambda budget: _solve(profile, k, MAV, tiebreak, budget).committee.members,
                        result.nodes_explored, expected, MAV, profile)

    def test_open_seats_that_cannot_pay_the_deficit_prune_a_reachable_node(self):
        # one voter on each of {0, 1}, {1, 2}, {2, 3} and {4, 5}, k = 2: no
        # two candidates hit all four ballots, so every committee leaves one
        # ballot without a winner: MAV distance 4, maximin 0.
        # The first pass visits the candidates in descending approval
        # score: 1 and 2 (two voters each), then 0, 3, 4 and 5.  The root
        # and {1} are opened before any incumbent and bound no children, so
        # {1} visits its five leaves; the first, {1, 2}, is the incumbent
        # (it provides JR: it leaves one voter out).  The target is then
        # distance 3, or maximin 1: a winner of every ballot.
        # - {2} holds one of {1, 2} and {2, 3}; {0, 1} and {4, 5} can each
        #   still get one from the candidates after 2 in this order, so the
        #   reach test admits it.  They lack two winners, but the one open
        #   seat pays at most one: 0 pays {0, 1}, 4 and 5 pay {4, 5}.  {2}
        #   is pruned.
        # - {0}, {3} and {4} leave {1, 2} or {0, 1} no candidate: pruned.
        # 11 nodes: the root, {1}, five leaves, {2}, {0}, {3} and {4}.
        # Without the count {2} opened its four leaves too.
        # The second pass runs in label order from distance 4, which asks
        # no winners: the root, {0} and {0, 1}, the first committee worth
        # it: 3 more, 14 in all
        profile = profile_of(6, {0, 1}, {1, 2}, {2, 3}, {4, 5})
        k = 2
        score, co = naive_optimize(profile, k, MAV)
        assert score == 4 and len(co) == math.comb(6, 2)
        for tiebreak in TieBreak:
            result = _solve(profile, k, MAV, tiebreak)
            assert (result.committee.members, result.score, result.nodes_explored) == ((0, 1), 4, 14)
        # a budget that runs out in the first pass reports its incumbent in
        # labels, and one that runs out in the second reports the same
        for budget, nodes in ((10, 11), (12, 13), (13, 14)):
            with pytest.raises(BudgetExhausted) as excinfo:
                _solve(profile, k, MAV, budget=budget)
            err = excinfo.value
            assert (err.best_committee, err.best_score, err.nodes_explored) == (Committee((1, 2)), 4, nodes)
        # the maximin search behind ejrav visits the same nodes
        search = solver._Search(profile, k, None, accept=lambda w: check_jr(profile, k, w).passed)
        solver._run_search(search, "maximin")
        assert (search.best_members, search.best_value, search.nodes) == ((0, 1), 0, 14)

    def test_the_label_order_pass_prunes_by_the_count(self):
        # the profile above at k = 3: {1, 2, 4} hits every ballot, and no
        # three candidates give every ballot two winners, so the optimum is
        # distance 3, a winner of every ballot.  The label-order pass from
        # it: the root; {0}, whose two open seats can pay the three winners
        # its ballots lack (2 pays two, 4 one); {0, 1}, which the reach test
        # admits but whose one seat cannot pay the two winners {2, 3} and
        # {4, 5} lack: pruned; {0, 2}; its leaf {0, 2, 3} (distance 5); and
        # {0, 2, 4}, the first committee at distance 3: 6 nodes.  Without
        # the count {0, 1} opened its four leaves
        profile = profile_of(6, {0, 1}, {1, 2}, {2, 3}, {4, 5})
        k = 3
        score, co = naive_optimize(profile, k, MAV)
        assert (score, co[0]) == (3, (0, 2, 4))
        search = solver._Search(profile, k, None)
        solver._run_search(search, MAV, optimum=-3)
        assert (search.best_members, search.best_value, search.nodes) == ((0, 2, 4), -3, 6)


class TestOrderedDemandSearch:
    """MAV and the maximin search behind ejrav run in two passes: a strict
    search over the candidates in descending approval score, ties by label,
    finds the optimum's value, and a label-order search from that value ends
    at the first accepted committee worth it.  A budget counts both passes;
    one that runs out in the second reports the first pass's committee."""

    @staticmethod
    def _instances():
        # the weighted stream, then an urn-like stream, whose shared ballots
        # leave wide plateaus of tied committees
        yield from weighted_instances(2121, 150)
        yield from random_instances(seed=2121, count=150, max_n=12, min_m=4, max_m=9, cultures=["urn"])

    @staticmethod
    def _passes(monkeypatch):
        # for each search run, its order and the incumbent it ended at
        runs = []
        real = solver._Search.run

        def spy(search, add, undo, leaf, bound, ceiling, floor, strict=False):
            real(search, add, undo, leaf, bound, ceiling, floor, strict)
            runs.append((search.labels, floor, ceiling, search.best_members, search.nodes))

        monkeypatch.setattr(solver._Search, "run", spy)
        return runs

    def test_the_second_pass_picks_the_first_optimum_in_label_order(self, monkeypatch):
        # one voter on {1, 2, 3, 4, 5} and one on {3}, k = 2: distance 3 is
        # the ceiling, and {1, 2} and {1, 3} reach it.  The first pass visits
        # 3 first (two voters), then 1, 2, 4, 5 and 0, from distance 7, which
        # every committee reaches: the root, {3} and its first leaf {1, 3},
        # at the ceiling.  The second pass, in label order
        # from distance 3, visits the root, {0} (pruned: one seat cannot give
        # the five-candidate ballot its two winners), {1} and {1, 2}
        profile = profile_of(6, {1, 2, 3, 4, 5}, {3})
        assert naive_optimize(profile, 2, MAV)[1][:2] == [(1, 2), (1, 3)]
        runs = self._passes(monkeypatch)
        result = _solve(profile, 2, MAV)
        assert (result.committee.members, result.score, result.nodes_explored) == ((1, 2), 3, 7)
        assert runs == [([3, 1, 2, 4, 5, 0], -7, -3, (1, 3), 3), (None, -3, -3, (1, 2), 7)]
        # the first pass's incumbent is the best so far, in labels, until
        # the second pass ends
        reported = {}
        for budget in range(1, 7):
            with pytest.raises(BudgetExhausted) as excinfo:
                _solve(profile, 2, MAV, budget=budget)
            err = excinfo.value
            assert err.nodes_explored == budget + 1
            reported[budget] = err.best_committee and (err.best_committee.members, err.best_score)
        assert reported == {1: None, 2: None, 3: ((1, 3), 3), 4: ((1, 3), 3), 5: ((1, 3), 3),
                            6: ((1, 3), 3)}
        assert _solve(profile, 2, MAV, budget=7).committee.members == (1, 2)

    def test_sizes_sharing_a_demand_prune_what_one_demand_per_size_prunes(self):
        # the same two passes with one demand per ballot size, as before
        # sizes asking for the same number of winners shared one, visit the
        # same nodes and end at the same committee
        shared = 0
        for profile, k in self._instances():
            classes = {}  # ballot size -> its groups
            for g, members in enumerate(profile.index.members):
                classes[len(members)] = classes.get(len(members), 0) | 1 << g
            search = solver._Search(profile, k, None)

            def solve(top, floor):
                hits, add, undo, hopeless = solver._demand_state(search)

                def leaf():
                    return -max(k + size - 2 * (sum(h & mask == mask for h in hits) - 1)
                                for size, mask in classes.items())

                def bound(start, depth, target):
                    demands = []
                    for size, mask in classes.items():
                        want = (k + size + target + 1) // 2
                        if want > size:
                            return None
                        if want > 0:
                            demands.append((want, mask))
                    return None if hopeless(start, depth, demands) else ()

                search.run(add, undo, leaf, bound, top, floor, strict=True)

            ceiling = -max(abs(k - size) for size in classes)
            least = -k - max(classes)
            order = sorted(range(profile.num_candidates), key=lambda c: -profile.approval_scores[c])
            if ceiling > least and order != sorted(order):
                # a strict pass in descending approval score finds the value,
                # then a label-order pass the first committee worth it
                search.reorder(order)
                solve(ceiling, least)
                value, search.best_members = search.best_value, None
                search.reorder(None)
                solve(value, value)
            else:
                solve(ceiling, least)
            result = _solve(profile, k, MAV)
            assert (search.best_members, search.nodes) == (result.committee.members, result.nodes_explored)
            # only sizes one apart ever ask for the same number
            shared += any(size + 1 in classes for size in classes if size)
        assert shared > 100

    def test_mav_agrees_with_naive_enumeration_under_every_budget(self, monkeypatch):
        # every budget is tried on every third profile; count the searches
        # whose second pass moved off the first pass's committee
        runs = self._passes(monkeypatch)
        moved = 0
        for i, (profile, k) in enumerate(self._instances()):
            score, co = naive_optimize(profile, k, MAV)
            passing = next((w for w in co if group_jr(profile, k, Committee(w))), co[0])
            for tiebreak, expected in ((TieBreak.LEXICOGRAPHIC, co[0]), (TieBreak.PREFER_JR, passing)):
                runs.clear()
                result = _solve(profile, k, MAV, tiebreak)
                assert (result.committee.members, result.score) == (expected, score)
                moved += runs[0][0] is not None and runs[0][3] != runs[1][3]
                if i % 3 == 0:
                    TestExactChildBound._check_budgets(
                        lambda budget: _solve(profile, k, MAV, tiebreak, budget).committee.members,
                        result.nodes_explored, expected, MAV, profile)
        assert moved > 100

    def test_ejrav_agrees_with_brute_force_under_every_budget(self, monkeypatch):
        # every budget is tried on every third profile, each best-so-far
        # justified and scored as reported
        runs = self._passes(monkeypatch)
        moved = with_incumbent = 0
        for i, (profile, k) in enumerate(self._instances()):
            justified = [Committee(w) for w in itertools.combinations(range(profile.m), k)
                         if group_jr(profile, k, Committee(w))]
            best = max(group_maximin(profile, w) for w in justified)
            expected = next(w for w in justified if group_maximin(profile, w) == best)
            runs.clear()
            assert compute_ejrav(profile, k) == expected
            moved += runs[0][0] is not None and runs[0][3] != runs[1][3]
            if i % 3:
                continue
            nodes = runs[-1][4]
            for budget in range(1, nodes):
                with pytest.raises(BudgetExhausted) as excinfo:
                    compute_ejrav(profile, k, budget=budget)
                err = excinfo.value
                assert err.nodes_explored == budget + 1
                if err.best_committee is not None:
                    with_incumbent += 1
                    assert group_jr(profile, k, err.best_committee)
                    assert err.best_score == group_maximin(profile, err.best_committee)
            assert compute_ejrav(profile, k, budget=nodes) == expected
        assert moved > 50 and with_incumbent > 100


class TestBudget:
    def test_budget_carries_best_so_far(self):
        # the greedy floor {0, 1, 2} scores 5, the optimum.  The search
        # visits the root, {0}, {0, 1} and the leaf {0, 1, 2}, the incumbent
        # at 5; {0, 1} closes, since seating 3, 4 or 5 there adds 1 at most.
        # {0} bounds {0, 2} at 6 from its own gains, but seating 2 halves
        # what 3 would add, so {0, 2}'s own bound is 5 and it is skipped
        # unvisited.  The root likewise bounds {1} at 6, and {1}'s own bound
        # is 6 too: {1} is the fifth node, and it skips {1, 2} as {0} skipped
        # {0, 2}.  The whole search takes 5 nodes, so a budget of 4 runs out
        # at {1}
        profile = profile_of(6, ({0, 1}, 2), ({2, 3}, 2), ({4, 5}, 1))
        objective = wpav_objective(WeightVector.harmonic(6))
        assert _solve(profile, 3, objective).nodes_explored == 5
        with pytest.raises(BudgetExhausted) as excinfo:
            _solve(profile, 3, objective, budget=4)
        err = excinfo.value
        assert err.nodes_explored == 5
        assert err.best_committee == Committee((0, 1, 2))
        assert err.best_score == 5 == score_committee(profile, err.best_committee, objective)

    def test_prefer_jr_budget_counts_both_passes(self):
        # the first pass visits the root, {0} and the first optimum {0, 1},
        # the greedy floor 2, which bounds {0, 2} and {1} below 3 and skips
        # them.  {0, 1} leaves the voter on {2}, a quota at k = 2,
        # unrepresented, so the second pass visits the root, {0}, {0, 1}
        # (fails JR) and {0, 2}: 7 nodes in all.  A budget that runs out in
        # the second pass reports the first optimum as the best so far
        profile = profile_of(3, ({0, 1}, 1), ({2}, 1))
        result = _solve(profile, 2, AV, TieBreak.PREFER_JR, budget=7)
        assert (result.committee.members, result.nodes_explored) == ((0, 2), 7)
        for budget in range(3, 7):
            with pytest.raises(BudgetExhausted) as excinfo:
                _solve(profile, 2, AV, TieBreak.PREFER_JR, budget=budget)
            err = excinfo.value
            assert (err.best_committee, err.best_score) == (Committee((0, 1)), 2)
            assert err.nodes_explored == budget + 1

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


class TestOneSetUpPerSearch:
    """A search builds its voter bits once, in label order, straight from
    the ballot groups, and reads the groups approving each candidate from
    the profile's columns, built once per profile; a reorder permutes them,
    and every later pass on the search reads them again."""

    def test_each_view_is_built_at_most_once_per_search(self, monkeypatch):
        built = collections.Counter()  # (search or profile id, view) -> builds
        kept = []  # the profiles, alive so that their ids stay theirs

        def spy_on(owner, view, key):
            real = getattr(owner, view).func

            def spy(obj):
                built[key(obj), view] += 1
                return real(obj)

            prop = functools.cached_property(spy)
            prop.__set_name__(owner, view)
            monkeypatch.setattr(owner, view, prop)

        for view in ("label_bits", "spans"):
            spy_on(solver._Search, view, lambda search: search)
        spy_on(BallotProfile, "columns", lambda profile: kept.append(profile) or id(profile))
        runs = collections.Counter()  # search -> passes
        orders = collections.defaultdict(set)  # search -> the orders it held
        real_run = solver._Search.run

        def run_spy(search, *args, **kwargs):
            runs[search] += 1
            orders[search].add(None if search.labels is None else tuple(search.labels))
            return real_run(search, *args, **kwargs)

        monkeypatch.setattr(solver._Search, "run", run_spy)
        rng = random.Random("one set-up")
        for profile, k in itertools.islice(TestRootGainOrder._instances(), 0, None, 7):
            for objective in TestRootGainOrder._objectives(profile.m, rng) + (MAV,):
                for tiebreak in TieBreak:
                    # a budget keeps approval voting off its separable fast path
                    _solve(profile, k, objective, tiebreak, budget=10**6)
            compute_ujrav(profile, k)
            compute_ejrav(profile, k)
        assert max(built.values()) == 1
        again = [search for search, passes in runs.items() if passes > 1]
        # passes in two orders: the Thiele search handing over to label
        # order, the demand search's two passes, and the prefer-JR pass
        assert sum(len(orders[search]) > 1 for search in again) > 150
        assert {view for _, view in built} == {"columns", "label_bits", "spans"}
        # every search on a profile, and its JR checks, share one build
        assert sum(view == "columns" for _, view in built) < len(runs) / 10

    def test_lex_thiele_searches_read_no_per_candidate_owners(self):
        # the search reads the ballot groups, not `BallotProfile.owners`
        # (nor `approval_scores`, built with it)
        rng = random.Random("no owners")
        for raw, k in random_instances(seed=2626, count=40, max_n=9, max_m=8,
                                       cultures=["uniform", "urn", "fixed"]):
            for objective in TestRootGainOrder._objectives(raw.m, rng):
                profile = BallotProfile.from_groups(raw.m, zip(raw.index.members, raw.index.mults))
                result = _solve(profile, k, objective, budget=10**6)
                assert result == _solve(raw, k, objective, budget=10**6)
                assert "_tallies" not in vars(profile)


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
