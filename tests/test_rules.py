"""Voting rules: sequential engine, named families, JR-constrained rules."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jrvoting import core
from jrvoting.axioms import check_ejr, check_jr, find_jr_committee, oracle_check_jr
from jrvoting.core import (
    AV,
    BallotProfile,
    BudgetExhausted,
    Committee,
    MAV,
    WeightVector,
    normalize_profile,
    score_committee,
    wpav_objective,
)
from jrvoting.corpus import UrnLike, build_fixture, random_profile
from jrvoting.rules import (
    RuleSpec,
    compute_ejrav,
    compute_rule,
    compute_sequential_rule,
    compute_ujrav,
    report_score,
    rule_weights,
    sequential_trace,
)

from conftest import (
    group_jr,
    group_maximin,
    naive_greedy_cover,
    naive_sequential_trace,
    profile_of,
    random_instances,
    weighted_instances,
)

CULTURES = ["uniform", "urn", "fixed"]


class TestSequential:
    def test_reweighting_trace_on_1199_voter_profile(self):
        profile = build_fixture("thm7").profile
        harmonic = WeightVector.harmonic(11)
        trace = sequential_trace(profile, 10, harmonic)
        assert trace[0].candidate == 0 and trace[0].weight == 162
        # after two shared-pair picks, the pair partners drop to 80 + 81/2
        assert trace[2].weights[1] == Fraction(241, 2)
        assert trace[2].candidate == 6 and trace[2].weight == 147
        committee = Committee.of(r.candidate for r in trace)
        assert committee.members == tuple(range(10))
        assert 10 not in committee

    def test_k1_picks_max_approval_lowest_index(self):
        profile = profile_of(4, ({1}, 3), ({2}, 3), ({3}, 1))
        harmonic = WeightVector.harmonic(4)
        assert compute_sequential_rule(profile, 1, harmonic).members == (1,)

    def test_round_tie_breaks_by_candidate_index(self):
        profile = profile_of(3, ({1}, 2), ({2}, 2), ({0}, 1))
        trace = sequential_trace(profile, 2, WeightVector.harmonic(3))
        assert [r.candidate for r in trace] == [1, 2]

    def test_coverage_weights_reproduce_greedy_cover(self):
        # shared candidate a plus private b_i: a first, then fill by index
        profile = profile_of(3, ({0, 1}, 1), ({0, 2}, 1), ({0}, 1))
        committee = compute_sequential_rule(profile, 2, WeightVector.coverage(3))
        assert committee.members == (0, 1)

    def test_fill_after_all_ballots_served(self):
        profile = profile_of(4, ({2}, 1))
        committee = compute_sequential_rule(profile, 3, WeightVector.coverage(4))
        assert committee.members == (0, 1, 2)

    def test_trace_snapshot_covers_unelected_candidates(self):
        profile = profile_of(3, ({0, 1}, 2), ({2}, 1))
        trace = sequential_trace(profile, 2, WeightVector.harmonic(3))
        assert set(trace[0].weights) == {0, 1, 2}
        assert set(trace[1].weights) == {1, 2}

    @pytest.mark.parametrize(
        "family",
        [
            lambda p: WeightVector.harmonic(p.m),
            lambda p: WeightVector.coverage(p.m),
            lambda p: WeightVector.all_ones(p.m),
            # plateaus and a zero tail: some elections change no weight
            lambda p: WeightVector.from_values(([1, 1, Fraction(1, 3), Fraction(1, 3)] + [0] * p.m)[: p.m]),
            # ratio 1/n: the rounds run on integers scaled by n^(m-1)
            lambda p: WeightVector.geometric(p.m, Fraction(1, p.n)),
        ],
        ids=["harmonic", "coverage", "ones", "stepped", "geometric"],
    )
    def test_trace_matches_definition(self, family):
        # whole traces, on merged and on expanded profiles
        for profile, k in random_instances(seed=41, count=60, max_n=9, max_m=8, cultures=CULTURES):
            weights = family(profile)
            for p in (normalize_profile(profile), profile.expand()):
                trace = [(r.candidate, r.weight, dict(r.weights)) for r in sequential_trace(p, k, weights)]
                assert trace == naive_sequential_trace(p, k, weights)
                winners = Committee.of(candidate for candidate, _, _ in trace)
                assert compute_sequential_rule(p, k, weights) == winners

    @staticmethod
    def _wide_instances(seed, count):
        # m from 20 to 80 and k near m: most rounds leave stale heap keys.
        # Half of the profiles give every candidate of the lower half a twin
        # in the upper half that the same ballots approve, so the two tie in
        # every round until the lower one is elected
        rng = random.Random(f"wide|{seed}")
        for trial in range(count):
            m = rng.randint(20, 80)
            k = m - rng.randint(0, 3)
            twins = trial % 2
            half = m // 2 if twins else m
            urn = random_profile(seed=seed * 7919 + trial, n=rng.randint(16, 32), m=half,
                                 k=min(k, half), culture=UrnLike(rng.randint(2, 4), 0.5))
            groups = [(b.approved | {c + half for c in b.approved} if twins else b.approved,
                       b.multiplicity) for b in urn.ballots]
            yield BallotProfile.from_groups(m, groups), k

    @pytest.mark.parametrize(
        "family",
        [
            lambda m: WeightVector.harmonic(m),
            lambda m: WeightVector.from_values([Fraction(1, 2 ** (j // 3)) for j in range(m)]),
            lambda m: WeightVector.from_values(([1, Fraction(1, 2), Fraction(1, 2)] + [0] * m)[:m]),
        ],
        ids=["harmonic", "plateaus", "zero-tail"],
    )
    def test_heap_rounds_match_definition_on_wide_profiles(self, family, monkeypatch):
        stale = []
        real = core.heappushpop
        monkeypatch.setattr(core, "heappushpop", lambda heap, item: stale.append(1) or real(heap, item))
        rounds = ties = 0
        for profile, k in self._wide_instances(seed=16, count=6):
            weights = family(profile.m)
            trace = [(r.candidate, r.weight, dict(r.weights)) for r in sequential_trace(profile, k, weights)]
            assert trace == naive_sequential_trace(profile, k, weights)
            assert compute_sequential_rule(profile, k, weights) == Committee.of(c for c, _, _ in trace)
            rounds += k
            ties += sum(1 for _, weight, table in trace if weight and list(table.values()).count(weight) > 1)
        # each of the two runs per profile re-pushes more than one stale key
        # per round on average, and some rounds elect one of tied candidates
        assert len(stale) > 2 * rounds and ties > 0

    def test_heap_rounds_match_definition_on_thm8(self):
        fixture = build_fixture("thm8", s=8)
        profile, weights = fixture.profile, fixture.weights
        assert profile.m == fixture.k + 2 == 344
        trace = [(r.candidate, r.weight, dict(r.weights)) for r in sequential_trace(profile, 6, weights)]
        assert trace == naive_sequential_trace(profile, 6, weights)

    def test_weight_length_validation(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            compute_sequential_rule(profile, 1, WeightVector.harmonic(2))


class TestRuleSpec:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            RuleSpec("borda")

    def test_weight_requirements(self):
        with pytest.raises(ValueError):
            RuleSpec("wpav")
        with pytest.raises(ValueError):
            RuleSpec("pav", weights=WeightVector.harmonic(3))

    def test_named_families_expand_to_explicit_vectors(self):
        profile = profile_of(3, ({0}, 4))
        assert rule_weights(RuleSpec("pav"), profile) == WeightVector.harmonic(3)
        assert rule_weights(RuleSpec("cc"), profile) == WeightVector.coverage(3)
        geometric = rule_weights(RuleSpec("geometric-rav"), profile)
        assert geometric.weights == (1, Fraction(1, 4), Fraction(1, 16))

    @pytest.mark.parametrize(
        "family,explicit",
        [("pav", "wpav"), ("rav", "wrav")],
    )
    def test_family_equals_explicit_harmonic(self, family, explicit):
        for profile, k in random_instances(seed=37, count=25, max_n=7, max_m=6):
            harmonic = WeightVector.harmonic(profile.m)
            a = compute_rule(profile, k, RuleSpec(family))
            b = compute_rule(profile, k, RuleSpec(explicit, weights=harmonic))
            assert a == b

    def test_cc_is_coverage_wpav(self):
        for profile, k in random_instances(seed=38, count=20, max_n=7, max_m=6):
            coverage = WeightVector.coverage(profile.m)
            assert compute_rule(profile, k, RuleSpec("cc")) == compute_rule(
                profile, k, RuleSpec("wpav", weights=coverage)
            )


class TestIdentities:
    def test_av_equals_all_ones_wpav(self):
        # separable fast path vs branch-and-bound: same committees
        for profile, k in random_instances(seed=39, count=60, max_n=8, max_m=7):
            ones = WeightVector.all_ones(profile.m)
            av = compute_rule(profile, k, RuleSpec("av"))
            wpav = compute_rule(profile, k, RuleSpec("wpav", weights=ones))
            assert av == wpav

    def test_greedy_cover_equals_coverage_sequential(self):
        # independent implementations: ballot-deleting greedy vs reweighting
        for profile, k in random_instances(seed=40, count=60, max_n=8, max_m=7):
            greedy = naive_greedy_cover(profile, k)
            assert find_jr_committee(profile, k) == greedy
            assert compute_rule(profile, k, RuleSpec("gav")) == greedy


class TestDensityCounterexamples:
    def test_inflated_second_weight_drops_the_bloc_candidate(self):
        fixture = build_fixture("lemma1", j=2, epsilon=Fraction(1, 4), k=4)
        # independent oracle: brute-force all five committees exactly
        objective = wpav_objective(fixture.weights)
        scored = sorted(
            (
                score_committee(fixture.profile, Committee(members), objective),
                members,
            )
            for members in itertools.combinations(range(5), 4)
        )
        assert scored[-1][1] == (1, 2, 3, 4) and scored[-1][0] == 21
        winner = compute_rule(
            fixture.profile, 4, RuleSpec("wpav", weights=fixture.weights)
        )
        assert winner.members == (1, 2, 3, 4)
        assert check_jr(fixture.profile, 4, winner).failed


class TestRepresentationConstrainedRules:
    def test_ujrav_forces_the_bloc_candidate(self):
        fixture = build_fixture("thm4")
        committee = compute_ujrav(fixture.profile, 3)
        assert committee.members == (0, 1, 2)
        assert score_committee(fixture.profile, committee, AV) == 5

    def test_ujrav_nonbinding_filter(self):
        profile = profile_of(3, ({0}, 2), ({1}, 1))
        av = compute_rule(profile, 2, RuleSpec("av"))
        assert compute_ujrav(profile, 2) == av

    def test_ujrav_rotated_pairs(self):
        # every pair committee provides representation and scores 4,
        # so the lexicographic minimum {a,b} wins; verified by enumeration
        profile = build_fixture("example5").profile
        best = None
        for members in itertools.combinations(range(4), 2):
            committee = Committee(members)
            if not check_jr(profile, 2, committee).passed:
                continue
            score = score_committee(profile, committee, AV)
            if best is None or score > best[0]:
                best = (score, members)
        assert best == (Fraction(4), (0, 1))
        assert compute_ujrav(profile, 2).members == (0, 1)

    def test_ejrav_rotated_pairs(self):
        # maximin 1 is achieved by {a,d} and {b,c}; lexicographic picks {a,d}
        profile = build_fixture("example5").profile
        assert compute_ejrav(profile, 2).members == (0, 3)

    def test_ejrav_empty_ballot_forces_min_zero(self):
        profile = profile_of(2, (set(), 1), ({0}, 1))
        assert compute_ejrav(profile, 1).members == (0,)

    def test_ejrav_single_voter(self):
        profile = profile_of(2, ({0}, 1))
        assert compute_ejrav(profile, 1).members == (0,)

    def test_outputs_always_pass_jr(self):
        cultures = ["uniform", "urn", "fixed"]
        for profile, _ in random_instances(
            seed=41, count=45, max_n=9, max_m=7, cultures=cultures
        ):
            for k in range(1, profile.m + 1):
                for rule in (compute_ujrav, compute_ejrav):
                    committee = rule(profile, k)
                    assert check_jr(profile, k, committee).passed
                    assert oracle_check_jr(profile, k, committee)


class TestConservativeWeightGuarantee:
    def test_weights_at_or_below_harmonic_always_give_jr(self):
        # any vector with w_j <= 1/j keeps the swap argument valid
        for profile, k in random_instances(seed=43, count=60, max_n=9, max_m=7):
            vectors = [
                WeightVector.harmonic(profile.m),
                WeightVector.coverage(profile.m),
                WeightVector.geometric(profile.m, Fraction(1, 2)),
            ]
            for weights in vectors:
                assert all(
                    w <= Fraction(1, j) for j, w in enumerate(weights.weights, start=1)
                )
                winner = compute_rule(profile, k, RuleSpec("wpav", weights=weights))
                assert check_jr(profile, k, winner).passed


class TestMultiplicityInvariance:
    def test_rule_outputs_match_on_unit_expansion(self):
        for profile, k in random_instances(seed=42, count=20, max_n=8, max_m=6):
            expanded = profile.expand()
            for name in ("av", "sav", "mav", "pav", "cc", "rav", "gav", "ujrav", "ejrav"):
                spec = RuleSpec(name)
                assert compute_rule(profile, k, spec) == compute_rule(expanded, k, spec)


class TestReportScore:
    def test_report_scores_by_rule(self):
        profile = profile_of(3, ({0, 1}, 2), ({2}, 1))
        spec_av = RuleSpec("av")
        committee = compute_rule(profile, 2, spec_av)
        assert report_score(profile, 2, spec_av, committee) == 4
        spec_mav = RuleSpec("mav")
        committee = compute_rule(profile, 2, spec_mav)
        assert report_score(profile, 2, spec_mav, committee) == score_committee(
            profile, committee, MAV
        )
        spec_rav = RuleSpec("rav")
        committee = compute_rule(profile, 2, spec_rav)
        assert report_score(profile, 2, spec_rav, committee) == score_committee(
            profile, committee, wpav_objective(WeightVector.harmonic(3))
        )

    def test_ejrav_reports_maximin(self):
        profile = build_fixture("example5").profile
        spec = RuleSpec("ejrav")
        committee = compute_rule(profile, 2, spec)
        assert report_score(profile, 2, spec, committee) == 1


def _approvals(profile, committee):
    return score_committee(profile, committee, AV)


def _maximin(profile, committee):
    """Fewest approved winners of any single voter."""
    return min(
        len(ballot.approved & set(committee.members))
        for ballot in profile.expand().ballots
    )


def _best_justified(profile, k, value):
    """Definition-verbatim: among all committees that brute force finds
    justified, the first in lexicographic order of highest value."""
    best = None
    for members in itertools.combinations(range(profile.m), k):
        committee = Committee(members)
        if oracle_check_jr(profile, k, committee):
            if best is None or value(profile, committee) > value(profile, best):
                best = committee
    return best


class TestRepresentationConstrainedOptimality:
    def test_ujrav_and_ejrav_match_enumeration_at_every_k(self):
        cultures = ["uniform", "urn", "fixed"]
        for profile, _ in random_instances(
            seed=44, count=45, max_n=6, max_m=6, cultures=cultures
        ):
            for k in range(1, profile.m + 1):
                for name, rule, value in (
                    ("ujrav", compute_ujrav, _approvals),
                    ("ejrav", compute_ejrav, _maximin),
                ):
                    expected = _best_justified(profile, k, value)
                    committee = rule(profile, k)
                    assert committee == expected, (name, k, profile)
                    score = report_score(profile, k, RuleSpec(name), committee)
                    assert score == value(profile, committee)

    def test_ejrav_matches_brute_force_on_weighted_streams_under_every_budget(self):
        # a search that visits N nodes runs out under every budget below N,
        # one node past it, with a justified best-so-far scored as reported
        with_incumbent = 0
        for profile, k in weighted_instances(47, 300):
            justified = [Committee(w) for w in itertools.combinations(range(profile.m), k)
                         if group_jr(profile, k, Committee(w))]
            best = max(group_maximin(profile, w) for w in justified)
            expected = next(w for w in justified if group_maximin(profile, w) == best)
            budget = 1
            while True:
                try:
                    committee = compute_ejrav(profile, k, budget=budget)
                except BudgetExhausted as exc:
                    assert exc.nodes_explored == budget + 1
                    if exc.best_committee is not None:
                        with_incumbent += 1
                        assert group_jr(profile, k, exc.best_committee)
                        assert exc.best_score == group_maximin(profile, exc.best_committee)
                    budget += 1
                    continue
                break
            assert committee == expected
            assert report_score(profile, k, RuleSpec("ejrav"), committee) == best
        assert with_incumbent > 100

    def test_ejrav_prunes_once_an_empty_ballot_pins_the_maximin(self):
        # after the first justified committee no subtree can beat maximin 0,
        # so the search stops far short of the C(16, 4) = 1820 committees
        profile = profile_of(16, [], *([c] for c in range(16)))
        assert compute_ejrav(profile, 4, budget=100) == Committee((0, 1, 2, 3))

    def test_budget_exhaustion_carries_a_justified_best_so_far(self):
        exhausted = with_incumbent = 0
        for profile, k in random_instances(seed=45, count=40, max_n=8, max_m=7):
            for rule, value in ((compute_ujrav, _approvals), (compute_ejrav, _maximin)):
                for budget in (1, 2, 3, 5, 8, 13, 21, 34):
                    try:
                        rule(profile, k, budget=budget)
                    except BudgetExhausted as exc:
                        exhausted += 1
                        best = exc.best_committee
                        if best is None:
                            assert exc.best_score is None
                            continue
                        with_incumbent += 1
                        assert best.k == k and max(best.members) < profile.m
                        assert check_jr(profile, k, best).passed
                        assert exc.best_score == value(profile, best)
        assert exhausted > 50 and with_incumbent > 20


class TestProportionality:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 60),
        shape=st.sampled_from([(m, k) for m in range(8, 15) for k in range(2, 7)]),
        groups=st.integers(1, 4),
        cohesion=st.sampled_from([0.5, 0.8, 0.95]),
    )
    def test_pav_winner_provides_ejr(self, seed, n, shape, groups, cohesion):
        # the paper's positive result for the harmonic weights, on urn
        # profiles larger than the acceptance suite's m <= 8, k <= 4
        m, k = shape
        profile = random_profile(seed, n, m, k, UrnLike(groups, cohesion))
        winner = compute_rule(profile, k, RuleSpec("pav"))
        assert check_ejr(profile, k, winner).passed
