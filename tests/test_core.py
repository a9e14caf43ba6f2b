"""Core types, normalization, exact scoring."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jrvoting.core import (
    AV,
    Ballot,
    BallotProfile,
    Committee,
    MAV,
    ProfileError,
    SAV,
    WeightVector,
    normalize_profile,
    score_committee,
    wpav_objective,
)
from jrvoting.corpus import build_fixture

from conftest import naive_score, profile_of, random_committee, random_instances


@st.composite
def profiles(draw, max_m=6, max_groups=5, max_mult=4):
    m = draw(st.integers(1, max_m))
    count = draw(st.integers(1, max_groups))
    groups = []
    for _ in range(count):
        approved = draw(st.frozensets(st.integers(0, m - 1), max_size=m))
        mult = draw(st.integers(1, max_mult))
        groups.append((approved, mult))
    return BallotProfile.from_groups(m, groups)


@st.composite
def profile_and_committee(draw, max_m=6):
    profile = draw(profiles(max_m=max_m))
    m = profile.num_candidates
    k = draw(st.integers(1, m))
    members = draw(st.permutations(range(m)))[:k]
    return profile, Committee.of(members)


class TestProfile:
    def test_merge_is_forced_by_multiset_semantics(self):
        profile = profile_of(2, ({0, 1}, 1), ({0, 1}, 2))
        merged = normalize_profile(profile)
        assert merged.ballots == (Ballot(frozenset({0, 1}), 3),)
        assert merged.n == profile.n == 3

    def test_canonical_sort(self):
        profile = profile_of(3, ({2}, 1), ({0}, 1))
        assert [set(b.approved) for b in normalize_profile(profile).ballots] == [{0}, {2}]

    def test_normalize_idempotent_and_preserves_n(self):
        profile = profile_of(4, ({1, 3}, 2), {0}, ({1, 3}, 5), set())
        once = normalize_profile(profile)
        assert normalize_profile(once) == once
        assert once.n == profile.n

    def test_thm7_expansion_remerges_to_fifteen_groups(self):
        profile = build_fixture("thm7").profile
        expanded = profile.expand()
        assert expanded.n == 1199 and all(b.multiplicity == 1 for b in expanded.ballots)
        remerged = normalize_profile(expanded)
        assert remerged == normalize_profile(profile)
        assert len(remerged.ballots) == 15
        assert sorted(b.multiplicity for b in remerged.ballots) == sorted(
            [81, 81, 80, 80, 81, 81, 80, 80, 49, 49, 49, 96, 96, 96, 120]
        )

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ProfileError):
            profile_of(2, ({0, 2}, 1))

    @pytest.mark.parametrize(
        "groups, bad",
        [
            ([({0}, 1), ({0, 2}, 1)], 2),
            ([({1}, 2), ({-1, 1}, 1)], -1),
            ([({1, 7}, 1), ({-3}, 1)], 7),  # the first ballot's index is named
            ([(set(), 1), ({10**12}, 1)], 10**12),
        ],
    )
    def test_index_out_of_range_names_the_index(self, groups, bad):
        with pytest.raises(ProfileError, match=f"^candidate index {bad} out of range for m=2$"):
            BallotProfile.from_groups(2, groups)

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ProfileError):
            profile_of(2, ({0}, 0))

    def test_empty_profile_rejected(self):
        with pytest.raises(ProfileError):
            BallotProfile(2, ())

    def test_empty_ballots_are_legal(self):
        profile = profile_of(2, (set(), 3))
        assert profile.n == 3

    def test_approval_scores(self):
        profile = profile_of(3, ({0, 1}, 2), ({1}, 1))
        assert profile.approval_scores == (2, 3, 0)


class TestCommittee:
    def test_members_sorted_and_distinct(self):
        assert Committee.of([2, 0]).members == (0, 2)
        with pytest.raises(ValueError):
            Committee((1, 1))
        with pytest.raises(ValueError):
            Committee((2, 1))

    def test_mask_and_contains(self):
        committee = Committee((0, 3))
        assert committee.mask == 0b1001
        assert 3 in committee and 1 not in committee
        assert len(committee) == 2


class TestWeightVector:
    def test_invariants(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 2),))
        with pytest.raises(ValueError):
            WeightVector((Fraction(1), Fraction(2)))
        with pytest.raises(ValueError):
            WeightVector((Fraction(1), Fraction(-1)))

    def test_factories(self):
        assert WeightVector.harmonic(3).weights == (1, Fraction(1, 2), Fraction(1, 3))
        assert WeightVector.all_ones(2).weights == (1, 1)
        assert WeightVector.coverage(3).weights == (1, 0, 0)
        assert WeightVector.geometric(3, Fraction(1, 4)).weights == (
            1,
            Fraction(1, 4),
            Fraction(1, 16),
        )

    def test_satisfaction_table(self):
        harmonic = WeightVector.harmonic(3)
        assert harmonic.satisfaction_table == (0, 1, Fraction(3, 2), Fraction(11, 6))


class TestScoreCommittee:
    def test_av_zero_when_committee_disjoint_from_all_ballots(self):
        profile = profile_of(4, ({0}, 2), ({1}, 1))
        assert score_committee(profile, Committee((2, 3)), AV) == 0

    def test_sav_two_seat_instance(self):
        # broad ballot {x1,x2,x3} vs {y1,y2}: committee Y scores k-1 = 1
        profile = profile_of(5, ({0, 1, 2}, 1), ({3, 4}, 1))
        assert score_committee(profile, Committee((3, 4)), SAV) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sav_general_k(self, k):
        fixture = build_fixture("thm5_sav", k=k)
        winners = Committee.of(range(k + 1, 2 * k + 1))
        assert score_committee(fixture.profile, winners, SAV) == k - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_mav_transversal_score(self, k):
        fixture = build_fixture("thm5_mav", k=k)
        assert score_committee(fixture.profile, Committee.of(range(k)), MAV) == k + 1

    def test_mav_ignores_multiplicities_beyond_presence(self):
        light = profile_of(3, ({0}, 1), ({1, 2}, 1))
        heavy = profile_of(3, ({0}, 500), ({1, 2}, 1))
        committee = Committee((0,))
        assert score_committee(light, committee, MAV) == score_committee(
            heavy, committee, MAV
        )

    def test_wpav_large_bloc_instance(self):
        # 98 x {a,b}, 1 x {c}, 1 x {d}; harmonic weights; committee {a,b,c}.
        # Independent oracle: direct satisfaction sum over the unit expansion.
        profile = profile_of(4, ({0, 1}, 98), {2}, {3})
        committee = Committee((0, 1, 2))
        harmonic = WeightVector.harmonic(4)
        expected = Fraction(0)
        for ballot in profile.expand().ballots:
            reps = len(ballot.approved & set(committee.members))
            expected += sum(
                (Fraction(1, j) for j in range(1, reps + 1)), Fraction(0)
            )
        assert expected == 148  # 98 * (3/2) + 1
        assert score_committee(profile, committee, wpav_objective(harmonic)) == expected

    def test_sav_empty_ballot_contributes_zero(self):
        profile = profile_of(2, (set(), 5), ({0}, 1))
        assert score_committee(profile, Committee((0,)), SAV) == 1

    def test_committee_member_out_of_range(self):
        profile = profile_of(2, ({0}, 1))
        with pytest.raises(ProfileError):
            score_committee(profile, Committee((5,)), AV)

    def test_wpav_requires_weights_of_length_m(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            score_committee(
                profile, Committee((0,)), wpav_objective(WeightVector.harmonic(2))
            )

    def test_matches_per_ballot_reference(self):
        # integer tallies against one rational per ballot group, on grouped,
        # merged and expanded profiles with empty ballots and random weights
        rng = random.Random("score-reference")

        def objectives(m):
            tail = []
            for _ in range(m - 1):
                den = rng.randint(1, 7)
                tail.append(Fraction(rng.randint(0, den), den))
            return [
                AV,
                SAV,
                MAV,
                wpav_objective(WeightVector.harmonic(m)),
                wpav_objective(WeightVector.from_values([1] + sorted(tail, reverse=True))),
            ]

        def check(variants, committee, objectives):
            for p in variants:
                for objective in objectives:
                    assert score_committee(p, committee, objective) == naive_score(
                        p, committee, objective
                    ), (p, committee, objective)

        for profile, k in random_instances(
            seed=61, count=120, max_n=12, max_m=9, cultures=["uniform", "urn", "fixed"]
        ):
            committee = random_committee(rng, profile.num_candidates, k)
            check((profile, normalize_profile(profile), profile.expand()), committee,
                  objectives(profile.num_candidates))
        # groups of 10^9 + 7 and 2^40 voters, ballots longer than k, an empty
        # ballot, and the same ballot in two groups (merged, not expanded)
        large = profile_of(
            7,
            ({0, 1, 2, 3, 4}, 10**9 + 7),
            ({1, 4, 5, 6}, 2**40),
            (set(), 3),
            ({4}, 5),
            (set(range(7)), 2**40 - 1),
            ({0, 1, 2, 3, 4}, 1),
        )
        for members in [(1,), (1, 4), (0, 5), (0, 1, 2, 5, 6), tuple(range(7))]:
            check((large, normalize_profile(large)), Committee(members), objectives(7))

    @settings(max_examples=60, deadline=None)
    @given(profile_and_committee())
    def test_multiplicity_invariance(self, case):
        profile, committee = case
        expanded = profile.expand()
        objectives = [AV, SAV, MAV, wpav_objective(WeightVector.harmonic(profile.m))]
        for objective in objectives:
            assert score_committee(profile, committee, objective) == score_committee(
                expanded, committee, objective
            )

    @settings(max_examples=60, deadline=None)
    @given(profile_and_committee())
    def test_av_equals_all_ones_wpav(self, case):
        profile, committee = case
        ones = wpav_objective(WeightVector.all_ones(profile.m))
        assert score_committee(profile, committee, AV) == score_committee(
            profile, committee, ones
        )

    @settings(max_examples=60, deadline=None)
    @given(profile_and_committee())
    def test_mav_matches_set_formula(self, case):
        profile, committee = case
        members = set(committee.members)
        expected = max(
            len(members) + len(b.approved) - 2 * len(members & b.approved)
            for b in profile.ballots
        )
        assert score_committee(profile, committee, MAV) == expected

    @settings(max_examples=60, deadline=None)
    @given(profile_and_committee())
    def test_scores_are_exact_rationals(self, case):
        profile, committee = case
        score = score_committee(
            profile, committee, wpav_objective(WeightVector.harmonic(profile.m))
        )
        assert Fraction(score.numerator, score.denominator) == score
        assert score.denominator > 0
