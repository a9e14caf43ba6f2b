"""Axiom checkers vs. brute-force oracles, greedy constructions, witnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from jrvoting.axioms import (
    check_ejr,
    check_ell_jr,
    check_jr,
    check_sjr,
    check_unanimity,
    exists_sjr_committee,
    find_ell_jr_committee,
    find_jr_committee,
    oracle_check_ejr,
    oracle_check_ell_jr,
    oracle_check_jr,
    oracle_check_sjr,
    replay_witness,
)
from jrvoting.core import BudgetExhausted, Committee, WeightVector
from jrvoting.corpus import build_fixture, complete_bipartite, reduce_biclique
from jrvoting.rules import compute_sequential_rule

from conftest import profile_of, random_committee, random_instances


class TestCheckJR:
    def test_slate_leaves_the_singleton_bloc_out(self):
        fixture = build_fixture("thm4")
        report = check_jr(fixture.profile, 3, Committee((1, 2, 3)))
        assert report.failed
        assert report.witness.candidates == (0,)
        assert report.witness.group_size == 1  # n/k = 1 exactly

    def test_1199_voter_witness(self):
        fixture = build_fixture("thm7")
        report = check_jr(fixture.profile, 10, Committee.of(range(10)))
        assert report.failed
        assert report.witness.candidates == (10,)
        assert report.witness.group_size == 120  # 120 > 1199/10

    def test_full_coverage_passes(self):
        profile = profile_of(4, ({0, 1}, 5), ({2}, 2))
        report = check_jr(profile, 2, Committee((0, 2)))
        assert report.passed and report.witness is None

    def test_exact_quota_boundary_counts_as_violation(self):
        # group size exactly n/k must block: 2 unserved voters, n=4, k=2
        profile = profile_of(4, ({0}, 2), ({1}, 2))
        assert check_jr(profile, 2, Committee((2, 3))).failed
        assert check_jr(profile, 2, Committee((0, 1))).passed

    def test_committee_size_must_match_k(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            check_jr(profile, 2, Committee((0,)))

    def test_committee_member_out_of_range(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            check_jr(profile, 1, Committee((7,)))


class TestCheckEllJR:
    def test_large_bloc_demands_two_seats(self):
        fixture = build_fixture("sec4_intro")
        report = check_ell_jr(fixture.profile, 3, Committee((0, 2, 3)), 2)
        assert report.failed
        assert report.witness.candidates == (0, 1)
        assert report.witness.group_size == 98  # 3*98 >= 2*100
        assert report.witness.level == 2

    def test_serving_the_bloc_satisfies_level_two(self):
        fixture = build_fixture("sec4_intro")
        assert check_ell_jr(fixture.profile, 3, Committee((0, 1, 2)), 2).passed

    def test_level_one_equals_plain_check(self):
        rng = random.Random(7)
        for profile, k in random_instances(seed=55, count=40, max_n=8, max_m=7):
            committee = random_committee(rng, profile.m, k)
            assert (
                check_ell_jr(profile, k, committee, 1).passed
                == check_jr(profile, k, committee).passed
            )

    def test_level_out_of_range(self):
        profile = profile_of(3, ({0}, 1))
        with pytest.raises(ValueError):
            check_ell_jr(profile, 2, Committee((0, 1)), 0)
        with pytest.raises(ValueError):
            check_ell_jr(profile, 2, Committee((0, 1)), 3)


class TestCheckEJR:
    def test_rotated_pairs_pass(self):
        fixture = build_fixture("example5")
        assert check_ejr(fixture.profile, 2, Committee((0, 3))).passed

    def test_greedy_cover_output_fails_at_level_two(self):
        fixture = build_fixture("sec4_intro")
        report = check_ejr(fixture.profile, 3, Committee((0, 2, 3)))
        assert report.failed and report.witness.level == 2

    def test_complete_biclique_instance_fails_at_level_three(self):
        instance = reduce_biclique(complete_bipartite(3, 3), 3)
        report = check_ejr(instance.profile, instance.k, instance.committee)
        assert report.failed
        assert report.witness.level == 3
        assert report.witness.group_size == 9

    def test_implies_plain_representation(self):
        rng = random.Random(8)
        for profile, k in random_instances(seed=56, count=40, max_n=8, max_m=7):
            committee = random_committee(rng, profile.m, k)
            if check_ejr(profile, k, committee).passed:
                assert check_jr(profile, k, committee).passed


class TestCheckSJR:
    def test_rotated_pairs_fail_with_pair_witness(self):
        fixture = build_fixture("example5")
        report = check_sjr(fixture.profile, 2, Committee((0, 3)))
        assert report.failed
        assert report.witness.candidates == (1,)
        assert report.witness.ballot_indices == (0, 2)
        assert report.witness.group_size == 2

    def test_pair_bloc_with_singletons_passes(self):
        fixture = build_fixture("example6")
        assert check_sjr(fixture.profile, 3, Committee((0, 2, 3))).passed

    def test_single_voter_with_full_committee(self):
        profile = profile_of(3, ({0, 2}, 1))
        assert check_sjr(profile, 2, Committee((0, 2))).passed


class TestCheckUnanimity:
    def test_skipping_the_common_candidate_fails(self):
        fixture = build_fixture("example2", k=2)
        report = check_unanimity(fixture.profile, 2, Committee((1, 2)))
        assert report.failed
        assert report.witness.candidates == (0,)
        assert report.witness.group_size == 3

    def test_vacuous_when_no_common_candidate(self):
        profile = profile_of(4, ({0, 1}, 1), ({2, 3}, 1))
        assert check_unanimity(profile, 2, Committee((0, 1))).passed

    def test_single_voter_subset_committee(self):
        profile = profile_of(4, ({1, 2, 3}, 1))
        assert check_unanimity(profile, 2, Committee((1, 2))).passed


class TestFindJRCommittee:
    def test_includes_the_singleton_bloc_candidate(self):
        fixture = build_fixture("thm4")
        committee = find_jr_committee(fixture.profile, 3)
        assert 0 in committee
        assert check_jr(fixture.profile, 3, committee).passed

    def test_shared_candidate_then_fill(self):
        fixture = build_fixture("example2", k=2)
        assert find_jr_committee(fixture.profile, 2).members == (0, 1)

    def test_two_disjoint_singletons(self):
        profile = profile_of(2, ({0}, 1), ({1}, 1))
        assert find_jr_committee(profile, 2).members == (0, 1)

    def test_sound_on_random_profiles(self):
        for profile, k in random_instances(seed=57, count=300, max_n=10, max_m=8):
            committee = find_jr_committee(profile, k)
            assert check_jr(profile, k, committee).passed


class TestFindEllJRCommittee:
    def test_serves_the_large_bloc_first(self):
        fixture = build_fixture("sec4_intro")
        committee = find_ell_jr_committee(fixture.profile, 3, 2)
        assert committee.members == (0, 1, 2)
        assert check_ell_jr(fixture.profile, 3, committee, 2).passed

    def test_level_one_behaves_like_a_cover(self):
        for profile, k in random_instances(seed=58, count=40, max_n=8, max_m=7):
            committee = find_ell_jr_committee(profile, k, 1)
            assert check_ell_jr(profile, k, committee, 1).passed

    def test_no_cohesive_group_fills_lowest_indices(self):
        profile = profile_of(5, ({0}, 1), ({1}, 1), ({2}, 1))
        assert find_ell_jr_committee(profile, 3, 2).members == (0, 1, 2)

    def test_sound_at_levels_up_to_three(self):
        for ell in (1, 2, 3):
            for profile, k in random_instances(
                seed=59 + ell, count=60, max_n=9, max_m=7
            ):
                if k < ell:
                    continue
                committee = find_ell_jr_committee(profile, k, ell)
                assert check_ell_jr(profile, k, committee, ell).passed


class TestExistsSJR:
    def test_rotated_pairs_have_no_strong_committee(self):
        fixture = build_fixture("example5")
        assert exists_sjr_committee(fixture.profile, 2) is None
        # every one of the six committees fails individually
        for members in itertools.combinations(range(4), 2):
            assert check_sjr(fixture.profile, 2, Committee(members)).failed

    def test_pair_bloc_instance_has_strong_committees(self):
        fixture = build_fixture("example6")
        first = exists_sjr_committee(fixture.profile, 3)
        assert first.members == (0, 1, 2)
        assert check_sjr(fixture.profile, 3, Committee((0, 2, 3))).passed

    def test_single_ballot_lexicographic_first_hit(self):
        profile = profile_of(3, ({1, 2}, 1))
        assert exists_sjr_committee(profile, 1).members == (1,)

    def test_budget(self):
        fixture = build_fixture("example5")
        with pytest.raises(BudgetExhausted):
            exists_sjr_committee(fixture.profile, 2, budget=3)


class TestOracles:
    """The brute-force oracles agree with the fast checkers."""

    def test_oracles_reproduce_known_verdicts(self):
        thm4 = build_fixture("thm4")
        assert not oracle_check_jr(thm4.profile, 3, Committee((1, 2, 3)))
        sec4 = build_fixture("sec4_intro")
        assert not oracle_check_ell_jr(sec4.profile, 3, Committee((0, 2, 3)), 2)
        assert oracle_check_ell_jr(sec4.profile, 3, Committee((0, 1, 2)), 2)
        ex5 = build_fixture("example5")
        assert oracle_check_ejr(ex5.profile, 2, Committee((0, 3)))
        assert not oracle_check_sjr(ex5.profile, 2, Committee((0, 3)))
        ex6 = build_fixture("example6")
        assert oracle_check_sjr(ex6.profile, 3, Committee((0, 2, 3)))

    def test_fast_checkers_agree_with_oracles(self):
        rng = random.Random(9)
        for profile, k in random_instances(seed=60, count=80, max_n=8, max_m=6):
            committee = random_committee(rng, profile.m, k)
            assert (
                check_jr(profile, k, committee).passed
                == oracle_check_jr(profile, k, committee)
            )
            assert (
                check_sjr(profile, k, committee).passed
                == oracle_check_sjr(profile, k, committee)
            )
            for ell in range(1, k + 1):
                assert (
                    check_ell_jr(profile, k, committee, ell).passed
                    == oracle_check_ell_jr(profile, k, committee, ell)
                )


class TestWitnessValidity:
    def test_failure_witnesses_replay_against_the_definitions(self):
        rng = random.Random(10)
        replayed = 0
        for profile, k in random_instances(seed=61, count=120, max_n=9, max_m=7):
            committee = random_committee(rng, profile.m, k)
            reports = [
                check_jr(profile, k, committee),
                check_sjr(profile, k, committee),
                check_ejr(profile, k, committee),
                check_unanimity(profile, k, committee),
            ]
            reports += [
                check_ell_jr(profile, k, committee, ell) for ell in range(1, k + 1)
            ]
            for report in reports:
                if report.failed:
                    replayed += 1
                    assert replay_witness(profile, k, committee, report)
        assert replayed > 20  # the stream must actually exercise failures

    def test_passing_reports_have_nothing_to_replay(self):
        profile = profile_of(2, ({0}, 1))
        report = check_jr(profile, 1, Committee((0,)))
        assert not replay_witness(profile, 1, Committee((0,)), report)


class TestMultiplicityInvariance:
    def test_verdicts_match_on_unit_expansion(self):
        rng = random.Random(11)
        for profile, k in random_instances(seed=63, count=30, max_n=8, max_m=6):
            expanded = profile.expand()
            committee = random_committee(rng, profile.m, k)
            checks = [
                lambda p: check_jr(p, k, committee).passed,
                lambda p: check_sjr(p, k, committee).passed,
                lambda p: check_ejr(p, k, committee).passed,
                lambda p: check_unanimity(p, k, committee).passed,
                lambda p: find_jr_committee(p, k),
                lambda p: exists_sjr_committee(p, k),
            ]
            for check in checks:
                assert check(profile) == check(expanded)


class TestSequentialWeightGuarantees:
    def test_geometric_weights_respect_representation(self):
        for profile, k in random_instances(seed=62, count=150, max_n=9, max_m=7):
            weights = WeightVector.geometric(profile.m, Fraction(1, profile.n))
            committee = compute_sequential_rule(profile, k, weights)
            assert check_jr(profile, k, committee).passed


class TestExistsSJRSearch:
    def test_matches_enumeration_at_every_k(self):
        cultures = ["uniform", "urn", "fixed"]
        for profile, _ in random_instances(
            seed=64, count=45, max_n=6, max_m=6, cultures=cultures
        ):
            for k in range(1, profile.m + 1):
                expected = next(
                    (
                        Committee(members)
                        for members in itertools.combinations(range(profile.m), k)
                        if oracle_check_sjr(profile, k, Committee(members))
                    ),
                    None,
                )
                assert exists_sjr_committee(profile, k) == expected, (k, profile)

    def test_stops_at_the_first_passing_committee(self):
        # the depth-first search visits exactly the prefixes of the committees
        # up to the first passing one, so that many nodes always suffice
        found = 0
        for profile, k in random_instances(seed=65, count=40, max_n=7, max_m=7):
            first = exists_sjr_committee(profile, k)
            if first is None:
                continue
            found += 1
            prefixes = set()
            for members in itertools.combinations(range(profile.m), k):
                prefixes.update(members[:depth] for depth in range(k + 1))
                if members == first.members:
                    break
            assert exists_sjr_committee(profile, k, budget=len(prefixes)) == first
            if len(prefixes) > 1:
                with pytest.raises(BudgetExhausted):
                    exists_sjr_committee(profile, k, budget=len(prefixes) - 1)
        assert found > 20
