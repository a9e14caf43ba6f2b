"""Acceptance suite: every criterion runs exactly, at its stated time budget.

Each test prints one `criterion NN PASS/FAIL` line (visible with `pytest -s`).
All expected values are exact; random streams are seeded and deterministic.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from jrvoting.axioms import (
    check_ejr,
    check_ell_jr,
    check_jr,
    check_sjr,
    exists_sjr_committee,
    find_ell_jr_committee,
    find_jr_committee,
    oracle_check_ejr,
    oracle_check_ell_jr,
    oracle_check_jr,
    oracle_check_sjr,
)
from jrvoting.core import (
    AV,
    Committee,
    MAV,
    TieBreak,
    WeightVector,
    score_committee,
    wpav_objective,
)
from jrvoting.corpus import (
    BipartiteGraph,
    FixedSize,
    UniformSubsets,
    build_fixture,
    complete_bipartite,
    has_balanced_biclique,
    random_profile,
    reduce_biclique,
)
from jrvoting.rules import RuleSpec, compute_rule, sequential_trace
from jrvoting.solver import OptimizationRequest, optimize_committee

from conftest import naive_greedy_cover


@contextmanager
def criterion(number, limit_seconds, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number:02d} FAIL ({elapsed:.1f}s): {description}")
        raise
    elapsed = time.perf_counter() - started
    ok = elapsed < limit_seconds
    print(
        f"criterion {number:02d} {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s / limit {limit_seconds}s): {description}"
    )
    assert ok, f"runtime {elapsed:.1f}s exceeded the {limit_seconds}s budget"


def stream(seed, count, *, max_n, max_m, fixed_k=None, max_k=None, ballots_of_size_k=False):
    """Deterministic stream of (profile, k) instances."""
    rng = random.Random(f"acceptance|{seed}")
    for trial in range(count):
        n = rng.randint(1, max_n)
        if fixed_k is not None:
            k = fixed_k
            m = rng.randint(max(2, k), max_m)
        else:
            m = rng.randint(2, max_m)
            k = rng.randint(1, min(m, max_k) if max_k else m)
        if ballots_of_size_k:
            culture = FixedSize(k)
        else:
            culture = UniformSubsets(rng.choice([0.2, 0.35, 0.5, 0.7]))
        profile = random_profile(
            seed=seed * 1_000_003 + trial, n=n, m=m, k=k, culture=culture
        )
        yield profile, k


def test_criterion_01_av_misses_jr_at_k3_but_holds_at_k2_with_jr_ties():
    with criterion(1, 10, "approval voting vs plain and tie-broken representation"):
        fixture = build_fixture("thm4")
        winner = compute_rule(fixture.profile, 3, RuleSpec("av"))
        assert winner.members == (1, 2, 3)
        report = check_jr(fixture.profile, 3, winner)
        assert report.failed and report.witness.candidates == (0,)

        for profile, k in stream(11, 1000, max_n=10, max_m=8, fixed_k=2):
            result = optimize_committee(
                OptimizationRequest(profile, k, AV, TieBreak.PREFER_JR)
            )
            assert check_jr(profile, k, result.committee).passed


def test_criterion_02_sav_and_mav_fail_jr_for_all_small_k():
    with criterion(2, 5, "satisfaction and minimax rules fail representation, k=2..5"):
        for k in (2, 3, 4, 5):
            sav_fixture = build_fixture("thm5_sav", k=k)
            winner = compute_rule(sav_fixture.profile, k, RuleSpec("sav"))
            assert winner.members == tuple(range(k + 1, 2 * k + 1))
            assert check_jr(sav_fixture.profile, k, winner).failed

            mav_fixture = build_fixture("thm5_mav", k=k)
            winner = compute_rule(mav_fixture.profile, k, RuleSpec("mav"))
            assert winner.members == tuple(range(k))
            assert score_committee(mav_fixture.profile, winner, MAV) == k + 1
            assert check_jr(mav_fixture.profile, k, winner).failed


def test_criterion_03_mav_with_jr_ties_on_size_k_ballots():
    with criterion(3, 120, "minimax on size-k ballots with jr-preferring ties"):
        for profile, k in stream(33, 1000, max_n=10, max_m=8, max_k=4, ballots_of_size_k=True):
            result = optimize_committee(
                OptimizationRequest(profile, k, MAV, TieBreak.PREFER_JR)
            )
            assert check_jr(profile, k, result.committee).passed


def test_criterion_04_sequential_reweighting_on_the_1199_voter_profile():
    with criterion(4, 1, "1199-voter sequential failure at k=10 and k=11"):
        fixture = build_fixture("thm7")
        harmonic = WeightVector.harmonic(11)
        trace = sequential_trace(fixture.profile, 10, harmonic)
        assert trace[0].weight == 162
        assert trace[2].candidate == 6 and trace[2].weight == 147
        committee = Committee.of(r.candidate for r in trace)
        assert 10 not in committee
        report = check_jr(fixture.profile, 10, committee)
        assert report.failed and report.witness.group_size == 120

        extended = build_fixture("thm7_extended", k=11)
        harmonic12 = WeightVector.harmonic(12)
        trace = sequential_trace(extended.profile, 11, harmonic12)
        assert trace[0].weight == 162
        assert trace[2].candidate == 6 and trace[2].weight == 147
        committee = Committee.of(r.candidate for r in trace)
        excluded = set(range(12)) - set(committee.members)
        assert excluded == {11}  # one fully cohesive 120-voter bloc is shut out
        report = check_jr(extended.profile, 11, committee)
        assert report.failed and report.witness.group_size == 120


def test_criterion_05_every_positive_second_weight_fails_at_scale():
    with criterion(5, 60, "349,866-voter construction, w2=1/8, k=342"):
        fixture = build_fixture("thm8", s=8, w2=Fraction(1, 8))
        profile = fixture.profile
        assert profile.n == 349_866 and fixture.k == 342
        assert len(profile.ballots) == 648  # multiplicity-grouped, never expanded
        block_shared = list(range(323, 342))
        block_grid = list(range(0, 323))
        trace = sequential_trace(profile, fixture.k, fixture.weights)
        assert [r.candidate for r in trace[:19]] == block_shared
        assert [r.candidate for r in trace[19:]] == block_grid
        committee = Committee.of(r.candidate for r in trace)
        assert 342 not in committee  # x never elected
        report = check_jr(profile, fixture.k, committee)
        assert report.failed
        assert report.witness.candidates == (342,)
        assert report.witness.group_size == 1023  # exactly n/k


def test_criterion_06_weight_density_counterexamples():
    with criterion(6, 30, "inflated and deflated second-weight counterexamples"):
        lemma1 = build_fixture("lemma1", j=2, epsilon=Fraction(1, 4), k=4)
        spec = RuleSpec("wpav", weights=lemma1.weights)
        winner = compute_rule(lemma1.profile, 4, spec)
        assert winner.members == (1, 2, 3, 4)  # everything except the bloc candidate
        assert check_jr(lemma1.profile, 4, winner).failed
        objective = wpav_objective(lemma1.weights)
        best = score_committee(lemma1.profile, winner, objective)
        for members in itertools.combinations(range(5), 4):
            if 0 in members:
                assert best > score_committee(lemma1.profile, Committee(members), objective)

        lemma2 = build_fixture("lemma2", j=2, epsilon=Fraction(1, 8), k=11)
        spec = RuleSpec("wpav", weights=lemma2.weights)
        winner = compute_rule(lemma2.profile, 11, spec)  # C(12, 11) = 12 committees
        assert winner.members == tuple(c for c in range(12) if c != 1)
        assert check_ell_jr(lemma2.profile, 11, winner, 2).failed
        objective = wpav_objective(lemma2.weights)
        drop_pair = score_committee(lemma2.profile, winner, objective)
        drop_single = score_committee(
            lemma2.profile, Committee.of(range(11)), objective
        )
        assert drop_pair > drop_single


def test_criterion_07_harmonic_optimum_provides_extended_representation():
    with criterion(7, 300, "1000 random profiles: harmonic optimum passes ejr; checker matches oracle"):
        for profile, k in stream(77, 1000, max_n=10, max_m=8, max_k=4):
            harmonic = WeightVector.harmonic(profile.num_candidates)
            winner = compute_rule(profile, k, RuleSpec("wpav", weights=harmonic))
            report = check_ejr(profile, k, winner)
            assert report.passed
            assert oracle_check_ejr(profile, k, winner) == report.passed


def test_criterion_08_greedy_constructions_are_sound():
    with criterion(8, 120, "greedy cover on 10k profiles; level-l greedy on 3x1k"):
        for profile, k in stream(88, 10_000, max_n=10, max_m=8):
            committee = find_jr_committee(profile, k)
            assert check_jr(profile, k, committee).passed
        for ell in (1, 2, 3):
            count = 0
            for profile, k in stream(880 + ell, 2000, max_n=10, max_m=8):
                if k < ell:
                    continue
                count += 1
                if count > 1000:
                    break
                committee = find_ell_jr_committee(profile, k, ell)
                assert check_ell_jr(profile, k, committee, ell).passed
            assert count > 1000


def test_criterion_09_biclique_reduction_is_faithful():
    with criterion(9, 60, "hardness reduction matches brute-force biclique search"):
        full = complete_bipartite(3, 3)
        instance = reduce_biclique(full, 3)
        assert instance.profile.n == 12 and instance.k == 4
        report = check_ejr(instance.profile, instance.k, instance.committee)
        assert report.failed and report.witness.level == 3

        for edge in sorted(full.edges):
            pruned = BipartiteGraph(3, 3, full.edges - {edge})
            sub = reduce_biclique(pruned, 3)
            assert check_ejr(sub.profile, sub.k, sub.committee).passed

        all_edges = sorted(itertools.product(range(3), range(3)))
        for bits in range(2**9):
            edges = frozenset(e for i, e in enumerate(all_edges) if bits >> i & 1)
            graph = BipartiteGraph(3, 3, edges)
            sub = reduce_biclique(graph, 3)
            fails = check_ejr(sub.profile, sub.k, sub.committee).failed
            assert fails == has_balanced_biclique(graph, 3)


def test_criterion_10_strong_representation_fixtures():
    with criterion(10, 1, "strong representation: impossible here, achievable there"):
        ex5 = build_fixture("example5")
        assert exists_sjr_committee(ex5.profile, 2) is None
        for members in itertools.combinations(range(4), 2):
            assert check_sjr(ex5.profile, 2, Committee(members)).failed
        assert check_ejr(ex5.profile, 2, Committee((0, 3))).passed

        ex6 = build_fixture("example6")
        assert check_sjr(ex6.profile, 3, Committee((0, 2, 3))).passed


def test_criterion_11_checkers_agree_with_definition_oracles():
    with criterion(11, 300, "500 random instances: fast checkers vs subset enumeration"):
        rng = random.Random("committees|11")
        for profile, k in stream(111, 500, max_n=9, max_m=7):
            committee = Committee.of(rng.sample(range(profile.num_candidates), k))
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


def test_criterion_12_rule_identities():
    with criterion(12, 60, "av == all-ones satisfaction; greedy cover == coverage reweighting"):
        for profile, k in stream(122, 1000, max_n=10, max_m=8):
            ones = WeightVector.all_ones(profile.num_candidates)
            assert compute_rule(profile, k, RuleSpec("av")) == compute_rule(
                profile, k, RuleSpec("wpav", weights=ones)
            )
            greedy = naive_greedy_cover(profile, k)
            assert find_jr_committee(profile, k) == greedy
            assert compute_rule(profile, k, RuleSpec("gav")) == greedy
