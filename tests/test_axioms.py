"""Axiom checkers vs. brute-force oracles, greedy constructions, witnesses."""

import collections
import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from jrvoting.axioms import (
    EJR,
    ELL_JR,
    JR,
    SJR,
    AxiomReport,
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
    Witness,
)
from jrvoting.cli import main, parse_profile
from jrvoting.core import BallotProfile, BudgetExhausted, Committee, WeightVector
from jrvoting.corpus import (
    BipartiteGraph,
    build_fixture,
    complete_bipartite,
    has_balanced_biclique,
    reduce_biclique,
)
from jrvoting.rules import (
    RuleSpec,
    compute_sequential_rule,
    compute_with_score,
    report_score,
    sequential_trace,
)

from conftest import (
    frozenset_cohesive_set,
    naive_first_cohesive_set,
    naive_greedy_cover,
    owner_loop_sjr_witness,
    party_list_instances,
    profile_of,
    random_committee,
    random_instances,
)


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

    def test_party_lists_fail_exactly_where_a_party_is_owed_a_seat(self):
        # on party lists a cohesive group lies within one party, so level l
        # fails iff some party p with s_p seats and a list longer than s_p
        # has votes_p * k >= l * n for an l > s_p; the least failing level
        # is the least such s_p + 1
        rng = random.Random(15)
        failed = 0
        for profile, k, lists, votes in party_list_instances(seed=16, count=400):
            n = profile.n
            for _ in range(5):
                committee = random_committee(rng, profile.m, k)
                owed = {}  # level -> the lists of the parties owed a seat there
                for party, party_votes in zip(lists, votes):
                    seats = len(set(party) & set(committee.members))
                    if seats < len(party) and party_votes * k >= (seats + 1) * n:
                        owed.setdefault(seats + 1, []).append(set(party))
                report = check_ejr(profile, k, committee)
                if not owed:
                    assert report.passed, (lists, votes, committee)
                    continue
                level = min(owed)
                assert report.failed and report.witness.level == level, (lists, votes, committee)
                assert any(set(report.witness.candidates) <= party for party in owed[level])
                failed += 1
        assert 500 < failed < 1500, failed


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

    def test_cover_loop_elects_the_coverage_rounds(self):
        # the committee is the winners of the sequential rounds with coverage
        # weights and the naive greedy cover, on parsed documents (repeated
        # lines, empty ballots, multiplicities up to a billion) and on the
        # same ballots as pairs, with k up to m; gav's score, read from the
        # columns, is the one its weight vector gives
        rng = random.Random("greedy cover")
        early = whole = huge = 0
        for _ in range(400):
            m = rng.randint(1, 12)
            k = m if rng.random() < 0.25 else rng.randint(1, m)
            lines = []
            for _ in range(rng.randint(1, 10)):
                if lines and rng.random() < 0.3:
                    lines.append(rng.choice(lines))
                    continue
                size = rng.choice([0, 1, 2, rng.randint(0, m)])
                mult = rng.choice([1, 1, 2, 7, 10**9, rng.randint(1, 10**9)])
                approved = sorted(rng.sample(range(m), min(size, m)))
                lines.append(f"{mult}:" + "".join(f" {c}" for c in approved))
            parsed = parse_profile("\n".join([f"m {m}", *lines]) + "\n")[0]
            pairs = [(ballot.approved, ballot.multiplicity) for ballot in parsed.ballots]
            for profile in (parsed, BallotProfile.from_groups(m, pairs)):
                trace = sequential_trace(profile, k, WeightVector.coverage(m))
                committee = find_jr_committee(profile, k)
                assert committee == Committee.of(record.candidate for record in trace)
                assert committee == naive_greedy_cover(profile, k)
                spec = RuleSpec("gav")
                assert compute_with_score(profile, k, spec) == (
                    committee, report_score(profile, k, spec, committee))
            early += trace[-1].weight == 0  # covered before the last seat
            whole += k == m
            huge += max(parsed.index.mults) >= 10**9
        assert early > 100 and whole > 50 and huge > 100, (early, whole, huge)

    def test_cover_loop_reads_only_the_columns(self, tmp_path, monkeypatch, capsys):
        # neither `find --axiom jr` nor `compute --rule gav` builds `owners`,
        # `approval_scores` or any weight vector
        built = collections.Counter()
        real_tallies = BallotProfile._tallies.func
        real_weights = WeightVector.__post_init__

        def tallies(profile):
            built["tallies"] += 1
            return real_tallies(profile)

        def weights(vector):
            built["weights"] += 1
            real_weights(vector)

        prop = functools.cached_property(tallies)
        prop.__set_name__(BallotProfile, "_tallies")
        monkeypatch.setattr(BallotProfile, "_tallies", prop)
        monkeypatch.setattr(WeightVector, "__post_init__", weights)
        path = tmp_path / "profile.txt"
        path.write_text("m 5\nk 3\n3: 0 1\n2: 2\n1: 3\n1: 0 3\n1:\n")
        assert main(["find", "--axiom", "jr", "--format", "machine", str(path)]) == 0
        assert "committee=0,2,3" in capsys.readouterr().out.splitlines()
        assert built == {}
        assert main(["compute", "--rule", "gav", "--format", "machine", str(path)]) == 0
        assert "committee=0,2,3" in capsys.readouterr().out.splitlines()
        assert built == {}

    def test_gav_takes_no_more_memory_than_the_cover_loop(self, tmp_path, capsys):
        # on 200,000 candidates, `compute --rule gav` peaks where
        # `find --axiom jr` does: scoring the committee builds nothing per
        # candidate, where a length-m weight vector would add 1.7 MB
        path = tmp_path / "wide.profile"
        path.write_text("m 200000\n1: 199999 0\n1: 5\n")
        peaks = []
        for argv in (["find", "--axiom", "jr"], ["compute", "--rule", "gav"]):
            tracemalloc.start()
            try:
                assert main([*argv, "--k", "1", "--format", "machine", str(path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert "committee=0" in capsys.readouterr().out.splitlines()
        assert peaks[1] < peaks[0] + 500_000, peaks


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


class TestCohesiveSetSearch:
    """The pruned search behind check_ell_jr, check_ejr and
    find_ell_jr_committee finds what the plain l-subset scan finds."""

    @staticmethod
    def naive_ell_greedy(profile, k, ell):
        chosen = ()
        while len(chosen) <= k - ell:
            wmask = sum(1 << c for c in chosen)
            found = naive_first_cohesive_set(profile, k, ell, wmask, wmask)
            if found is None:
                break
            chosen += found[0]
        rest = [c for c in range(profile.m) if c not in chosen]
        return Committee.of(chosen + tuple(rest[: k - len(chosen)]))

    def test_matches_the_subset_scan_at_every_level(self):
        rng = random.Random(12)
        cultures = ["uniform", "fixed", "urn"]
        deep_failures = 0
        for profile, k in random_instances(
            seed=66, count=1000, max_n=12, max_m=8, cultures=cultures
        ):
            committee = random_committee(rng, profile.m, k)
            first = None
            for ell in range(1, k + 1):
                found = naive_first_cohesive_set(profile, k, ell, committee.mask)
                expected = None if found is None else Witness(ell, *found)
                assert check_ell_jr(profile, k, committee, ell).witness == expected
                first = first or expected
                deep_failures += ell > 1 and found is not None
                assert find_ell_jr_committee(profile, k, ell) == self.naive_ell_greedy(
                    profile, k, ell
                )
            assert check_ejr(profile, k, committee).witness == first
        assert deep_failures > 50  # the stream must reach failures above level one

    def test_biclique_reduction_sweep(self):
        rng = random.Random(13)
        verdicts = set()
        for size in (4, 6, 8, 10):
            for ell in (3, 4, 5):
                for density in (0.5, 0.7, 0.9):
                    edges = frozenset(
                        (u, v)
                        for u in range(size)
                        for v in range(size)
                        if rng.random() < density
                    )
                    graph = BipartiteGraph(size, size, edges)
                    instance = reduce_biclique(graph, ell)
                    expected = has_balanced_biclique(graph, ell)
                    report = check_ell_jr(
                        instance.profile, instance.k, instance.committee, ell
                    )
                    assert report.failed == expected, (size, ell, sorted(edges))
                    verdicts.add(expected)
        assert verdicts == {False, True}

    def test_level_beyond_the_recursion_limit(self):
        profile = BallotProfile.from_approval_sets(1100, [range(1, 1100)])
        report = check_ell_jr(profile, 1099, Committee.of(range(1099)), 1099)
        assert report.witness == Witness(1099, tuple(range(1, 1100)), (0,), 1)
        committee = find_ell_jr_committee(profile, 1099, 1099)
        assert committee.members == tuple(range(1, 1100))


def _column_documents(seed, count):
    """Profile documents for the column engine: multiplicities from 1 to a
    billion, drawn from palettes of one to seven distinct values, now and
    then an empty ballot, and lines repeated verbatim."""
    rng = random.Random(f"columns|{seed}")
    palettes = [(1,), (3,), (1, 2), (1, 2, 3, 4, 5, 6, 7), (1, 3, 64, 10**9), (10**9,), (5, 7, 10**9)]
    for raw, k in random_instances(seed=seed, count=count, max_n=30, min_m=5, max_m=9,
                                   cultures=["uniform", "fixed", "urn"]):
        palette = rng.choice(palettes)
        lines = [f"{rng.choice(palette)}:" + "".join(f" {c}" for c in sorted(ballot.approved))
                 for ballot in raw.ballots]
        if rng.random() < 0.3:
            lines.append(f"{rng.choice(palette)}:")
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
        yield "\n".join([f"m {raw.m}"] + lines) + "\n", k


def _column_committees(rng, profile, k):
    """A random committee, one that covers no voter, one that covers every
    voter with a nonempty ballot and one that covers every voter but those
    of the heaviest ballot group, where such committees exist."""
    committees = [random_committee(rng, profile.m, k)]
    groups = [set(members) for members in profile.index.members]
    idle = [c for c in range(profile.m) if c not in set().union(*groups)]
    if len(idle) >= k:
        committees.append(Committee.of(idle[:k]))
    mults = profile.index.mults
    for left in (set(), groups[mults.index(max(mults))]):
        cover = set()
        for members in groups:
            if members and members != left and not cover & members:
                cover.add(min(members - left, default=min(members)))
        rest = [c for c in range(profile.m) if c not in cover | left]
        if len(cover) <= k <= len(cover) + len(rest):
            committees.append(Committee.of(sorted(cover) + rest[: k - len(cover)]))
    return committees


def _reference_report(axiom, profile, k, committee, ell):
    found = frozenset_cohesive_set(profile, k, ell, committee.mask)
    if found is None:
        return AxiomReport(axiom, passed=True)
    return AxiomReport(axiom, passed=False, witness=Witness(ell, *found))


def _reference_ell_greedy(profile, k, ell):
    wmask = 0
    for _ in range(k // ell):
        found = frozenset_cohesive_set(profile, k, ell, wmask, wmask)
        if found is None:
            break
        wmask |= sum(1 << c for c in found[0])
    chosen = [c for c in range(profile.m) if wmask >> c & 1]
    rest = [c for c in range(profile.m) if not wmask >> c & 1]
    return Committee.of(chosen + rest[: k - len(chosen)])


class TestColumnEngine:
    """The axiom checks on the profile's candidate columns give the reports
    and committees of the frozenset search and the owner loop they
    replaced, whether the columns are built before a check or not."""

    def test_reports_and_committees_match_the_frozenset_search(self):
        rng = random.Random("column engine")
        failures = few_active = deep = 0
        for text, k in _column_documents(seed=2626, count=700):
            parsed = parse_profile(text)[0]
            for committee in _column_committees(rng, parsed, k):
                expected = {}
                for ell in range(1, k + 1):
                    expected[ell] = _reference_report(ELL_JR, parsed, k, committee, ell)
                jr = _reference_report(JR, parsed, k, committee, 1)
                ejr = next((AxiomReport(EJR, passed=False, witness=report.witness)
                            for report in expected.values() if report.failed),
                           AxiomReport(EJR, passed=True))
                found = owner_loop_sjr_witness(parsed, k, committee)
                sjr = AxiomReport(SJR, passed=found is None,
                                  witness=None if found is None else Witness(1, *found))
                # a fresh profile reads the groups' bitmasks first; a second
                # profile has its columns built before every check
                for built in (False, True):
                    profile = parse_profile(text)[0]
                    if built:
                        assert len(profile.columns) == profile.m
                    reports = [(check_jr(profile, k, committee), jr),
                               (check_ejr(profile, k, committee), ejr),
                               (check_sjr(profile, k, committee), sjr)]
                    reports += [(check_ell_jr(profile, k, committee, ell), expected[ell])
                                for ell in expected]
                    for report, reference in reports:
                        assert repr(report) == repr(reference)
                        if report.failed:
                            failures += 1
                            assert replay_witness(profile, k, committee, report)
                index = parsed.index
                for ell, report in expected.items():
                    held = [g for g, mask in enumerate(index.masks)
                            if (mask & committee.mask).bit_count() < ell]
                    # the searches over the few active groups alone
                    few_active += (8 * len(held) <= len(index.masks)
                                   and k * sum(index.mults[g] for g in held) >= ell * parsed.n)
                    deep += report.failed and ell > 1
            for ell in range(1, k + 1):
                assert find_ell_jr_committee(parsed, k, ell) == _reference_ell_greedy(parsed, k, ell)
        # the stream fails checks at deep levels and searches few active groups
        assert failures > 2000 and deep > 100 and few_active > 40

    def test_columns_are_built_once_per_profile(self, monkeypatch):
        built = collections.Counter()  # profile id -> column builds
        real = BallotProfile.columns.func
        kept = []  # the profiles, alive so that their ids stay theirs

        def spy(profile):
            built[id(profile)] += 1
            kept.append(profile)
            return real(profile)

        prop = functools.cached_property(spy)
        prop.__set_name__(BallotProfile, "columns")
        monkeypatch.setattr(BallotProfile, "columns", prop)
        rng = random.Random("built once")
        profiles = 0
        for text, k in _column_documents(seed=77, count=200):
            for committee in _column_committees(rng, parse_profile(text)[0], k):
                profile = parse_profile(text)[0]
                check_ejr(profile, k, committee)
                for ell in range(1, k + 1):
                    find_ell_jr_committee(profile, k, ell)
                    check_ell_jr(profile, k, committee, ell)
                profiles += 1
        assert max(built.values()) == 1
        assert len(built) > profiles // 2  # most profiles reach a search

    def test_witness_over_few_active_groups_names_only_its_own(self):
        # 14 covered groups and 2 uncovered ones: the search runs over those
        # two alone, and the witness names the ballots of one of them
        lines = [f"1: {c}" for c in range(10)] + [f"1: {c} {c + 1}" for c in range(4)]
        text = "\n".join(["m 12", "1: 11", *lines, "100: 10"]) + "\n"
        profile = parse_profile(text)[0]
        committee = Committee.of(range(10))
        report = check_jr(profile, 10, committee)
        assert report.witness == Witness(1, (10,), (15,), 100)
        assert "columns" not in vars(profile)
        assert repr(report) == repr(_reference_report(JR, profile, 10, committee, 1))

    def test_jr_check_passing_by_the_early_exit_builds_no_columns(self):
        # 3 of 10 voters go unrepresented, below the quota n / k = 5
        profile = parse_profile("m 5\n7: 0 1\n2: 2 3\n1: 4\n")[0]
        assert check_jr(profile, 2, Committee((0, 1))).passed
        assert check_ejr(profile, 2, Committee((0, 1))).passed
        assert "columns" not in vars(profile)
        assert "_tallies" not in vars(profile)


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


class TestWitnessesNameEveryLine:
    """A violating group that spans repeated and respelled document lines:
    the witness names every one of those lines, in ascending order."""

    # lines 0, 1, 2 and 3 all approve {0, 1}: 9 voters out of 12
    DOCUMENT = "m 5\nk 3\n3: 0 1\n2: 1 0\n# a comment\n3: 0 1\n1: 00 01\n1: 2\n1: 3\n1: 4\n"

    @pytest.mark.parametrize(
        "check, committee, level, candidates",
        [
            (check_jr, (2, 3, 4), 1, (0,)),
            (lambda p, k, w: check_ell_jr(p, k, w, 2), (0, 2, 3), 2, (0, 1)),
            (check_ejr, (0, 2, 3), 2, (0, 1)),
            (check_sjr, (2, 3, 4), 1, (0, 1)),
        ],
    )
    def test_group_witness(self, check, committee, level, candidates):
        profile, k = parse_profile(self.DOCUMENT)
        committee = Committee(committee)
        report = check(profile, k, committee)
        assert report.failed
        witness = report.witness
        assert (witness.level, witness.candidates) == (level, candidates)
        assert witness.ballot_indices == (0, 1, 2, 3)
        assert witness.group_size == sum(profile.ballots[i].multiplicity for i in (0, 1, 2, 3)) == 9
        assert replay_witness(profile, k, committee, report)

    def test_unanimity_witness(self):
        profile, k = parse_profile("m 3\nk 1\n2: 0 1\n1: 1 0\n2: 0 1\n1: 01 00\n1: 0 2\n")
        report = check_unanimity(profile, k, Committee((1,)))
        assert report.failed
        assert report.witness.candidates == (0,)
        assert report.witness.ballot_indices == (0, 1, 2, 3, 4)
        assert report.witness.group_size == 7
        assert replay_witness(profile, k, Committee((1,)), report)


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
