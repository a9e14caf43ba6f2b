"""Fixture constructions, parameter constraints, reduction, random cultures."""

from fractions import Fraction

import pytest

from jrvoting import rules
from jrvoting.axioms import check_ejr
from jrvoting.corpus import (
    BipartiteGraph,
    Expectation,
    FixedSize,
    FixtureParameterError,
    UniformSubsets,
    UrnLike,
    build_fixture,
    complete_bipartite,
    fixture_names,
    has_balanced_biclique,
    random_profile,
    reduce_biclique,
    replay_expectation,
    verify_fixture,
)


class TestFixtureConstants:
    def test_thm7_shape(self):
        fixture = build_fixture("thm7")
        profile = fixture.profile
        assert (profile.n, profile.num_candidates, fixture.k) == (1199, 11, 10)
        assert len(profile.ballots) == 15

    def test_thm7_extended_shape(self):
        fixture = build_fixture("thm7_extended", k=11)
        assert fixture.profile.n == 1199 + 120
        assert fixture.profile.num_candidates == 12
        fixture13 = build_fixture("thm7_extended", k=13)
        assert fixture13.profile.n == 1199 + 3 * 120

    def test_thm8_printed_formulas(self):
        fixture = build_fixture("thm8", s=8)
        profile = fixture.profile
        s = 8
        assert fixture.k == (2 * s + 2) * (2 * s + 3) == 342
        assert profile.n == (2 * s + 2) * (2 * s + 3) * (2 * s**3 - 1) == 349_866
        assert profile.n % fixture.k == 0 and profile.n // fixture.k == 2 * s**3 - 1
        assert profile.num_candidates == fixture.k + 2
        # multiplicity form stays in the hundreds of groups, never expanded
        assert len(profile.ballots) == 2 * (2 * s + 3) * (2 * s + 1) + 2 == 648
        assert profile.ballots[-1].multiplicity == s * s - 7 * s - 5 == 3
        assert fixture.weights.weights[1] == Fraction(1, 8)

    def test_lemma1_derived_sizes(self):
        fixture = build_fixture("lemma1", j=2, epsilon=Fraction(1, 4))
        assert dict(fixture.params) == {"j": 2, "epsilon": Fraction(1, 4), "k": 4}
        assert fixture.profile.num_candidates == 5
        assert fixture.profile.n == 16  # k + t*j*(k-1) = k^2
        assert fixture.weights.weights[1] == Fraction(3, 4)

    def test_lemma2_derived_sizes(self):
        fixture = build_fixture("lemma2", j=2, epsilon=Fraction(1, 8))
        assert dict(fixture.params) == {"j": 2, "epsilon": Fraction(1, 8), "k": 11}
        assert fixture.profile.num_candidates == 12
        assert fixture.profile.n == 110  # k * (k - j + 1)
        assert fixture.weights.weights[1] == Fraction(3, 8)

    def test_small_named_profiles(self):
        ex5 = build_fixture("example5")
        assert (ex5.profile.n, ex5.profile.num_candidates, ex5.k) == (4, 4, 2)
        ex6 = build_fixture("example6")
        assert (ex6.profile.n, ex6.profile.num_candidates, ex6.k) == (4, 4, 3)
        intro = build_fixture("sec4_intro")
        assert (intro.profile.n, intro.profile.num_candidates, intro.k) == (100, 4, 3)

    def test_registry_is_complete(self):
        assert fixture_names() == (
            "example1",
            "example2",
            "example5",
            "example6",
            "lemma1",
            "lemma2",
            "sec4_intro",
            "thm4",
            "thm5_mav",
            "thm5_sav",
            "thm6_family",
            "thm7",
            "thm7_extended",
            "thm8",
        )


class TestParameterConstraints:
    @pytest.mark.parametrize(
        "name,params,needle",
        [
            ("thm4", {"k": 2}, "k >= 3"),
            ("thm5_sav", {"k": 1}, "k >= 2"),
            ("thm5_mav", {"k": 1}, "k >= 2"),
            ("thm7_extended", {"k": 10}, "k >= 11"),
            ("thm8", {"s": 7}, "s >= 8"),
            ("thm8", {"s": 8, "w2": Fraction(1, 9)}, "1/s <= w2"),
            ("thm8", {"s": 8, "w2": 2}, "1/s <= w2"),
            ("lemma1", {"j": 1}, "j >= 2"),
            ("lemma1", {"j": 2, "epsilon": Fraction(1, 4), "k": 5}, "j | k"),
            ("lemma1", {"j": 2, "epsilon": Fraction(1, 4), "k": 2}, "ceil"),
            ("lemma1", {"j": 2, "epsilon": Fraction(3, 4)}, "epsilon <= 1 - 1/j"),
            ("lemma2", {"j": 2, "epsilon": Fraction(2, 3)}, "0 < epsilon <= 1/j"),
            ("lemma2", {"j": 2, "epsilon": Fraction(1, 8), "k": 9}, "ceil"),
            ("example1", {"k": 1}, "k >= 2"),
            ("example2", {"k": 0}, "k >= 1"),
        ],
    )
    def test_violations_name_the_inequality(self, name, params, needle):
        with pytest.raises(FixtureParameterError) as excinfo:
            build_fixture(name, **params)
        assert needle in str(excinfo.value)

    def test_unknown_fixture(self):
        with pytest.raises(FixtureParameterError):
            build_fixture("thm99")

    def test_unknown_parameter_name(self):
        with pytest.raises(FixtureParameterError):
            build_fixture("thm7", q=3)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("thm8", {"z": 1}, "fixture thm8: unknown parameter z; it takes s, w2"),
            ("thm7", {"z": 1}, "fixture thm7: unknown parameter z; it takes no parameters"),
            # the first unknown name in the order given, the names taken in
            # the builder's order
            ("thm8", {"s": 8, "z": 1, "a": 2}, "fixture thm8: unknown parameter z; it takes s, w2"),
            ("lemma1", {"k": 2, "jj": 2},
             "fixture lemma1: unknown parameter jj; it takes j, epsilon, k"),
        ],
    )
    def test_unknown_parameter_message_is_pinned(self, name, params, message):
        with pytest.raises(FixtureParameterError) as excinfo:
            build_fixture(name, **params)
        assert str(excinfo.value) == message


class TestExpectationReplay:
    @pytest.mark.parametrize("name", fixture_names())
    def test_every_fixture_replays_clean(self, name):
        results = verify_fixture(build_fixture(name))
        assert results, "fixtures must carry expectations"
        failures = [(r.description, r.detail) for r in results if not r.ok]
        assert not failures

    def test_sequential_round_replay_runs_only_its_rounds(self, monkeypatch):
        fixture = build_fixture("thm7")
        lengths = []
        real = rules.sequential_trace
        monkeypatch.setattr(
            rules, "sequential_trace", lambda p, k, w: lengths.append(k) or real(p, k, w)
        )
        rounds = [e for e in fixture.expectations if e.op == "sequential-round"]
        assert all(replay_expectation(fixture, e).ok for e in rounds)
        assert lengths == [e.inputs["round"] for e in rounds] == [1, 3, 3]

    @pytest.mark.parametrize("tag", ["ones", "coverage", "nonsense"])
    def test_unknown_weight_tag_rejected(self, tag):
        expectation = Expectation("sequential-round", {"round": 1, "weights": tag}, {})
        with pytest.raises(ValueError, match="unknown weight tag"):
            replay_expectation(build_fixture("thm7"), expectation)


class TestBiclique:
    def test_complete_graph_constants(self):
        instance = reduce_biclique(complete_bipartite(3, 3), 3)
        profile = instance.profile
        assert profile.n == 12  # 2s(l-1)
        assert instance.k == 4  # 2l-2
        assert profile.num_candidates == 3 + 2 + 2 + 3
        assert instance.committee.members == (3, 4, 5, 6)
        assert profile.n % instance.k == 0 and profile.n // instance.k == 3

    def test_star_padded_instance(self):
        # one left vertex connected to all three right vertices
        graph = BipartiteGraph(1, 3, frozenset((0, v) for v in range(3)))
        instance = reduce_biclique(graph, 3)
        assert instance.profile.num_candidates == 1 + 2 + 2 + 3
        assert check_ejr(instance.profile, instance.k, instance.committee).passed

    def test_parameter_constraints(self):
        with pytest.raises(FixtureParameterError):
            reduce_biclique(complete_bipartite(3, 2), 3)
        with pytest.raises(FixtureParameterError):
            reduce_biclique(complete_bipartite(3, 3), 2)

    def test_brute_force_biclique_search(self):
        full = complete_bipartite(3, 3)
        assert has_balanced_biclique(full, 3)
        assert not has_balanced_biclique(full, 4)
        for edge in sorted(full.edges):
            pruned = BipartiteGraph(3, 3, full.edges - {edge})
            assert not has_balanced_biclique(pruned, 3)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, frozenset({(2, 0)}))
        with pytest.raises(ValueError):
            BipartiteGraph(0, 2, frozenset())


class TestRandomProfiles:
    def test_deterministic_for_fixed_arguments(self):
        a = random_profile(seed=5, n=6, m=5, k=2, culture=UniformSubsets(0.5))
        b = random_profile(seed=5, n=6, m=5, k=2, culture=UniformSubsets(0.5))
        assert a == b

    def test_seed_changes_the_draw(self):
        a = random_profile(seed=5, n=8, m=6, k=2, culture=UniformSubsets(0.5))
        b = random_profile(seed=6, n=8, m=6, k=2, culture=UniformSubsets(0.5))
        assert a != b

    def test_fixed_size_ballots(self):
        profile = random_profile(seed=0, n=4, m=4, k=2, culture=FixedSize(2))
        assert all(len(b.approved) == 2 for b in profile.ballots)
        assert profile.n == 4

    def test_degenerate_probabilities(self):
        empty = random_profile(seed=0, n=3, m=4, k=1, culture=UniformSubsets(0))
        assert all(not b.approved for b in empty.ballots)
        full = random_profile(seed=0, n=3, m=4, k=1, culture=UniformSubsets(1))
        assert all(len(b.approved) == 4 for b in full.ballots)

    def test_urn_culture_is_deterministic(self):
        a = random_profile(seed=2, n=10, m=5, k=2, culture=UrnLike(2, 0.8))
        b = random_profile(seed=2, n=10, m=5, k=2, culture=UrnLike(2, 0.8))
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_profile(seed=0, n=0, m=3, k=1, culture=UniformSubsets(0.5))
        with pytest.raises(ValueError):
            random_profile(seed=0, n=2, m=3, k=4, culture=UniformSubsets(0.5))
        with pytest.raises(ValueError):
            random_profile(seed=0, n=2, m=3, k=1, culture=FixedSize(4))
        with pytest.raises(ValueError):
            UniformSubsets(1.5)
        with pytest.raises(ValueError):
            UrnLike(0, 0.5)
