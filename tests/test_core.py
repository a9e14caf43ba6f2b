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
    _columns,
    _flags_mask,
    _mask_flags,
    _transposed_columns,
    _weigher,
    normalize_profile,
    score_committee,
    wpav_objective,
)
from jrvoting import core
from jrvoting.cli import parse_profile, serialize_profile
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


def _pair_stream(seed, count):
    """Seeded ``(m, pairs)`` cases: a few approval sets reused across pairs,
    empty ones among them, and multiplicities up to 10^9."""
    rng = random.Random(f"from-groups|{seed}")
    for _ in range(count):
        m = rng.randint(1, 8)
        sets = [rng.sample(range(m), rng.randint(0, m)) for _ in range(rng.randint(1, 4))]
        pairs = [
            (rng.choice(sets), rng.choice([1, 1, 2, rng.randint(1, 10**9)]))
            for _ in range(rng.randint(1, 12))
        ]
        yield m, pairs


def _built(build):
    """The profile ``build()`` returns, or the text of the `ProfileError` it
    raises."""
    try:
        return build()
    except ProfileError as error:
        return str(error)


def _reference(m, pairs):
    """The profile of one `Ballot` per pair (its index derived from them)."""
    return BallotProfile(m, [Ballot(frozenset(approved), mult) for approved, mult in pairs])


class TestFromGroups:
    """`from_groups` builds the index straight from its pairs; it must agree
    with a profile of `Ballot` objects, which `conftest.profile_of` (built
    through `from_groups`) cannot show."""

    def test_every_view_matches_a_profile_of_ballots(self):
        for m, pairs in _pair_stream(seed=1, count=400):
            reference = _reference(m, pairs)
            # generator inputs, read once
            built = [
                BallotProfile.from_groups(m, ((iter(a), mult) for a, mult in pairs)),
            ]
            if all(mult == 1 for _, mult in pairs):
                built.append(BallotProfile.from_approval_sets(m, (iter(a) for a, _ in pairs)))
            for profile in built:
                index, expected = profile.index, reference.index
                assert "ballots" not in profile.__dict__  # built when first read
                assert list(map(set, index.members)) == list(map(set, expected.members))
                assert all(type(group) is frozenset for group in index.members)
                assert index.mults == expected.mults
                assert index.entries == expected.entries
                assert index.order == expected.order
                assert index.masks == expected.masks
                assert profile.ballots == reference.ballots
                assert profile.n == reference.n
                assert profile.owners == reference.owners
                assert profile == reference and reference == profile
                assert hash(profile) == hash(reference)

    def test_expand_gives_one_unit_ballot_per_voter(self):
        for m, pairs in _pair_stream(seed=2, count=200):
            pairs = [(approved, mult % 5 + 1) for approved, mult in pairs]
            expanded = BallotProfile.from_groups(m, pairs).expand()
            assert "ballots" not in expanded.__dict__
            units = [Ballot(frozenset(a), 1) for a, mult in pairs for _ in range(mult)]
            assert expanded.ballots == tuple(units)
            assert expanded == _reference(m, [(b.approved, 1) for b in units])

    def test_seeded_faults_match_a_profile_of_ballots(self):
        # a zero or negative multiplicity, m < 1, no pairs and out-of-range
        # indices, alone and together: the same message, hence the same
        # precedence
        rng = random.Random("from-groups-faults")
        faults = set()  # the first word of each message met
        for m, pairs in _pair_stream(seed=3, count=600):
            if rng.random() < 0.2:
                m = rng.choice([0, -1, m])
            if rng.random() < 0.3:
                pairs = pairs[: rng.randint(0, 1)]
            for _ in range(rng.choice([0, 0, 1, 2])):
                i = rng.randrange(len(pairs)) if pairs else 0
                approved, mult = pairs[i] if pairs else ([], 1)
                if rng.random() < 0.5:
                    approved = approved + [rng.choice([-2, -1, m, m + 3, 10**12])]
                else:
                    mult = rng.choice([0, -1])
                pairs = pairs[:i] + [(approved, mult)] + pairs[i + 1:]
            expected = _built(lambda: _reference(m, pairs))
            actual = _built(lambda: BallotProfile.from_groups(m, iter(pairs)))
            if all(mult == 1 for _, mult in pairs):
                unit = _built(lambda: BallotProfile.from_approval_sets(m, (a for a, _ in pairs)))
                assert unit == actual
            if isinstance(expected, str):
                faults.add(expected.split()[0])
                assert actual == expected, (m, pairs)
            else:
                assert actual == expected and actual.index.entries == expected.index.entries
        assert faults == {"ballot", "num_candidates", "profile", "candidate"}


class TestColumns:
    """The per-candidate columns and the exact weighted popcount over them."""

    def test_columns_hold_the_owner_groups(self):
        for m, pairs in _pair_stream(seed=4, count=300):
            profile = BallotProfile.from_groups(m, pairs)
            assert profile.columns == tuple(
                sum(1 << g for g in owners) for owners in profile.owners
            )

    def test_transpose_matches_the_incidence_loop(self):
        rng = random.Random("transpose")
        for _ in range(300):
            m = rng.randint(1, 70)
            members = [rng.sample(range(m), rng.randint(0, m)) for _ in range(rng.randint(1, 40))]
            members += [[], list(range(m))]  # an empty ballot and one approving everyone
            rng.shuffle(members)
            masks = [sum(1 << c for c in group) for group in members]
            assert _transposed_columns(masks, m) == _columns(members, m)

    def test_columns_on_both_sides_of_the_transpose(self, monkeypatch):
        # `BallotProfile.columns` transposes the bitmasks of at least 256
        # groups approving on average an eighth of the candidates or more,
        # and runs the incidence loop otherwise; both give its columns, on
        # parsed profiles and on profiles of pairs
        sides = []
        real = core._transposed_columns

        def spy(masks, m):
            sides.append(m)
            return real(masks, m)

        monkeypatch.setattr(core, "_transposed_columns", spy)
        rng = random.Random("columns switch")
        cases = [  # (m, distinct approval sets, chance of approving)
            (1, 2, 0.5), (3, 6, 0.5), (12, 30, 0.3), (40, 255, 0.5), (40, 256, 0.5),
            (40, 300, 0.15), (40, 300, 0.1), (64, 400, 0.13), (64, 400, 0.05), (64, 600, 0.3),
        ]
        loops = 0
        for m, groups, chance in cases * 3:
            sets = {frozenset(), frozenset(range(m))}
            while len(sets) < groups:
                sets.add(frozenset(c for c in range(m) if rng.random() < chance))
            pairs = [(approved, rng.choice([1, 2, 10**9])) for approved in sets]
            pairs += rng.choices(pairs, k=len(pairs) // 4)  # repeated ballots
            constructed = BallotProfile.from_groups(m, pairs)
            parsed, _ = parse_profile(serialize_profile(constructed))
            for profile in (constructed, parsed):
                before = len(sides)
                assert profile.columns == tuple(_columns(profile.index.members, m))
                index = profile.index
                dense = 8 * sum(map(len, index.members)) >= len(index.mults) * m
                assert len(sides) - before == (len(index.mults) >= 256 and dense)
                loops += len(sides) == before
        assert len(sides) >= 20 and loops >= 20, (len(sides), loops)

    @pytest.mark.parametrize("palette", [
        (1,), (7,), (10**9,), (1, 2), (1, 3, 64, 10**9), (1, 2, 3, 4, 5, 6, 7), tuple(range(1, 40)),
    ])
    def test_weigh_sums_the_multiplicities_of_the_groups(self, palette):
        rng = random.Random(f"weigh|{palette}")
        for _ in range(200):
            mults = [rng.choice(palette) for _ in range(rng.randint(1, 90))]
            weigh = _weigher(mults)
            for _ in range(5):
                groups = rng.getrandbits(len(mults))
                assert weigh(groups) == sum(
                    mult for g, mult in enumerate(mults) if groups >> g & 1
                )
            assert weigh(0) == 0 and weigh((1 << len(mults)) - 1) == sum(mults)

    def test_flags_and_masks_convert_both_ways(self):
        rng = random.Random("flags")
        for length in (1, 2, 7, 8, 9, 64, 65, 300):
            for _ in range(20):
                mask = rng.getrandbits(length)
                flags = _mask_flags(mask, length)
                assert list(flags) == [mask >> i & 1 for i in range(length)]
                assert _flags_mask(flags) == mask


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


def _reference_weight_error(values):
    """The message a weight vector's checks give, compared as fractions, or
    None if it is valid."""
    weights = [Fraction(v) for v in values]
    if weights[0] != 1:
        return f"w_1 must equal 1, got {weights[0]}"
    if any(w < 0 for w in weights):
        return "weights must be non-negative"
    if any(a < b for a, b in zip(weights, weights[1:])):
        return "weights must be non-increasing"
    return None


def _weight_stream(seed, count):
    """Seeded weight vectors: non-increasing runs of fractions with
    numerators and denominators near 10^9, equal neighbours and zero tails,
    some spoilt by w_1 != 1, one negative entry or one increase."""
    rng = random.Random(f"weights|{seed}")
    big = 10**9
    for _ in range(count):
        tail = []
        for _ in range(rng.randint(0, 8)):
            den = rng.randint(big - 50, big + 50)
            tail.append(Fraction(rng.randint(0, den), den))
        tail.sort(reverse=True)
        # equal neighbours, by value and as equal fractions spelled apart
        for i in range(len(tail) - 1):
            if rng.random() < 0.2:
                tail[i + 1] = tail[i]
        tail += [Fraction(0)] * rng.randint(0, 3)
        values = [Fraction(1)] + tail
        fault = rng.choice(["none", "none", "w1", "negative", "increase"])
        if fault == "w1":
            values[0] = rng.choice([Fraction(big - 1, big), Fraction(big + 1, big), Fraction(0)])
        elif fault == "negative":
            i = rng.randrange(1, len(values) + 1)
            values[i:i + 1] = [Fraction(-rng.randint(1, 3), rng.randint(big - 5, big + 5))]
        elif fault == "increase" and len(values) > 1:
            # the smallest step a denominator near 10^9 allows
            i = rng.randrange(1, len(values))
            a, d = values[i - 1].as_integer_ratio()
            if a < d:
                values[i] = Fraction(a * (d + 1) + 1, d * (d + 1))
        # the spellings a vector accepts: fractions, integers and strings
        yield [rng.choice([v, str(v)]) if v.denominator != 1 else rng.choice([v, int(v), str(v)])
               for v in values]


class TestWeightVector:
    def test_invariants(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 2),))
        with pytest.raises(ValueError):
            WeightVector((Fraction(1), Fraction(2)))
        with pytest.raises(ValueError):
            WeightVector((Fraction(1), Fraction(-1)))
        # seeded vectors against a reference that compares fractions
        outcomes = {}
        for values in _weight_stream(seed=1, count=1500):
            expected = _reference_weight_error(values)
            try:
                vector = WeightVector(tuple(values))
            except ValueError as error:
                actual = str(error)
            else:
                actual = None
                assert vector.weights == tuple(map(Fraction, values))
            assert actual == expected, values
            kind = expected and expected.split(",")[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert len(outcomes) == 4 and min(outcomes.values()) > 100, outcomes

    def test_factories(self):
        assert WeightVector.harmonic(3).weights == (1, Fraction(1, 2), Fraction(1, 3))
        assert WeightVector.all_ones(2).weights == (1, 1)
        assert WeightVector.coverage(3).weights == (1, 0, 0)
        assert WeightVector.geometric(3, Fraction(1, 4)).weights == (
            1,
            Fraction(1, 4),
            Fraction(1, 16),
        )


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
