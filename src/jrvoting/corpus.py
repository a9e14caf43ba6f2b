"""Executable fixture corpus: counterexample profiles, a hardness-instance
generator, and random profile cultures for property tests.

Each fixture packages a profile, a committee size, optional rule weights,
and machine-checkable expectations that replay the construction's claimed
outcome against the live modules.  Candidate indices follow each
construction's reading order and are documented per fixture via
``candidate_names``.
"""

from __future__ import annotations

import inspect
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union, get_args, get_type_hints

from . import axioms, rules
from .core import (
    BallotProfile,
    Committee,
    ScoringObjective,
    TieBreak,
    WeightVector,
    score_committee,
)


class FixtureParameterError(ValueError):
    """Fixture parameters violate the construction's constraints."""


@dataclass(frozen=True)
class Expectation:
    """One machine-checkable claim about a fixture."""

    op: str
    inputs: Mapping[str, object]
    expected: Mapping[str, object]


@dataclass(frozen=True)
class Fixture:
    name: str
    params: Mapping[str, object]
    profile: BallotProfile
    k: int
    expectations: tuple[Expectation, ...]
    citation: str
    weights: Optional[WeightVector] = None
    candidate_names: Mapping[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ExpectationResult:
    description: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FixtureParameterError(message)


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _names(*blocks: tuple[str, Sequence[int]]) -> dict[int, str]:
    out: dict[int, str] = {}
    for prefix, indices in blocks:
        for pos, idx in enumerate(indices, start=1):
            out[idx] = f"{prefix}{pos}" if len(indices) > 1 else prefix
    return out


def _fixture_thm4(k: int = 3) -> Fixture:
    """One voter on a lone candidate vs. k-1 voters on a full slate."""
    _require(k >= 3, f"requires k >= 3, got k={k}")
    m = k + 1
    profile = BallotProfile.from_groups(
        m, [({0}, 1), (set(range(1, k + 1)), k - 1)]
    )
    slate = list(range(1, k + 1))
    expectations = (
        Expectation("rule", {"rule": "av", "k": k}, {"committee": slate}),
        Expectation(
            "score", {"objective": "av", "committee": slate}, {"score": str((k - 1) * k)}
        ),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": slate},
            {"verdict": "fail", "witness_candidates": [0], "witness_size": 1},
        ),
    )
    return Fixture(
        name="thm4",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="approval voting abandons a quota-sized singleton bloc once k >= 3",
        candidate_names=_names(("c0", [0]), ("c", slate)),
    )


def _fixture_thm5_sav(k: int = 2) -> Fixture:
    """Satisfaction scoring penalizes the voter with the broad ballot."""
    _require(k >= 2, f"requires k >= 2, got k={k}")
    m = 2 * k + 1
    groups: list[tuple[set[int], int]] = [(set(range(k + 1)), 1), ({k + 1, k + 2}, 1)]
    groups += [({k + i}, 1) for i in range(3, k + 1)]
    profile = BallotProfile.from_groups(m, groups)
    winners = list(range(k + 1, 2 * k + 1))
    expectations = (
        Expectation("rule", {"rule": "sav", "k": k}, {"committee": winners}),
        Expectation(
            "score", {"objective": "sav", "committee": winners}, {"score": str(k - 1)}
        ),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": winners},
            {"verdict": "fail", "witness_candidates": [0], "witness_size": 1},
        ),
    )
    return Fixture(
        name="thm5_sav",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="sum-of-satisfaction scoring strands the broad-ballot voter",
        candidate_names=_names(("x", list(range(k + 1))), ("y", winners)),
    )


def _fixture_thm5_mav(k: int = 2) -> Fixture:
    """Minimax distance prefers a pair transversal over the cohesive half."""
    _require(k >= 2, f"requires k >= 2, got k={k}")
    m = 2 * k + 1
    groups: list[tuple[set[int], int]] = [({i, k + i}, 1) for i in range(k)]
    groups.append(({2 * k}, k))
    profile = BallotProfile.from_groups(m, groups)
    winners = list(range(k))
    expectations = (
        Expectation("rule", {"rule": "mav", "k": k}, {"committee": winners}),
        Expectation(
            "score", {"objective": "mav", "committee": winners}, {"score": str(k + 1)}
        ),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": winners},
            {"verdict": "fail", "witness_candidates": [2 * k], "witness_size": k},
        ),
    )
    return Fixture(
        name="thm5_mav",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="minimax distance ignores a quota bloc behind a lone candidate",
        candidate_names=_names(
            ("x", list(range(k))), ("y", list(range(k, 2 * k))), ("z", [2 * k])
        ),
    )


def _fixture_thm6_family(seed: int = 0, n: int = 8, m: int = 6, k: int = 3) -> Fixture:
    """Random member of the all-ballots-of-size-k domain, where minimax
    distance with representation-friendly tie-breaking respects justified
    representation."""
    _require(n >= 1, f"requires n >= 1, got n={n}")
    _require(1 <= k <= m, f"requires 1 <= k <= m, got k={k}, m={m}")
    profile = random_profile(seed=seed, n=n, m=m, k=k, culture=FixedSize(k))
    expectations = (
        Expectation(
            "rule-axiom",
            {"rule": "mav", "k": k, "tiebreak": "prefer-jr", "axiom": "jr"},
            {"verdict": "pass"},
        ),
    )
    return Fixture(
        name="thm6_family",
        params={"seed": seed, "n": n, "m": m, "k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="size-k ballots only: minimax distance plus representation-"
        "friendly ties respects justified representation",
    )


_THM7_BASE: tuple[tuple[tuple[int, ...], int], ...] = (
    ((0, 1), 81),
    ((0, 2), 81),
    ((1,), 80),
    ((2,), 80),
    ((3, 4), 81),
    ((3, 5), 81),
    ((4,), 80),
    ((5,), 80),
    ((6, 7), 49),
    ((6, 8), 49),
    ((6, 9), 49),
    ((7,), 96),
    ((8,), 96),
    ((9,), 96),
    ((10,), 120),
)


def _fixture_thm7() -> Fixture:
    """1199 voters, 11 candidates: harmonic sequential reweighting fills all
    ten seats before the 120-voter bloc behind the last candidate."""
    profile = BallotProfile.from_groups(11, [(set(s), mult) for s, mult in _THM7_BASE])
    k = 10
    committee = list(range(10))
    expectations = (
        Expectation(
            "sequential-round",
            {"round": 1, "weights": "harmonic"},
            {"chosen": 0, "weight": "162"},
        ),
        Expectation(
            "sequential-round",
            {"round": 3, "weights": "harmonic"},
            {"chosen": 6, "weight": "147"},
        ),
        Expectation(
            "sequential-round",
            {"round": 3, "weights": "harmonic", "candidate": 1},
            {"weight": "241/2"},
        ),
        Expectation("rule", {"rule": "rav", "k": k}, {"committee": committee}),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": committee},
            {"verdict": "fail", "witness_candidates": [10], "witness_size": 120},
        ),
    )
    return Fixture(
        name="thm7",
        params={},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="1199-voter profile defeating harmonic sequential reweighting at k=10",
        candidate_names={i: f"c{i + 1}" for i in range(11)},
    )


def _fixture_thm7_extended(k: int = 11) -> Fixture:
    """Padding of the 1199-voter profile: one extra candidate with a private
    120-voter bloc per extra seat."""
    _require(k >= 11, f"requires k >= 11, got k={k}")
    m = k + 1
    groups = [(set(s), mult) for s, mult in _THM7_BASE]
    groups += [({c}, 120) for c in range(11, k + 1)]
    profile = BallotProfile.from_groups(m, groups)
    committee = list(range(k))
    expectations = (
        Expectation(
            "sequential-round",
            {"round": 1, "weights": "harmonic"},
            {"chosen": 0, "weight": "162"},
        ),
        Expectation(
            "sequential-round",
            {"round": 3, "weights": "harmonic"},
            {"chosen": 6, "weight": "147"},
        ),
        Expectation("rule", {"rule": "rav", "k": k}, {"committee": committee}),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": committee},
            {"verdict": "fail", "witness_candidates": [k], "witness_size": 120},
        ),
    )
    return Fixture(
        name="thm7_extended",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="padding construction lifting the 1199-voter failure to any k > 10",
        candidate_names={i: f"c{i + 1}" for i in range(m)},
    )


def _fixture_thm8(s: int = 8, w2: Union[None, Fraction, str, int] = None) -> Fixture:
    """Blocked two-tier construction defeating every sequential rule whose
    weight vector has second entry w2 >= 1/s.

    Tier-one candidates (one per block) are shared by s^2-voter groups across
    2s+1 sub-blocks each; tier-two candidates are block-private.  After the
    tier-one candidates win the opening rounds, the reweighted tier-two
    scores stay above the 2s^3-1 voters behind the lone candidate x, which
    therefore never wins a seat despite forming an exact quota group.
    """
    _require(s >= 8, f"requires s >= 8, got s={s}")
    w2 = Fraction(1, s) if w2 is None else _frac(w2)
    _require(
        Fraction(1, s) <= w2 <= 1, f"requires 1/s <= w2 <= 1, got w2={w2} with s={s}"
    )
    rows = 2 * s + 3
    cols = 2 * s + 1
    k = (2 * s + 2) * (2 * s + 3)
    tier1_base = rows * cols  # block-shared candidates come after the grid
    x_index = k
    y_index = k + 1
    m = k + 2

    groups: list[tuple[set[int], int]] = []
    for i in range(rows):
        shared = tier1_base + i
        for j in range(cols):
            grid = i * cols + j
            groups.append(({grid}, 2 * s**3 - s))
            groups.append(({grid, shared}, s**2))
    groups.append(({x_index}, 2 * s**3 - 1))
    groups.append(({y_index}, s**2 - 7 * s - 5))
    profile = BallotProfile.from_groups(m, groups)
    weights = WeightVector((Fraction(1),) + (w2,) * (m - 1))

    committee = list(range(k))
    expectations = (
        Expectation(
            "sequential-round",
            {"round": 1, "weights": "fixture"},
            {"chosen": tier1_base, "weight": str(s**2 * cols)},
        ),
        Expectation("rule", {"rule": "wrav", "weights": "fixture", "k": k}, {"committee": committee}),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": committee},
            {
                "verdict": "fail",
                "witness_candidates": [x_index],
                "witness_size": 2 * s**3 - 1,
            },
        ),
    )
    names = {i * cols + j: f"c{i + 1}_{j + 1}" for i in range(rows) for j in range(cols)}
    names.update({tier1_base + i: f"c{i + 1}" for i in range(rows)})
    names[x_index] = "x"
    names[y_index] = "y"
    return Fixture(
        name="thm8",
        params={"s": s, "w2": w2},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="two-tier construction defeating sequential rules with w2 > 0",
        weights=weights,
        candidate_names=names,
    )


def _default_lemma1_k(j: int, epsilon: Fraction) -> int:
    floor = -(-1 // (epsilon * j))  # ceil(1/(eps*j))
    k = j
    while not (k % j == 0 and k > floor + 1):
        k += j
    return k


def _fixture_lemma1(
    j: int = 2, epsilon: Union[Fraction, str, int] = Fraction(1, 4), k: Optional[int] = None
) -> Fixture:
    """Weight vectors with w_j above 1/j over-reward dense blocks: the
    satisfaction optimum drops the quota bloc's lone candidate entirely."""
    _require(j >= 2, f"requires j >= 2, got j={j}")
    epsilon = _frac(epsilon)
    _require(epsilon > 0, f"requires epsilon > 0, got {epsilon}")
    _require(
        epsilon <= 1 - Fraction(1, j),
        f"requires epsilon <= 1 - 1/j (so that w_j <= w_1), got epsilon={epsilon}, j={j}",
    )
    if k is None:
        k = _default_lemma1_k(j, epsilon)
    _require(k % j == 0, f"requires j | k, got j={j}, k={k}")
    ceil_term = -(-1 // (epsilon * j))
    _require(
        k > ceil_term + 1,
        f"requires k > ceil(1/(epsilon*j)) + 1 = {ceil_term + 1}, got k={k}",
    )
    t = k // j
    m = k + 1
    w_j = Fraction(1, j) + epsilon
    groups: list[tuple[set[int], int]] = [({0}, k)]
    for block in range(t):
        members = set(range(1 + block * j, 1 + (block + 1) * j))
        groups.append((members, j * (k - 1)))
    profile = BallotProfile.from_groups(m, groups)

    entries = [Fraction(1)]
    for i in range(2, m + 1):
        if i < j:
            entries.append(max(Fraction(1, i), w_j))
        elif i == j:
            entries.append(w_j)
        else:
            entries.append(Fraction(1, i))
    weights = WeightVector(tuple(entries))

    winners = list(range(1, m))
    expectations = (
        Expectation(
            "rule", {"rule": "wpav", "weights": "fixture", "k": k}, {"committee": winners}
        ),
        Expectation(
            "axiom",
            {"axiom": "jr", "committee": winners},
            {"verdict": "fail", "witness_candidates": [0], "witness_size": k},
        ),
        Expectation(
            "score-compare",
            {
                "objective": "wpav",
                "weights": "fixture",
                "committee_a": winners,
                "committee_b": list(range(k)),
            },
            {"relation": ">"},
        ),
    )
    return Fixture(
        name="lemma1",
        params={"j": j, "epsilon": epsilon, "k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="inflated w_j makes weighted satisfaction drop a quota bloc",
        weights=weights,
        candidate_names=_names(("c", [0])),
    )


def _default_lemma2_k(j: int, epsilon: Fraction) -> int:
    return j + int(-(-1 // epsilon)) + 1


def _fixture_lemma2(
    j: int = 2, epsilon: Union[Fraction, str, int] = Fraction(1, 8), k: Optional[int] = None
) -> Fixture:
    """Weight vectors with w_j below 1/j under-reward the j-th seat: a
    j-quota bloc approving j common candidates keeps only j-1 of them."""
    _require(j >= 2, f"requires j >= 2, got j={j}")
    epsilon = _frac(epsilon)
    _require(
        0 < epsilon <= Fraction(1, j),
        f"requires 0 < epsilon <= 1/j (so that 0 <= w_j < 1/j), got epsilon={epsilon}, j={j}",
    )
    if k is None:
        k = _default_lemma2_k(j, epsilon)
    ceil_term = int(-(-1 // epsilon))
    _require(
        k > j + ceil_term, f"requires k > j + ceil(1/epsilon) = {j + ceil_term}, got k={k}"
    )
    m = k + 1
    w_j = Fraction(1, j) - epsilon
    groups: list[tuple[set[int], int]] = [(set(range(j)), j * (k - j + 1))]
    groups += [({c}, k - j) for c in range(j, k + 1)]
    profile = BallotProfile.from_groups(m, groups)

    entries = [Fraction(1)]
    for i in range(2, m + 1):
        nominal = w_j if i == j else Fraction(1, i)
        entries.append(min(entries[-1], nominal))
    weights = WeightVector(tuple(entries))

    winners = [c for c in range(m) if c != j - 1]
    expectations = (
        Expectation(
            "rule", {"rule": "wpav", "weights": "fixture", "k": k}, {"committee": winners}
        ),
        Expectation(
            "axiom", {"axiom": "jr", "committee": winners}, {"verdict": "pass"}
        ),
        Expectation(
            "axiom",
            {"axiom": "ell-jr", "ell": j, "committee": winners},
            {
                "verdict": "fail",
                "witness_candidates": list(range(j)),
                "witness_size": j * (k - j + 1),
                "witness_level": j,
            },
        ),
        Expectation(
            "score-compare",
            {
                "objective": "wpav",
                "weights": "fixture",
                "committee_a": winners,
                "committee_b": list(range(k)),
            },
            {"relation": ">"},
        ),
    )
    return Fixture(
        name="lemma2",
        params={"j": j, "epsilon": epsilon, "k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="deflated w_j denies a j-quota bloc its j-th seat",
        weights=weights,
    )


def _fixture_example1(k: int = 2) -> Fixture:
    """k voters with pairwise disjoint two-candidate ballots: the unanimity
    condition is vacuous, while representation forces a transversal."""
    _require(k >= 2, f"requires k >= 2, got k={k}")
    m = 2 * k
    profile = BallotProfile.from_groups(m, [({2 * i, 2 * i + 1}, 1) for i in range(k)])
    transversal = [2 * i for i in range(k)]
    prefix = list(range(k))
    expectations = (
        Expectation(
            "axiom", {"axiom": "jr", "committee": transversal}, {"verdict": "pass"}
        ),
        Expectation("axiom", {"axiom": "jr", "committee": prefix}, {"verdict": "fail"}),
        Expectation(
            "axiom", {"axiom": "unanimity", "committee": prefix}, {"verdict": "pass"}
        ),
    )
    return Fixture(
        name="example1",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="disjoint pair ballots: unanimity vacuous, representation binding",
        candidate_names={
            idx: f"{'ab'[idx % 2]}{idx // 2 + 1}" for idx in range(m)
        },
    )


def _fixture_example2(k: int = 2) -> Fixture:
    """All voters share one candidate; k of them add a private one.  Skipping
    the shared candidate breaks unanimity but not representation."""
    _require(k >= 1, f"requires k >= 1, got k={k}")
    m = k + 1
    groups: list[tuple[set[int], int]] = [({0, i}, 1) for i in range(1, k + 1)]
    groups.append(({0}, 1))
    profile = BallotProfile.from_groups(m, groups)
    private = list(range(1, k + 1))
    expectations = (
        Expectation(
            "axiom",
            {"axiom": "unanimity", "committee": private},
            {"verdict": "fail", "witness_candidates": [0], "witness_size": k + 1},
        ),
        Expectation(
            "axiom", {"axiom": "jr", "committee": private}, {"verdict": "pass"}
        ),
        Expectation("find", {"axiom": "jr", "k": k}, {"committee": list(range(k))}),
    )
    return Fixture(
        name="example2",
        params={"k": k},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="shared candidate plus private pairs: representation without unanimity",
        candidate_names={0: "a", **{i: f"b{i}" for i in range(1, m)}},
    )


def _fixture_example5() -> Fixture:
    """Four rotated pair ballots: every committee misses some quota pair's
    common candidate, so no committee provides strong representation."""
    profile = BallotProfile.from_groups(
        4, [({0, 1}, 1), ({0, 2}, 1), ({3, 1}, 1), ({3, 2}, 1)]
    )
    expectations = (
        Expectation("sjr-exists", {}, {"exists": False}),
        Expectation("axiom", {"axiom": "jr", "committee": [0, 3]}, {"verdict": "pass"}),
        Expectation("axiom", {"axiom": "ejr", "committee": [0, 3]}, {"verdict": "pass"}),
        Expectation(
            "axiom",
            {"axiom": "sjr", "committee": [0, 3]},
            {"verdict": "fail", "witness_candidates": [1], "witness_size": 2},
        ),
    )
    return Fixture(
        name="example5",
        params={},
        profile=profile,
        k=2,
        expectations=expectations,
        citation="rotated pairs admit no strongly representative committee",
        candidate_names={0: "a", 1: "b", 2: "c", 3: "d"},
    )


def _fixture_example6() -> Fixture:
    """A double-quota pair bloc plus two singletons: strong representation is
    achievable while the pair bloc holds only one seat.

    Note the pair bloc has 2 voters against a level-2 quota of 2*4/3, so the
    integer-quota extended check passes committees containing just one of the
    pair; the strong check is the binding one here.
    """
    profile = BallotProfile.from_groups(4, [({0, 1}, 2), ({2}, 1), ({3}, 1)])
    expectations = (
        Expectation(
            "axiom", {"axiom": "sjr", "committee": [0, 2, 3]}, {"verdict": "pass"}
        ),
        Expectation(
            "axiom", {"axiom": "ejr", "committee": [0, 2, 3]}, {"verdict": "pass"}
        ),
        Expectation("sjr-exists", {}, {"exists": True, "committee": [0, 1, 2]}),
    )
    return Fixture(
        name="example6",
        params={},
        profile=profile,
        k=3,
        expectations=expectations,
        citation="strong representation achievable while a pair bloc keeps one seat",
        candidate_names={0: "a", 1: "b", 2: "c", 3: "d"},
    )


def _fixture_sec4_intro() -> Fixture:
    """98 voters on a shared pair vs. two singletons: one-seat-per-group
    greedy spends two seats on the singletons, the harmonic optimum gives the
    bloc both its candidates."""
    profile = BallotProfile.from_groups(4, [({0, 1}, 98), ({2}, 1), ({3}, 1)])
    k = 3
    expectations = (
        Expectation("rule", {"rule": "pav", "k": k}, {"committee": [0, 1, 2]}),
        Expectation(
            "score",
            {"objective": "wpav", "weights": "harmonic", "committee": [0, 1, 2]},
            {"score": "148"},
        ),
        Expectation("find", {"axiom": "jr", "k": k}, {"committee": [0, 2, 3]}),
        Expectation(
            "axiom",
            {"axiom": "ell-jr", "ell": 2, "committee": [0, 2, 3]},
            {
                "verdict": "fail",
                "witness_candidates": [0, 1],
                "witness_size": 98,
                "witness_level": 2,
            },
        ),
        Expectation(
            "axiom",
            {"axiom": "ell-jr", "ell": 2, "committee": [0, 1, 2]},
            {"verdict": "pass"},
        ),
        Expectation(
            "find", {"axiom": "ell-jr", "ell": 2, "k": k}, {"committee": [0, 1, 2]}
        ),
    )
    return Fixture(
        name="sec4_intro",
        params={},
        profile=profile,
        k=k,
        expectations=expectations,
        citation="98-1-1 split: greedy coverage underserves the large bloc",
        candidate_names={0: "a", 1: "b", 2: "c", 3: "d"},
    )


FIXTURE_BUILDERS: dict[str, Callable[..., Fixture]] = {
    "thm4": _fixture_thm4,
    "thm5_sav": _fixture_thm5_sav,
    "thm5_mav": _fixture_thm5_mav,
    "thm6_family": _fixture_thm6_family,
    "thm7": _fixture_thm7,
    "thm7_extended": _fixture_thm7_extended,
    "thm8": _fixture_thm8,
    "lemma1": _fixture_lemma1,
    "lemma2": _fixture_lemma2,
    "example1": _fixture_example1,
    "example2": _fixture_example2,
    "example5": _fixture_example5,
    "example6": _fixture_example6,
    "sec4_intro": _fixture_sec4_intro,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(FIXTURE_BUILDERS))


def build_fixture(name: str, **params) -> Fixture:
    """Instantiate a named fixture, validating its parameter constraints."""
    try:
        builder = FIXTURE_BUILDERS[name]
    except KeyError:
        raise FixtureParameterError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    takes = inspect.signature(builder).parameters
    for key in params:
        if key not in takes:
            raise FixtureParameterError(
                f"fixture {name}: unknown parameter {key}; it takes "
                + (", ".join(takes) if takes else "no parameters")
            )
    hints = get_type_hints(builder) if params else {}
    for key, value in params.items():
        kinds = get_args(hints.get(key)) or (hints.get(key),)
        if set(kinds) <= {int, type(None)} and type(value) is not int:
            raise FixtureParameterError(
                f"fixture {name}: parameter {key} takes an integer, got '{value}'"
            )
        if Fraction in kinds and not isinstance(value, (int, Fraction)):
            try:
                Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError):
                raise FixtureParameterError(
                    f"fixture {name}: parameter {key} takes a rational number, got '{value}'"
                ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise FixtureParameterError(f"fixture {name}: {exc}") from None


# ---------------------------------------------------------------------------
# Expectation replay
# ---------------------------------------------------------------------------


def _resolve_weights(tag, fixture: Fixture) -> Optional[WeightVector]:
    if tag is None:
        return None
    if tag == "fixture":
        if fixture.weights is None:
            raise ValueError(f"fixture {fixture.name} carries no weight vector")
        return fixture.weights
    if tag == "harmonic":
        return WeightVector.harmonic(fixture.profile.num_candidates)
    raise ValueError(f"unknown weight tag {tag!r}")


def _check_report(report: axioms.AxiomReport, expected: Mapping[str, object]) -> tuple[bool, str]:
    verdict = "pass" if report.passed else "fail"
    if verdict != expected["verdict"]:
        return False, f"verdict {verdict}, expected {expected['verdict']}"
    witness = report.witness
    if "witness_candidates" in expected:
        got = list(witness.candidates) if witness else None
        if got != list(expected["witness_candidates"]):
            return False, f"witness candidates {got}, expected {expected['witness_candidates']}"
    if "witness_size" in expected:
        got_size = witness.group_size if witness else None
        if got_size != expected["witness_size"]:
            return False, f"witness size {got_size}, expected {expected['witness_size']}"
    if "witness_level" in expected:
        got_level = witness.level if witness else None
        if got_level != expected["witness_level"]:
            return False, f"witness level {got_level}, expected {expected['witness_level']}"
    return True, verdict


def replay_expectation(fixture: Fixture, expectation: Expectation) -> ExpectationResult:
    """Run one expectation against the live modules."""
    op = expectation.op
    inputs = expectation.inputs
    expected = expectation.expected
    profile = fixture.profile
    description = f"{fixture.name}: {op} {dict(inputs)}"

    if op in ("rule", "rule-axiom"):
        weights = _resolve_weights(inputs.get("weights"), fixture)
        tiebreak = TieBreak(inputs.get("tiebreak", "lex"))
        spec = rules.RuleSpec(inputs["rule"], weights=weights, tiebreak=tiebreak)
        committee = rules.compute_rule(profile, inputs.get("k", fixture.k), spec)
        detail = f"committee {list(committee.members)}"
        if op == "rule":
            ok = list(committee.members) == list(expected["committee"])
            return ExpectationResult(description, ok, detail)
        check = axioms.AXIOMS[inputs["axiom"]].check
        report = check(profile, fixture.k, committee, inputs.get("ell"))
        ok, verdict = _check_report(report, expected)
        return ExpectationResult(description, ok, f"{detail}: {verdict}")

    if op == "score":
        weights = _resolve_weights(inputs.get("weights"), fixture)
        objective = ScoringObjective(inputs["objective"], weights)
        actual = score_committee(profile, Committee.of(inputs["committee"]), objective)
        ok = str(actual) == expected["score"]
        return ExpectationResult(description, ok, f"score {actual}")

    if op == "score-compare":
        weights = _resolve_weights(inputs.get("weights"), fixture)
        objective = ScoringObjective(inputs["objective"], weights)
        score_a = score_committee(profile, Committee.of(inputs["committee_a"]), objective)
        score_b = score_committee(profile, Committee.of(inputs["committee_b"]), objective)
        relation = expected["relation"]
        ok = (
            score_a > score_b
            if relation == ">"
            else score_a < score_b if relation == "<" else score_a == score_b
        )
        return ExpectationResult(description, ok, f"{score_a} vs {score_b}")

    if op == "axiom":
        check = axioms.AXIOMS[inputs["axiom"]].check
        report = check(profile, fixture.k, Committee.of(inputs["committee"]), inputs.get("ell"))
        ok, detail = _check_report(report, expected)
        return ExpectationResult(description, ok, detail)

    if op == "find":
        find = axioms.AXIOMS[inputs["axiom"]].find
        committee = find(profile, inputs.get("k", fixture.k), inputs.get("ell"))
        ok = list(committee.members) == list(expected["committee"])
        return ExpectationResult(description, ok, f"committee {list(committee.members)}")

    if op == "sequential-round":
        weights = _resolve_weights(inputs.get("weights", "harmonic"), fixture)
        # round r does not depend on k, so r rounds suffice
        record = rules.sequential_trace(profile, inputs["round"], weights)[-1]
        ok = True
        details = [f"chosen {record.candidate}"]
        if "chosen" in expected and record.candidate != expected["chosen"]:
            ok = False
        if "weight" in expected:
            target = inputs.get("candidate")
            weight = record.weight if target is None else record.weights[target]
            details.append(f"weight {weight}")
            if str(weight) != expected["weight"]:
                ok = False
        return ExpectationResult(description, ok, ", ".join(details))

    if op == "sjr-exists":
        committee = axioms.exists_sjr_committee(profile, fixture.k)
        exists = committee is not None
        ok = exists == expected["exists"]
        if ok and "committee" in expected:
            want = expected["committee"]
            got = list(committee.members) if committee else None
            ok = got == (list(want) if want is not None else None)
        detail = f"committee {list(committee.members) if committee else None}"
        return ExpectationResult(description, ok, detail)

    raise ValueError(f"unknown expectation op {op!r}")


def verify_fixture(fixture: Fixture) -> list[ExpectationResult]:
    """Replay all of a fixture's expectations; one result per expectation."""
    return [replay_expectation(fixture, e) for e in fixture.expectations]


# ---------------------------------------------------------------------------
# Balanced-biclique hardness instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph on vertex sets {0..left_size-1} and {0..right_size-1}."""

    left_size: int
    right_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.left_size < 1 or self.right_size < 1:
            raise ValueError("both sides must be non-empty")
        for u, v in self.edges:
            if not (0 <= u < self.left_size and 0 <= v < self.right_size):
                raise ValueError(f"edge ({u}, {v}) out of range")

    def neighbors_of_right(self, v: int) -> frozenset[int]:
        return frozenset(u for u, w in self.edges if w == v)


def complete_bipartite(left_size: int, right_size: int) -> BipartiteGraph:
    return BipartiteGraph(
        left_size,
        right_size,
        frozenset(itertools.product(range(left_size), range(right_size))),
    )


def has_balanced_biclique(graph: BipartiteGraph, ell: int) -> bool:
    """Brute-force: is there an l-by-l complete bipartite subgraph?"""
    if ell < 1:
        raise ValueError(f"biclique size must be >= 1, got {ell}")
    if ell > graph.left_size or ell > graph.right_size:
        return False
    edges = graph.edges
    for left in itertools.combinations(range(graph.left_size), ell):
        for right in itertools.combinations(range(graph.right_size), ell):
            if all((u, v) in edges for u in left for v in right):
                return True
    return False


class ReducedInstance(NamedTuple):
    profile: BallotProfile
    k: int
    committee: Committee


def reduce_biclique(graph: BipartiteGraph, ell: int) -> ReducedInstance:
    """Encode balanced-biclique existence as a committee representation check.

    Candidates are the left vertices, two padding blocks of size l-1, and a
    matched block; the committee is the union of the padding blocks, of size
    k = 2l-2.  Every non-matched voter then holds exactly l-1 seats, so the
    committee fails the level-l check iff at least l left vertices are
    commonly approved by l of the right-vertex voters together with the whole
    second voter block -- which happens iff the graph contains an l-by-l
    biclique.  voters: one per right vertex (its neighborhood plus padding
    block one), a bloc of l(s-1) voters on all left vertices plus padding
    block two, and one private voter per matched candidate.
    """
    s = graph.right_size
    if s < 3:
        raise FixtureParameterError(f"requires right_size >= 3, got {s}")
    if ell < 3:
        raise FixtureParameterError(f"requires ell >= 3, got {ell}")
    left = graph.left_size
    pad1 = list(range(left, left + ell - 1))
    pad2 = list(range(left + ell - 1, left + 2 * ell - 2))
    matched_base = left + 2 * ell - 2
    matched_count = s * ell + ell - 3 * s
    m = matched_base + matched_count
    k = 2 * ell - 2

    groups: list[tuple[set[int], int]] = []
    for v in range(s):
        groups.append((set(graph.neighbors_of_right(v)) | set(pad1), 1))
    groups.append((set(range(left)) | set(pad2), ell * (s - 1)))
    for c in range(matched_base, m):
        groups.append(({c}, 1))
    profile = BallotProfile.from_groups(m, groups)
    return ReducedInstance(profile, k, Committee.of(pad1 + pad2))


# ---------------------------------------------------------------------------
# Random profile cultures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformSubsets:
    """Each voter approves each candidate independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"approval probability must be in [0, 1], got {self.p}")

    def tag(self) -> str:
        return f"uniform:{self.p}"


@dataclass(frozen=True)
class FixedSize:
    """Each voter approves a uniform random subset of exactly `size` candidates."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"ballot size must be >= 0, got {self.size}")

    def tag(self) -> str:
        return f"fixed:{self.size}"


@dataclass(frozen=True)
class UrnLike:
    """Voters mostly copy one of a few shared base ballots.

    With probability `cohesion` a voter copies a uniformly chosen base ballot,
    otherwise she draws a fresh uniform subset (p = 1/2).
    """

    groups: int
    cohesion: float

    def __post_init__(self):
        if self.groups < 1:
            raise ValueError(f"group count must be >= 1, got {self.groups}")
        if not 0 <= self.cohesion <= 1:
            raise ValueError(f"cohesion must be in [0, 1], got {self.cohesion}")

    def tag(self) -> str:
        return f"urn:{self.groups}:{self.cohesion}"


Culture = Union[UniformSubsets, FixedSize, UrnLike]


def random_profile(seed: int, n: int, m: int, k: int, culture: Culture) -> BallotProfile:
    """Deterministic random profile: same arguments, same profile.

    ``k`` is not encoded in the ballots but participates in seeding, so
    sweeps over k draw independent profiles.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for m={m}")
    if isinstance(culture, FixedSize) and culture.size > m:
        raise ValueError(f"ballot size {culture.size} exceeds m={m}")
    rng = random.Random(f"{seed}|{n}|{m}|{k}|{culture.tag()}")

    def uniform_half() -> frozenset[int]:
        return frozenset(c for c in range(m) if rng.random() < 0.5)

    ballots: list[frozenset[int]] = []
    if isinstance(culture, UniformSubsets):
        for _ in range(n):
            ballots.append(frozenset(c for c in range(m) if rng.random() < culture.p))
    elif isinstance(culture, FixedSize):
        for _ in range(n):
            ballots.append(frozenset(rng.sample(range(m), culture.size)))
    else:
        bases = [uniform_half() for _ in range(culture.groups)]
        for _ in range(n):
            if rng.random() < culture.cohesion:
                ballots.append(bases[rng.randrange(culture.groups)])
            else:
                ballots.append(uniform_half())
    return BallotProfile.from_approval_sets(m, ballots)
