"""Named approval-based multi-winner voting rules.

Two families:

* score-optimizing rules (approval, satisfaction, weighted-satisfaction,
  minimax-distance) dispatch to the exact solver;
* sequential rules elect one candidate per round, reweighting each voter's
  contribution by how many of their approved candidates are already elected.
  One round loop, `core._greedy_rounds`, serves them all, and the Thiele
  search's greedy floor too.  It runs over the profile's ballot groups on
  the integer gain rows of `core._gain_rows`, so only w_1 .. w_min(s, k) are
  scaled, for the largest ballot size s, and it takes each round's winner
  from a lazy max-heap.  `sequential_trace` also keeps every round's weight
  table, `compute_sequential_rule` only the winners.  With coverage
  weights (1, 0, ..., 0) it is greedy approval voting, the `gav` rule, which
  is also the paper's construction of a committee providing justified
  representation (`axioms.find_jr_committee`).

On top of these sit two representation-constrained rules that optimize over
the committees providing justified representation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import axioms
from .core import (
    AV,
    BallotProfile,
    Committee,
    MAV,
    SAV,
    ScoringObjective,
    TieBreak,
    WeightVector,
    _gain_rows,
    _greedy_rounds,
    score_committee,
    wpav_objective,
)
from .solver import OptimizationRequest, _best_accepted, optimize_committee


@dataclass(frozen=True)
class RuleSpec:
    """A rule name plus, for the weight-parameterized rules, its weight vector.

    Named families expand to explicit weight vectors of length m at
    invocation time; the geometric sequential family additionally depends on
    the profile's voter count.  Sequential rules break ties round by round,
    so they reject the prefer-JR tie-break (and, in `compute_rule`, a search
    budget).
    """

    name: str
    weights: Optional[WeightVector] = None
    tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC

    def __post_init__(self):
        rule = _RULES.get(self.name)
        if rule is None:
            raise ValueError(f"unknown rule {self.name!r}")
        if rule.explicit_weights and self.weights is None:
            raise ValueError(f"rule {self.name!r} requires an explicit weight vector")
        if not rule.explicit_weights and self.weights is not None:
            raise ValueError(f"rule {self.name!r} does not take a weight vector")
        if self.tiebreak is TieBreak.PREFER_JR and not rule.searches:
            raise ValueError(f"rule {self.name!r} breaks ties round by round, not by prefer-jr")


def rule_weights(spec: RuleSpec, profile: BallotProfile) -> Optional[WeightVector]:
    """The explicit weight vector a named family uses on this profile."""
    family = _RULES[spec.name].family
    return spec.weights if family is None else family(profile)


@dataclass(frozen=True)
class RoundRecord:
    """One round of a sequential rule.

    ``weights`` maps every candidate that was still unelected at the start of
    the round to its approval weight; ``candidate`` is the elected one and
    ``weight`` its (maximal) approval weight.
    """

    index: int
    candidate: int
    weight: Fraction
    weights: Mapping[int, Fraction]


def _sequential_rows(
    profile: BallotProfile, k: int, weights: WeightVector
) -> tuple[dict[int, tuple[int, ...]], int]:
    """The integer gain rows of the sequential rule's weights on this
    profile and their denominator (`core._gain_rows`): a ballot of s
    candidates reaches only w_1 .. w_min(s, k), so only those are scaled."""
    m = profile.num_candidates
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for m={m}")
    if len(weights) != m:
        raise ValueError(f"weight vector length {len(weights)} != m={m}")
    return _gain_rows(ScoringObjective("wpav", weights), set(map(len, profile.index.members)), k)


def sequential_trace(
    profile: BallotProfile, k: int, weights: WeightVector
) -> list[RoundRecord]:
    """Run k rounds of the sequential rule, keeping each round's weight table.

    In every round each unelected candidate's approval weight is the
    multiplicity-weighted sum, over ballots approving it, of the weight-vector
    entry at one past the ballot's current number of elected approvals.  The
    maximal candidate is elected, ties broken by lowest index.  The rounds
    run on integers (`core._greedy_rounds`); a candidate's reported weight is
    rebuilt as a fraction only when its integer weight changes, so the round
    records share them.
    """
    rows, scale = _sequential_rows(profile, k, weights)
    unelected = list(range(profile.num_candidates))
    scaled: list[Optional[int]] = [None] * profile.num_candidates
    shown: list[Optional[Fraction]] = [None] * profile.num_candidates
    trace: list[RoundRecord] = []
    for index, (best, current) in enumerate(_greedy_rounds(profile, k, rows), start=1):
        for c in unelected:
            if scaled[c] != current[c]:
                scaled[c] = current[c]
                shown[c] = Fraction(current[c], scale)
        trace.append(RoundRecord(index, best, shown[best], {c: shown[c] for c in unelected}))
        unelected.remove(best)
    return trace


def compute_sequential_rule(
    profile: BallotProfile, k: int, weights: WeightVector
) -> Committee:
    """The committee accumulated over k sequential rounds; unlike
    `sequential_trace` it builds no weight tables."""
    rows, _ = _sequential_rows(profile, k, weights)
    return Committee.of(best for best, _ in _greedy_rounds(profile, k, rows))


def compute_score_rule(
    profile: BallotProfile,
    k: int,
    objective: ScoringObjective,
    tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC,
    budget: Optional[int] = None,
) -> Committee:
    """Winner of a score-optimizing rule, via the exact solver."""
    request = OptimizationRequest(
        profile=profile, k=k, objective=objective, tiebreak=tiebreak, budget=budget
    )
    return optimize_committee(request).committee


def compute_ujrav(
    profile: BallotProfile, k: int, budget: Optional[int] = None
) -> Committee:
    """Approval-score-maximal committee among those providing justified
    representation, lexicographically smallest on ties.

    Branch-and-bound over the C(m, k) committees (no polynomial algorithm is
    known) that checks justified representation only at a committee that
    would beat the best one so far.  At least one committee always
    qualifies, so this never fails.  The budget counts search nodes.
    """
    return _best_accepted(
        profile, k, lambda w: axioms.check_jr(profile, k, w).passed, AV, budget
    )


def compute_ejrav(
    profile: BallotProfile, k: int, budget: Optional[int] = None
) -> Committee:
    """Committee maximizing the least-represented voter's winner count, among
    committees providing justified representation; lexicographic on ties.

    The demand search runs in two passes (`solver._demand_passes`): over the
    candidates in descending approval score it finds the best maximin of a
    justified committee, then, in label order from that value, the first
    justified committee worth it.  A voter with an empty ballot pins the
    maximin at zero, in which case one label-order pass finds the
    lexicographically first justified committee.  The budget counts search
    nodes over both passes; one that runs out in the second reports the
    first pass's committee, justified, as the best so far.
    """
    return _best_accepted(
        profile, k, lambda w: axioms.check_jr(profile, k, w).passed, "maximin", budget
    )


# ---------------------------------------------------------------------------
# The rule table.  Entries call this module's functions by name at call time,
# so rebinding a module attribute (a wrapper or a test double) takes effect.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    compute: Callable[..., Committee]  # (profile, k, spec, budget)
    score: Callable[..., Fraction]  # (profile, spec, committee)
    family: Optional[Callable[[BallotProfile], WeightVector]] = None
    explicit_weights: bool = False
    searches: bool = True  # honours a search budget and the prefer-jr tie-break


def _score_rule(objective: ScoringObjective, family=None) -> _Rule:
    return _Rule(
        lambda p, k, s, b: compute_score_rule(p, k, objective, s.tiebreak, b),
        lambda p, s, w: score_committee(p, w, objective),
        family,
    )


def _weighted_rule(family, sequential: bool = False) -> _Rule:
    """The optimal Thiele rule of a weight family (None: the spec's explicit
    vector) or, if ``sequential``, its round-by-round counterpart."""

    def compute(p, k, s, b):
        weights = rule_weights(s, p)
        if sequential:
            return compute_sequential_rule(p, k, weights)
        return compute_score_rule(p, k, wpav_objective(weights), s.tiebreak, b)

    return _Rule(
        compute,
        lambda p, s, w: score_committee(p, w, wpav_objective(rule_weights(s, p))),
        family,
        explicit_weights=family is None,
        searches=not sequential,
    )


_RULES: dict[str, _Rule] = {
    "av": _score_rule(AV, lambda p: WeightVector.all_ones(p.num_candidates)),
    "sav": _score_rule(SAV),
    "mav": _score_rule(MAV),
    "pav": _weighted_rule(lambda p: WeightVector.harmonic(p.num_candidates)),
    "cc": _weighted_rule(lambda p: WeightVector.coverage(p.num_candidates)),
    "wpav": _weighted_rule(None),
    "rav": _weighted_rule(lambda p: WeightVector.harmonic(p.num_candidates), sequential=True),
    "gav": _weighted_rule(lambda p: WeightVector.coverage(p.num_candidates), sequential=True),
    "geometric-rav": _weighted_rule(
        lambda p: WeightVector.geometric(p.num_candidates, Fraction(1, p.n)), sequential=True
    ),
    "wrav": _weighted_rule(None, sequential=True),
    # both tie-break modes coincide: every committee searched provides JR
    "ujrav": _Rule(
        lambda p, k, s, b: compute_ujrav(p, k, b), lambda p, s, w: score_committee(p, w, AV)
    ),
    "ejrav": _Rule(
        lambda p, k, s, b: compute_ejrav(p, k, b),
        lambda p, s, w: Fraction(min((mask & w.mask).bit_count() for mask in p.index.masks)),
    ),
}

RULE_NAMES = tuple(_RULES)


def compute_rule(
    profile: BallotProfile, k: int, spec: RuleSpec, budget: Optional[int] = None
) -> Committee:
    """Run the rule described by ``spec`` on the profile; ``budget`` bounds
    the search nodes of the rules that search."""
    rule = _RULES[spec.name]
    if budget is not None and not rule.searches:
        raise ValueError(f"rule {spec.name!r} elects round by round and takes no search budget")
    # before a weight family builds anything per candidate
    if not 1 <= k <= profile.num_candidates:
        raise ValueError(f"k={k} out of range for m={profile.num_candidates}")
    return rule.compute(profile, k, spec, budget)


def report_score(
    profile: BallotProfile, k: int, spec: RuleSpec, committee: Committee
) -> Fraction:
    """The natural score to report alongside a rule's winning committee.

    Score rules report their objective value; sequential and weight-based
    rules report the committee's total satisfaction under the rule's weight
    vector; the representation-constrained rules report approval score and
    maximin winner count respectively.
    """
    return _RULES[spec.name].score(profile, spec, committee)
