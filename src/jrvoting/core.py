"""Core domain types and exact scoring for approval-based committee elections.

Everything downstream (solvers, rules, axiom checkers) is built on the types
in this module: ballot profiles with multiplicities, committees, non-increasing
weight vectors, and the four scoring objectives.  All scores are exact
rationals (`fractions.Fraction`); no floating point is used anywhere, so tied
scores and quota boundaries are resolved exactly.

All types are immutable after construction and all operations are pure
functions of their inputs, so they can safely be shared across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Union

RationalLike = Union[int, str, Fraction]


class ProfileError(ValueError):
    """A ballot profile (or committee used with it) is structurally invalid."""


class BudgetExhausted(RuntimeError):
    """A search exceeded its node budget.

    Attributes carry the best feasible answer found so far (may be ``None``
    if the budget ran out before any candidate solution was completed).
    """

    def __init__(self, message: str, *, best_committee=None, best_score=None, nodes_explored: int = 0):
        super().__init__(message)
        self.best_committee = best_committee
        self.best_score = best_score
        self.nodes_explored = nodes_explored


class TieBreak(enum.Enum):
    """How co-optimal committees are resolved.

    ``LEXICOGRAPHIC`` compares committees as sorted index sequences.
    ``PREFER_JR`` first restricts co-optimal committees to those providing
    justified representation and then applies lexicographic order; if no
    co-optimal committee provides it, falls back to plain lexicographic order.
    """

    LEXICOGRAPHIC = "lex"
    PREFER_JR = "prefer-jr"


def _as_fraction(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Ballot:
    """One distinct approval set together with the number of voters casting it."""

    approved: frozenset[int]
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "approved", frozenset(self.approved))
        if self.multiplicity < 1:
            raise ProfileError(f"ballot multiplicity must be >= 1, got {self.multiplicity}")

    @property
    def mask(self) -> int:
        m = 0
        for c in self.approved:
            m |= 1 << c
        return m


@dataclass(frozen=True)
class BallotProfile:
    """A multiset of approval ballots over candidates ``0 .. num_candidates-1``.

    Ballots are stored grouped: each entry pairs a distinct approval set with
    its multiplicity.  A profile is semantically identical to its expansion
    into unit-multiplicity ballots; every operation in this package is
    invariant under that expansion.  Empty approval sets are legal.
    """

    num_candidates: int
    ballots: tuple[Ballot, ...]

    def __post_init__(self):
        object.__setattr__(self, "ballots", tuple(self.ballots))
        if self.num_candidates < 1:
            raise ProfileError(f"num_candidates must be >= 1, got {self.num_candidates}")
        if not self.ballots:
            raise ProfileError("profile must contain at least one voter")
        # one range test over every approved index; only a profile that fails
        # it is scanned ballot by ballot, for the index the error names
        approved = frozenset().union(*(ballot.approved for ballot in self.ballots))
        if approved and not 0 <= min(approved) <= max(approved) < self.num_candidates:
            for ballot in self.ballots:
                for c in ballot.approved:
                    if not 0 <= c < self.num_candidates:
                        raise ProfileError(
                            f"candidate index {c} out of range for m={self.num_candidates}"
                        )

    @classmethod
    def from_groups(
        cls, num_candidates: int, groups: Iterable[tuple[Iterable[int], int]]
    ) -> "BallotProfile":
        """Build a profile from ``(approval set, multiplicity)`` pairs."""
        return cls(
            num_candidates,
            tuple(Ballot(frozenset(approved), mult) for approved, mult in groups),
        )

    @classmethod
    def from_approval_sets(
        cls, num_candidates: int, approval_sets: Iterable[Iterable[int]]
    ) -> "BallotProfile":
        """Build a profile of unit-multiplicity ballots."""
        return cls(
            num_candidates, tuple(Ballot(frozenset(a), 1) for a in approval_sets)
        )

    @property
    def m(self) -> int:
        return self.num_candidates

    @cached_property
    def n(self) -> int:
        """Total number of voters (sum of multiplicities)."""
        return sum(b.multiplicity for b in self.ballots)

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """Per-ballot ``(bitmask, multiplicity)`` pairs, aligned with `ballots`."""
        return tuple((b.mask, b.multiplicity) for b in self.ballots)

    @cached_property
    def approvers(self) -> tuple[tuple[int, ...], ...]:
        """For each candidate, the ascending indices of the ballots approving it."""
        approvers: list[list[int]] = [[] for _ in range(self.num_candidates)]
        for i, ballot in enumerate(self.ballots):
            for c in ballot.approved:
                approvers[c].append(i)
        return tuple(map(tuple, approvers))

    @cached_property
    def approval_scores(self) -> tuple[int, ...]:
        """Multiplicity-weighted number of approvals per candidate."""
        ballots = self.ballots
        return tuple(
            sum(ballots[i].multiplicity for i in group) for group in self.approvers
        )

    def expand(self) -> "BallotProfile":
        """The semantically identical profile of n unit-multiplicity ballots."""
        units = []
        for ballot in self.ballots:
            units.extend([Ballot(ballot.approved, 1)] * ballot.multiplicity)
        return BallotProfile(self.num_candidates, tuple(units))


def normalize_profile(profile: BallotProfile) -> BallotProfile:
    """Merge identical ballots and sort groups canonically.

    Identical approval sets are merged by summing multiplicities; groups are
    then ordered by their approval set viewed as a sorted index sequence.
    The voter count n is preserved.
    """
    merged: dict[frozenset[int], int] = {}
    for ballot in profile.ballots:
        merged[ballot.approved] = merged.get(ballot.approved, 0) + ballot.multiplicity
    ordered = sorted(merged.items(), key=lambda item: tuple(sorted(item[0])))
    return BallotProfile(
        profile.num_candidates,
        tuple(Ballot(approved, mult) for approved, mult in ordered),
    )


@dataclass(frozen=True)
class Committee:
    """A size-k set of candidate indices, stored as a strictly increasing tuple."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("committee must not be empty")
        if any(c < 0 for c in self.members):
            raise ValueError("candidate indices must be non-negative")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError(f"members must be strictly increasing, got {self.members}")

    @classmethod
    def of(cls, members: Iterable[int]) -> "Committee":
        """Build a committee from any iterable of distinct candidate indices."""
        return cls(tuple(sorted(members)))

    @property
    def k(self) -> int:
        return len(self.members)

    @cached_property
    def mask(self) -> int:
        m = 0
        for c in self.members:
            m |= 1 << c
        return m

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, candidate: int) -> bool:
        return candidate in self.members


@dataclass(frozen=True)
class WeightVector:
    """A non-increasing score vector w_1 >= w_2 >= ... >= 0 with w_1 = 1.

    Drives both the committee-score family (total satisfaction of a voter
    with p approved winners is the partial sum w_1 + ... + w_p) and the
    sequential family (a voter already holding p winners contributes
    w_{p+1} to the approval weight of further candidates).  Entries are
    exact rationals.  A vector used with a profile must have length equal
    to the profile's number of candidates.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(_as_fraction(w) for w in self.weights)
        )
        if not self.weights:
            raise ValueError("weight vector must be non-empty")
        if self.weights[0] != 1:
            raise ValueError(f"w_1 must equal 1, got {self.weights[0]}")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if any(a < b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be non-increasing")

    @classmethod
    def from_values(cls, values: Iterable[RationalLike]) -> "WeightVector":
        return cls(tuple(_as_fraction(v) for v in values))

    @classmethod
    def harmonic(cls, length: int) -> "WeightVector":
        """(1, 1/2, 1/3, ...): the classic proportional satisfaction weights."""
        return cls(tuple(Fraction(1, j) for j in range(1, length + 1)))

    @classmethod
    def all_ones(cls, length: int) -> "WeightVector":
        """(1, 1, ...): every additional approved winner counts fully."""
        return cls((Fraction(1),) * length)

    @classmethod
    def coverage(cls, length: int) -> "WeightVector":
        """(1, 0, ..., 0): only a voter's first approved winner counts."""
        return cls((Fraction(1),) + (Fraction(0),) * (length - 1))

    @classmethod
    def geometric(cls, length: int, ratio: Fraction) -> "WeightVector":
        """(1, r, r^2, ...) for 0 <= r <= 1."""
        ratio = _as_fraction(ratio)
        if not 0 <= ratio <= 1:
            raise ValueError(f"geometric ratio must be in [0, 1], got {ratio}")
        return cls(tuple(ratio**j for j in range(length)))

    def __len__(self) -> int:
        return len(self.weights)

    def weight(self, j: int) -> Fraction:
        """w_j (1-based)."""
        return self.weights[j - 1]

    @cached_property
    def satisfaction_table(self) -> tuple[Fraction, ...]:
        """Partial sums: entry p is w_1 + ... + w_p (entry 0 is 0)."""
        sums = [Fraction(0)]
        for w in self.weights:
            sums.append(sums[-1] + w)
        return tuple(sums)


@dataclass(frozen=True)
class ScoringObjective:
    """One of the four committee-scoring objectives.

    ``av``    total number of approved winners over all voters (maximize);
    ``sav``   sum of |W n A_i| / |A_i| (maximize; empty ballots contribute 0);
    ``wpav``  sum of weight-vector partial sums at |W n A_i| (maximize);
    ``mav``   maximum Hamming distance between W and any distinct ballot
              (minimize; multiplicities beyond presence are irrelevant).
    """

    kind: str
    weights: Optional[WeightVector] = None

    def __post_init__(self):
        if self.kind not in ("av", "sav", "wpav", "mav"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "wpav" and self.weights is None:
            raise ValueError("wpav objective requires a weight vector")
        if self.kind != "wpav" and self.weights is not None:
            raise ValueError(f"{self.kind} objective takes no weight vector")

    @property
    def maximize(self) -> bool:
        return self.kind != "mav"


AV = ScoringObjective("av")
SAV = ScoringObjective("sav")
MAV = ScoringObjective("mav")


def wpav_objective(weights: WeightVector) -> ScoringObjective:
    return ScoringObjective("wpav", weights)


def hamming_distance(set_a: Iterable[int], set_b: Iterable[int]) -> int:
    """Size of the symmetric difference of two candidate sets."""
    return len(frozenset(set_a) ^ frozenset(set_b))


def _check_committee(profile: BallotProfile, committee: Committee) -> None:
    if committee.members[-1] >= profile.num_candidates:
        raise ProfileError(
            f"committee member {committee.members[-1]} out of range for m={profile.num_candidates}"
        )


def _gain_rows(
    objective: ScoringObjective, sizes: Iterable[int], k: int
) -> tuple[dict[int, tuple[int, ...]], int]:
    """Per-voter gain rows of an additive objective, scaled to a common
    integer denominator, one per ballot size in ``sizes``.

    Entry j of ballot size s's row is what one voter approving s candidates
    adds to the score with its (j + 1)-th approved winner, times the
    denominator, for j < min(s, k): 1 for ``av``, 1/s for ``sav`` and w_{j+1}
    for ``wpav``.  A committee's score is the sum over the voters of the
    entries below their number of approved winners, divided by the
    denominator.
    """
    rows: dict[int, list[Fraction]] = {}
    for size in sizes:
        top = min(size, k)
        if objective.kind == "av":
            rows[size] = [Fraction(1)] * top
        elif objective.kind == "sav":
            rows[size] = [Fraction(1, size)] * top if size else []
        else:  # wpav
            rows[size] = list(objective.weights.weights[:top])
    denominator = math.lcm(1, *(value.denominator for row in rows.values() for value in row))
    scaled = {
        size: tuple(value.numerator * (denominator // value.denominator) for value in row)
        for size, row in rows.items()
    }
    return scaled, denominator


def score_committee(
    profile: BallotProfile, committee: Committee, objective: ScoringObjective
) -> Fraction:
    """Exact score of a committee under the given objective.

    The additive objectives tally the voters in integers by ballot size and
    approved winners, then sum the integer gain rows of `_gain_rows` (the
    ones the Thiele search reads) over those few classes, for one exact
    rational.
    """
    _check_committee(profile, committee)
    wmask, k = committee.mask, committee.k
    if objective.kind == "mav":
        # maximum symmetric-difference distance over distinct ballots
        worst = 0
        for mask, _mult in profile.masks:
            dist = k + mask.bit_count() - 2 * (mask & wmask).bit_count()
            if dist > worst:
                worst = dist
        return Fraction(worst)
    if objective.kind == "wpav" and len(objective.weights) != profile.num_candidates:
        raise ValueError(
            f"weight vector length {len(objective.weights)} != number of candidates {profile.num_candidates}"
        )
    width = k + 1  # a voter holds at most k winners
    voters: dict[int, int] = {}  # ballot size * width + winners -> voters
    for mask, mult in profile.masks:
        key = mask.bit_count() * width + (mask & wmask).bit_count()
        voters[key] = voters.get(key, 0) + mult
    rows, denominator = _gain_rows(objective, {key // width for key in voters}, k)
    total = 0
    for key, count in voters.items():
        size, hits = divmod(key, width)
        total += count * sum(rows[size][:hits])
    return Fraction(total, denominator)
