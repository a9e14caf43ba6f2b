"""Core domain types and exact scoring for approval-based committee elections.

Everything downstream (solvers, rules, axiom checkers) is built on the types
in this module: ballot profiles with multiplicities, committees, non-increasing
weight vectors, and the four scoring objectives.  A profile holds its ballots
as one `GroupIndex`, grouped by approval set, and the downstream modules work
per group: repeated ballots cost nothing beyond their multiplicity, and group
ids map back to ballot indices only where a witness names voters.  All scores
are exact rationals (`fractions.Fraction`); no floating point is used
anywhere, so tied scores and quota boundaries are resolved exactly.

All types are immutable after construction and all operations are pure
functions of their inputs, so they can safely be shared across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappushpop
from itertools import repeat
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, Union

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


_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _flags_mask(flags: bytes) -> int:
    """The bitmask whose bit i is ``flags[i]``, every flag 0 or 1, read in
    one pass as a binary numeral."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


def _mask_flags(mask: int, length: int) -> bytes:
    """The inverse of `_flags_mask`: ``length`` flags, flag i the bit i of
    ``mask``, which has no bit at ``length`` or above."""
    return bin(mask)[:1:-1].encode().translate(_TO_FLAGS).ljust(length, b"\0")


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


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """A profile's ballots grouped by approval set.

    Group g is one distinct approval set: its candidate indices
    ``members[g]``, the summed multiplicity ``mults[g]`` of the ballots
    casting it and its bitmask ``masks[g]``, built on first use unless the
    index was built with it.  The members are a frozenset in a profile built
    from ``(approval set, multiplicity)`` pairs (`BallotProfile.from_groups`)
    or from `Ballot` objects, and a tuple in a parsed one
    (`cli.parse_profile`), in the order of the first line casting the group:
    ``1: 3 1`` gives ``(3, 1)``, and only a line read token by token
    (`cli._read_indices`) gives ascending indices.  ``entries`` holds one
    ``(group, multiplicity)`` pair per distinct ballot (a pair, or a
    distinct line of a profile document), and ``order[i]`` is the entry of
    ballot i.  A set of groups is a bitmask too, bit g for group g: `weigh`
    gives its voters and `positions` its ballots.
    """

    members: tuple[Collection[int], ...]
    mults: tuple[int, ...]
    entries: tuple[tuple[int, int], ...]
    order: tuple[int, ...]

    @classmethod
    def build(cls, members: list[Collection[int]], entries: list[tuple[int, int]],
              order: Iterable[int], masks: Optional[list[int]] = None) -> "GroupIndex":
        """The index of the given groups, entries and ballot order, with the
        groups' bitmasks if known; sums each group's multiplicity over its
        ballots."""
        mults = [0] * len(members)
        for entry in order:
            group, mult = entries[entry]
            mults[group] += mult
        index = cls(tuple(members), tuple(mults), tuple(entries), tuple(order))
        if masks is not None:
            index.__dict__["masks"] = tuple(masks)  # the cached property's value
        return index

    @cached_property
    def masks(self) -> tuple[int, ...]:
        masks = []
        for members in self.members:
            mask = 0
            for c in members:
                mask |= 1 << c
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def weigh(self) -> Callable[[int], int]:
        """``weigh(groups)``: the summed multiplicity of the groups in the
        bitmask ``groups`` (`_weigher`)."""
        return _weigher(self.mults)

    def positions(self, held: bytes) -> tuple[int, ...]:
        """The ascending indices of the ballots of the groups flagged in
        ``held``, one flag (0 or 1) per group."""
        entries = self.entries
        return tuple([i for i, entry in enumerate(self.order) if held[entries[entry][0]]])


def _weigher(mults: Sequence[int]) -> Callable[[int], int]:
    """The exact weighted popcount over groups of multiplicities ``mults``:
    a function of a bitmask, bit g for group g, giving the summed
    multiplicity of its groups.  Where every group has one multiplicity it
    is that multiplicity times the popcount.  Otherwise it adds, over a few
    masks of groups, a weight times the popcount of the groups in the mask:
    the most common multiplicity times the popcount, and one mask per other
    multiplicity, weighted by its excess over the most common one; or, where
    that takes more masks, one per binary digit of the multiplicities,
    weighted by its place value."""
    values = set(mults)
    if len(values) == 1:
        mult = mults[0]
        return int.bit_count if mult == 1 else lambda groups: mult * groups.bit_count()
    digits = max(values).bit_length()
    if len(values) <= digits:
        base = max(values, key=mults.count)
        planes = [(v - base, bytes([mult == v for mult in mults])) for v in values if v != base]
    else:
        base = 0
        planes = [(1 << d, bytes([mult >> d & 1 for mult in mults])) for d in range(digits)]
    planes = [(weight, _flags_mask(flags)) for weight, flags in planes if any(flags)]
    if len(planes) == 1:
        (weight, plane), = planes
        return lambda groups: base * groups.bit_count() + weight * (groups & plane).bit_count()
    return lambda groups: base * groups.bit_count() + sum(
        [weight * (groups & plane).bit_count() for weight, plane in planes])


def _columns(members: Iterable[Iterable[int]], m: int) -> list[int]:
    """For each of the ``m`` candidates, the bitmask of the groups approving
    it, bit i for the i-th approval set of ``members``."""
    columns = [0] * m
    for i, group in enumerate(members):
        bit = 1 << i
        for c in group:
            columns[c] |= bit
    return columns


def _transposed_columns(masks: Sequence[int], m: int) -> list[int]:
    """`_columns` from the groups' bitmasks, none with a bit at ``m`` or
    above, by one transpose: one ``m``-digit binary row per group, the last
    group's first, so that candidate c's digits, one per row at offset
    ``m - 1 - c``, read back as one binary numeral with group 0 lowest.

    Each ``columns[c] |= 1 << g`` of the incidence loop copies a G-bit
    integer, so that loop costs incidences times G, and this one G times
    ``m`` characters: it wins on many dense groups only."""
    table = "".join(map(format, reversed(masks), repeat(f"0{m}b")))
    return [int(table[m - 1 - c::m], 2) for c in range(m)]


def _check_range(num_candidates: int, approval_sets: list[frozenset[int]]) -> None:
    """Reject the first index outside ``0 .. num_candidates-1``, scanning the
    approval sets in order.  One range test covers their union; the sets are
    scanned one by one only when it fails, for the index the error names."""
    approved = frozenset().union(*approval_sets)
    if approved and not 0 <= min(approved) <= max(approved) < num_candidates:
        for members in approval_sets:
            for c in members:
                if not 0 <= c < num_candidates:
                    raise ProfileError(f"candidate index {c} out of range for m={num_candidates}")


class BallotProfile:
    """A multiset of approval ballots over candidates ``0 .. num_candidates-1``.

    A profile holds one index, `index`, of its ballots grouped by approval
    set, and derives every other view from it when first read: the voter
    count `n`, the per-ballot `masks`, the per-candidate `columns` (groups
    as one bitmask), `owners` (groups as a tuple) and `approval_scores`,
    and the `Ballot` objects themselves, built only when `ballots` is
    read.
    A profile built from `Ballot` objects derives the index from them;
    `from_groups` (and `from_approval_sets` and `expand`, which call it) and
    `cli.parse_profile` build the index directly, so their profiles build
    no `Ballot` until `ballots` is read.  A profile is
    semantically identical to its expansion into unit-multiplicity ballots;
    every operation in this package is invariant under that expansion.
    Empty approval sets are legal.  Profiles are immutable and compare by
    their candidate count and their sequence of ballots.
    """

    num_candidates: int

    def __init__(self, num_candidates: int, ballots: Iterable[Ballot]):
        ballots = tuple(ballots)
        if num_candidates < 1:
            raise ProfileError(f"num_candidates must be >= 1, got {num_candidates}")
        if not ballots:
            raise ProfileError("profile must contain at least one voter")
        _check_range(num_candidates, [ballot.approved for ballot in ballots])
        object.__setattr__(self, "num_candidates", num_candidates)
        self.__dict__["ballots"] = ballots

    @classmethod
    def _of_index(cls, num_candidates: int, index: GroupIndex) -> "BallotProfile":
        """A profile of an index whose candidate indices are known to lie in
        range, with at least one ballot; its ballots are built when read."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "num_candidates", num_candidates)
        profile.__dict__["index"] = index
        return profile

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_candidates == other.num_candidates and self.masks == other.masks

    def __hash__(self):
        return hash((self.num_candidates, self.masks))

    def __repr__(self):
        return f"BallotProfile(num_candidates={self.num_candidates!r}, ballots={self.ballots!r})"

    @classmethod
    def from_groups(
        cls, num_candidates: int, groups: Iterable[tuple[Iterable[int], int]]
    ) -> "BallotProfile":
        """Build a profile from ``(approval set, multiplicity)`` pairs, one
        ballot per pair.

        The pairs are read straight into the profile's `GroupIndex`, one
        group per distinct approval set (a frozenset) in order of first
        appearance; no `Ballot` is built until ``ballots`` is read.  Errors
        come in the order a profile of `Ballot` objects raises them: the
        first multiplicity below 1, then ``num_candidates < 1``, then no
        pairs, then the first out-of-range index in pair order.
        """
        group_of: dict[frozenset[int], int] = {}
        entries = []
        for approved, mult in groups:
            approved = frozenset(approved)
            if mult < 1:
                raise ProfileError(f"ballot multiplicity must be >= 1, got {mult}")
            entries.append((group_of.setdefault(approved, len(group_of)), mult))
        if num_candidates < 1:
            raise ProfileError(f"num_candidates must be >= 1, got {num_candidates}")
        if not entries:
            raise ProfileError("profile must contain at least one voter")
        # groups come in order of first appearance, so the first group
        # holding an out-of-range index is that of the first such pair
        members = list(group_of)
        _check_range(num_candidates, members)
        return cls._of_index(num_candidates, GroupIndex.build(members, entries, range(len(entries))))

    @classmethod
    def from_approval_sets(
        cls, num_candidates: int, approval_sets: Iterable[Iterable[int]]
    ) -> "BallotProfile":
        """Build a profile of unit-multiplicity ballots."""
        return cls.from_groups(num_candidates, ((approved, 1) for approved in approval_sets))

    @cached_property
    def index(self) -> GroupIndex:
        """The ballots grouped by approval set, groups in order of first
        appearance."""
        groups: dict[frozenset[int], int] = {}
        entries = [
            (groups.setdefault(ballot.approved, len(groups)), ballot.multiplicity)
            for ballot in self.ballots
        ]
        return GroupIndex.build(list(groups), entries, range(len(entries)))

    @cached_property
    def ballots(self) -> tuple[Ballot, ...]:
        """The ballots in order; identical entries share one `Ballot`."""
        index = self.index
        made = [Ballot(frozenset(index.members[group]), mult) for group, mult in index.entries]
        return tuple(map(made.__getitem__, index.order))

    @property
    def m(self) -> int:
        return self.num_candidates

    @cached_property
    def n(self) -> int:
        """Total number of voters (sum of multiplicities)."""
        return sum(self.index.mults)

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """Per-ballot ``(bitmask, multiplicity)`` pairs, aligned with `ballots`."""
        index = self.index
        pairs = [(index.masks[group], mult) for group, mult in index.entries]
        return tuple(map(pairs.__getitem__, index.order))

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """For each candidate, the groups approving it as one bitmask, bit g
        for group g: the profile's vertical bit-vector layout (Eclat's).
        The axiom checks, `axioms.find_jr_committee` and every search on the
        profile share this one build; a set of groups weighs its voters with
        `GroupIndex.weigh`.  A profile of at least 256 groups approving on
        average at least an eighth of the candidates builds it by one
        transpose of the groups' bitmasks (`_transposed_columns`), any
        other by the incidence loop of `_columns`: measured on random
        profiles, the transpose wins from about that density at 256 groups,
        and from lower densities on more groups."""
        index, m = self.index, self.num_candidates
        groups = len(index.mults)
        if groups >= 256 and 8 * sum(map(len, index.members)) >= groups * m:
            return tuple(_transposed_columns(index.masks, m))
        return tuple(_columns(index.members, m))

    @cached_property
    def _tallies(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        # `owners` and `approval_scores`, in one pass over the groups
        owners: list[list[int]] = [[] for _ in range(self.num_candidates)]
        scores = [0] * self.num_candidates
        index = self.index
        for group, (members, mult) in enumerate(zip(index.members, index.mults)):
            for c in members:
                owners[c].append(group)
                scores[c] += mult
        return tuple(map(tuple, owners)), tuple(scores)

    @property
    def owners(self) -> tuple[tuple[int, ...], ...]:
        """For each candidate, the ascending ids of the groups approving it."""
        return self._tallies[0]

    @property
    def approval_scores(self) -> tuple[int, ...]:
        """Multiplicity-weighted number of approvals per candidate."""
        return self._tallies[1]

    def expand(self) -> "BallotProfile":
        """The semantically identical profile of n unit-multiplicity ballots."""
        index = self.index
        units = []
        for entry in index.order:
            group, mult = index.entries[entry]
            units.extend([(index.members[group], 1)] * mult)
        return BallotProfile.from_groups(self.num_candidates, units)


def normalize_profile(profile: BallotProfile) -> BallotProfile:
    """Merge identical ballots and sort groups canonically.

    Identical approval sets are merged by summing multiplicities; groups are
    then ordered by their approval set viewed as a sorted index sequence.
    The voter count n is preserved.
    """
    index = profile.index
    groups = sorted(zip(map(sorted, index.members), index.mults))
    return BallotProfile.from_groups(profile.num_candidates, groups)


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
        weights = tuple(map(_as_fraction, self.weights))
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("weight vector must be non-empty")
        # compared as integers: a/c >= b/d iff a*d >= b*c, denominators being
        # positive
        ratios = [w.as_integer_ratio() for w in weights]
        if ratios[0] != (1, 1):
            raise ValueError(f"w_1 must equal 1, got {weights[0]}")
        if any(a < 0 for a, _ in ratios):
            raise ValueError("weights must be non-negative")
        if any(a * d < b * c for (a, c), (b, d) in zip(ratios, ratios[1:])):
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

    Entry j of a row is what one voter adds to the score with its (j + 1)-th
    approved winner, times the denominator: 1 for ``av``, 1/s for ``sav``
    and w_{j+1} for ``wpav``.  A voter approving s candidates reads only the
    first min(s, k) entries of its size's row.  ``av`` and ``wpav`` give
    every size one shared row, of length min(largest size, k); ``sav`` gives
    size s a row of length min(s, k).  A committee's score is the sum over
    the voters of the entries below their number of approved winners,
    divided by the denominator.  Only the weights a row holds are scaled.
    """
    sizes = set(sizes)
    if objective.kind == "sav":
        denominator = math.lcm(1, *sizes - {0})
        rows = {size: (denominator // size,) * min(size, k) if size else () for size in sizes}
        return rows, denominator
    length = min(max(sizes, default=0), k)
    if objective.kind == "av":
        row, denominator = (1,) * length, 1
    else:  # wpav
        weights = objective.weights.weights[:length]
        denominator = math.lcm(1, *(w.denominator for w in weights))
        row = tuple(w.numerator * (denominator // w.denominator) for w in weights)
    return dict.fromkeys(sizes, row), denominator


def _greedy_rounds(
    profile: BallotProfile, k: int, rows: dict[int, tuple[int, ...]]
) -> Iterator[tuple[int, list[int]]]:
    """k rounds of electing the first candidate of largest marginal gain,
    on integer gain rows (`_gain_rows`, one row per ballot size).

    Yields ``(best, gains)`` at the start of each round, before ``best`` is
    elected: ``gains[c]`` is candidate c's marginal gain, the sum over the
    ballot groups approving it of their multiplicity times their row's entry
    at their winners so far (0 past the row's end).  The list changes when
    the generator resumes.  Electing a candidate only updates the groups
    that approve it (`BallotProfile.owners`).  The rows are non-increasing,
    so gains never rise and a heap keyed (-gain, candidate) finds each
    winner lazily: a popped entry whose key is stale goes back with its
    current gain, and the first popped entry whose key is current is the
    lowest-index maximum (the accelerated greedy of Minoux, 1978).  It runs
    `rav`, `geometric-rav`, `wrav` and every `rules.sequential_trace`;
    `gav`'s committee and `find --axiom jr` come from greedy cover on the
    profile's columns (`axioms.find_jr_committee`), and the Thiele search
    runs its greedy floor on its own bitsets (`solver._maximize`).
    """
    index, owners = profile.index, profile.owners
    members, mults = index.members, index.mults
    distinct = set(rows.values())
    if len(distinct) <= 1:
        # every group reads one row (with a trailing 0): first gains follow
        # approval scores
        steps = next(iter(distinct), ()) + (0,)
        rows_of = [steps] * len(mults)
        gains = [steps[0] * score for score in profile.approval_scores]
    else:  # each group reads its own row, with a trailing 0
        padded = {size: row + (0,) for size, row in rows.items()}
        rows_of = list(map(padded.__getitem__, map(len, members)))
        gains = [0] * profile.num_candidates
        for group, mult, row in zip(members, mults, rows_of):
            for c in group:
                gains[c] += mult * row[0]
    heap = [(-gain, c) for c, gain in enumerate(gains)]
    heapify(heap)
    counts = [0] * len(mults)  # for each ballot group, its winners so far
    for _ in range(k):
        key, best = heappop(heap)
        while -key != gains[best]:  # stale: its gain fell since it was pushed
            key, best = heappushpop(heap, (-gains[best], best))
        yield best, gains
        for g in owners[best]:
            held = counts[g]
            counts[g] = held + 1
            row = rows_of[g]
            delta = mults[g] * (row[held + 1] - row[held])
            if delta:
                for c in members[g]:
                    gains[c] += delta


def score_committee(
    profile: BallotProfile, committee: Committee, objective: ScoringObjective
) -> Fraction:
    """Exact score of a committee under the given objective.

    The additive objectives tally the voters of each ballot group
    (`BallotProfile.index`) in integers by ballot size and approved winners,
    then sum the integer gain rows of `_gain_rows` (the
    ones the Thiele search reads) over those few classes, for one exact
    rational.
    """
    _check_committee(profile, committee)
    wmask, k = committee.mask, committee.k
    if objective.kind == "mav":
        # maximum symmetric-difference distance over the ballot groups
        worst = 0
        for mask in profile.index.masks:
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
    index = profile.index
    for mask, mult in zip(index.masks, index.mults):
        key = mask.bit_count() * width + (mask & wmask).bit_count()
        voters[key] = voters.get(key, 0) + mult
    rows, denominator = _gain_rows(objective, {key // width for key in voters}, k)
    total = 0
    for key, count in voters.items():
        size, hits = divmod(key, width)
        total += count * sum(rows[size][:hits])
    return Fraction(total, denominator)
