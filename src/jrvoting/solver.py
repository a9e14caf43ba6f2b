"""Exact optimization over size-k committees.

One engine serves every exhaustive search: lexicographic depth-first search
over candidate subsets with an admissible branch-and-bound prune and an
optional leaf requirement, plus a separable fast path for plain approval
scores.  The search keeps its open nodes on an explicit stack, so k has no
depth limit.  It works on merged ballot groups (one per distinct approval
set, see `core.normalize_profile`), so repeated ballots cost nothing per
node.  The additive (Thiele) search bounds a node by its score plus the
largest marginal gains still available, one per open seat, and until it
holds an incumbent prunes against the exact score of the greedy committee:
with non-increasing weights the score is monotone submodular, so greedy is
within 1 - 1/e of the optimum (Nemhauser, Wolsey & Fisher 1978), and every
optimum reaches its score.  MAV and maximin share one demand search on
bitmasks over the groups: a node is hopeless once some group can no longer
reach the winners the target asks of it, counting only its approved
candidates still to come (MAV asks each ballot size for its own number).
Ties go to the first committee in lexicographic order, or, for prefer-JR,
to the first optimum that provides JR: that search walks ties only until it
holds such an optimum, checking an incumbent only once a committee ties with
it or it reaches the ceiling.  Every search ends once its answer is settled
at its objective's ceiling, the best value any committee could have.  All
bookkeeping is done in scaled integers derived
from the exact rational satisfaction tables, so results are exact and
deterministic.  The search is sequential; since every input type is
immutable, any number of searches may run concurrently on shared profiles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import axioms
from .core import (
    AV,
    Ballot,
    BallotProfile,
    BudgetExhausted,
    Committee,
    ScoringObjective,
    TieBreak,
    normalize_profile,
)


@dataclass(frozen=True)
class OptimizationRequest:
    """A fully specified exact committee-selection problem."""

    profile: BallotProfile
    k: int
    objective: ScoringObjective
    tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC
    budget: Optional[int] = None

    def __post_init__(self):
        if not 1 <= self.k <= self.profile.num_candidates:
            raise ValueError(
                f"k={self.k} out of range for m={self.profile.num_candidates}"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.objective.kind == "wpav" and len(self.objective.weights) != self.profile.num_candidates:
            raise ValueError(
                f"weight vector length {len(self.objective.weights)} != m={self.profile.num_candidates}"
            )


@dataclass(frozen=True)
class OptimizationResult:
    committee: Committee
    score: Fraction
    co_optimal_count: Optional[int]
    nodes_explored: int


def enumerate_committees(m: int, k: int) -> Iterator[Committee]:
    """All C(m, k) committees, in lexicographic order of their sorted members."""
    if not 0 < k <= m:
        raise ValueError(f"require 0 < k <= m, got k={k}, m={m}")
    for members in itertools.combinations(range(m), k):
        yield Committee(members)


def _satisfaction_tables(
    groups: tuple[Ballot, ...], objective: ScoringObjective, k: int
) -> tuple[list[tuple[int, ...]], int]:
    """Per-group cumulative score tables scaled to a common integer denominator.

    Entry p of a group's table is multiplicity * satisfaction(p) * denominator,
    for p up to min(|ballot|, k).  The total committee score is the sum of
    table entries at the group's intersection counts, divided by the
    denominator.
    """
    fraction_tables = []
    for ballot in groups:
        size = len(ballot.approved)
        top = min(size, k)
        if objective.kind == "av":
            row = [Fraction(p) for p in range(top + 1)]
        elif objective.kind == "sav":
            if size == 0:
                row = [Fraction(0)]
            else:
                row = [Fraction(p, size) for p in range(top + 1)]
        else:  # wpav
            table = objective.weights.satisfaction_table
            row = [table[p] for p in range(top + 1)]
        fraction_tables.append((ballot.multiplicity, row))

    denominator = math.lcm(
        1, *(value.denominator for _, row in fraction_tables for value in row)
    )
    tables = [
        tuple(int(value * denominator) * mult for value in row)
        for mult, row in fraction_tables
    ]
    return tables, denominator


class _Search:
    """Depth-first branch and bound over the size-k committees.

    ``groups`` holds one ballot group per distinct approval set.  ``accept``
    is a leaf requirement, evaluated only at a leaf that would replace the
    incumbent.  ``prefer`` settles ties: among the committees worth the best
    value, the first that passes it wins, or else the first of them.  The
    incumbent is *settled* once no leaf tying with it can change the answer:
    always without ``prefer``, and with it once a committee passing it is
    held at the best value.  A settled search prunes every subtree that
    cannot beat the incumbent (an unsettled one, every subtree that cannot
    tie with it), and ends at a settled incumbent worth the ceiling or more:
    by default the objective's ceiling, otherwise the ``ceiling`` given here.
    """

    def __init__(self, profile: BallotProfile, k: int, budget: Optional[int], *,
                 prefer=None, accept=None, ceiling: Optional[int] = None):
        merged = normalize_profile(profile)
        self.groups = merged.ballots
        self.owners = merged.approvers  # for each candidate, the groups approving it
        self.m = profile.num_candidates
        self.k = k
        self.budget = budget
        self.prefer = prefer
        self.accept = accept
        self.ceiling = ceiling
        self.nodes = 0
        self.denominator = 1  # a leaf value over it is the score
        self.best_members: Optional[tuple[int, ...]] = None
        self.best_value: Optional[int] = None
        self.settled = True
        self.checked = False  # whether prefer has seen the incumbent

    def score(self, value: int) -> Fraction:
        return Fraction(value, self.denominator)

    def run(self, add, undo, leaf, hopeless, ceiling: int, floor: Optional[int] = None) -> None:
        """Visit the committees in lexicographic order, maximizing ``leaf()``.

        ``add(c)`` and ``undo(c)`` seat and unseat candidate c, ``leaf()`` is
        the integer value of a full committee, ``hopeless(start, depth,
        target)`` says that no completion by candidates >= start reaches
        ``target``, and no committee is worth more than ``ceiling``.  Every
        optimum is worth ``floor`` or more, if given: until the first
        incumbent, subtrees that cannot reach it are pruned and leaves below
        it are passed over.  Ties go to the first committee visited, or as
        ``prefer`` settles them.
        """
        k, m = self.k, self.m
        if self.ceiling is not None:
            ceiling = self.ceiling
        if floor is not None:
            self.best_value = floor - 1  # no incumbent yet: the settled target is the floor
        chosen: list[int] = []
        stack: list[int] = []  # for each open node, the next candidate to try
        start = 0
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                best = self.best_members
                raise BudgetExhausted(
                    f"node budget {self.budget} exhausted",
                    best_committee=Committee(best) if best else None,
                    best_score=self.score(self.best_value) if best else None,
                    nodes_explored=self.nodes,
                )
            depth = len(chosen)
            if depth == k:
                value = leaf()
                if self.best_value is None or value > self.best_value:
                    members = tuple(chosen)
                    if self.accept is None or self.accept(Committee(members)):
                        self.best_value, self.best_members = value, members
                        # nothing beats an incumbent at the ceiling: check it
                        # now, not at a tie
                        self.checked = self.prefer is None or value >= ceiling
                        self.settled = self.prefer is None or self.checked and self.prefer(members)
                        if self.settled and value >= ceiling:
                            return
                elif value == self.best_value and not self.settled:
                    members = tuple(chosen)
                    # offer the incumbent once, at its first tie, then each tie
                    if not self.checked:
                        self.checked = True
                        self.settled = self.prefer(self.best_members)
                    if not self.settled and self.prefer(members):
                        self.best_members, self.settled = members, True
                    if self.settled and value >= ceiling:
                        return
            elif self.best_value is None or not hopeless(
                start, depth, self.best_value + (1 if self.settled else 0)
            ):
                stack.append(start)
            while stack:  # step to the next child, closing exhausted nodes
                if len(chosen) == len(stack):
                    undo(chosen.pop())
                c = stack[-1]
                if c <= m - k + len(chosen):
                    stack[-1] = start = c + 1
                    chosen.append(c)
                    add(c)
                    break
                stack.pop()
            else:
                return  # the root is closed


def _maximize(search: _Search, tables: list[tuple[int, ...]]) -> None:
    owners, m, k = search.owners, search.m, search.k
    counts = [0] * len(tables)
    scores = [0]  # the score of each prefix of the committee

    def marginal(c: int) -> int:
        gain = 0
        for g in owners[c]:
            row = tables[g]
            gain += row[counts[g] + 1] - row[counts[g]]
        return gain

    def add(c: int) -> None:
        gain = 0
        for g in owners[c]:
            row = tables[g]
            held = counts[g]
            gain += row[held + 1] - row[held]
            counts[g] = held + 1
        scores.append(scores[-1] + gain)

    def undo(c: int) -> None:
        scores.pop()
        for g in owners[c]:
            counts[g] -= 1

    def hopeless(start: int, depth: int, target: int) -> bool:
        # marginal gains only shrink as the committee grows (weights are
        # non-increasing), so the k - depth largest gains on offer now bound
        # what any completion by candidates >= start adds
        gains = sorted(map(marginal, range(start, m)))
        return scores[-1] + sum(gains[m - start - (k - depth):]) < target

    floor = None
    if search.accept is None:
        # the greedy committee's score: every optimum reaches it
        picked: set[int] = set()
        while len(picked) < k:
            c = max((c for c in range(m) if c not in picked), key=marginal)
            if marginal(c) == 0:
                break  # gains only shrink: the remaining seats add nothing
            picked.add(c)
            add(c)
        floor = scores[-1]
        for c in picked:
            undo(c)

    search.run(add, undo, lambda: scores[-1], hopeless, sum(row[-1] for row in tables), floor)


def _demand_state(search: _Search):
    """Bitmask state of a search that demands winners of every ballot group:
    ``hits[j]`` holds the groups approving j or more members so far,
    ``ahead[i][c]`` those approving i or more candidates >= c.  Returns
    ``hits`` with the ``add``/``undo`` pair that maintains it and
    ``short(start, depth, want, mask)``: whether some group in ``mask`` can
    no longer end with ``want`` winners.
    """
    k, m = search.k, search.m
    everyone = (1 << len(search.groups)) - 1
    masks = [sum(1 << g for g in groups) for groups in search.owners]
    # no group approves more than `top` candidates, so the levels above it
    # stay empty and their rows are one shared row of zeros
    top = min(k, max(len(b.approved) for b in search.groups))
    ahead = [[everyone] * (m + 1)] + [[0] * (m + 1) for _ in range(top)]
    ahead += [[0] * (m + 1)] * (k - top)
    for c in reversed(range(m)):
        for i in range(1, top + 1):
            ahead[i][c] = ahead[i][c + 1] | ahead[i - 1][c + 1] & masks[c]
    hits = [everyone] + [0] * k
    saved: list[list[int]] = []

    def add(c: int) -> None:
        saved.append(hits[:])
        for j in range(min(len(saved), top), 0, -1):
            hits[j] |= hits[j - 1] & masks[c]

    def undo(c: int) -> None:
        hits[:] = saved.pop()

    def short(start: int, depth: int, want: int, mask: int) -> bool:
        # a group gains at most min(k - depth, its approved candidates >= start)
        if want > k or hits[max(0, want - k + depth)] & mask != mask:
            return True
        reach = 0
        for j in range(min(want, depth) + 1):
            reach |= hits[j] & ahead[want - j][start]
        return reach & mask != mask

    return hits, add, undo, short


def _maximize_maximin(search: _Search) -> None:
    """Maximize the least number of winners any ballot group approves."""
    k = search.k
    hits, add, undo, short = _demand_state(search)
    everyone = hits[0]
    search.run(  # the levels are nested
        add, undo, lambda: hits.count(everyone) - 1,
        lambda start, depth, want: short(start, depth, want, everyone),
        min(min(len(b.approved), k) for b in search.groups),
    )


def _maximize_mav(search: _Search) -> None:
    """Maximize the negated largest distance k + s - 2 * winners from a
    ballot of s candidates to the committee, one demand per ballot size."""
    k = search.k
    hits, add, undo, short = _demand_state(search)
    classes: dict[int, int] = {}  # ballot size -> its groups
    for g, ballot in enumerate(search.groups):
        size = len(ballot.approved)
        classes[size] = classes.get(size, 0) | 1 << g

    def leaf() -> int:
        # the levels are nested: a class's fewest winners is the number of
        # levels holding all of it, minus one
        return -max(k + size - 2 * (sum(h & mask == mask for h in hits) - 1)
                    for size, mask in classes.items())

    def hopeless(start: int, depth: int, target: int) -> bool:
        # ending at distance -target or less needs (k + s + target) / 2
        # winners, rounded up, from each group whose ballot has s candidates
        for size, mask in classes.items():
            want = (k + size + target + 1) // 2
            if want > 0 and (want > size or short(start, depth, want, mask)):
                return True
        return False

    search.run(add, undo, leaf, hopeless, -max(abs(k - size) for size in classes))


def _av_separable(profile: BallotProfile, k: int) -> OptimizationResult:
    """Approval scores are separable per candidate: sort and take the top k.

    Sorting by (score descending, index ascending) yields exactly the
    lexicographically smallest committee among all score-maximal ones.
    """
    scores = profile.approval_scores
    order = sorted(range(profile.num_candidates), key=lambda c: (-scores[c], c))
    members = tuple(sorted(order[:k]))
    total = sum(scores[c] for c in members)
    return OptimizationResult(
        committee=Committee(members),
        score=Fraction(total),
        co_optimal_count=None,
        nodes_explored=profile.num_candidates,
    )


def optimize_committee(request: OptimizationRequest) -> OptimizationResult:
    """Exactly optimize the requested objective over all size-k committees.

    Returns the optimal committee with ties resolved per the request's
    tie-break mode.  With the default lexicographic mode the DFS order
    guarantees the lexicographically smallest optimum.  In prefer-JR mode the
    answer is the first optimum in lexicographic order that provides
    justified representation, or the first optimum if none does; the search
    checks an incumbent only once a committee ties with it (or at once, if it
    reaches the ceiling), and stops walking ties once it holds an optimum
    that provides JR.  The Thiele searches start from the exact score of the
    greedy committee, which every optimum reaches.  Co-optima are not counted (``co_optimal_count`` is None).  Raises
    `BudgetExhausted` (carrying the best committee found so far) if the node
    budget is exceeded; the separable approval fast path never consumes
    budget.
    """
    profile, k = request.profile, request.k

    if (
        request.objective.kind == "av"
        and request.tiebreak is TieBreak.LEXICOGRAPHIC
        and request.budget is None
    ):
        return _av_separable(profile, k)

    def provides_jr(members: tuple[int, ...]) -> bool:
        return axioms.check_jr(profile, k, Committee(members)).passed

    prefer = provides_jr if request.tiebreak is TieBreak.PREFER_JR else None
    search = _Search(profile, k, request.budget, prefer=prefer)
    if request.objective.kind == "mav":
        search.denominator = -1  # the search maximizes the negated distance
        _maximize_mav(search)
    else:
        tables, search.denominator = _satisfaction_tables(
            search.groups, request.objective, k
        )
        _maximize(search, tables)

    assert search.best_members is not None and search.best_value is not None
    return OptimizationResult(
        committee=Committee(search.best_members),
        score=search.score(search.best_value),
        co_optimal_count=None,
        nodes_explored=search.nodes,
    )


def _best_accepted(profile: BallotProfile, k: int, accept: Callable[[Committee], bool],
                   objective: Optional[str], budget: Optional[int] = None) -> Optional[Committee]:
    """Lexicographically first of the committees passing ``accept`` that are
    best under ``objective``: ``"av"`` (approval total), ``"maximin"``
    (winners of the least-represented ballot group) or None (any: the search
    stops at the first).  None if no committee passes.
    """
    OptimizationRequest(profile, k, AV, budget=budget)  # validates k and budget
    # with no objective every leaf reaches the ceiling, so the first accepted
    # one ends the search
    search = _Search(profile, k, budget, accept=accept,
                     ceiling=0 if objective is None else None)
    if objective == "av":
        _maximize(search, _satisfaction_tables(search.groups, AV, k)[0])
    else:
        _maximize_maximin(search)
    return Committee(search.best_members) if search.best_members else None
