"""Exact optimization over size-k committees.

One engine serves every exhaustive search: lexicographic depth-first search
over candidate subsets with an admissible branch-and-bound prune and an
optional leaf requirement, plus a separable fast path for plain approval
scores.  The search keeps its open nodes on an explicit stack, so k has no
depth limit.  All bookkeeping is done in
scaled integers derived from the exact rational satisfaction tables, so
results are exact and deterministic.  The search is sequential; since every
input type is immutable, any number of searches may run concurrently on
shared profiles.
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
    BallotProfile,
    BudgetExhausted,
    Committee,
    ScoringObjective,
    TieBreak,
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
    profile: BallotProfile, objective: ScoringObjective, k: int
) -> tuple[list[tuple[int, ...]], int]:
    """Per-group cumulative score tables scaled to a common integer denominator.

    Entry p of a group's table is multiplicity * satisfaction(p) * denominator,
    for p up to min(|ballot|, k).  The total committee score is the sum of
    table entries at the group's intersection counts, divided by the
    denominator.
    """
    fraction_tables = []
    for ballot in profile.ballots:
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


def _candidate_groups(profile: BallotProfile) -> list[list[int]]:
    """For each candidate, the indices of the ballot groups approving it."""
    owners: list[list[int]] = [[] for _ in range(profile.num_candidates)]
    for g, ballot in enumerate(profile.ballots):
        for c in ballot.approved:
            owners[c].append(g)
    return owners


class _Search:
    """Depth-first branch and bound over the size-k committees.

    ``accept`` is a leaf requirement, evaluated only at a leaf that would
    replace the incumbent; ``first`` ends the search at the first accepted leaf.
    """

    def __init__(self, profile: BallotProfile, k: int, budget: Optional[int], *,
                 collect=False, accept=None, first=False):
        self.profile = profile
        self.m = profile.num_candidates
        self.k = k
        self.budget = budget
        self.collect = collect
        self.accept = accept
        self.first = first
        self.owners = _candidate_groups(profile)
        self.nodes = 0
        self.denominator = 1  # a leaf value over it is the score
        self.best_members: Optional[tuple[int, ...]] = None
        self.best_value: Optional[int] = None
        self.co_optima: list[tuple[int, ...]] = []

    def score(self, value: int) -> Fraction:
        return Fraction(value, self.denominator)

    def run(self, add, undo, leaf, hopeless) -> None:
        """Visit the committees in lexicographic order, maximizing ``leaf()``.

        ``add(c)`` and ``undo(c)`` seat and unseat candidate c, ``leaf()`` is
        the integer value of a full committee, and ``hopeless(start, depth,
        target)`` says that no completion by candidates >= start reaches
        ``target``.  Ties go to the first committee visited.
        """
        k, m = self.k, self.m
        chosen: list[int] = []
        stack: list[int] = []  # for each open node, the next candidate to try
        start = 0
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExhausted(
                    f"node budget {self.budget} exhausted",
                    best_committee=(
                        Committee(self.best_members) if self.best_members else None
                    ),
                    best_score=(
                        self.score(self.best_value) if self.best_value is not None else None
                    ),
                    nodes_explored=self.nodes,
                )
            depth = len(chosen)
            if depth == k:
                value = leaf()
                if self.best_value is None or value > self.best_value:
                    members = tuple(chosen)
                    if self.accept is None or self.accept(Committee(members)):
                        self.best_value, self.best_members = value, members
                        self.co_optima = [members]
                        if self.first:
                            return
                elif self.collect and value == self.best_value:
                    self.co_optima.append(tuple(chosen))
            elif self.best_value is None or not hopeless(
                start, depth, self.best_value + (0 if self.collect else 1)
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
    owners = search.owners
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
        # non-increasing), so this bound is admissible
        best_gain = max(marginal(c) for c in range(start, search.m))
        return scores[-1] + (search.k - depth) * best_gain < target

    search.run(add, undo, lambda: scores[-1], hopeless)


def _minimize_mav(search: _Search) -> None:
    owners, k = search.owners, search.k
    sizes = [len(b.approved) for b in search.profile.ballots]
    counts = [0] * len(sizes)
    groups = range(len(sizes))

    def add(c: int) -> None:
        for g in owners[c]:
            counts[g] += 1

    def undo(c: int) -> None:
        for g in owners[c]:
            counts[g] -= 1

    def hopeless(start: int, depth: int, target: int) -> bool:
        # each added candidate changes any ballot distance by exactly 1, so no
        # ballot can end more than k - depth below its current distance
        lower = max(depth + sizes[g] - 2 * counts[g] for g in groups) - (k - depth)
        return -lower < target

    search.run(
        add, undo, lambda: -max(k + sizes[g] - 2 * counts[g] for g in groups), hopeless
    )


def _maximize_maximin(search: _Search) -> None:
    """Maximize the least number of winners any ballot group approves, on
    bitmasks over groups: ``hits[j]`` holds the groups approving j or more
    members so far, ``ahead[i][c]`` those approving i or more candidates >= c.
    """
    k, m = search.k, search.m
    everyone = (1 << len(search.profile.ballots)) - 1
    masks = [sum(1 << g for g in groups) for groups in search.owners]
    ahead = [[everyone] * (m + 1)] + [[0] * (m + 1) for _ in range(k)]
    for c in reversed(range(m)):
        for i in range(1, k + 1):
            ahead[i][c] = ahead[i][c + 1] | ahead[i - 1][c + 1] & masks[c]
    hits = [everyone] + [0] * k
    saved: list[list[int]] = []

    def add(c: int) -> None:
        saved.append(hits[:])
        for j in range(len(saved), 0, -1):
            hits[j] |= hits[j - 1] & masks[c]

    def undo(c: int) -> None:
        hits[:] = saved.pop()

    def hopeless(start: int, depth: int, want: int) -> bool:
        # can every group still reach `want` hits?  It gains at most
        # min(k - depth, its approved candidates >= start).
        if want > k or hits[max(0, want - k + depth)] != everyone:
            return True
        reach = 0
        for j in range(min(want, depth) + 1):
            reach |= hits[j] & ahead[want - j][start]
        return reach != everyone

    search.run(add, undo, lambda: hits.count(everyone) - 1, hopeless)  # the levels are nested


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
    tie-break mode.  With the default lexicographic mode the search keeps a
    single incumbent and the DFS order guarantees the lexicographically
    smallest optimum; in prefer-JR mode all co-optimal committees are
    collected, filtered to those providing justified representation, and the
    smallest survivor is returned (falling back to all co-optima if none
    survives).  Raises `BudgetExhausted` (carrying the best committee found
    so far) if the node budget is exceeded; the separable approval fast path
    never consumes budget.
    """
    profile = request.profile

    if (
        request.objective.kind == "av"
        and request.tiebreak is TieBreak.LEXICOGRAPHIC
        and request.budget is None
    ):
        return _av_separable(profile, request.k)

    search = _Search(profile, request.k, request.budget,
                     collect=request.tiebreak is TieBreak.PREFER_JR)
    if request.objective.kind == "mav":
        search.denominator = -1  # the search maximizes the negated distance
        _minimize_mav(search)
    else:
        tables, search.denominator = _satisfaction_tables(profile, request.objective, request.k)
        _maximize(search, tables)

    assert search.best_members is not None and search.best_value is not None
    members = search.best_members
    co_count: Optional[int] = None
    if search.collect:
        co_count = len(search.co_optima)
        passers = [
            w
            for w in search.co_optima
            if axioms.check_jr(profile, request.k, Committee(w)).passed
        ]
        members = min(passers) if passers else min(search.co_optima)

    return OptimizationResult(
        committee=Committee(members),
        score=search.score(search.best_value),
        co_optimal_count=co_count,
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
    search = _Search(profile, k, budget, accept=accept, first=objective is None)
    if objective == "av":
        _maximize(search, _satisfaction_tables(profile, AV, k)[0])
    else:
        # with no objective the first accepted leaf ends the search
        _maximize_maximin(search)
    return Committee(search.best_members) if search.best_members else None
