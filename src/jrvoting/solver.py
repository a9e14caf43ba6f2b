"""Exact optimization over size-k committees.

One engine serves every exhaustive search: lexicographic depth-first search
over candidate subsets with an admissible branch-and-bound prune and an
optional leaf requirement, plus a separable fast path for plain approval
scores.  All bookkeeping is done in
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


class _Stop(Exception):
    """Ends a search at its first accepted leaf."""


class _Search:
    """Shared DFS state for the branch-and-bound engines.

    ``accept`` is a leaf requirement, evaluated only at a leaf that would
    replace the incumbent; ``first`` ends the search at the first accepted leaf.
    """

    def __init__(self, profile: BallotProfile, k: int, budget: Optional[int], *,
                 use_pruning=True, collect=False, accept=None, first=False):
        self.profile = profile
        self.m = profile.num_candidates
        self.k = k
        self.budget = budget
        self.use_pruning = use_pruning
        self.collect = collect
        self.accept = accept
        self.first = first
        self.owners = _candidate_groups(profile)
        self.counts = [0] * len(profile.ballots)
        self.chosen: list[int] = []
        self.nodes = 0
        self.denominator = 1
        self.best_members: Optional[tuple[int, ...]] = None
        self.best_value: Optional[int] = None
        self.co_optima: list[tuple[int, ...]] = []

    def tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted(
                f"node budget {self.budget} exhausted",
                best_committee=(
                    Committee(self.best_members) if self.best_members else None
                ),
                best_score=(
                    Fraction(self.best_value, self.denominator)
                    if self.best_value is not None
                    else None
                ),
                nodes_explored=self.nodes,
            )

    def record(self, value: int, better: bool):
        members = tuple(self.chosen)
        if better:
            if self.accept is not None and not self.accept(Committee(members)):
                return
            self.best_value = value
            self.best_members = members
            if self.collect:
                self.co_optima = [members]
            if self.first:
                raise _Stop
        elif self.collect and value == self.best_value:
            self.co_optima.append(members)


def _maximize(search: _Search, tables: list[tuple[int, ...]]) -> None:
    counts = search.counts
    owners = search.owners
    k = search.k
    m = search.m

    def marginal(c: int) -> int:
        gain = 0
        for g in owners[c]:
            row = tables[g]
            gain += row[counts[g] + 1] - row[counts[g]]
        return gain

    def visit(start: int, score: int) -> None:
        search.tick()
        depth = len(search.chosen)
        if depth == k:
            if search.best_value is None or score > search.best_value:
                search.record(score, better=True)
            elif score == search.best_value:
                search.record(score, better=False)
            return
        remaining = k - depth
        if search.use_pruning and search.best_value is not None:
            # marginal gains only shrink as the committee grows (weights are
            # non-increasing), so this bound is admissible
            bound = score + remaining * max(marginal(c) for c in range(start, m))
            if bound < search.best_value or (not search.collect and bound == search.best_value):
                return
        for c in range(start, m - remaining + 1):
            gain = marginal(c)
            search.chosen.append(c)
            for g in owners[c]:
                counts[g] += 1
            visit(c + 1, score + gain)
            for g in owners[c]:
                counts[g] -= 1
            search.chosen.pop()

    visit(0, 0)


def _minimize_mav(search: _Search) -> None:
    counts = search.counts
    owners = search.owners
    k = search.k
    m = search.m
    sizes = [len(b.approved) for b in search.profile.ballots]

    def visit(start: int) -> None:
        search.tick()
        depth = len(search.chosen)
        if depth == k:
            worst = max(k + sizes[g] - 2 * counts[g] for g in range(len(sizes)))
            if search.best_value is None or worst < search.best_value:
                search.record(worst, better=True)
            elif worst == search.best_value:
                search.record(worst, better=False)
            return
        remaining = k - depth
        if search.use_pruning and search.best_value is not None:
            # each added candidate changes any ballot distance by exactly 1,
            # so no ballot can end more than `remaining` below its current distance
            lower = max(
                depth + sizes[g] - 2 * counts[g] for g in range(len(sizes))
            ) - remaining
            if lower > search.best_value or (not search.collect and lower == search.best_value):
                return
        for c in range(start, m - remaining + 1):
            search.chosen.append(c)
            for g in owners[c]:
                counts[g] += 1
            visit(c + 1)
            for g in owners[c]:
                counts[g] -= 1
            search.chosen.pop()

    visit(0)


def _maximize_maximin(search: _Search) -> None:
    """Maximize the least number of winners any ballot group approves, on
    bitmasks over groups: ``hits[j]`` holds the groups approving j or more
    members so far, ``ahead[i][c]`` those approving i or more candidates >= c.
    """
    k, m = search.k, search.m
    everyone = (1 << len(search.counts)) - 1
    masks = [sum(1 << g for g in groups) for groups in search.owners]
    ahead = [[everyone] * (m + 1)] + [[0] * (m + 1) for _ in range(k)]
    for c in reversed(range(m)):
        for i in range(1, k + 1):
            ahead[i][c] = ahead[i][c + 1] | ahead[i - 1][c + 1] & masks[c]
    hits = [everyone] + [0] * k

    def visit(start: int, depth: int) -> None:
        search.tick()
        if depth == k:
            value = hits.count(everyone) - 1  # the levels are nested
            if search.best_value is None or value > search.best_value:
                search.record(value, better=True)
            elif value == search.best_value:
                search.record(value, better=False)
            return
        if search.use_pruning and search.best_value is not None:
            # can every group still reach `want` hits?  It gains at most
            # min(k - depth, its approved candidates >= start).
            want = search.best_value + (0 if search.collect else 1)
            if want > k or hits[max(0, want - k + depth)] != everyone:
                return
            reach = 0
            for j in range(min(want, depth) + 1):
                reach |= hits[j] & ahead[want - j][start]
            if reach != everyone:
                return
        for c in range(start, m - k + depth + 1):
            saved = hits[:]
            for j in range(depth + 1, 0, -1):
                hits[j] |= hits[j - 1] & masks[c]
            search.chosen.append(c)
            visit(c + 1, depth + 1)
            search.chosen.pop()
            hits[:] = saved

    visit(0, 0)


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


def optimize_committee(
    request: OptimizationRequest, *, use_pruning: bool = True
) -> OptimizationResult:
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

    search = _Search(profile, request.k, request.budget, use_pruning=use_pruning,
                     collect=request.tiebreak is TieBreak.PREFER_JR)
    if request.objective.kind == "mav":
        _minimize_mav(search)
        denominator = 1
    else:
        tables, denominator = _satisfaction_tables(profile, request.objective, request.k)
        search.denominator = denominator
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
        score=Fraction(search.best_value, denominator),
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
    try:
        if objective == "av":
            _maximize(search, _satisfaction_tables(profile, AV, k)[0])
        else:
            # with no objective the first accepted leaf ends the search
            _maximize_maximin(search)
    except _Stop:
        pass
    return Committee(search.best_members) if search.best_members else None
