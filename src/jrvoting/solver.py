"""Exact optimization over size-k committees.

One engine serves every exhaustive search: lexicographic depth-first search
over candidate subsets with an admissible branch-and-bound prune and an
optional leaf requirement, plus a separable fast path for plain approval
scores.  The search keeps its open nodes on an explicit stack, so k has no
depth limit.  It works on merged ballot groups (one per distinct approval
set, see `core.normalize_profile`), so repeated ballots cost nothing per
node.  The additive (Thiele) search runs on bitsets: a group owns one bit
per unit of each base-64 digit of its multiplicity, so a profile whose
multiplicities are all below 64 gets one bit per voter and a multiplicity
of a billion at most 63 bits per digit.  ``levels[j]`` holds the bits of
the groups with exactly j winners, and a candidate's marginal gain is a
short sum of unit gain times popcount, over terms built once per node from
the levels and one integer gain row per ballot size.  A node is bounded by
its score plus the largest marginal gains still available, one per open
seat; since gains only shrink as the committee grows, the node bounds each
child the same way from its own gains, and a child below the target is
skipped without being visited.  Until it holds an incumbent the search
prunes against the exact score of the greedy committee: with
non-increasing weights the score is monotone submodular, so greedy is
within 1 - 1/e of the optimum (Nemhauser, Wolsey & Fisher 1978), and every
optimum reaches its score.  MAV and maximin share one demand search on
bitmasks over the groups: a node is hopeless once some group can no longer
reach the winners the target asks of it, counting only its approved
candidates still to come (MAV asks each ballot size for its own number).
Ties go to the first committee in lexicographic order, or, for prefer-JR,
to the first optimum that provides JR: that search walks ties only until it
holds such an optimum, checking an incumbent only once a committee ties with
it or it reaches the ceiling.  Every search ends once its answer is settled
at its objective's ceiling, the best value any committee could have.  A
node budget counts visited nodes only.  All bookkeeping is done in scaled
integers derived from the exact rational satisfaction rows, so results are
exact and deterministic.  The search is sequential; since every input type
is immutable, any number of searches may run concurrently on shared
profiles.
"""
from __future__ import annotations

import itertools
import math
from bisect import insort
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
) -> tuple[dict[int, tuple[int, ...]], int]:
    """Per-voter gain rows scaled to a common integer denominator, one per
    distinct ballot size.

    Entry j of ballot size s's row is what one voter approving s candidates
    adds to the score with its (j + 1)-th approved winner, times the
    denominator, for j < min(s, k).  A committee's score is the sum over the
    voters of the entries below their number of approved winners, divided by
    the denominator.
    """
    rows: dict[int, list[Fraction]] = {}
    for ballot in groups:
        size = len(ballot.approved)
        if size not in rows:
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

    def run(self, add, undo, leaf, bound, ceiling: int, floor: Optional[int] = None) -> None:
        """Visit the committees in lexicographic order, maximizing ``leaf()``.

        ``add(c)`` and ``undo(c)`` seat and unseat candidate c, ``leaf()`` is
        the integer value of a full committee, and no committee is worth more
        than ``ceiling``.  ``bound(start, depth, target)`` is None when no
        completion by candidates >= start reaches ``target``; otherwise it
        bounds the node's children, as a pair ``(worth, best)`` where
        ``worth[c]`` bounds every committee below the child seating c and
        ``best[c]`` is the largest ``worth`` from c onward, or as ``()`` when
        it bounds none.  Children below the target are skipped unvisited.
        Every optimum is worth ``floor`` or more, if given: until the first
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
        bounds: list[tuple] = []  # for each open node, the bounds on its children
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
            elif self.best_value is None:
                stack.append(start)
                bounds.append(())
            else:
                children = bound(start, depth, self.best_value + (1 if self.settled else 0))
                if children is not None:
                    stack.append(start)
                    bounds.append(children)
            while stack:  # step to the next child worth seating, closing exhausted nodes
                if len(chosen) == len(stack):
                    undo(chosen.pop())
                c, last = stack[-1], m - k + len(chosen)
                if bounds[-1] and c <= last:
                    worth, best = bounds[-1]
                    target = self.best_value + (1 if self.settled else 0)
                    if best[c] < target:
                        c = last + 1
                    else:
                        while worth[c] < target:
                            c += 1
                if c <= last:
                    stack[-1] = start = c + 1
                    chosen.append(c)
                    add(c)
                    break
                stack.pop()
                bounds.pop()
            else:
                return  # the root is closed


def _maximize(search: _Search, objective: ScoringObjective) -> None:
    """Maximize an additive (Thiele) score.

    A group owns one bit per unit of each base-64 digit of its multiplicity,
    worth 64 ** d for digit d, so a profile whose multiplicities are all
    below 64 gets one bit per voter.  ``levels[j]`` holds the bits of the
    groups with exactly j winners so far; seating a candidate moves its bits
    up one level.  A class is the bits that share one row of per-voter gains
    and one digit.  A candidate's gain is the sum of unit * popcount(its bits
    & mask) over the node's terms, one (mask, unit) per class and run of
    levels with equal unit gain.
    """
    groups, owners, m, k = search.groups, search.owners, search.m, search.k
    rows, search.denominator = _satisfaction_tables(groups, objective, k)
    ceiling = sum(ballot.multiplicity * sum(rows[len(ballot.approved)]) for ballot in groups)
    # a row that begins a longer one joins its class: a voter's bits never
    # reach the levels past the end of its own row while it can still gain
    longest = sorted(set(rows.values()), key=len, reverse=True)
    share = {row: next(r for r in longest if r[:len(row)] == row) for row in longest}
    masks: dict[tuple[tuple[int, ...], int], int] = {}  # (row, digit) -> its bits
    owned = []  # for each group, its bits
    width = 0
    for ballot in groups:
        mine = 0
        if ballot.approved:  # an empty ballot never gains
            row = share[rows[len(ballot.approved)]]
            mult, digit = ballot.multiplicity, 0
            while mult:
                mult, count = divmod(mult, 64)
                if count:
                    span = ((1 << count) - 1) << width
                    width += count
                    mine |= span
                    masks[row, digit] = masks.get((row, digit), 0) | span
                digit += 1
        owned.append(mine)
    bits = [sum(owned[g] for g in groups_of_c) for groups_of_c in owners]
    classes = [(mask, [unit << 6 * digit for unit in row]) for (row, digit), mask in masks.items()]
    levels = [(1 << width) - 1] + [0] * k
    saved: list[tuple[list[int], list[tuple[int, int]]]] = []
    terms: Optional[list[tuple[int, int]]] = None  # the node's, once built
    scores = [0]  # the score of each prefix of the committee

    def gains_of(candidates: list[int], here: list[tuple[int, int]]) -> list[int]:
        total = [0] * len(candidates)
        for held, unit in here:
            total = [gain + unit * (mine & held).bit_count() for gain, mine in zip(total, candidates)]
        return total

    def node_terms() -> list[tuple[int, int]]:
        nonlocal terms
        if terms is None:
            terms = []
            depth = len(saved)
            for mask, row in classes:
                j, top = 0, min(depth + 1, len(row))
                while j < top:
                    unit, held = row[j], levels[j]
                    j += 1
                    while j < top and row[j] == unit:
                        held |= levels[j]
                        j += 1
                    if unit:
                        terms.append((held & mask, unit))
        return terms

    def add(c: int) -> None:
        nonlocal levels, terms
        mine = bits[c]
        here = node_terms()
        scores.append(scores[-1] + sum(unit * (mine & held).bit_count() for held, unit in here))
        saved.append((levels, here))
        levels = levels[:]
        for j in range(len(saved) - 1, -1, -1):
            moved = levels[j] & mine
            if moved:
                levels[j] ^= moved
                levels[j + 1] |= moved
        terms = None

    def undo(c: int) -> None:
        nonlocal levels, terms
        scores.pop()
        levels, terms = saved.pop()

    def bound(start: int, depth: int, target: int):
        # marginal gains only shrink as the committee grows (weights are
        # non-increasing), so a child's score plus the largest gains on offer
        # after it, one per seat still open below it, bounds its subtree
        here = node_terms()
        score = scores[-1]
        gains = gains_of(bits[start:], here)
        last = m - k + depth  # the last child with room for the seats after it
        top = sorted(gains[last + 1 - start:])  # the largest gains after the child
        tail = sum(top)
        worth = [0] * (last + 1)
        best = [0] * (last + 1)
        most = 0
        for c in range(last, start - 1, -1):
            gain = gains[c - start]
            worth[c] = value = score + gain + tail
            if value > most:
                most = value
            best[c] = most
            if top and gain > top[0]:
                tail += gain - top[0]
                del top[0]
                insort(top, gain)
        # best[start] is the node's score plus its k - depth largest gains
        return None if best[start] < target else (worth, best)

    floor = None
    if search.accept is None:
        # the greedy committee's score: every optimum reaches it
        picked: list[int] = []
        while len(picked) < k:
            gains = gains_of(bits, node_terms())
            c = max((c for c in range(m) if c not in picked), key=gains.__getitem__)
            if gains[c] == 0:
                break  # gains only shrink: the remaining seats add nothing
            picked.append(c)
            add(c)
        floor = scores[-1]
        for c in reversed(picked):
            undo(c)

    search.run(add, undo, lambda: scores[-1], bound, ceiling, floor)


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
        lambda start, depth, want: None if short(start, depth, want, everyone) else (),
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

    def bound(start: int, depth: int, target: int) -> Optional[tuple]:
        # ending at distance -target or less needs (k + s + target) / 2
        # winners, rounded up, from each group whose ballot has s candidates
        for size, mask in classes.items():
            want = (k + size + target + 1) // 2
            if want > 0 and (want > size or short(start, depth, want, mask)):
                return None
        return ()  # no bound on the children

    search.run(add, undo, leaf, bound, -max(abs(k - size) for size in classes))


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
    greedy committee, which every optimum reaches.  Co-optima are not counted
    (``co_optimal_count`` is None).  Raises `BudgetExhausted` (carrying the
    best committee found so far) once the search visits more nodes than the
    budget; a child skipped at its parent is not visited, and the separable
    approval fast path never consumes budget.
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
        _maximize(search, request.objective)

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
        _maximize(search, AV)
    else:
        _maximize_maximin(search)
    return Committee(search.best_members) if search.best_members else None
