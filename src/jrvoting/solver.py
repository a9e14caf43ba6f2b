"""Exact optimization over size-k committees.

One engine serves every exhaustive search: depth-first search over
candidate subsets with an admissible branch-and-bound prune and an
optional leaf requirement, plus a separable fast path for plain approval
scores.  The search keeps its open nodes on an explicit stack, so k has no
depth limit.  It works on the profile's ballot groups (one per distinct
approval set, see `core.GroupIndex`), so repeated ballots cost nothing per
node.  The additive (Thiele) search runs on bitsets: a group owns one bit
per unit of each base-64 digit of its multiplicity, so a profile whose
multiplicities are all below 64 gets one bit per voter and a multiplicity
of a billion at most 63 bits per digit.  ``levels[j]`` holds the bits of
the groups with exactly j winners, and a candidate's marginal gain is a
sum of unit gain times popcount over the levels and one integer gain row
per ballot size (`core._gain_rows`, the rows `core.score_committee` sums
too).  The root's gains are built once, with every voter at level 0; every
other node's gains come from its parent's, less, per class and level, the
drop in unit gain times the popcount of the voters at that level that
seating its candidate moves up.  A node is bounded by its score plus the
largest marginal gains still available, one per open seat; since gains
only shrink as the committee grows, the node bounds each child the same
way from its own gains, and a child below the target is skipped without
being visited.  A child that passes and is not a leaf is then tested
against its own exact bound, from its own gains, just before it would be
seated.  A child below the target there is skipped unvisited too, and one
above it keeps those gains.  Until it holds an incumbent the search
prunes against the exact score of the greedy committee: with
non-increasing weights the score is monotone submodular, so greedy is
within 1 - 1/e of the optimum (Nemhauser, Wolsey & Fisher 1978), and every
optimum reaches its score.  That score is the sum of the winners' gains in
the sequential rules' round loop (`core._greedy_rounds`), run on the
search's own rows and denominator.  When that floor is below the ceiling
and the search has no leaf requirement, it visits the candidates in
descending root gain, ties by label, so that early subtrees no longer keep
the strongest candidates for later seats and their bounds are tighter
(traced seed 0 of the thiele-urn benchmark: 4,057 → 1,096 nodes); every
other search visits them in label order.  Ties still go to the first
optimum in label order: out of label order, a leaf also replaces an
incumbent it ties and comes before, and a child whose bound only ties the
incumbent is visited only if the first committee in label order that could
reach that bound below it, which fills its open seats with candidates of
its largest gains, comes before the incumbent.  A search out of label order
that reaches the ceiling stops there, and a search in label order from the
ceiling finds the first committee worth it.  MAV and maximin share one
demand search on bitmasks over the groups: a node is hopeless once some
group can no longer reach the winners the target asks of it, counting only
its approved candidates still to come (MAV asks each ballot size for its
own number), or once the winners its groups still lack outnumber what its
open seats can pay: one per open seat to each group still short that
approves the seat's candidate, from the largest such offers among the
candidates still to come.
In label order a leaf replaces the incumbent only when it is strictly
better and passes the leaf requirement, if any, so ties go to the first
committee visited.  Prefer-JR runs in two passes: the plain search, and,
only if its optimum fails JR, a second search from the optimum's value with
"provides JR" as its leaf requirement.  Every search ends at an incumbent
worth its objective's ceiling, the best value any committee could have; the
second pass takes the optimum's value as its ceiling, and the search for
any committee passing a leaf requirement values every committee at 0, so
both end at the first committee that passes.  A node budget counts visited
nodes only, over every pass; a budget that runs out in a later pass reports
the earlier pass's answer as the best so far.  All bookkeeping is done in
scaled integers, so results are exact and deterministic.  The search is
sequential; since every input type is immutable, any number of searches may
run concurrently on shared profiles.
"""
from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from . import axioms
from .core import (
    AV,
    BallotProfile,
    BudgetExhausted,
    Committee,
    ScoringObjective,
    TieBreak,
    _gain_rows,
    _greedy_rounds,
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


class _Search:
    """Depth-first branch and bound over the size-k committees.

    It reads the profile's ballot groups (`BallotProfile.index`), one per
    distinct approval set: ``sizes[g]`` and ``mults[g]`` are group g's
    ballot size and multiplicity, ``owners[c]`` the groups approving
    candidate c.  ``accept`` is a leaf requirement, evaluated only at a leaf
    that would replace the incumbent: a leaf replaces it only when it is
    strictly better and passes ``accept``.  The search prunes every subtree
    that cannot beat the incumbent and ends at an incumbent worth the
    ceiling or more.
    """

    def __init__(self, profile: BallotProfile, k: int, budget: Optional[int], *, accept=None):
        index = profile.index
        self.profile = profile
        self.sizes = tuple(map(len, index.members))
        self.mults = index.mults
        self.owners = profile.owners
        self.m = profile.num_candidates
        self.k = k
        self.budget = budget
        self.accept = accept
        self.nodes = 0
        self.denominator = 1  # a leaf value over it is the score
        self.best_members: Optional[tuple[int, ...]] = None
        self.best_value: Optional[int] = None

    def score(self, value: int) -> Fraction:
        return Fraction(value, self.denominator)

    def run(self, add, undo, leaf, bound, ceiling: int, floor: Optional[int] = None,
            labels: Optional[list[int]] = None) -> None:
        """Visit the committees depth first, maximizing ``leaf()``.

        The search runs over positions 0 .. m - 1, holding the candidates
        ``labels[0]``, ``labels[1]``, ... (the candidates themselves if
        ``labels`` is None), and visits the position subsets in
        lexicographic order.  ``add(p)`` and ``undo(p)`` seat and unseat the
        candidate at position p, ``leaf()`` is the integer value of a full
        committee, and no committee is worth more than ``ceiling``.
        ``bound(start, depth, target)`` is None when no completion by
        positions >= start reaches ``target``; otherwise it bounds the node's
        children, as ``(worth, best, reaches, rest)``, or as ``()`` when it
        bounds none.  ``worth[p]`` bounds every committee below the child
        seating p, ``best[p]`` is the largest ``worth`` from p onward,
        ``reaches(p)`` is the exact bound ``bound`` would find at the child
        seating p, and ``rest(p)`` the labels that fill the child's open
        seats in the first committee, in label order, that could reach the
        child's bound (read only under ``labels``).  A child that cannot beat
        the incumbent is skipped unvisited: first by ``worth``, then, unless
        it is a leaf, by ``reaches``, asked just before the child would be
        seated, so that the next ``add`` seats the child last asked of when
        it passes.  Every answer is worth ``floor`` or more, if given: until
        the first incumbent, subtrees that cannot reach it are pruned and
        leaves below it are passed over.

        The incumbent is kept in labels, and ties go to the first committee
        in label order whatever the visiting order.  In label order that is
        the first one visited.  Under ``labels`` a leaf also replaces an
        incumbent it ties and comes before, and a child whose bound only
        ties the incumbent is visited only if its chosen labels and
        ``rest`` come before the incumbent: once when ``worth`` only ties,
        before ``reaches`` is asked, and again when ``reaches`` only ties.
        """
        k, m = self.k, self.m
        if floor is not None:
            self.best_value = floor - 1  # no incumbent yet: the target is the floor
        chosen: list[int] = []
        stack: list[int] = []  # for each open node, the next position to try
        bounds: list[tuple] = []  # for each open node, the bounds on its children
        start = 0

        def bars() -> tuple[int, int]:
            # a child must reach the first value to beat the incumbent, or,
            # under labels, the second to tie it
            bar = self.best_value + 1
            return bar, bar - 1 if labels is not None and self.best_members is not None else bar

        def first(p: int) -> bool:
            # whether the earliest committee below the child seating p that
            # could tie its bound comes before the incumbent in label order;
            # `rest` is the open node's, unpacked in the loop below
            return tuple(sorted([labels[q] for q in chosen] + [labels[p]] + rest(p))) < self.best_members

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
                value, held = leaf(), self.best_value
                if held is None or value >= held:
                    members = tuple(sorted(labels[p] for p in chosen)) if labels else tuple(chosen)
                    earlier = labels is not None and self.best_members is not None and (
                        members < self.best_members)
                    if (held is None or value > held or earlier) and (
                        self.accept is None or self.accept(Committee(members))
                    ):
                        self.best_value, self.best_members = value, members
                        if value >= ceiling:
                            return
            elif self.best_value is None:
                stack.append(start)
                bounds.append(())
            else:
                children = bound(start, depth, bars()[1])
                if children is not None:
                    stack.append(start)
                    bounds.append(children)
            while stack:  # step to the next child worth seating, closing exhausted nodes
                if len(chosen) == len(stack):
                    undo(chosen.pop())
                p, last = stack[-1], m - k + len(chosen)
                if bounds[-1] and p <= last:
                    worth, best, reaches, rest = bounds[-1]
                    bar, low = bars()
                    leaves = len(chosen) == k - 1
                    while p <= last and best[p] >= low:
                        # a child that can only tie must come first, by its
                        # parent's bounds before its own bound is asked, and
                        # by its own after
                        if worth[p] >= low and (worth[p] >= bar or first(p)):
                            value = worth[p] if leaves else reaches(p)
                            if value >= bar or value >= low and first(p):
                                break
                        p += 1
                    else:
                        p = last + 1
                if p <= last:
                    stack[-1] = start = p + 1
                    chosen.append(p)
                    add(p)
                    break
                stack.pop()
                bounds.pop()
            else:
                return  # the root is closed


def _maximize(search: _Search, objective: ScoringObjective, optimum: Optional[int] = None) -> None:
    """Maximize an additive (Thiele) score.  If ``optimum``, the best value
    of any committee, is given, the search ends at the first accepted
    committee worth it.

    With no leaf requirement and no ``optimum``, and a greedy floor below
    the ceiling, the search visits the candidates in descending root gain,
    ties by label: ``bits`` and ``gains`` are permuted once, positions
    follow that order, and `run` maps the winners back to labels.  A
    committee below a child that ties the child's bound fills its open seats
    with candidates of the child's largest gains, so `rest` gives the first
    such filling in label order: every candidate of a gain above the
    smallest of those gains and the earliest labels of that gain, read from
    the child's own gains if `reaches` just built them, else from the
    node's.  An ordered search that reaches the ceiling stops there, and the
    search runs again in label order with the ceiling as ``optimum``, which
    ends at the first committee worth it; a budget that runs out there
    reports the ordered search's committee.  A floor at the ceiling keeps
    label order, so that search ends at its first committee worth it.

    A group owns one bit per unit of each base-64 digit of its multiplicity,
    worth 64 ** d for digit d, so a profile whose multiplicities are all
    below 64 gets one bit per voter.  ``levels[j]`` holds the bits of the
    groups with exactly j winners so far; seating a candidate moves its bits
    up one level.  A class is the bits that share one row of per-voter gains
    and one digit.

    The root's gains are built once, with every voter at level 0: a
    candidate's is the sum, over the classes, of the class's first unit gain
    times the popcount of the candidate's bits in it.  Every other node's gains come from its
    parent's: seating c moves the voters of ``bits[c] & levels[j]`` up to
    level j + 1, so another candidate's gain drops by the class's unit gain
    at j less its unit gain at j + 1, per such voter it shares with c.
    `reaches` builds a child's gains this way to test it; the next `add`
    keeps them if it seats that child, and builds them the same way
    otherwise, unless the child is a leaf, which reads only its score.
    `add` and `undo` drop the tested gains, and `undo` restores the parent's
    own.  A seated candidate's gain is read from its parent's gains.  `bound`
    returns None from the node's score plus its largest gains before it
    builds ``worth`` and ``best``; a node that passed `reaches` skips that
    test, since `run` bounds it right after, at the target it passed.
    """
    sizes, mults, owners, m, k = search.sizes, search.mults, search.owners, search.m, search.k
    rows, search.denominator = _gain_rows(objective, set(sizes), k)
    ceiling = sum(mult * sum(rows[size][:size]) for size, mult in zip(sizes, mults))
    masks: dict[tuple[tuple[int, ...], int], int] = {}  # (row, digit) -> its bits
    owned = []  # for each group, its bits
    width = 0
    for size, mult in zip(sizes, mults):
        mine = 0
        if size:  # an empty ballot never gains
            row = rows[size]
            digit = 0
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
    # for each level j at which some class's unit gain drops, in order, the
    # (mask, drop) of each such class: a voter's gain drops by it when its
    # level rises from j (under coverage weights, only at level 0)
    drops: dict[int, list[tuple[int, int]]] = {}
    for mask, row in classes:
        for j, unit in enumerate(row):
            drop = unit - (row[j + 1] if j + 1 < len(row) else 0)
            if drop:
                drops.setdefault(j, []).append((mask, drop))
    falls = sorted(drops.items())
    levels = [(1 << width) - 1] + [0] * k
    # the node's state, saved by `add` for each seated candidate and restored
    # by `undo`: its levels and its gains.  The gains run from the node's
    # first candidate to the last, so candidate c's is gains[c - m]
    gains = [sum(row[0] * (mine & mask).bit_count() for mask, row in classes) for mine in bits]
    saved: list[tuple[list[int], list[int]]] = []
    tested: Optional[tuple[int, list[int]]] = None  # the child last asked of, and its gains
    passed = False  # whether the node last seated passed `reaches`
    scores = [0]  # the score of each prefix of the committee

    def child_gains(c: int, depth: int) -> list[int]:
        # the node's gains after c, less each gain's share of the voters
        # that seating c moves up from a level where their unit gain drops;
        # the child is not a leaf, so c < m - 1 and the slice is not empty
        mine, after = bits[c], bits[c + 1:]
        child = gains[c + 1 - m:]
        for j, here in falls:
            if j > depth:
                break
            moved = levels[j] & mine
            if moved:
                for mask, drop in here:
                    held = moved & mask
                    if held:
                        child = [gain - drop * (b & held).bit_count() for gain, b in zip(child, after)]
        return child

    def add(c: int) -> None:
        nonlocal levels, gains, tested, passed
        depth, mine = len(saved), bits[c]
        scores.append(scores[-1] + gains[c - m])
        saved.append((levels, gains))
        passed = tested is not None and tested[0] == c
        if depth + 1 < k:  # a leaf reads only its score
            gains = tested[1] if passed else child_gains(c, depth)
            levels = levels[:]
            for j in range(depth, -1, -1):
                moved = levels[j] & mine
                if moved:
                    levels[j] ^= moved
                    levels[j + 1] |= moved
        tested = None

    def undo(c: int) -> None:
        nonlocal levels, gains, tested
        scores.pop()
        levels, gains = saved.pop()
        tested = None

    def bound(start: int, depth: int, target: int):
        # marginal gains only shrink as the committee grows (weights are
        # non-increasing), so a child's score plus the largest gains on offer
        # after it, one per seat still open below it, bounds its subtree
        score = scores[-1]
        if not passed and score + sum(sorted(gains)[depth - k:]) < target:
            return None  # the node's score plus its k - depth largest gains
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
        return worth, best, reaches, rest

    def reaches(c: int) -> int:
        # the child's bound, the one `bound` would find there
        nonlocal tested
        depth = len(saved)
        tested = (c, child_gains(c, depth))
        return scores[-1] + gains[c - m] + sum(sorted(tested[1])[depth + 1 - k:])

    def rest(c: int) -> list[int]:
        # a committee below the child that ties its bound fills its open
        # seats with candidates of its largest gains, read from its own gains
        # if it was just tested and from the node's otherwise: every
        # candidate of a gain above the smallest of them, and the earliest
        # labels of that gain
        seats = k - len(saved) - 1
        if not seats:
            return []
        after = tested[1] if tested is not None and tested[0] == c else gains[c + 1 - m:]
        least = sorted(after)[-seats]
        above = [order[p] for p, gain in enumerate(after, c + 1) if gain > least]
        return above + heapq.nsmallest(
            seats - len(above), [order[p] for p, gain in enumerate(after, c + 1) if gain == least])

    floor = order = None
    if optimum is not None:
        floor = ceiling = optimum
    elif search.accept is None:
        # the greedy committee's score, on the search's own rows: every
        # optimum reaches it
        floor = 0
        for winner, offered in _greedy_rounds(search.profile, k, rows):
            if not offered[winner]:
                break  # gains only shrink: the remaining seats add nothing
            floor += offered[winner]
        if floor < ceiling:
            # visit the candidates in descending root gain, ties by label
            order = sorted(range(m), key=lambda c: (-gains[c], c))
            bits = [bits[c] for c in order]
            gains = [gains[c] for c in order]

    search.run(add, undo, lambda: scores[-1], bound, ceiling, floor, order)
    if order is not None and search.best_value >= ceiling:
        # the ordered search stops at the ceiling: find the first committee
        # in label order worth it
        _again(search, lambda: _maximize(search, objective, ceiling))


def _demand_state(search: _Search):
    """Bitmask state of a search that demands winners of every ballot group:
    ``hits[j]`` holds the groups approving j or more members so far,
    ``ahead[i][c]`` those approving i or more candidates >= c.  Returns
    ``hits`` with the ``add``/``undo`` pair that maintains it and
    ``hopeless(start, depth, demands)``: whether no completion by candidates
    >= start meets every demand, a pair ``(want, mask)`` asking ``want``
    winners of each group in ``mask``.  It makes two admissible tests.  The
    first, per demand, is whether some group can no longer reach its winners
    from the approved candidates it has left.  The second counts the deficit,
    the winners the groups still lack: each open seat pays at most one
    winner to each group still short that approves its candidate, so the
    node is hopeless once the deficit exceeds the ``k - depth`` largest
    such offers among the candidates >= start.
    """
    k, m = search.k, search.m
    everyone = (1 << len(search.sizes)) - 1
    masks = [sum(1 << g for g in groups) for groups in search.owners]
    # no group approves more than `top` candidates, so the levels above it
    # stay empty and their rows are one shared row of zeros
    top = min(k, max(search.sizes))
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

    def hopeless(start: int, depth: int, demands: Iterable[tuple[int, int]]) -> bool:
        deficit = deficient = 0
        for want, mask in demands:
            if short(start, depth, want, mask):
                return True
            deficient |= mask & ~hits[want]
            # the levels are nested: a group short of want winners lacks
            # each level from its own count + 1 up to want
            for j in range(want, 0, -1):
                lacking = mask & ~hits[j]
                if not lacking:
                    break
                deficit += lacking.bit_count()
        if not deficit:
            return False
        # seating c pays at most the groups still short that approve it,
        # and those offers only shrink deeper in the tree
        offers = sorted([(mask & deficient).bit_count() for mask in masks[start:]])
        return sum(offers[depth - k:]) < deficit

    return hits, add, undo, hopeless


def _maximize_maximin(search: _Search) -> None:
    """Maximize the least number of winners any ballot group approves."""
    k = search.k
    hits, add, undo, hopeless = _demand_state(search)
    everyone = hits[0]
    search.run(  # the levels are nested
        add, undo, lambda: hits.count(everyone) - 1,
        lambda start, depth, want: None if hopeless(start, depth, ((want, everyone),)) else (),
        min(min(size, k) for size in search.sizes),
    )


def _maximize_mav(search: _Search, optimum: Optional[int] = None) -> None:
    """Maximize the negated largest distance k + s - 2 * winners from a
    ballot of s candidates to the committee, one demand per ballot size.  If
    ``optimum``, the best value of any committee, is given, the search ends
    at the first accepted committee worth it."""
    k = search.k
    search.denominator = -1  # the score is the distance
    hits, add, undo, hopeless = _demand_state(search)
    classes: dict[int, int] = {}  # ballot size -> its groups
    for g, size in enumerate(search.sizes):
        classes[size] = classes.get(size, 0) | 1 << g

    def leaf() -> int:
        # the levels are nested: a class's fewest winners is the number of
        # levels holding all of it, minus one
        return -max(k + size - 2 * (sum(h & mask == mask for h in hits) - 1)
                    for size, mask in classes.items())

    def bound(start: int, depth: int, target: int) -> Optional[tuple]:
        # ending at distance -target or less needs (k + s + target) / 2
        # winners, rounded up, from each group whose ballot has s candidates
        demands = []
        for size, mask in classes.items():
            want = (k + size + target + 1) // 2
            if want > size:
                return None
            if want > 0:
                demands.append((want, mask))
        return None if hopeless(start, depth, demands) else ()  # no bound on the children

    ceiling = -max(abs(k - size) for size in classes)
    search.run(add, undo, leaf, bound, ceiling if optimum is None else optimum, optimum)


def _av_separable(profile: BallotProfile, k: int) -> OptimizationResult:
    """Approval scores are separable per candidate: sort and take the top k.

    Sorting by (score descending, index ascending) yields exactly the
    lexicographically smallest committee among all score-maximal ones.
    """
    scores = profile.approval_scores
    order = sorted(range(profile.num_candidates), key=lambda c: (-scores[c], c))
    members = tuple(sorted(order[:k]))
    total = sum(scores[c] for c in members)
    return OptimizationResult(committee=Committee(members), score=Fraction(total),
                              co_optimal_count=None, nodes_explored=profile.num_candidates)


def optimize_committee(request: OptimizationRequest) -> OptimizationResult:
    """Exactly optimize the requested objective over all size-k committees.

    Ties go to the first optimum in lexicographic order.  In prefer-JR mode
    the answer is the first optimum that provides justified representation,
    or the first optimum if none does: that optimum is checked for JR once,
    and only if it fails does a second search run, from its value and with
    JR as the leaf requirement.  The second pass costs nothing where the
    first optimum provides JR; elsewhere it walks the tree again and stops
    at its first accepted leaf, since no committee beats the optimum.
    The Thiele searches start from the exact score of the greedy committee,
    which every optimum reaches; while it is below the ceiling, the first
    pass visits the candidates in descending root gain and still returns the
    first optimum in label order (see `_maximize`).  Co-optima are not
    counted (``co_optimal_count`` is None).  Raises `BudgetExhausted`
    (carrying the best committee found so far, in labels, and its score)
    once the searches, every pass together, visit more nodes than the
    budget; a child skipped at its parent is not visited, and the separable
    approval fast path never consumes budget.  The best so far comes from
    the search in the order it visits, so a budget may stop a search in
    root-gain order at a different committee than one in label order would.
    """
    profile, k, objective = request.profile, request.k, request.objective

    lexicographic = request.tiebreak is TieBreak.LEXICOGRAPHIC
    if objective.kind == "av" and lexicographic and request.budget is None:
        return _av_separable(profile, k)

    def provides_jr(committee: Committee) -> bool:
        return axioms.check_jr(profile, k, committee).passed

    search = _Search(profile, k, request.budget)
    _run_search(search, objective)
    members, value = search.best_members, search.best_value
    assert members is not None and value is not None
    if not lexicographic and not provides_jr(Committee(members)):
        # no committee beats the optimum: look for the first one worth as
        # much that provides JR, on the same node budget
        search.accept = provides_jr
        _again(search, lambda: _run_search(search, objective, optimum=value))
        members = search.best_members or members
    return OptimizationResult(committee=Committee(members), score=search.score(value),
                              co_optimal_count=None, nodes_explored=search.nodes)


def _again(search: _Search, rerun: Callable[[], None]) -> None:
    """Call ``rerun()``, a search on ``search`` from no incumbent.  If its
    budget runs out, the incumbent held before is the best so far."""
    members, value = search.best_members, search.best_value
    search.best_members = None
    try:
        rerun()
    except BudgetExhausted as exc:
        raise BudgetExhausted(
            str(exc), best_committee=Committee(members), best_score=search.score(value),
            nodes_explored=exc.nodes_explored,
        ) from None


def _run_search(search: _Search, objective: ScoringObjective | str | None,
                optimum: Optional[int] = None) -> None:
    """Run ``search`` on ``objective``: a `ScoringObjective`, ``"maximin"``
    (winners of the least-represented ballot group) or None (any committee:
    every one is worth the ceiling, 0, so the first accepted one ends the
    search).  ``optimum``, if given, is the best value of any committee: the
    search ends at the first accepted committee worth it."""
    if objective is None:
        search.run(lambda c: None, lambda c: None, lambda: 0,
                   lambda start, depth, target: (), 0)
    elif objective == "maximin":
        _maximize_maximin(search)
    elif objective.kind == "mav":
        _maximize_mav(search, optimum)
    else:
        _maximize(search, objective, optimum)


def _best_accepted(profile: BallotProfile, k: int, accept: Callable[[Committee], bool],
                   objective: ScoringObjective | str | None,
                   budget: Optional[int] = None) -> Optional[Committee]:
    """Lexicographically first of the committees passing ``accept`` that are
    best under ``objective`` (as `_run_search` takes it).  None if no
    committee passes.
    """
    OptimizationRequest(profile, k, AV, budget=budget)  # validates k and budget
    search = _Search(profile, k, budget, accept=accept)
    _run_search(search, objective)
    return Committee(search.best_members) if search.best_members else None
