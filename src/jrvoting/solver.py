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
optimum reaches its score.  That score is the sum of the winners' gains
over k greedy rounds on the search's own bitsets: each round takes the
first candidate of largest gain and lowers every gain by the voters it
moves up a level, the step that gives a child its gains from its parent's.
Each search holds one position → label order.  Its per-candidate views
(the groups approving each candidate as a bitmask, the profile's columns,
built once per profile, and their voter bits, built once per search) are
in label order; a reorder permutes them.  When the greedy floor is below the
ceiling and the search has no leaf requirement, it visits the candidates in
descending root gain, ties by label, so that early subtrees no longer keep
the strongest candidates for later seats and their bounds are tighter
(traced seed 0 of the thiele-urn benchmark: 4,057 → 1,096 nodes).  Ties
still go to the first optimum in label order: out of label order, a leaf
also replaces an incumbent it ties and comes before, and a child whose bound only ties the incumbent is visited
only if the first committee in label order that could reach that bound
below it, which fills its open seats with candidates of its largest gains,
comes before the incumbent.  A search out of label order that reaches the
ceiling stops there, and a search in label order from the ceiling finds the
first committee worth it.  MAV and maximin share one demand search on
bitmasks over the groups (`_maximize_demands`).  Each maximizes the least
value, over classes of groups, of a non-decreasing function of the fewest
winners a group of the class approves: MAV has one class per ballot size,
worth the negated distance, and maximin one class of every group, worth
its winners.  A target asks each class for the fewest winners worth it, and
the classes that ask for the same number share one demand, built once per
target.  A node is hopeless once some group can no longer reach its demand,
counting only its approved candidates still to come, or once the winners
its groups still lack outnumber what its open seats can pay: one per open
seat to each group still short that approves the seat's candidate, from the
largest such offers among the candidates still to come.  Beating the least
value any committee has means a winner of every group that pins it, so a
hitting-set certificate (`_hitting_set`, on an explicit stack) decides that
first; where no k candidates hit them all, the least value is the optimum.
Otherwise the search runs in two passes, since under a tie rule its wide
plateaus of tied committees would all be entered: a strict search over the
candidates in descending approval score, ties by label, finds the
optimum's value, and a label-order search from that value ends at the
first committee worth it.  One label-order pass serves when the
certificate settles the optimum, when the approval order is label order or
when every committee is worth the ceiling.  In label order a leaf replaces
the incumbent only when it is strictly better and passes the leaf
requirement, if any, so ties go to the first committee visited.  Prefer-JR
adds a pass: only if the plain search's optimum fails JR does a
label-order search run from the optimum's value with "provides JR" as its
leaf requirement.  Every search starts from a floor that every answer
reaches, its target until it holds an incumbent, so its first nodes bound
their children too: the greedy score, an optimum's value, in a demand search's first pass the value of the certificate's
committee or else the least value of any committee, or 0.  Every search
ends at an incumbent worth its objective's ceiling, the best value any
committee could have; a search from an optimum's value takes that value as
its ceiling, and the search for any committee passing a leaf requirement
values every committee at 0, so both end at the first committee that
passes.  A node budget counts visited nodes only, over every pass and the
certificate; a budget that runs out in a later pass reports the earlier
pass's answer as the best so far, and the best so far is always in
labels.  All bookkeeping is done in scaled integers, so results are exact
and deterministic.  The search is sequential; since every input type is
immutable, any number of searches may run concurrently on shared profiles.
"""
from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Optional, Sequence

from . import axioms
from .core import (
    AV,
    BallotProfile,
    BudgetExhausted,
    Committee,
    Record,
    ScoringObjective,
    TieBreak,
    _gain_rows,
)


class OptimizationRequest(Record):
    """A fully specified exact committee-selection problem."""

    _fields = ("profile", "k", "objective", "tiebreak", "budget")

    def __init__(self, profile: BallotProfile, k: int, objective: ScoringObjective,
                 tiebreak: TieBreak = TieBreak.LEXICOGRAPHIC, budget: Optional[int] = None):
        fields = self.__dict__
        fields["profile"] = profile
        fields["k"] = k
        fields["objective"] = objective
        fields["tiebreak"] = tiebreak
        fields["budget"] = budget
        self.__post_init__()

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


class OptimizationResult(Record):
    _fields = ("committee", "score", "co_optimal_count", "nodes_explored")

    def __init__(self, committee: Committee, score: Fraction,
                 co_optimal_count: Optional[int], nodes_explored: int):
        fields = self.__dict__
        fields["committee"] = committee
        fields["score"] = score
        fields["co_optimal_count"] = co_optimal_count
        fields["nodes_explored"] = nodes_explored


class _Search:
    """Depth-first branch and bound over the size-k committees.

    It reads the profile's ballot groups (`BallotProfile.index`), one per
    distinct approval set: ``sizes[g]`` and ``mults[g]`` are group g's
    ballot size and multiplicity.  The search runs over positions 0 .. m - 1
    and visits the position subsets in lexicographic order; position p holds
    the candidate ``labels[p]``, or p itself while ``labels`` is None (label
    order).  Its per-candidate views are in label order: the groups
    approving candidate c as a bitmask, the profile's ``columns[c]``, built
    once per profile and shared with its other searches and axiom checks
    (`BallotProfile.columns`), and ``label_bits[c]`` the voter bits of those
    groups (see ``spans``), built once per search, straight from the ballot
    groups, when first read.  ``masks`` and ``bits`` are the same views by
    position: `reorder` sets the order, and they are permuted from the
    label-order views.  ``accept`` is
    a leaf requirement, evaluated only at a leaf that would replace the
    incumbent: a leaf replaces it only when it is better and passes
    ``accept``.  The search prunes every subtree that cannot beat the
    incumbent and ends at an incumbent worth the ceiling or more.
    """

    def __init__(self, profile: BallotProfile, k: int, budget: Optional[int], *, accept=None):
        index = profile.index
        self.profile = profile
        self.sizes = tuple(map(len, index.members))
        self.mults = index.mults
        self.m = profile.num_candidates
        self.k = k
        self.budget = budget
        self.accept = accept
        self.nodes = 0
        self.denominator = 1  # a leaf value over it is the score
        self.best_members: Optional[tuple[int, ...]] = None
        self.best_value: Optional[int] = None
        self.labels: Optional[list[int]] = None

    def reorder(self, labels: Optional[list[int]]) -> None:
        """Hold the candidate ``labels[p]`` at position p, or p itself if
        ``labels`` is None; the views follow, permuted from their label-order
        builds."""
        if labels != self.labels:
            self.labels = labels
            for view in ("masks", "bits"):
                self.__dict__.pop(view, None)

    def _ordered(self, view: Sequence[int]) -> Sequence[int]:
        # a label-order view in the search's order
        return view if self.labels is None else [view[c] for c in self.labels]

    @cached_property
    def label_bits(self) -> list[int]:
        """For each candidate, in label order, the voter bits of the groups
        approving it (see ``spans``); built once per search, straight from
        the ballot groups."""
        owned = [0] * len(self.sizes)
        for g, _, span in self.spans:
            owned[g] |= span
        bits = [0] * self.m
        for members, mine in zip(self.profile.index.members, owned):
            if mine:
                for c in members:
                    bits[c] |= mine
        return bits

    @cached_property
    def masks(self) -> Sequence[int]:
        return self._ordered(self.profile.columns)

    @cached_property
    def bits(self) -> Sequence[int]:
        return self._ordered(self.label_bits)

    @cached_property
    def spans(self) -> list[tuple[int, int, int]]:
        """A ``(group, digit, span)`` triple per nonzero base-64 digit of each
        group's multiplicity: the span holds one bit per unit of the digit,
        each worth 64 ** digit voters, so a multiplicity below 64 gets one bit
        per voter and a billion at most 63 bits per digit.  An empty ballot
        never gains, so it owns no bits."""
        spans = []
        width = 0
        for g, (size, mult) in enumerate(zip(self.sizes, self.mults)):
            digit = 0
            while size and mult:
                mult, count = divmod(mult, 64)
                if count:
                    spans.append((g, digit, ((1 << count) - 1) << width))
                    width += count
                digit += 1
        return spans

    def score(self, value: int) -> Fraction:
        return Fraction(value, self.denominator)

    def visit(self) -> None:
        """Count a visited node against the budget; past it, raise
        `BudgetExhausted` with the incumbent, if any, as the best so far."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            best = self.best_members
            raise BudgetExhausted(
                f"node budget {self.budget} exhausted",
                best_committee=Committee(best) if best else None,
                best_score=self.score(self.best_value) if best else None,
                nodes_explored=self.nodes,
            )

    def run(self, add, undo, leaf, bound, ceiling: int, floor: int, strict: bool = False) -> None:
        """Visit the committees depth first, in the search's order, maximizing
        ``leaf()``.

        ``add(p)`` and ``undo(p)`` seat and unseat the candidate at position
        p, ``leaf()`` is the integer value of a full committee, and no
        committee is worth more than ``ceiling``.  ``bound(start, depth,
        target)`` is None when no completion by positions >= start reaches
        ``target``; otherwise it bounds the node's children, as ``(worth,
        best, reaches, rest)``, or as ``()`` when it bounds none.
        ``worth[p]`` bounds every committee below the child seating p,
        ``best[p]`` is the largest ``worth`` from p onward, ``reaches(p)`` is
        the exact bound ``bound`` would find at the child seating p, and
        ``rest(p)`` the labels that fill the child's open seats in the first
        committee, in label order, that could reach the child's bound (read
        only under the tie rule below).  A child that cannot beat the
        incumbent is skipped unvisited: first by ``worth``, then, unless it
        is a leaf, by ``reaches``, asked just before the child would be
        seated, so that the next ``add`` seats the child last asked of when
        it passes.  ``floor`` is a value every answer reaches, or one every
        committee does: until the first incumbent it is the target, so
        subtrees that cannot reach it are pruned and leaves below it are
        passed over.

        The incumbent is kept in labels, and ties go to the first committee
        in label order whatever the visiting order.  In label order that is
        the first one visited.  Out of label order a leaf also replaces an
        incumbent it ties and comes before, and a child whose bound only
        ties the incumbent is visited only if its chosen labels and
        ``rest`` come before the incumbent: once when ``worth`` only ties,
        before ``reaches`` is asked, and again when ``reaches`` only ties.
        A ``strict`` search has no such tie rule: a leaf must beat the
        incumbent, so ties go to the first committee visited, and out of
        label order the search finds only the optimum's value.
        """
        k, m, labels = self.k, self.m, self.labels
        tied = labels is not None and not strict  # whether the tie rule holds
        self.best_value = floor - 1  # no incumbent yet: the target is the floor
        chosen: list[int] = []
        stack: list[int] = []  # for each open node, the next position to try
        bounds: list[tuple] = []  # for each open node, the bounds on its children
        start = 0

        def bars() -> tuple[int, int]:
            # a child must reach the first value to beat the incumbent, or,
            # under the tie rule, the second to tie it
            bar = self.best_value + 1
            return bar, bar - 1 if tied and self.best_members is not None else bar

        def first(p: int) -> bool:
            # whether the earliest committee below the child seating p that
            # could tie its bound comes before the incumbent in label order;
            # `rest` is the open node's, unpacked in the loop below
            return tuple(sorted([labels[q] for q in chosen] + [labels[p]] + rest(p))) < self.best_members

        while True:
            self.visit()
            depth = len(chosen)
            if depth == k:
                value = leaf()
                if value >= self.best_value:
                    members = tuple(sorted(labels[p] for p in chosen)) if labels else tuple(chosen)
                    earlier = tied and self.best_members is not None and members < self.best_members
                    if (value > self.best_value or earlier) and (
                        self.accept is None or self.accept(Committee(members))
                    ):
                        self.best_value, self.best_members = value, members
                        if value >= ceiling:
                            return
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

    Without a leaf requirement or an ``optimum``, the floor is the greedy
    committee's score: k rounds on the search's bitsets, each taking the
    first candidate, in label order, of largest gain and lowering every gain
    by the voters it moves up a level (`lowered`, the step `child_gains`
    applies to later candidates).  While that floor is below the ceiling,
    the search visits the candidates in descending root gain, ties by
    label: `_Search` holds that order and permutes ``bits`` into it, and
    `run` maps the winners back to labels.  A committee below a child that
    ties the child's bound fills its open seats with candidates of the
    child's largest gains, so `rest` gives the first such filling in label
    order: every candidate of a gain above the smallest of those gains and
    the earliest labels of that gain, read from the child's own gains if
    `reaches` just built them, else from the node's.  An ordered search that
    reaches the ceiling stops there, and the search runs again in label
    order with the ceiling as ``optimum``, which ends at the first committee
    worth it; a budget that runs out there reports the ordered search's
    committee.  A floor at the ceiling keeps label order, so that search
    ends at its first committee worth it.

    A group owns one bit per unit of each base-64 digit of its multiplicity
    (`_Search.spans`), worth 64 ** d for digit d.  ``levels[j]`` holds the
    bits of the groups with exactly j winners so far; seating a candidate
    moves its bits up one level.  A class is the bits that share one row of per-voter gains
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
    sizes, mults, m, k = search.sizes, search.mults, search.m, search.k
    rows, search.denominator = _gain_rows(objective, set(sizes), k)
    ceiling = sum(mult * sum(rows[size][:size]) for size, mult in zip(sizes, mults))
    masks: dict[tuple[tuple[int, ...], int], int] = {}  # (row, digit) -> its bits
    for g, digit, span in search.spans:
        key = rows[sizes[g]], digit
        masks[key] = masks.get(key, 0) | span
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

    def lowered(gains: list[int], after: Sequence[int], mine: int, levels: list[int],
                depth: int) -> list[int]:
        # the gains of the candidates whose bits are `after`, each less its
        # share of the voters that seating the bits `mine` moves up from a
        # level where their unit gain drops; no voter is above `depth`
        for j, here in falls:
            if j > depth:
                break
            moved = levels[j] & mine
            if moved:
                for mask, drop in here:
                    held = moved & mask
                    if held:
                        gains = [gain - drop * (b & held).bit_count() for gain, b in zip(gains, after)]
        return gains

    # a voter holds no more winners than its ballot has candidates, so no
    # voter can move up from a level above `top`
    top = max(sizes, default=0) - 1

    def raised(levels: list[int], mine: int, depth: int) -> list[int]:
        # the levels after seating the bits `mine`: each of its voters moves
        # up one level; no voter is above `depth` or `top`
        levels = levels[:]
        for j in range(min(depth, top), -1, -1):
            moved = levels[j] & mine
            if moved:
                levels[j] ^= moved
                levels[j + 1] |= moved
        return levels

    levels = [sum(masks.values())] + [0] * k
    bits = search.label_bits
    # the root's gains, with every voter at level 0, in label order
    gains = [sum(row[0] * (mine & mask).bit_count() for mask, row in classes) for mine in bits]
    floor, order = 0, None  # every committee scores 0 or more
    if optimum is not None:
        floor = ceiling = optimum
    elif search.accept is None:
        # the greedy committee's score, on the search's own bitsets: each
        # round seats the first candidate of largest gain, and every optimum
        # reaches the sum of those gains.  A seated candidate's gain is
        # negative, so it is not taken again
        offered, rising = gains[:], levels
        for depth in range(k):
            gain = max(offered)
            if gain <= 0:
                break  # gains only shrink: the remaining seats add nothing
            floor += gain
            if depth + 1 < k:
                winner = offered.index(gain)
                offered[winner] = -1
                offered = lowered(offered, bits, bits[winner], rising, depth)
                rising = raised(rising, bits[winner], depth)
        if floor < ceiling:
            # descending root gain; a stable sort keeps ties in label order
            order = sorted(range(m), key=gains.__getitem__, reverse=True)
            gains = [gains[c] for c in order]
    search.reorder(order)
    bits = search.bits
    # the node's state, saved by `add` for each seated candidate and restored
    # by `undo`: its levels and its gains.  The gains run from the node's
    # first candidate to the last, so candidate c's is gains[c - m]
    saved: list[tuple[list[int], list[int]]] = []
    tested: Optional[tuple[int, list[int]]] = None  # the child last asked of, and its gains
    passed = False  # whether the node last seated passed `reaches`
    scores = [0]  # the score of each prefix of the committee

    def child_gains(c: int, depth: int) -> list[int]:
        # the node's gains after c, less the drops seating c causes; the
        # child is not a leaf, so c < m - 1 and the slice is not empty
        return lowered(gains[c + 1 - m:], bits[c + 1:], bits[c], levels, depth)

    def add(c: int) -> None:
        nonlocal levels, gains, tested, passed
        depth = len(saved)
        scores.append(scores[-1] + gains[c - m])
        saved.append((levels, gains))
        passed = tested is not None and tested[0] == c
        if depth + 1 < k:  # a leaf reads only its score
            gains = tested[1] if passed else child_gains(c, depth)
            levels = raised(levels, bits[c], depth)
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

    search.run(add, undo, lambda: scores[-1], bound, ceiling, floor)
    if order is not None and search.best_value >= ceiling:
        # the ordered search stops at the ceiling: find the first committee
        # in label order worth it
        _again(search, lambda: _maximize(search, objective, ceiling))


def _demand_state(search: _Search):
    """Bitmask state of a search that demands winners of every ballot group,
    in the search's order: ``hits[j]`` holds the groups approving j or more
    members so far, ``ahead[i][p]`` those approving i or more of the
    candidates at positions >= p, both read from `_Search.masks`.  Returns
    ``hits`` with the ``add``/``undo`` pair that maintains it and
    ``hopeless(start, depth, demands)``: whether no completion by positions
    >= start meets every demand, a pair ``(want, mask)`` asking ``want``
    winners of each group in ``mask``.  It makes two admissible tests.  The
    first, per demand, is whether some group can no longer reach its winners
    from the approved candidates it has left.  The second counts the deficit,
    the winners the groups still lack: each open seat pays at most one
    winner to each group still short that approves its candidate, so the
    node is hopeless once the deficit exceeds the ``k - depth`` largest
    such offers among the candidates at positions >= start.
    """
    k, m, masks = search.k, search.m, search.masks
    everyone = (1 << len(search.sizes)) - 1
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


def _hitting_set(sets: Sequence[int], k: int, visit: Callable[[], None]) -> Optional[int]:
    """At most ``k`` candidates, as a bitmask, that hit every candidate
    bitmask in ``sets``, or None if no k candidates do.

    A depth-first search with its open nodes on an explicit stack, calling
    ``visit()`` at each node.  A node holds its seated candidates, the
    candidates it excludes and the sets still unhit, cut to their free
    candidates, neither seated nor excluded, fewest first.  It branches on
    the free candidates of the first unhit set, in label order, and
    excludes each from the branches after its own, so no seating is
    visited twice (the most constrained first, as in Knuth's Dancing Links,
    2000).  A node with no more unhit sets than open seats ends the search,
    seating the lowest free candidate of each.  A node is pruned once more
    of its unhit sets are pairwise disjoint than it has open seats, since
    each of those needs a seat of its own; they are packed greedily, fewest
    free candidates first.
    """
    # seated, excluded, the parent's unhit sets, open seats, the candidate to seat
    stack = [(0, 0, sorted(sets, key=int.bit_count), k, 0)]
    while stack:
        seated, excluded, unhit, seats, bit = stack.pop()
        visit()
        if bit:
            seated |= bit
            allowed = ~excluded
            unhit = sorted([s & allowed for s in unhit if not s & bit], key=int.bit_count)
        if not unhit:
            return seated
        pivot = unhit[0]
        if not seats or not pivot:
            continue  # no seat left, or a set with no free candidate
        if len(unhit) <= seats:
            for s in unhit:  # a seat for each: its lowest free candidate
                seated |= s & -s
            return seated
        packed = disjoint = 0
        for s in unhit:
            if not s & packed:
                packed |= s
                disjoint += 1
                if disjoint > seats:
                    break
        if disjoint > seats:
            continue
        branches = []
        while pivot:
            bit = pivot & -pivot
            branches.append((seated, excluded, unhit, seats - 1, bit))
            excluded |= bit
            pivot ^= bit
        stack += reversed(branches)  # the lowest label first
    return None


def _certify(search: _Search, classes: Sequence[tuple[int, int, Callable[[int], int]]],
             groups: int, least: int, ceiling: int) -> tuple[Optional[int], int]:
    """Decide by `_hitting_set` whether some committee beats the floor
    ``least`` by giving a winner to every group in the bitmask ``groups``.
    Returns the optimum's value, if that settles it, and a floor every
    answer reaches.  With no k candidates hitting those groups the optimum
    is ``least``.  Otherwise the cover, filled with the lowest free labels,
    is a committee worth more; its value is the floor if ``search.accept``,
    if any, passes it, and the optimum if it is the ceiling.  (ejrav's
    "provides JR" passes every maximin cover: it leaves no voter
    unrepresented.)"""
    masks = search.profile.index.masks
    cover = _hitting_set([masks[g] for g in axioms._mask_bits(groups)], search.k, search.visit)
    if cover is None:
        return least, least
    free = ~cover
    for _ in range(search.k - cover.bit_count()):
        cover |= free & -free
        free &= free - 1
    if search.accept is not None and not search.accept(Committee(axioms._mask_bits(cover))):
        return None, least
    winners = [(mask & cover).bit_count() for mask in masks]
    floor = min(value(min(winners[g] for g in axioms._mask_bits(mask))) for mask, _, value in classes)
    return (ceiling if floor >= ceiling else None), floor


def _maximize_demands(search: _Search, classes: Sequence[tuple[int, int, Callable[[int], int]]],
                      optimum: Optional[int] = None) -> None:
    """Maximize the least value, over ``classes``, of a class's value of the
    fewest winners any of its groups approves.  A class is ``(mask, cap,
    value)``: its groups as a bitmask, the fewest candidates any of them
    approves, and a non-decreasing ``value(w)``.  A target asks each class
    for the fewest winners w worth it, and the classes that ask for the same
    w share one demand: the demand tests are per group and add up over
    disjoint masks, so sharing prunes the same nodes.  Each target's demands
    are built once, for every pass.  If ``optimum``, the best value of any
    committee, is given, one label-order pass from it ends at the first
    accepted committee worth it.

    With no ``optimum`` and a ceiling above ``least``, the value every
    committee reaches, `_certify` first decides by a hitting-set search
    whether any committee is worth more: that takes a winner of every group
    the demands one step above ``least`` ask for one, and MAV and maximin
    ask for no more.  If none is, the optimum is ``least``; if the cover's
    committee is worth the ceiling, that is the optimum; either way one
    label-order pass from it follows.  Otherwise that committee's value, if
    ``accept`` passes it, is the floor.  The certificate's nodes count in
    ``search.nodes`` and against the budget, and it holds no incumbent.

    Otherwise there are two strict passes.  The first visits the candidates
    in descending approval score, ties by label, from the floor, a value
    every answer reaches: a committee of widely
    approved candidates meets the demands early, so later subtrees close
    sooner, but the first optimum it finds need not come first in label
    order, so it gives only the optimum's value.  The second runs in label
    order from that value and ends at the first accepted committee worth
    it.  The incumbent is kept in labels throughout, so ``accept`` and a
    budget that runs out in the first pass see labels, and a budget that
    runs out in the second reports the first pass's committee (`_again`).
    One label-order pass serves where the order cannot help: the approval
    order is label order, or every committee is worth the ceiling, where
    both passes would end at their first accepted committee.
    """
    k = search.k
    ceiling = min(value(min(cap, k)) for _, cap, value in classes)
    least = min(value(0) for _, _, value in classes)

    @cache
    def demands(target: int) -> Optional[tuple[tuple[int, int], ...]]:
        # None if some class cannot reach the target from its cap
        wants: dict[int, int] = {}
        for mask, cap, value in classes:
            want = next((w for w in range(cap + 1) if value(w) >= target), None)
            if want is None:
                return None
            if want:
                wants[want] = wants.get(want, 0) | mask
        return tuple(wants.items())

    def solve(top: int, floor: int) -> None:
        hits, add, undo, hopeless = _demand_state(search)

        def leaf() -> int:
            # the levels are nested: a class's fewest winners is the number
            # of levels holding all of it, minus one
            return min(value(sum(h & mask == mask for h in hits) - 1) for mask, _, value in classes)

        def bound(start: int, depth: int, target: int) -> Optional[tuple]:
            wanted = demands(target)
            # no bound on the children
            return None if wanted is None or hopeless(start, depth, wanted) else ()

        search.run(add, undo, leaf, bound, top, floor, strict=True)

    floor = least
    if optimum is None and ceiling > least:
        # beating the floor takes one winner of every group that pins it:
        # for MAV those of the largest size, for maximin every group
        [(want, groups)] = demands(least + 1)
        assert want == 1
        optimum, floor = _certify(search, classes, groups, least, ceiling)
    order = None
    if optimum is None and ceiling > floor:
        # a stable sort keeps ties in label order
        order = sorted(range(search.m), key=search.profile.approval_scores.__getitem__, reverse=True)
        if order == list(range(search.m)):
            order = None
    search.reorder(order)
    if optimum is None:
        solve(ceiling, floor)
    else:
        solve(optimum, optimum)
    if order is not None and search.best_members is not None:
        value = search.best_value
        search.reorder(None)
        _again(search, lambda: solve(value, value))


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
    and only if it fails does another search run, in label order, from its
    value and with JR as the leaf requirement.  That pass costs nothing
    where the first optimum provides JR; elsewhere it walks the tree again
    and stops at its first accepted leaf, since no committee beats the
    optimum.  The Thiele searches start from the exact score of the greedy
    committee, which every optimum reaches; while it is below the ceiling,
    the search visits the candidates in descending root gain and still
    returns the first optimum in label order (see `_maximize`).  MAV first
    asks a hitting-set certificate whether any committee gives a winner to
    every ballot of the largest size; if none does, one label-order pass
    returns the first committee, all tied.  Otherwise it finds the
    optimum's value in descending approval order and then the first
    committee worth it in label order (see `_maximize_demands`).  Co-optima
    are not counted (``co_optimal_count`` is None).  Raises `BudgetExhausted`
    (carrying the best committee found so far, in labels, and its score)
    once the searches, every pass together, visit more nodes than the
    budget; a child skipped at its parent is not visited, and the separable
    approval fast path never consumes budget.  The best so far comes from
    the pass the budget stops, in the order it visits, or from the pass
    before if that one only looks for the first committee worth a value
    already found; so a budget may stop at a different committee than a
    search in label order would.
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
    search).  MAV and maximin are demand searches (`_maximize_demands`),
    MAV with one class per ballot size and maximin with one class of every
    group; the Thiele objectives go to `_maximize`.  ``optimum``, if given,
    is the best value of any committee: the search ends at the first
    accepted committee worth it."""
    if objective is None:
        search.run(lambda c: None, lambda c: None, lambda: 0,
                   lambda start, depth, target: (), 0, 0)
    elif objective == "maximin":
        # one class holding every group, worth its fewest winners
        everyone = (1 << len(search.sizes)) - 1
        _maximize_demands(search, [(everyone, min(search.sizes), lambda w: w)], optimum)
    elif objective.kind == "mav":
        # the negated largest distance k + s - 2 * winners from a ballot of
        # s candidates to the committee: one class per ballot size
        search.denominator = -1  # the score is the distance
        k, classes = search.k, {}  # ballot size -> its groups
        for g, size in enumerate(search.sizes):
            classes[size] = classes.get(size, 0) | 1 << g
        _maximize_demands(search, [(mask, size, lambda w, s=size: 2 * w - k - s)
                                   for size, mask in classes.items()], optimum)
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
