"""Command-line surface: profile file format, subcommands, exit codes.

Profile documents are plain text: ``#`` comment lines, a required ``m <int>``
header, an optional ``k <int>`` header, then one ballot group per line as
``<multiplicity>: <candidate indices>`` (no indices for an empty ballot).
Every number is ASCII decimal digits with an optional leading ``-``.

Exit codes: 0 success / axiom passes, 1 axiom fails (or cross-check
disagreement), 2 usage error, 3 input parse error, 4 search budget exhausted,
5 internal error (any other exception, reported on one stderr line).
Machine output (``--format machine``) is line-oriented ``key=value`` with
exact rationals rendered as ``num/den`` and committees as sorted
comma-separated indices; it contains no timing, so identical inputs produce
byte-identical output.

The module loads `core` only.  The argument parser loads `rules` (and with
it `axioms`) for its choices, and each command loads the layers it runs when
it runs: only a search loads `solver`, so `check` and `find` never do, and
only the commands that use `corpus` load it.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .core import (
    BallotProfile,
    BudgetExhausted,
    Committee,
    GroupIndex,
    ProfileError,
    TieBreak,
    WeightVector,
)

if TYPE_CHECKING:
    from . import axioms, corpus

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class ProfileParseError(ValueError):
    """Bad profile or graph document; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Document formats
# ---------------------------------------------------------------------------


def _plain_integers(text: str) -> bool:
    """Whether `int` reads every whitespace-free token of ``text`` only if it
    is ASCII decimal digits with an optional leading ``-``: on its own `int`
    also takes ``+1``, ``0_1`` and non-ASCII digits such as Arabic-Indic
    ones."""
    return text.isascii() and "_" not in text and "+" not in text


# the pattern of a comment line that starts right after a "\n" (or the
# text): its spaces and tabs, its "#" and the rest of the line up to the next
# character at which `str.splitlines` breaks; the lines `parse_profile` skips
# as comments include every line it matches.  `re` compiles it on first use,
# so that importing this module compiles nothing
_COMMENT_LINES = "(?m)^[ \t]*#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"


def _integer(text: str) -> int:
    """`int` held to the documents' spelling of numbers, for command-line
    arguments and the integer fields of axiom, culture and parameter specs."""
    if not _plain_integers(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _read_indices(tokens: list[str], m: int, lineno: int) -> list[int]:
    """A ballot line's ascending candidate indices, token by token: accepts
    what the one-call read in `parse_profile` cannot (``01``, ``-0``, an
    index beyond its tables) and names the first bad token of a line it
    rejects."""
    approved: set[int] = set()
    for token in tokens:
        try:
            c = int(token)
        except ValueError:
            raise ProfileParseError(f"bad candidate index {token!r}", lineno) from None
        if c in approved:
            raise ProfileParseError(f"duplicate candidate index {c}", lineno)
        if not 0 <= c < m:
            raise ProfileParseError(f"candidate index {c} out of range for m={m}", lineno)
        approved.add(c)
    return sorted(approved)


def parse_profile(text: str) -> tuple[BallotProfile, Optional[int]]:
    """Parse a profile document; returns the profile and the optional k header.

    The ballot lines are read straight into the profile's `GroupIndex`, with
    no `Ballot` built until the profile's ``ballots`` are read.  A ballot
    line is read once: a later identical line (after stripping) only adds
    its entry again, and identical lines share one `Ballot` when the ballots
    are built.  A line's indices are read in one call through a table of the
    plain spellings of the indices below ``top = min(m, isqrt(16 *
    len(text)))``, and its bitmask is summed in one call from a table of
    their bits, whose top * top / 16 bytes stay within the document's size;
    a line holding another spelling, an index outside the tables or one
    index twice is read again by `_read_indices`.  Lines approving the same
    candidates, however spelled, fall in one group, keyed by its bitmask
    when every index is below top and by its ascending indices otherwise, so
    that no bitmask past the tables is built before it is used.

    A leading byte-order mark is ignored.  The whole text is tested once for
    plain numbers (`_plain_integers`), and, if it fails, the text without
    its comment lines (`_COMMENT_LINES`), so that a ``+`` or non-ASCII text
    in a comment does not matter; if either passes, a new line that starts
    with ASCII digits and a ``:`` goes straight to the ballot checks, since
    no comment, blank line or header starts so.  Every other line, and every
    line of a text whose other lines fail, is tested first as a comment or
    blank line, then for plain numbers, then as a header, and a line left
    over is a ballot line with the same checks.
    """
    m: Optional[int] = None
    k: Optional[int] = None
    index: dict[str, int] = {}  # plain spelling -> index, below top
    bits: list[int] = []  # index -> its bit, below top
    read: dict[str, int] = {}  # stripped ballot line -> its entry
    groups: dict[object, int] = {}  # bitmask or ascending indices -> group
    members: list[tuple[int, ...]] = []
    entries: list[tuple[int, int]] = []
    order: list[int] = []
    beyond = False  # whether some group holds an index of top or more
    text = text.removeprefix("\ufeff")  # a byte-order mark
    plain = _plain_integers(text) or _plain_integers(re.sub(_COMMENT_LINES, "", text))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        entry = read.get(line)
        if entry is not None:
            order.append(entry)
            continue
        mult_text, sep, indices_text = line.partition(":")
        if not (plain and sep and mult_text.isdigit()):
            # any line but a ballot line of a plain text: comments, blank
            # lines, headers and lines such as `1 : 3` or `+1: 0`
            if not line or line.startswith("#"):
                continue
            if not _plain_integers(line):
                raise ProfileParseError(f"numbers must be ASCII decimal digits in {line!r}", lineno)
            head, _, rest = line.partition(" ")
            if head == "m":
                if m is not None:
                    raise ProfileParseError("duplicate m header", lineno)
                try:
                    m = int(rest)
                except ValueError:
                    raise ProfileParseError(f"bad m header {rest!r}", lineno) from None
                if m < 1:
                    raise ProfileParseError(f"m must be >= 1, got {m}", lineno)
                top = min(m, math.isqrt(16 * len(text)))
                index = {str(c): c for c in range(top)}
                bits = [1 << c for c in range(top)]
                continue
            if head == "k":
                if k is not None:
                    raise ProfileParseError("duplicate k header", lineno)
                try:
                    k = int(rest)
                except ValueError:
                    raise ProfileParseError(f"bad k header {rest!r}", lineno) from None
                continue
            if not sep:
                raise ProfileParseError(f"unrecognized line {line!r}", lineno)
            mult_text = mult_text.strip()
        try:
            mult = int(mult_text)
        except ValueError:
            raise ProfileParseError(f"bad multiplicity {mult_text!r}", lineno) from None
        if mult < 1:
            raise ProfileParseError(f"multiplicity must be >= 1, got {mult}", lineno)
        if m is None:
            raise ProfileParseError("ballot line before m header", lineno)
        tokens = indices_text.split()
        try:
            approved = list(map(index.__getitem__, tokens))
        except KeyError:
            key = None
        else:
            key = sum(map(bits.__getitem__, approved))
        # a sum of bits has as many bits set as terms only if no bit repeats
        if key is None or key.bit_count() != len(tokens):
            approved = _read_indices(tokens, m, lineno)
            if approved and approved[-1] >= len(bits):
                key, beyond = tuple(approved), True
            else:
                key = sum(map(bits.__getitem__, approved))
        group = groups.get(key)
        if group is None:
            group = groups[key] = len(members)
            members.append(tuple(approved))
        entry = read[line] = len(entries)
        entries.append((group, mult))
        order.append(entry)
    if m is None:
        raise ProfileParseError("missing m header")
    if not order:
        raise ProfileParseError("profile contains no ballots")
    masks = None if beyond else list(groups)
    return BallotProfile._of_index(m, GroupIndex.build(members, entries, order, masks)), k


def serialize_profile(
    profile: BallotProfile, k: Optional[int] = None, comments: Sequence[str] = ()
) -> str:
    """Render a profile document; parsing it back recovers the profile."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"m {profile.num_candidates}")
    if k is not None:
        lines.append(f"k {k}")
    for ballot in profile.ballots:
        indices = " ".join(str(c) for c in sorted(ballot.approved))
        lines.append(f"{ballot.multiplicity}:{' ' + indices if indices else ''}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> corpus.BipartiteGraph:
    """Parse a bipartite graph document: `L <int> R <int>`, then `edge <l> <r>` lines."""
    from .corpus import BipartiteGraph

    sizes: Optional[tuple[int, int]] = None
    edges: set[tuple[int, int]] = set()
    text = text.removeprefix("\ufeff")  # a byte-order mark
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not _plain_integers(line):
            raise ProfileParseError(f"numbers must be ASCII decimal digits in {line!r}", lineno)
        tokens = line.split()
        if tokens[0] == "L":
            if len(tokens) != 4 or tokens[2] != "R":
                raise ProfileParseError(f"bad header {line!r}", lineno)
            try:
                sizes = (int(tokens[1]), int(tokens[3]))
            except ValueError:
                raise ProfileParseError(f"bad header {line!r}", lineno) from None
            continue
        if tokens[0] == "edge":
            if sizes is None:
                raise ProfileParseError("edge line before header", lineno)
            if len(tokens) != 3:
                raise ProfileParseError(f"bad edge line {line!r}", lineno)
            try:
                edge = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ProfileParseError(f"bad edge line {line!r}", lineno) from None
            if edge in edges:
                raise ProfileParseError(f"duplicate edge {edge}", lineno)
            edges.add(edge)
            continue
        raise ProfileParseError(f"unrecognized line {line!r}", lineno)
    if sizes is None:
        raise ProfileParseError("missing L/R header")
    try:
        return BipartiteGraph(sizes[0], sizes[1], frozenset(edges))
    except ValueError as exc:
        raise ProfileParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_committee(spec: str) -> Committee:
    try:
        if not _plain_integers(spec):
            raise ValueError(spec)
        members = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad committee spec {spec!r}") from None
    if not members or len(set(members)) != len(members):
        raise ValueError(f"committee spec must list distinct indices, got {spec!r}")
    return Committee.of(members)


def _parse_axiom(spec: str) -> tuple[str, Optional[int]]:
    from . import axioms

    name, sep, level = spec.partition(":")
    if name not in axioms.AXIOM_NAMES:
        raise ValueError(f"unknown axiom {name!r}")
    if axioms.AXIOMS[name].leveled:
        if not sep:
            raise ValueError(f"axiom {name} needs a level, e.g. {name}:2")
        return name, _integer(level)
    if sep:
        raise ValueError(f"axiom {name!r} takes no level")
    return name, None


def _plain_number(token: str) -> str:
    """``token``, if it is ASCII with no ``_``: `Fraction` and `float` also
    read non-ASCII digits and ``_`` separators (``1_0/2`` is 5)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"invalid number {token!r}: use ASCII digits without '_'")
    return token


def _parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(_plain_number(token))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def _parse_weights(spec: str) -> WeightVector:
    return WeightVector.from_values(_parse_fraction(tok) for tok in spec.split(","))


def _parse_culture(spec: str) -> corpus.Culture:
    from . import corpus

    kind, _, rest = spec.partition(":")
    try:
        if kind == "uniform":
            return corpus.UniformSubsets(float(_plain_number(rest)))
        if kind == "fixed":
            return corpus.FixedSize(_integer(rest))
        if kind == "urn":
            groups, _, cohesion = rest.partition(":")
            return corpus.UrnLike(_integer(groups), float(_plain_number(cohesion)))
    except ValueError as exc:
        raise ValueError(f"bad culture spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown culture {kind!r} (use uniform:P, fixed:S, urn:G:C)")


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad --param {pair!r}, expected key=value")
        if key in params:
            raise ValueError(f"duplicate --param {key}")
        if value.lstrip("+-").isdigit():
            params[key] = _integer(value)
        elif "/" in value:
            params[key] = _parse_fraction(value)
        else:
            params[key] = _plain_number(value)
    return params


def _read_text(path: str) -> str:
    """The document at ``path``, or on stdin for ``-``, decoded one way for
    both: as UTF-8, each undecodable byte kept as a lone surrogate, which
    only a comment line may hold (the parsers take no non-ASCII text
    elsewhere).  A text stream without bytes underneath is read as it is."""
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:
            return sys.stdin.read()
        data = stream.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("utf-8", "surrogateescape")


def _resolve_k(args_k: Optional[int], file_k: Optional[int], fallback: Optional[int] = None) -> int:
    if args_k is not None:
        return args_k
    if file_k is not None:
        return file_k
    if fallback is not None:
        return fallback
    raise ValueError("committee size required: pass --k or add a k header to the file")


def _fmt(value) -> str:
    if isinstance(value, Committee):
        return ",".join(str(c) for c in value.members)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _emit(fields: list[tuple[str, str]], fmt: str, started: float) -> None:
    """Write a command's ordered key/value fields.

    Renders as human-readable `key: value` lines (with the wall time since
    ``started``) or as the machine format `key=value` (timing omitted so that
    identical inputs give byte-identical output).  Rationals are always
    rendered as `num/den`, committees as sorted comma-separated indices.
    """
    if fmt == "machine":
        sys.stdout.write("".join(f"{key}={value}\n" for key, value in fields))
        return
    lines = [f"{key}: {value}" for key, value in fields]
    lines.append(f"time: {(time.perf_counter() - started) * 1000:.1f} ms")
    sys.stdout.write("\n".join(lines) + "\n")


def _witness_fields(report: axioms.AxiomReport) -> list[tuple[str, str]]:
    fields = [("verdict", "pass" if report.passed else "fail")]
    if report.witness is not None:
        w = report.witness
        fields += [
            ("witness.level", str(w.level)),
            ("witness.candidates", _fmt(w.candidates)),
            ("witness.voters", _fmt(w.ballot_indices)),
            ("witness.size", str(w.group_size)),
        ]
    return fields


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    from . import rules

    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    k = _resolve_k(args.k, file_k)
    weights = _parse_weights(args.weights) if args.weights else None
    spec = rules.RuleSpec(args.rule, weights=weights, tiebreak=TieBreak(args.tiebreak))
    committee, score = rules.compute_with_score(profile, k, spec, budget=args.budget)
    _emit(
        [
            ("command", "compute"),
            ("rule", args.rule),
            ("k", str(k)),
            ("tiebreak", args.tiebreak),
            ("committee", _fmt(committee)),
            ("score", str(score)),
        ],
        args.format,
        started,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    from . import axioms

    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    committee = _parse_committee(args.committee)
    k = _resolve_k(args.k, file_k, fallback=committee.k)
    axiom, ell = _parse_axiom(args.axiom)
    report = axioms.AXIOMS[axiom].check(profile, k, committee, ell)
    fields = [
        ("command", "check"),
        ("axiom", args.axiom),
        ("k", str(k)),
        ("committee", _fmt(committee)),
    ] + _witness_fields(report)
    _emit(fields, args.format, started)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_find(args) -> int:
    from . import axioms

    started = time.perf_counter()
    profile, file_k = parse_profile(_read_text(args.file))
    k = _resolve_k(args.k, file_k)
    axiom, ell = _parse_axiom(args.axiom)
    find = axioms.AXIOMS[axiom].find
    if find is None:
        raise ValueError("find supports axioms jr and ell-jr:<level> only")
    committee = find(profile, k, ell)
    _emit(
        [
            ("command", "find"),
            ("axiom", args.axiom),
            ("k", str(k)),
            ("committee", _fmt(committee)),
        ],
        args.format,
        started,
    )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from . import corpus

    fixture = corpus.build_fixture(args.name, **_parse_params(args.param))
    if args.verify:
        all_ok = True
        for result in corpus.verify_fixture(fixture):
            status = "ok" if result.ok else "FAIL"
            print(f"{status} {result.description} ({result.detail})")
            all_ok = all_ok and result.ok
        print(f"fixture={fixture.name} verdict={'pass' if all_ok else 'fail'}")
        return EXIT_OK if all_ok else EXIT_FAIL
    comments = [f"fixture {fixture.name}", f"params {dict(fixture.params)}"]
    if fixture.candidate_names:
        mapping = " ".join(
            f"{name}={idx}" for idx, name in sorted(fixture.candidate_names.items())
        )
        comments.append(f"candidates {mapping}")
    if fixture.weights is not None:
        comments.append(
            "weights " + ",".join(str(w) for w in fixture.weights.weights)
        )
    sys.stdout.write(serialize_profile(fixture.profile, fixture.k, comments))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from . import corpus

    started = time.perf_counter()
    graph = parse_graph(_read_text(args.graph))
    instance = corpus.reduce_biclique(graph, args.ell)
    if args.format == "machine":
        _emit(
            [
                ("command", "reduce"),
                ("m", str(instance.profile.num_candidates)),
                ("n", str(instance.profile.n)),
                ("k", str(instance.k)),
                ("committee", _fmt(instance.committee)),
            ],
            args.format,
            started,
        )
    else:
        comments = [
            f"reduced from bipartite graph L={graph.left_size} R={graph.right_size} ell={args.ell}",
            f"committee {_fmt(instance.committee)}",
        ]
        sys.stdout.write(serialize_profile(instance.profile, instance.k, comments))
    return EXIT_OK


def _cmd_random(args) -> int:
    from . import corpus

    profile = corpus.random_profile(
        seed=args.seed, n=args.n, m=args.m, k=args.k, culture=_parse_culture(args.culture)
    )
    comments = [f"random seed={args.seed} culture={args.culture}"]
    sys.stdout.write(serialize_profile(profile, args.k, comments))
    return EXIT_OK


def _oracle_instances(seed: int, trials: int, max_n: int, max_m: int, min_m: int = 2):
    """Deterministic stream of (profile, k, committee) cross-check instances,
    each of ``min_m`` to ``max_m`` candidates."""
    import random as _random

    from . import corpus

    rng = _random.Random(f"oracle|{seed}")
    for trial in range(trials):
        n = rng.randint(1, max_n)
        m = rng.randint(min_m, max_m)
        k = rng.randint(1, min(m, 4))
        p = rng.choice([0.25, 0.4, 0.6])
        profile = corpus.random_profile(
            seed=seed * 100003 + trial, n=n, m=m, k=k, culture=corpus.UniformSubsets(p)
        )
        committee = Committee.of(rng.sample(range(m), k))
        yield profile, k, committee


def _cmd_oracle(args) -> int:
    from . import axioms, rules

    started = time.perf_counter()
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_m < 2:
        raise ValueError(f"--max-m must be >= 2, got {args.max_m}")
    if args.k is not None and not args.rav_jr_search:
        raise ValueError(f"--k applies only with --rav-jr-search, got --k {args.k}")
    if args.rav_jr_search:
        # exploratory only: no verdict is asserted either way
        k = args.k if args.k is not None else 3
        if k < 1:
            raise ValueError(f"--k must be >= 1, got {k}")
        if args.max_m < k:
            raise ValueError(f"--max-m must be >= --k ({k}), got {args.max_m}")
        found = 0
        for profile, _, _ in _oracle_instances(
            args.seed, args.trials, args.max_n, args.max_m, min_m=max(2, k)
        ):
            committee = rules.compute_rule(profile, k, rules.RuleSpec("rav"))
            report = axioms.check_jr(profile, k, committee)
            if report.failed:
                found += 1
                sys.stderr.write(
                    serialize_profile(profile, k, ["sequential rule misses representation here"])
                )
        _emit(
            [
                ("command", "oracle"),
                ("mode", "rav-jr-search"),
                ("k", str(k)),
                ("trials", str(args.trials)),
                ("violations", str(found)),
            ],
            args.format,
            started,
        )
        return EXIT_OK

    entries = [
        (axiom, entry) for axiom, entry in axioms.AXIOMS.items()
        if entry.oracle and args.axiom in ("all", axiom)
    ]
    disagreements = 0
    for profile, k, committee in _oracle_instances(
        args.seed, args.trials, args.max_n, args.max_m
    ):
        for axiom, entry in entries:
            for ell in range(1, k + 1) if entry.leveled else (None,):
                fast = entry.check(profile, k, committee, ell).passed
                naive = entry.oracle(profile, k, committee, ell)
                if fast != naive:
                    disagreements += 1
                    sys.stderr.write(
                        f"disagreement axiom={axiom} ell={ell} committee={_fmt(committee)}\n"
                    )
                    sys.stderr.write(serialize_profile(profile, k))
    _emit(
        [
            ("command", "oracle"),
            ("axiom", args.axiom),
            ("trials", str(args.trials)),
            ("disagreements", str(disagreements)),
            ("verdict", "pass" if disagreements == 0 else "fail"),
        ],
        args.format,
        started,
    )
    return EXIT_OK if disagreements == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse fills a new namespace."""
    from . import axioms, rules

    parser = argparse.ArgumentParser(
        prog="jrvoting",
        description="Approval committee rules and representation axiom checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "machine"), default="human",
            help="output style (machine = byte-stable key=value lines)",
        )

    p = sub.add_parser("compute", help="run a voting rule on a profile file")
    p.add_argument("--rule", required=True, choices=rules.RULE_NAMES)
    p.add_argument("--k", type=_integer)
    p.add_argument("--weights", help="comma-separated rationals for wpav/wrav")
    p.add_argument("--tiebreak", choices=("lex", "prefer-jr"), default="lex")
    p.add_argument("--budget", type=_integer, help="search node limit")
    add_format(p)
    p.add_argument("file", help="profile document path, or - for stdin")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("check", help="check an axiom for a given committee")
    p.add_argument("--axiom", required=True, help="jr | ell-jr:<level> | ejr | sjr | unanimity")
    p.add_argument("--committee", required=True, help="comma-separated candidate indices")
    p.add_argument("--k", type=_integer)
    add_format(p)
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("find", help="construct a committee satisfying an axiom")
    p.add_argument("--axiom", required=True, help="jr | ell-jr:<level>")
    p.add_argument("--k", type=_integer)
    add_format(p)
    p.add_argument("file")
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("corpus", help="emit or verify a named fixture")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", default=[], help="key=value, repeatable")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit", action="store_true", help="print the fixture profile (default)")
    group.add_argument("--verify", action="store_true", help="replay the fixture expectations")
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("reduce", help="build the committee instance for a bipartite graph")
    p.add_argument("--graph", required=True, help="graph document path, or - for stdin")
    p.add_argument("--ell", type=_integer, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("random", help="emit a random profile")
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--culture", required=True, help="uniform:P | fixed:S | urn:G:C")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("oracle", help="cross-check fast axiom checkers against brute force")
    oracle_axioms = tuple(name for name, axiom in axioms.AXIOMS.items() if axiom.oracle)
    p.add_argument("--axiom", choices=oracle_axioms + ("all",), default="all")
    p.add_argument("--trials", type=_integer, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    p.add_argument("--max-m", type=_integer, default=7, dest="max_m")
    p.add_argument(
        "--rav-jr-search",
        action="store_true",
        help="instead search random profiles for sequential-rule representation failures",
    )
    p.add_argument("--k", type=_integer, help="committee size for --rav-jr-search")
    add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _fixture_errors() -> tuple[type[Exception], ...]:
    """`corpus.FixtureParameterError` once `corpus` is loaded: only a command
    that loaded it can raise it, so a command that runs without it does not
    load it to name the error."""
    corpus = sys.modules.get(f"{__package__}.corpus")
    return (corpus.FixtureParameterError,) if corpus is not None else ()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    The argument parser is built once per process, on the first call, so an
    in-process caller that runs many commands skips its set-up on every
    later call; a single shell invocation builds it once either way and is
    no faster.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except ProfileParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ProfileError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExhausted as exc:
        best = exc.best_committee
        print(
            f"budget exhausted after {exc.nodes_explored} nodes"
            + (f"; best so far {_fmt(best)}" if best else ""),
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except _fixture_errors() as exc:
        print(f"fixture parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, not of the input; exit 1 means "axiom fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
