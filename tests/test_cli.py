"""Profile document grammar, command exit codes, machine output stability."""

import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from jrvoting import rules
from jrvoting.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ProfileParseError,
    main,
    parse_graph,
    parse_profile,
    serialize_profile,
)
from jrvoting.core import BallotProfile, normalize_profile
from jrvoting.corpus import build_fixture

from conftest import naive_parse_profile, random_instances


class TestParseProfile:
    def test_rotated_pairs_document(self):
        text = "m 4\nk 2\n1: 0 1\n1: 0 2\n1: 3 1\n1: 3 2\n"
        profile, k = parse_profile(text)
        assert k == 2
        assert profile == build_fixture("example5").profile

    def test_empty_ballot_line(self):
        profile, k = parse_profile("m 2\n1:\n")
        assert k is None
        assert profile.n == 1 and profile.ballots[0].approved == frozenset()

    def test_duplicate_index_rejected_with_line(self):
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile("m 3\n2: 0 0\n")
        assert excinfo.value.line == 2

    def test_index_out_of_range_rejected_with_line(self):
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile("m 3\n# fine\n1: 0 3\n")
        assert excinfo.value.line == 3

    def test_unknown_line_rejected(self):
        with pytest.raises(ProfileParseError):
            parse_profile("m 2\nvoters 3\n1: 0\n")

    def test_header_requirements(self):
        with pytest.raises(ProfileParseError):
            parse_profile("1: 0\nm 2\n")
        with pytest.raises(ProfileParseError):
            parse_profile("k 2\n1: 0\n")
        with pytest.raises(ProfileParseError):
            parse_profile("m 2\nm 2\n1: 0\n")
        with pytest.raises(ProfileParseError):
            parse_profile("m 2\n")

    def test_duplicate_k_header_rejected_with_line(self):
        with pytest.raises(ProfileParseError, match="duplicate k header") as excinfo:
            parse_profile("m 3\nk 2\nk 1\n1: 0\n")
        assert excinfo.value.line == 3

    def test_bad_numbers(self):
        with pytest.raises(ProfileParseError):
            parse_profile("m x\n1: 0\n")
        with pytest.raises(ProfileParseError):
            parse_profile("m 2\nzero: 0\n")
        with pytest.raises(ProfileParseError):
            parse_profile("m 2\n0: 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("m 3\n1: 0_1 2\n", 2),  # int() would read candidates {1, 2}
            ("m 4\n# Arabic-Indic three\n1: \u0663\n", 3),
            ("m 3\n1: +1\n", 2),
            ("m +3\n1: 1\n", 1),
            ("m 1_0\n1: 1\n", 1),
            ("m 3\nk \uff12\n1: 1\n", 2),  # fullwidth two
            ("m 3\n1_0: 1\n", 2),
            ("m 3\n+2: 1\n", 2),
        ],
    )
    def test_numbers_are_ascii_decimal_digits(self, text, line):
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile(text)
        assert excinfo.value.line == line

    def test_negative_index_keeps_its_range_message(self):
        with pytest.raises(ProfileParseError, match="out of range") as excinfo:
            parse_profile("m 3\n1: 0 -1\n")
        assert excinfo.value.line == 2

    def test_non_ascii_comments_are_ignored(self):
        profile, _ = parse_profile("# \u00fcber_alles + \u0663\nm 2\n1: 1\n")
        assert profile.ballots[0].approved == {1}

    def test_comments_and_blank_lines_ignored(self):
        profile, _ = parse_profile("# header\n\nm 2\n# ballots\n2: 1\n")
        assert profile.n == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(
            lambda m, groups: BallotProfile.from_groups(
                m, [(frozenset(c % m for c in g), mult) for g, mult in groups] or [((), 1)]
            ),
            st.integers(1, 6),
            st.lists(
                st.tuples(st.frozensets(st.integers(0, 5), max_size=6), st.integers(1, 9)),
                max_size=5,
            ),
        )
    )
    def test_round_trip_identity_on_normalized_profiles(self, profile):
        normalized = normalize_profile(profile)
        reparsed, k = parse_profile(serialize_profile(normalized, k=1))
        assert k == 1
        assert reparsed == normalized
        # and a second pass through the formatter is byte-stable
        assert serialize_profile(reparsed, k=1) == serialize_profile(normalized, k=1)


    @staticmethod
    def _valid_documents(seed, count):
        """Valid documents in the spellings the grammar allows: repeated
        ballot lines, ``01`` and ``-0``, tabs and runs of spaces, CRLF
        endings, comments and blank lines between ballots, a k header before
        or after the ballots, and empty ballots."""
        rng = random.Random(f"documents|{seed}")

        def gap():
            return rng.choice([" ", "  ", "\t", " \t "])

        def spell(c):
            return rng.choice([str(c), str(c), f"0{c}", "-0" if c == 0 else str(c)])

        for _ in range(count):
            m = rng.randint(1, 12)
            body, written = [], []
            for _ in range(rng.randint(1, 12)):
                if written and rng.random() < 0.4:
                    body.append(rng.choice(written))
                else:
                    approved = rng.sample(range(m), rng.randint(0, m))
                    line = rng.choice(["", " ", "\t"]) + f"{rng.randint(1, 5)}:"
                    line += "".join(gap() + spell(c) for c in approved)
                    written.append(line)
                    body.append(line)
                if rng.random() < 0.25:
                    body.append(rng.choice(["", "   ", "# between ballots", "\t# indented"]))
            k_line = f"k {rng.randint(1, m)}"
            if rng.random() < 0.5:
                body.append(k_line)
            elif rng.random() < 0.8:
                body.insert(0, k_line)
            newline = rng.choice(["\n", "\r\n"])
            yield newline.join(["# seeded", f"m {m}"] + body) + newline

    def test_documents_parse_as_the_token_by_token_reference(self):
        repeated = 0
        for text in self._valid_documents(seed=5, count=300):
            profile, k = parse_profile(text)
            assert (profile, k) == naive_parse_profile(text), text
            repeated += len(profile.ballots) - len(set(map(id, profile.ballots)))
        assert repeated > 100

    def test_repeated_lines_share_one_ballot(self):
        profile, _ = parse_profile("m 3\n2: 0 1\n1: 2\n 2: 0 1\t\n2: 1 0\n")
        first, _, again, swapped = profile.ballots
        assert again is first and swapped == first and swapped is not first
        assert profile.n == 7 and len(profile.ballots) == 4

    def test_huge_m_header_allocates_by_document_size(self):
        tracemalloc.start()
        try:
            profile, _ = parse_profile("m 100000000\n1: 99999999 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.num_candidates == 100_000_000
        assert profile.ballots[0].approved == {0, 99_999_999}
        assert peak < 1_000_000


class TestParseGraph:
    def test_good_document(self):
        graph = parse_graph("# graph\nL 2 R 3\nedge 0 0\nedge 1 2\n")
        assert graph.left_size == 2 and graph.right_size == 3
        assert graph.edges == {(0, 0), (1, 2)}

    def test_errors(self):
        with pytest.raises(ProfileParseError):
            parse_graph("edge 0 0\n")
        with pytest.raises(ProfileParseError):
            parse_graph("L 2 R 2\nedge 0 0\nedge 0 0\n")
        with pytest.raises(ProfileParseError):
            parse_graph("L 2 R 2\nedge 0 5\n")
        with pytest.raises(ProfileParseError):
            parse_graph("L 2 Q 2\n")

    @pytest.mark.parametrize(
        "text, line", [("L 2 R \u0663\n", 1), ("L 2 R 2\nedge 0 0_1\n", 2), ("L 2 R 2\nedge +1 0\n", 2)]
    )
    def test_numbers_are_ascii_decimal_digits(self, text, line):
        with pytest.raises(ProfileParseError) as excinfo:
            parse_graph(text)
        assert excinfo.value.line == line


@pytest.fixture()
def thm7_file(tmp_path):
    fixture = build_fixture("thm7")
    path = tmp_path / "thm7.profile"
    path.write_text(serialize_profile(fixture.profile, fixture.k))
    return str(path)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--rule", "pav", "--format", "machine"),
            ("check", "--axiom", "ejr", "--committee", "0,1,2,3,4,5,6,7,8,9", "--format", "machine"),
        ],
    )
    def test_document_from_stdin(self, run, thm7_file, monkeypatch, argv):
        with open(thm7_file) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        piped = run(*argv, "-")
        assert piped[0] in (EXIT_OK, EXIT_FAIL) and piped[1]
        assert piped == run(*argv, thm7_file)

    def test_compute_sequential_on_1199_voters(self, run, thm7_file):
        code, out, _ = run(
            "compute", "--rule", "rav", "--k", "10", "--format", "machine", thm7_file
        )
        assert code == EXIT_OK
        assert "committee=0,1,2,3,4,5,6,7,8,9" in out

    def test_check_fails_with_witness(self, run, thm7_file):
        code, out, _ = run(
            "check",
            "--axiom",
            "jr",
            "--committee",
            "0,1,2,3,4,5,6,7,8,9",
            "--format",
            "machine",
            thm7_file,
        )
        assert code == EXIT_FAIL
        assert "verdict=fail" in out
        assert "witness.candidates=10" in out
        assert "witness.size=120" in out

    def test_check_trivial_pass(self, run, tmp_path):
        path = tmp_path / "one.profile"
        path.write_text("m 1\n1: 0\n")
        code, out, _ = run(
            "check", "--axiom", "jr", "--committee", "0", "--k", "1", str(path)
        )
        assert code == EXIT_OK
        assert "verdict: pass" in out

    def test_machine_output_is_byte_identical(self, run, thm7_file):
        args = (
            "check", "--axiom", "ell-jr:2", "--committee", "0,1,2,3,4,5,6,7,8,9",
            "--format", "machine", thm7_file,
        )
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert (code1, out1) == (code2, out2)

    def test_find_level_two_committee(self, run, tmp_path):
        fixture = build_fixture("sec4_intro")
        path = tmp_path / "intro.profile"
        path.write_text(serialize_profile(fixture.profile, fixture.k))
        code, out, _ = run(
            "find", "--axiom", "ell-jr:2", "--format", "machine", str(path)
        )
        assert code == EXIT_OK
        assert "committee=0,1,2" in out

    def test_compute_with_explicit_weights(self, run, tmp_path):
        fixture = build_fixture("sec4_intro")
        path = tmp_path / "intro.profile"
        path.write_text(serialize_profile(fixture.profile, fixture.k))
        code, out, _ = run(
            "compute", "--rule", "wpav", "--weights", "1,1/2,1/3,1/4",
            "--format", "machine", str(path),
        )
        assert code == EXIT_OK
        assert "committee=0,1,2" in out and "score=148" in out

    def test_compute_prefer_jr_tiebreak(self, run, tmp_path):
        path = tmp_path / "tie.profile"
        path.write_text("m 3\nk 2\n1: 0 1\n1: 2\n")
        code, out, _ = run(
            "compute", "--rule", "av", "--tiebreak", "prefer-jr",
            "--format", "machine", str(path),
        )
        assert code == EXIT_OK and "committee=0,2" in out

    def test_corpus_verify_rotated_pairs(self, run):
        code, out, _ = run("corpus", "--name", "example5", "--verify")
        assert code == EXIT_OK
        assert "verdict=pass" in out

    def test_corpus_emit_round_trips(self, run):
        code, out, _ = run("corpus", "--name", "example5", "--emit")
        assert code == EXIT_OK
        profile, k = parse_profile(out)
        assert k == 2 and profile == build_fixture("example5").profile

    def test_corpus_emit_with_params(self, run):
        code, out, _ = run(
            "corpus", "--name", "thm7_extended", "--param", "k=12", "--emit"
        )
        assert code == EXIT_OK
        profile, k = parse_profile(out)
        assert k == 12 and profile.n == 1199 + 240

    def test_corpus_bad_params_usage_error(self, run):
        code, _, err = run("corpus", "--name", "thm8", "--param", "s=7", "--emit")
        assert code == EXIT_USAGE
        assert "s >= 8" in err

    def test_reduce_complete_graph(self, run, tmp_path):
        path = tmp_path / "k33.graph"
        lines = ["L 3 R 3"] + [f"edge {u} {v}" for u in range(3) for v in range(3)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            "reduce", "--graph", str(path), "--ell", "3", "--format", "machine"
        )
        assert code == EXIT_OK
        assert "n=12" in out and "k=4" in out and "committee=3,4,5,6" in out

    def test_reduce_document_parses_back(self, run, tmp_path):
        path = tmp_path / "k33.graph"
        lines = ["L 3 R 3"] + [f"edge {u} {v}" for u in range(3) for v in range(3)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run("reduce", "--graph", str(path), "--ell", "3")
        assert code == EXIT_OK
        profile, k = parse_profile(out)
        assert profile.n == 12 and k == 4

    def test_random_is_reproducible(self, run):
        args = ("random", "--seed", "3", "--n", "6", "--m", "5", "--k", "2",
                "--culture", "uniform:0.5")
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == EXIT_OK and out1 == out2
        profile, k = parse_profile(out1)
        assert profile.n == 6 and k == 2

    def test_oracle_agreement(self, run):
        code, out, _ = run(
            "oracle", "--trials", "12", "--seed", "1", "--format", "machine"
        )
        assert code == EXIT_OK
        assert "disagreements=0" in out

    def test_oracle_search_mode_asserts_nothing(self, run):
        code, out, _ = run(
            "oracle", "--rav-jr-search", "--k", "3", "--trials", "10",
            "--seed", "2", "--format", "machine",
        )
        assert code == EXIT_OK
        assert "mode=rav-jr-search" in out


class TestExitCodes:
    def test_usage_error_unknown_rule(self, run, thm7_file):
        code, _, _ = run("compute", "--rule", "nonsense", "--k", "3", thm7_file)
        assert code == EXIT_USAGE

    def test_usage_error_missing_k(self, run, tmp_path):
        path = tmp_path / "nok.profile"
        path.write_text("m 2\n1: 0\n")
        code, _, err = run("compute", "--rule", "av", str(path))
        assert code == EXIT_USAGE and "k" in err

    def test_parse_error(self, run, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("m 3\n2: 0 0\n")
        code, _, err = run("check", "--axiom", "jr", "--committee", "0", str(path))
        assert code == EXIT_PARSE and "line 2" in err

    @pytest.mark.parametrize("spec", ["0_1", "+1", "\u0660"])
    def test_committee_numbers_are_ascii_decimal_digits(self, run, tmp_path, spec):
        path = tmp_path / "p.profile"
        path.write_text("m 12\nk 1\n1: 0\n")
        code, out, err = run("check", "--axiom", "jr", "--committee", spec, str(path))
        assert code == EXIT_USAGE and out == "" and "committee" in err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (("check", "--axiom", "ell-jr:{}", "--committee", "0", "FILE"), "\u0661"),
            (("check", "--axiom", "ell-jr:{}", "--committee", "0", "FILE"), "+1"),
            (("compute", "--rule", "av", "--k", "{}", "FILE"), "\u0661"),
            (("compute", "--rule", "pav", "--budget", "{}", "FILE"), "\u0665\u0660"),
            (("find", "--axiom", "jr", "--k", "{}", "FILE"), "0_1"),
            (("random", "--seed", "{}", "--n", "3", "--m", "3", "--k", "1",
              "--culture", "uniform:0.5"), "\u0661"),
            (("random", "--seed", "1", "--n", "3", "--m", "3", "--k", "1",
              "--culture", "fixed:{}"), "\u0662"),
            (("random", "--seed", "1", "--n", "3", "--m", "3", "--k", "1",
              "--culture", "urn:{}:0.5"), "\u0662"),
            (("corpus", "--name", "thm7_extended", "--param", "k={}", "--emit"),
             "\u0661\u0662"),
        ],
    )
    def test_integer_arguments_are_ascii_decimal_digits(self, run, tmp_path, argv, bad):
        path = tmp_path / "p.profile"
        path.write_text("m 3\nk 1\n1: 0 1\n")

        def spell(number):
            return [str(path) if a == "FILE" else a.format(number) for a in argv]

        assert run(*spell(int(bad)))[0] == EXIT_OK
        code, out, _ = run(*spell(bad))
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize(
        "argv, good, bad",
        [
            (("compute", "--rule", "wpav", "--weights", "1,{},0", "FILE"), "1/2", "\u0661/2"),
            (("compute", "--rule", "wpav", "--weights", "{},1/2,0", "FILE"), "10/10", "1_0/10"),
            (("corpus", "--name", "thm8", "--param", "w2={}", "--emit"), "1/2", "\u0661/2"),
            (("random", "--seed", "1", "--n", "3", "--m", "3", "--k", "1",
              "--culture", "uniform:{}"), "0.5", "\u0660.5"),
            (("random", "--seed", "1", "--n", "3", "--m", "3", "--k", "1",
              "--culture", "urn:2:{}"), "0.5", "\u0660.5"),
            (("corpus", "--name", "thm7_extended", "--param", "k={}", "--emit"), "12", "+12"),
            (("corpus", "--name", "thm7_extended", "--param", "k={}", "--emit"), "12", "1_2"),
        ],
    )
    def test_rationals_and_probabilities_are_ascii(self, run, tmp_path, argv, good, bad):
        # `Fraction`, `float` and `int` read non-ASCII digits and `_`
        # separators, and `1_0/10` would be read as 1
        path = tmp_path / "p.profile"
        path.write_text("m 3\nk 1\n1: 0 1\n")

        def spell(number):
            return [str(path) if a == "FILE" else a.format(number) for a in argv]

        assert run(*spell(good))[0] == EXIT_OK
        code, out, err = run(*spell(bad))
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert bad in err

    @pytest.mark.parametrize(
        "argv, good, bad",
        [
            (("corpus", "--name", "thm7_extended", "--param", "k={}", "--emit"), "12", "1.5"),
            (("corpus", "--name", "thm7_extended", "--param", "k={}", "--emit"), "12", "abc"),
            (("corpus", "--name", "thm8", "--param", "s={}", "--verify"), "8", "abc"),
        ],
    )
    def test_integer_fixture_params_name_a_non_integer(self, run, argv, good, bad):
        def spell(value):
            return [a.format(value) for a in argv]

        assert run(*spell(good))[0] == EXIT_OK
        code, out, err = run(*spell(bad))
        name = next(a for a in argv if "=" in a).partition("=")[0]
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert f"parameter {name} " in err and repr(bad) in err

    @pytest.mark.parametrize(
        "argv, good, bad",
        [
            (("corpus", "--name", "thm8", "--param", "w2={}", "--emit"), "1/2", "abc"),
            (("corpus", "--name", "lemma1", "--param", "epsilon={}", "--emit"), "0.25", "abc"),
        ],
    )
    def test_rational_fixture_params_name_a_non_number(self, run, argv, good, bad):
        def spell(value):
            return [a.format(value) for a in argv]

        assert run(*spell(good))[0] == EXIT_OK
        code, out, err = run(*spell(bad))
        name = next(a for a in argv if "=" in a).partition("=")[0]
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert f"fixture {argv[2]}: parameter {name} " in err and repr(bad) in err

    def test_graph_parse_error(self, run, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("L 2 R 2\nedge 0 \u0661\n")
        code, out, err = run("reduce", "--graph", str(path), "--ell", "1")
        assert code == EXIT_PARSE and out == "" and "line 2" in err

    def test_budget_exhausted(self, run, tmp_path):
        fixture = build_fixture("sec4_intro")
        path = tmp_path / "intro.profile"
        path.write_text(serialize_profile(fixture.profile, fixture.k))
        code, _, err = run(
            "compute", "--rule", "pav", "--budget", "2", str(path)
        )
        assert code == EXIT_BUDGET and "budget" in err

    def test_zero_denominator_in_weights_is_a_usage_error(self, run, tmp_path):
        path = tmp_path / "p.profile"
        path.write_text("m 3\nk 2\n1: 0 1\n1: 2\n")
        code, out, err = run("compute", "--rule", "wpav", "--weights", "1,1/0,0", str(path))
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert "1/0" in err

    def test_zero_denominator_in_fixture_param_is_a_usage_error(self, run):
        code, out, err = run("corpus", "--name", "thm8", "--param", "w2=1/0", "--verify")
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert "1/0" in err

    def test_missing_file(self, run):
        code, _, _ = run("compute", "--rule", "av", "--k", "1", "/nope/missing")
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == EXIT_OK

    def test_no_command_is_usage_error(self, run):
        code, _, _ = run()
        assert code == EXIT_USAGE

    def test_internal_error_is_not_an_axiom_failure(self, run, thm7_file, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken rule")

        monkeypatch.setattr(rules, "compute_rule", broken)
        code, out, err = run("compute", "--rule", "pav", "--k", "3", thm7_file)
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error: RuntimeError")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "rule, score", [("pav", "11/6"), ("mav", "1096"), ("ujrav", "3"), ("ejrav", "3")]
    )
    def test_1099_seat_search_has_no_depth_limit(self, run, tmp_path, rule, score):
        path = tmp_path / "deep.profile"
        path.write_text("m 1100\nk 1099\n1: 0 1 2\n")
        code, out, _ = run("compute", "--rule", rule, "--format", "machine", str(path))
        assert code == EXIT_OK
        assert f"committee={','.join(map(str, range(1099)))}" in out.splitlines()
        assert f"score={score}" in out.splitlines()

    @pytest.mark.parametrize("rule", ["rav", "gav", "geometric-rav", "wrav"])
    def test_prefer_jr_rejected_for_sequential_rules(self, run, tmp_path, rule):
        path = tmp_path / "tie.profile"
        path.write_text("m 3\nk 2\n1: 0 1\n1: 2\n")
        weights = ["--weights", "1,1/2,1/3"] if rule == "wrav" else []
        argv = ["compute", "--rule", rule, *weights, str(path)]
        assert run(*argv)[0] == EXIT_OK
        code, out, err = run(*argv[:-1], "--tiebreak", "prefer-jr", str(path))
        assert code == EXIT_USAGE and out == "" and "prefer-jr" in err

    @pytest.mark.parametrize("rule", ["rav", "gav", "geometric-rav", "wrav"])
    def test_budget_rejected_for_sequential_rules(self, run, tmp_path, rule):
        path = tmp_path / "tie.profile"
        path.write_text("m 3\nk 2\n1: 0 1\n1: 2\n")
        weights = ["--weights", "1,1/2,1/3"] if rule == "wrav" else []
        code, out, err = run("compute", "--rule", rule, *weights, "--budget", "0", str(path))
        assert code == EXIT_USAGE and out == "" and "budget" in err

    @pytest.mark.parametrize("rule", ["ujrav", "ejrav"])
    def test_prefer_jr_accepted_for_filtered_rules(self, run, tmp_path, rule):
        path = tmp_path / "tie.profile"
        path.write_text("m 3\nk 2\n1: 0 1\n1: 2\n")
        code, out, _ = run(
            "compute", "--rule", rule, "--tiebreak", "prefer-jr",
            "--format", "machine", str(path),
        )
        assert code == EXIT_OK and "committee=0,2" in out


class TestParseErrorLines:
    # one token of a valid document changed to each kind of bad number or
    # index: the error names the changed line, and the command exits 3
    MUTATIONS = ("non-integer", "underscore", "out-of-range", "duplicate", "zero multiplicity")

    def test_one_bad_token_is_reported_on_its_line(self, run, tmp_path):
        rng = random.Random("parse-error-lines")
        path = tmp_path / "mutated.profile"
        tried = dict.fromkeys(self.MUTATIONS, 0)
        for profile, k in random_instances(seed=909, count=40, max_n=8, max_m=9):
            m = profile.num_candidates
            lines = serialize_profile(profile, k, comments=["seeded"]).splitlines()
            ballots = [i for i, text in enumerate(lines) if ":" in text]
            for kind in self.MUTATIONS:
                # the ballot lines with enough candidate indices to change
                need = {"duplicate": 2, "zero multiplicity": 0}.get(kind, 1)
                fits = [i for i in ballots if len(lines[i].split()) > need]
                if not fits:
                    continue
                index = rng.choice(fits)
                mult, _, rest = lines[index].partition(":")
                indices = rest.split()
                spot = rng.randrange(len(indices)) if indices else 0
                if kind == "non-integer":
                    indices[spot] = rng.choice(["x", "1.5", "\u0663", "+1", "0x1"])
                elif kind == "underscore":
                    indices[spot] = "0_1"
                elif kind == "out-of-range":
                    indices[spot] = str(m + rng.randrange(3))
                elif kind == "duplicate":
                    indices[spot] = indices[spot - 1]
                else:
                    mult = "0"
                mutated = lines[:index] + [f"{mult}: {' '.join(indices)}"] + lines[index + 1:]
                text = "\n".join(mutated) + "\n"
                with pytest.raises(ProfileParseError) as excinfo:
                    parse_profile(text)
                assert excinfo.value.line == index + 1, (kind, text)
                with pytest.raises(ProfileParseError) as reference:
                    naive_parse_profile(text)
                assert str(excinfo.value) == str(reference.value), (kind, text)
                path.write_text(text)
                code, out, err = run("compute", "--rule", "av", "--format", "machine", str(path))
                assert code == EXIT_PARSE and out == "" and f"line {index + 1}:" in err
                tried[kind] += 1
        assert min(tried.values()) >= 10, tried

