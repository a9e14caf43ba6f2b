"""Profile document grammar, command exit codes, machine output stability."""

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

    def test_budget_exhausted(self, run, tmp_path):
        fixture = build_fixture("sec4_intro")
        path = tmp_path / "intro.profile"
        path.write_text(serialize_profile(fixture.profile, fixture.k))
        code, _, err = run(
            "compute", "--rule", "pav", "--budget", "2", str(path)
        )
        assert code == EXIT_BUDGET and "budget" in err

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
