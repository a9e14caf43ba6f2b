"""Tests of the benchmark itself: determinism of its counters, its output
checks and its tracing hooks.  Kept to cheap jobs so they run in seconds."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import crosscheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jrvoting import cli, rules, solver  # noqa: E402


def _cheap_jobs():
    """One small job of each kind per workload; together they exercise every
    layer in about a second."""
    jobs, kinds = [], set()
    for name, build in workloads.BUILDERS.items():
        for job in build(7).jobs:
            kind = (name, job.command, job.info.get("rule"), job.info.get("axiom"))
            small = job.profile is None or job.profile.n * job.profile.m <= 2000
            if job.command == "verify":
                small = job.info["fixture"] in ("thm4", "thm7")
            if small and kind not in kinds:
                kinds.add(kind)
                jobs.append(job)
    checks = [j for j in workloads.paper_audit(7).jobs if j.command == "check"]
    jobs += [j for j in checks if j.info["axiom"] == "ejr"][:1]
    jobs += [j for j in checks if j.info["axiom"] == "unanimity"][:1]
    return jobs


def _traced_counters(argvs):
    tracer = tracing.Tracer()
    with tracer.installed():
        results = run.run_pass(cli, argvs, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.errors, [r[3] for r in results])
    return results, {name: metrics[name] for name in tracing.DETERMINISTIC}


def test_counters_repeat_exactly_and_outputs_pass_crosschecks():
    workload = workloads.Workload("cheap", "test", _cheap_jobs())
    argvs = run.prepare(workload)
    first_results, first = _traced_counters(argvs)
    second_results, second = _traced_counters(argvs)
    assert first == second
    assert first["solver.nodes"] > 0 and first["rules.filtered_jr_checks"] > 0
    assert first["axioms.ejr_levels"] > 0 and first["corpus.expectations"] > 0
    assert first["cli.parse_bytes"] > 0 and first["corpus.expectation_failures"] == 0
    assert [r[1:3] for r in first_results] == [r[1:3] for r in second_results]
    for job, (_, code, stdout, _) in zip(workload.jobs, first_results):
        assert crosscheck.check_output(job, code, stdout) is None, job.argv


def test_tracer_restores_every_binding():
    original = solver.optimize_committee
    with tracing.Tracer().installed():
        assert rules.optimize_committee is not original
        assert rules.optimize_committee is solver.optimize_committee
    assert rules.optimize_committee is original and solver.optimize_committee is original


def test_crosscheck_rejects_wrong_outputs():
    workload = workloads.exhaustive_distinct(7)
    job = next(j for j in workload.jobs if j.info.get("rule") == "ujrav")
    argv = run.prepare(workloads.Workload("wrong", "test", [job]))[0]
    (_, code, stdout, _), = run.run_pass(cli, [argv])
    assert crosscheck.check_output(job, code, stdout) is None
    fields = crosscheck.parse_machine(stdout)
    members = [int(c) for c in fields["committee"].split(",")]
    moved = sorted(set(members[1:]) | {next(c for c in range(job.profile.m) if c not in members)})
    wrong = stdout.replace(fields["committee"], ",".join(map(str, moved)))
    assert crosscheck.check_output(job, code, wrong) is not None
    assert crosscheck.check_output(job, code, stdout.replace(fields["score"], "0")) is not None

    failing = next(
        j for j in workloads.paper_audit(7).jobs
        if j.command == "check" and j.info["axiom"] == "unanimity"
    )
    argv = run.prepare(workloads.Workload("wrong", "test", [failing]))[0]
    (_, code, stdout, _), = run.run_pass(cli, [argv])
    assert code == 1 and crosscheck.check_output(failing, code, stdout) is None
    size = crosscheck.parse_machine(stdout)["witness.size"]
    assert crosscheck.check_output(failing, code, stdout.replace(f"size={size}", "size=1")) is not None
    assert crosscheck.check_output(failing, 0, stdout) is not None


def test_tail_keeps_ten_jobs_beyond():
    for count in (11, 24, 43, 100):
        p = run.tail_percentile(count)
        values = list(range(count))
        beyond = sum(1 for v in values if v > run.nearest_rank(values, p))
        assert beyond >= 10 and (p == 99 or count - run.nearest_rank(values, p + 1) - 1 < 10)
