"""End-to-end and per-layer benchmark of the jrvoting command line.

    python3 bench/run.py --workload thiele-urn --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The benchmark generates the workload's job list from the seed
(see `workloads.py`), writes the profile documents under ``.bench_work/``
and then calls `jrvoting.cli.main(argv)` in-process, one job after
another: a closed loop with one client and no threads.  It runs whole
passes over the job list until ``--seconds`` have elapsed.

Every job's exit code and ``--format machine`` output is checked: against
the outputs recorded in ``expected/`` for the recorded seed, and otherwise by
the independent checks in `crosscheck.py`.  Later passes must repeat the
first pass's output byte for byte.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced passes (see `tracing.py`) and reports
per-layer metrics, the tracing overhead and deterministic counters, which
must agree between traced passes.

``--record`` re-records ``expected/<workload>.json`` for the recorded seed
after cross-checking every output.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected"
RECORDED_SEED = 0
IMPORT_SPAWNS = 9
TAIL_BEYOND = 10

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import jrvoting.cli; "
    "print(time.perf_counter() - t)"
)

# Host speed.  On a shared machine the same code runs up to half again as
# slow for stretches from a fraction of a second to minutes.  Every timed
# job sits between two runs of a fixed reference loop that never touches
# the library; a job's time is scaled by REFERENCE_S over the mean of its
# two neighbouring reference times, i.e. reported as seconds on a host that
# runs the loop in REFERENCE_S.
REFERENCE_S = 0.002
_REFERENCE_RNG = random.Random(5)
_REFERENCE_WORDS = [_REFERENCE_RNG.getrandbits(40) for _ in range(60_000)]
_REFERENCE_PICKS = [_REFERENCE_RNG.randrange(60_000) for _ in range(6_000)]


def _reference_work() -> int:
    """Bit counts over a cache-sized and a large table, tuple, dictionary and
    rational arithmetic, and a sort: the kinds of work the library does."""
    total = 0
    small = _REFERENCE_WORDS[:300]
    for w in range(0, 300, 10):
        for word in small:
            total += (word & small[w]).bit_count()
    for w in _REFERENCE_PICKS[:100]:
        for j in _REFERENCE_PICKS[::60]:
            total += (_REFERENCE_WORDS[j] & _REFERENCE_WORDS[w]).bit_count()
    groups: dict[int, tuple] = {}
    for i in range(1000):
        key = i * 7919 % 1009
        groups[key] = groups.get(key, ()) + (i,)
    acc = Fraction(0)
    for j in range(1, 80):
        acc += Fraction(j, j * j + 1)
    return total + len(groups) + acc.denominator % 7 + len(sorted(_REFERENCE_WORDS[:3000:3]))


def reference_time() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def measure_import(spawns: int) -> tuple[float, float]:
    """Median seconds a fresh interpreter spends in `import jrvoting.cli`,
    scaled to the reference host speed, and unscaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    before = reference_time()
    for spawn in range(spawns + 1):  # the first spawn also writes bytecode caches
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        after = reference_time()
        if spawn:
            raw.append(float(done.stdout))
            scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def prepare(workload) -> list[list[str]]:
    """Write the profile documents; return each job's argv."""
    folder = WORK / workload.name
    folder.mkdir(parents=True, exist_ok=True)
    written: dict[int, str] = {}
    argvs = []
    for i, job in enumerate(workload.jobs):
        path = None
        if job.profile is not None:
            path = written.get(id(job.profile))
            if path is None:
                path = str(folder / f"profile-{len(written):03d}.txt")
                Path(path).write_text(job.profile.document(), encoding="utf-8")
                written[id(job.profile)] = path
        argvs.append([path if arg == "{profile}" else arg for arg in job.argv])
    return argvs


def inputs_digest(workload) -> str:
    digest = hashlib.sha256()
    for job in workload.jobs:
        digest.update(json.dumps(job.argv).encode())
        digest.update((job.profile.document() if job.profile else "").encode())
    return digest.hexdigest()


def run_pass(cli, argvs, tracer=None) -> list[tuple[float, int, str, float]]:
    """Run every job once; (seconds, exit code, stdout, host scale) per job,
    where seconds * host scale is the job's time at the reference speed."""
    results = []
    before = reference_time()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = i
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        after = reference_time()
        results.append((elapsed, code, out.getvalue(), 2 * REFERENCE_S / (before + after)))
        before = after
    return results


class OutputCheck:
    """Counts job executions whose output is wrong."""

    def __init__(self, workload, recorded):
        self.jobs = workload.jobs
        self.recorded = recorded
        self.verdicts: dict[tuple, object] = {}
        self.first: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _verdict(self, i: int, code: int, stdout: str):
        key = (i, code, stdout)
        if key not in self.verdicts:
            if self.recorded is not None:
                want = tuple(self.recorded[i])
                reason = None if (code, stdout) == want else f"differs from recorded {want!r}"
            else:
                import crosscheck

                reason = crosscheck.check_output(self.jobs[i], code, stdout)
            self.verdicts[key] = reason
            if reason is not None:
                self.reasons.append(f"job {i} {' '.join(self.jobs[i].argv[:3])}: {reason}")
        return self.verdicts[key]

    def add(self, results) -> None:
        for i, (_, code, stdout, _) in enumerate(results):
            self.attempted += 1
            first = self.first.setdefault(i, (code, stdout))
            if first != (code, stdout) or self._verdict(i, code, stdout) is not None:
                self.failed += 1


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it."""
    return max(0, math.floor(100 * (count - TAIL_BEYOND) / count))


def end_to_end(workload, passes, check: OutputCheck, setup: tuple[float, float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    """A job's time is the median over passes of its host-scaled time."""
    import workloads

    count = len(workload.jobs)
    job_s = [statistics.median(p[i][0] * p[i][3] for p in passes) for i in range(count)]
    per_job = sorted(t * 1000 for t in job_s)
    tail_p = tail_percentile(count)
    passed_share = (check.attempted - check.failed) / check.attempted
    metrics = {
        "jobs_per_s": (passed_share * count / sum(job_s), "1/s"),
        "job_ms_p50": (nearest_rank(per_job, 50), "ms"),
        "job_ms_tail": (nearest_rank(per_job, tail_p), "ms"),
    }
    for command in workloads.COMMANDS:
        total = sum(t for t, job in zip(job_s, workload.jobs) if job.command == command)
        metrics[f"{command}_s"] = (total, "s")
    metrics["setup_s"] = (setup[0], "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    raw_s = statistics.median(sum(r[0] for r in p) for p in passes)
    scale = statistics.median(r[3] for p in passes for r in p)
    notes = [
        f"job_ms_tail is p{tail_p} of {count} jobs, each the median of {len(passes)} passes",
        f"failed_ops {check.failed} of {check.attempted} job runs",
        f"unscaled: pass {raw_s:.3f} s, setup {setup[1]:.4f} s; median host scale {scale:.3f}",
    ]
    return metrics, notes


def per_layer(workload, traced, untraced, tracer_passes) -> tuple[dict, list[str], bool]:
    """Times are host-scaled like the end-to-end ones; the overhead is the
    median over adjacent untraced and traced passes of their difference.
    Counters come from the first traced pass and must repeat in every other
    traced pass."""
    import tracing
    from jrvoting.core import normalize_profile

    import crosscheck

    layer_runs = [
        tracing.layer_metrics(spans, errors, [r[3] for r in results])
        for (spans, errors), results in zip(tracer_passes, traced)
    ]
    steady = all(
        run[name] == layer_runs[0][name] for run in layer_runs for name in tracing.DETERMINISTIC
    )
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        metrics[name] = values[0] if name in tracing.DETERMINISTIC else statistics.median(values)
    traced_s = [sum(r[0] * r[3] for r in p) for p in traced]
    untraced_s = [sum(r[0] * r[3] for r in p) for p in untraced]
    metrics["trace.untraced_ms"] = statistics.median(untraced_s) * 1000
    metrics["trace.overhead_ms"] = statistics.median(t - u for t, u in zip(traced_s, untraced_s)) * 1000

    profiles = {id(j.profile): j.profile for j in workload.jobs if j.profile is not None}
    voters = sum(p.n for p in profiles.values())
    groups = sum(
        len(normalize_profile(crosscheck.library_profile(p)).ballots) for p in profiles.values()
    )
    metrics["core.voters"] = voters
    metrics["core.groups_per_voter"] = groups / voters if voters else 0.0

    def unit(name: str) -> str:
        if name.endswith("_ms"):
            return "ms"
        if name.endswith("us_per_node"):
            return "us"
        if name.endswith("_bytes"):
            return "bytes"
        if name.endswith(("_ratio", "_per_voter")):
            return "ratio"
        return "count"

    notes = [f"{len(layer_runs)} traced and {len(untraced)} untraced passes"]
    if not steady:
        notes.append("deterministic counters differ between traced passes")
    return {name: (value, unit(name)) for name, value in metrics.items()}, notes, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected outputs")
    args = parser.parse_args(argv)

    if not (SRC / "jrvoting" / "cli.py").is_file():
        print(f"error: no jrvoting sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.record:
        args.seed = RECORDED_SEED

    setup = measure_import(IMPORT_SPAWNS) if not (args.record or args.trace) else (0.0, 0.0)
    workload = workloads.BUILDERS[args.workload](args.seed)
    argvs = prepare(workload)
    from jrvoting import cli

    expected_path = EXPECTED / f"{workload.name}.json"
    recorded = None
    if args.seed == RECORDED_SEED and not args.record:
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
        if expected["inputs_sha256"] != inputs_digest(workload):
            print(f"error: {expected_path} was recorded for other inputs; re-record with --record",
                  file=sys.stderr)
            return 3
        recorded = expected["outputs"]
    check = OutputCheck(workload, recorded)

    if args.record:
        results = run_pass(cli, argvs)
        check.add(results)
        if check.failed:
            print("\n".join(check.reasons), file=sys.stderr)
            return 1
        EXPECTED.mkdir(exist_ok=True)
        expected_path.write_text(json.dumps({
            "seed": RECORDED_SEED,
            "inputs_sha256": inputs_digest(workload),
            "outputs": [[code, out] for _, code, out, _ in results],
        }, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(results)} outputs to {expected_path}")
        return 0

    started = time.perf_counter()
    untraced, traced, tracer_passes = [], [], []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        while not traced or time.perf_counter() - started < args.seconds:
            untraced.append(run_pass(cli, argvs))
            tracer.reset()
            with tracer.installed():
                traced.append(run_pass(cli, argvs, tracer))
            tracer_passes.append((tracer.spans, tracer.errors))
        spans_path = WORK / workload.name / "spans.tsv"
        with open(spans_path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tjob\n")
            for span in tracer_passes[0][0]:
                handle.write(f"{span.name}\t{span.start:.9f}\t{span.end:.9f}\t{span.parent}\t{span.job}\n")
    else:
        while not untraced or time.perf_counter() - started < args.seconds:
            untraced.append(run_pass(cli, argvs))

    # before the output checks, whose arrays are the benchmark's, not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for results in untraced + traced:
        check.add(results)
    if args.trace:
        metrics, notes, steady = per_layer(workload, traced, untraced, tracer_passes)
    else:
        metrics, notes = end_to_end(workload, untraced, check, setup, peak_rss_mb)
        steady = True

    print(f"workload {workload.name} seed {args.seed}: "
          + json.dumps(workloads.record(workload), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    for line in notes + check.reasons[:20]:
        print(line)
    print(json.dumps({
        "correct": check.failed == 0 and steady,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
