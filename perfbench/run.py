"""polyloop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a polyloop source tree. The seeded job list of the
workload (workloads.py) runs as a closed loop with one client: each job is a
fresh `python -m polyloop ...` process, or `python perfbench/child.py api ...`
for library-call jobs, started only after the previous one exited. A job
with `--jobs 2` adds two pool workers, so at most two processes are busy at
once. Passes over the list repeat while another pass fits in S seconds.
Every job's exit code and output are checked against expected.json and the
closed-form checks of its class; any mismatch counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes, with times scaled to a fixed machine speed (see REF_CODE).
--trace 1 runs one untraced pass, then traced passes in which every child is
started through child.py with span tracing, and reports the per-layer
metrics, unscaled. The line before the last one of stdout is a run record
(machine, load, commit, source line counts, per-job percentiles with their
sample count, raw seconds); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the tree holds no polyloop sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("complexes", "homology", "series", "spacealg", "decomp", "cli")
JOB_TIMEOUT_S = 60
FIRST_PROBES = 10  # setup probes before the first pass; three more follow each pass

# On a shared host the speed of every process drifts by 20-80% within
# minutes, so end-to-end times are scaled to a fixed machine speed. An
# untraced pass runs this reference task, which shares no code with polyloop,
# in a fresh interpreter at its start and end and after every REF_EVERY_S
# seconds of jobs; a time t is reported as t * REF_S / (median reference time
# of its pass). The task is memory-heavy because that tracks the drift of
# polyloop's object-heavy work better than a small loop does. Raw times are
# kept in the run record.
REF_CODE = """
xs = [((i * 7919) % 100003, (i * 31) % 977, i) for i in range(200000)]
xs.sort()
d = {x: x[1] for x in xs[::2]}
print(sum(d.values()) % 1000)
"""
REF_OUT = b"822\n"
REF_S = 0.3
REF_EVERY_S = 3.5


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit: int
    stdout_bytes: int = 0


@dataclass
class PassResult:
    samples: list[Sample]
    traces: list[dict]
    refs: list[float]
    elapsed_s: float  # including reference tasks and checks

    @property
    def wall_s(self) -> float:
        """Time the client spent waiting on the pass's jobs."""
        return sum(s.wall_s for s in self.samples)


class Runner:
    """Starts jobs one at a time and checks what they produce."""

    def __init__(self, tmp: Path, expected: dict) -> None:
        self.tmp = tmp
        self.pass_dir = tmp / "pass"
        self.expected = expected
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp)}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, job: workloads.Job | None, stdout: Path, stderr: Path,
              trace: Path | None) -> Sample:
        """Run one job, or the reference task for job None, to its exit."""
        if job is None:
            argv = [sys.executable, "-c", REF_CODE]
        elif trace is not None or job.api:
            argv = [sys.executable, str(HERE / "child.py")]
            if trace is not None:
                argv += ["--trace", str(trace)]
            argv += ["api" if job.api else "cli", *job.argv]
        else:
            argv = [sys.executable, "-m", "polyloop", *job.argv]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.tmp)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)

    def output(self, job: workloads.Job, sample: Sample, stdout: Path) -> tuple[bytes, str | None]:
        """The job's output (stdout, or its --out file) and a problem, if any."""
        data = stdout.read_bytes()
        sample.stdout_bytes = len(data)
        if job.out is None:
            return data, None
        problem = "wrote to stdout despite --out" if data else None
        return (Path(job.out).read_bytes() if os.path.exists(job.out) else b""), problem

    def check(self, job: workloads.Job, sample: Sample, stdout: Path, stderr: Path) -> bool:
        """Count the job as attempted and record it as failed if its exit
        code or output is wrong. Returns True when it passed."""
        self.attempted += 1
        data, problem = self.output(job, sample, stdout)
        want = self.expected.get(job.key)
        digest = hashlib.sha256(data).hexdigest()
        if problem:
            pass
        elif sample.exit != job.exit:
            err = stderr.read_bytes().decode("utf-8", "replace").strip()[-300:]
            problem = f"exit {sample.exit}, documented {job.exit}: {err}"
        elif want is None:
            problem = "no expected output recorded"
        elif [sample.exit, digest] != want:
            problem = f"exit {sample.exit} sha256 {digest[:12]}, expected {want[0]} {want[1][:12]}"
        elif job.check is not None:
            try:
                problem = job.check(data)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            self.failures.append(f"{job.key}: {problem}")
        return not problem

    def reference(self) -> float:
        out, err = self.tmp / "ref.out", self.tmp / "ref.err"
        sample = self.spawn(None, out, err, None)
        if sample.exit != 0 or out.read_bytes() != REF_OUT:
            raise RuntimeError(f"reference task failed: {err.read_text(errors='replace')}")
        return sample.wall_s

    def probe(self) -> float:
        out, err = self.tmp / "probe.out", self.tmp / "probe.err"
        sample = self.spawn(workloads.PROBE, out, err, None)
        self.check(workloads.PROBE, sample, out, err)
        return sample.wall_s

    def run_pass(self, jobs: list[workloads.Job], traced: bool) -> PassResult:
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir()
        files = [(self.pass_dir / f"{i}.out", self.pass_dir / f"{i}.err",
                  self.pass_dir / f"{i}.trace" if traced else None) for i in range(len(jobs))]
        t0 = time.perf_counter()
        samples: list[Sample] = []
        refs = [] if traced else [self.reference()]
        since = 0.0
        for job, f in zip(jobs, files):
            samples.append(self.spawn(job, *f))
            since += samples[-1].wall_s
            if not traced and since >= REF_EVERY_S:
                refs.append(self.reference())
                since = 0.0
        if not traced and since > 0:
            refs.append(self.reference())
        traces = []
        for job, sample, (out, err, trace) in zip(jobs, samples, files):
            passed = self.check(job, sample, out, err)
            if traced:
                child = {"names": [], "spans": [], "import_s": None}
                if trace.exists():
                    child = json.loads(trace.read_text(encoding="utf-8"))
                elif passed:
                    self.failed += 1
                    self.failures.append(f"{job.key}: traced child wrote no trace")
                child["cache"] = job.cache
                child["api"] = job.api
                child["stdout_bytes"] = sample.stdout_bytes
                traces.append(child)
        return PassResult(samples, traces, refs, time.perf_counter() - t0)


def run_passes(runner: Runner, jobs, traced: bool, seconds: float, start: float,
               one: bool, probes: list[float] | None = None) -> list[PassResult]:
    """Passes while another one fits before start + seconds; at least one."""
    passes: list[PassResult] = []
    while True:
        passes.append(runner.run_pass(jobs, traced))
        if probes is not None:
            probes += [runner.probe() for _ in range(3)]
        typical = statistics.median(p.elapsed_s for p in passes)
        if one or time.perf_counter() - start + typical > seconds:
            return passes


def src_lines() -> dict[str, int]:
    out = {}
    for mod in MODULES:
        path = ROOT / "src" / "polyloop" / f"{mod}.py"
        out[f"{mod}.src_lines"] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    return out


def run_record(workload: str, seed: int, load_before: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyloop").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "src_lines": src_lines(),
    }


def timings(passes: list[PassResult], probes: list[float], scale: list[float], run_scale: float) -> dict:
    """Pass, job and setup times, each pass's times multiplied by its scale.
    Per-job percentiles stay in the run record: on the symbolic and oracle
    workloads they are the times of one or two large jobs, too noisy to gate."""
    times = [s.wall_s * f for p, f in zip(passes, scale) for s in p.samples]
    return {
        "wall_s": statistics.median(p.wall_s * f for p, f in zip(passes, scale)),
        "setup_s": statistics.median(probes) * run_scale,
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
    }


def end_to_end(passes: list[PassResult], probes: list[float]) -> tuple[dict, dict]:
    refs = [r for p in passes for r in p.refs]
    metrics = timings(passes, probes, [REF_S / statistics.median(p.refs) for p in passes],
                      REF_S / statistics.median(refs))
    metrics["peak_rss_mb"] = max(s.rss_kb for p in passes for s in p.samples) / 1024
    return metrics, {
        "passes": len(passes),
        "job_samples": sum(len(p.samples) for p in passes),
        "job_percentiles_s": {k: metrics[k] for k in ("job_p50_s", "job_p90_s")},
        "setup_samples": len(probes),
        "ref_samples": len(refs),
        "ref_median_s": statistics.median(refs),
        "raw_seconds": timings(passes, probes, [1.0] * len(passes), 1.0),
    }


def per_layer(untraced: list[PassResult], traced: list[PassResult]) -> tuple[dict, dict]:
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(p.traces)
        m["cli.import_s"] = statistics.median(
            c["import_s"] for c in p.traces if c["import_s"] is not None)
        m["cli.stdout_bytes"] = sum(c["stdout_bytes"] for c in p.traces if not c["api"])
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["cli.child_cpu_s"] = statistics.median(sum(s.cpu_s for s in p.samples) for p in untraced)
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                       / statistics.median(p.wall_s for p in untraced))
    metrics.update(src_lines())
    return metrics, {"untraced_passes": len(untraced), "traced_passes": len(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: the cheapest job of each class, one pass")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="expected exit codes and stdout hashes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyloop" / "cli.py").is_file():
        print(f"perfbench: no polyloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)

    load_before = os.getloadavg()[0]
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        (tmp / "inputs").mkdir()
        runner = Runner(tmp, expected)
        jobs = workloads.job_list(args.workload, args.seed, tmp / "inputs", runner.pass_dir,
                                  tiny=args.tiny)
        # compile bytecode and warm the file cache before anything is timed
        runner.probe()
        if args.trace:
            out, err = tmp / "warm.out", tmp / "warm.err"
            sample = runner.spawn(workloads.PROBE, out, err, tmp / "warm.trace")
            runner.check(workloads.PROBE, sample, out, err)
        if args.trace == 0:
            probes = [runner.probe() for _ in range(FIRST_PROBES)]
            passes = run_passes(runner, jobs, False, args.seconds, time.perf_counter(),
                                args.tiny, probes)
            metrics, counts = end_to_end(passes, probes)
            wanted = bench["end_to_end"]
        else:
            start = time.perf_counter()
            untraced = [runner.run_pass(jobs, traced=False)]
            traced = run_passes(runner, jobs, True, args.seconds, start, args.tiny)
            metrics, counts = per_layer(untraced, traced)
            wanted = bench["per_layer"]
        record = run_record(args.workload, args.seed, load_before)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    record.update(counts, jobs_per_pass=len(jobs), failures=runner.failures[:10])
    record["failed_ratio"] = runner.failed / runner.attempted
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
