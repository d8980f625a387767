"""End-to-end benchmark of the reproduction pipeline.

One run measures one workload for a fixed time::

    python3 benchmarks/e2e/run.py --workload report-cold --seed 0 \\
        --seconds 25 --trace 0 [--timeline trace.json]

Every job runs in a fresh child process (``jobs.py``), one after the
other (a closed loop with one client).  The last line of standard output
is one JSON object: with ``--trace 0`` the end-to-end metrics (medians
over the run's jobs; ``setup_s`` also over ``SETUP_PROBES`` set-up-only
jobs), with ``--trace 1`` the per-layer metrics of traced
jobs, interleaved with untraced ones to measure the tracing overhead.
``--timeline FILE`` writes the last traced job as Chrome trace-event JSON.
Workloads and metrics come from ``BENCHMARK.json`` at the checkout root.

Other commands::

    python3 benchmarks/e2e/run.py suite --out A.json
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py golden

``suite`` runs every workload round-robin ``SUITE_REPS`` times with seeds
0, 1, ..., then one traced run per workload, and prints each metric's
median, quartiles and sample count; ``compare`` judges B against A per
workload and metric; ``golden`` re-records ``golden.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from summary import quartiles, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = HERE / "golden.json"
#: Scratch space for caches, reports and spans, inside the checkout; a
#: run deletes its own subdirectory when it ends.
WORK_ROOT = HERE / ".work"

REPORT_WORKLOADS = ("report-cold", "report-warm")
#: Jobs a run makes even past its time budget: a traced run needs one
#: untraced job to measure the overhead, and setup_s is a median over
#: several set-ups.
MIN_JOBS = 2
#: Set-up-only jobs a run adds after its timed jobs, so that setup_s is a
#: median over several set-ups.
SETUP_PROBES = 4
#: A job that has not finished after this long is killed and counted as
#: failed.
JOB_TIMEOUT_S = 60.0
#: Seeds 0..GOLDEN_SEEDS-1 have recorded digests for the seeded workloads.
GOLDEN_SEEDS = 16
#: Runs per workload of ``suite``.
SUITE_REPS = 10
#: ``compare`` calls setup_s worse only past its bound or this many
#: seconds, whichever is larger.
SETUP_FLOOR_S = 0.05


@functools.cache
def contract() -> dict:
    """``BENCHMARK.json``: the workloads, the metrics and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> tuple:
    return tuple(workload["name"] for workload in contract()["workloads"])


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Child jobs


def child_env(work: Path, cache: Path) -> dict:
    """The environment of a job: the checkout's program, one BLAS thread,
    scratch files inside the work directory, and no inherited ``REPRO_*``
    setting that could change what the program does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(work),
        REPRO_CACHE_DIR=str(cache),
    )
    return env


def run_job(workload: str, seed: int, work: Path, cache: Path, *,
            traced: bool = False, timeline: str = None,
            setup_only: bool = False) -> dict:
    """Run one job in a fresh process; returns its record.

    A record with ``"failed"`` set stands for a job that crashed, timed
    out or wrote nothing.  The job runs in its own session, which is
    killed afterwards so no pool worker outlives it.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / "record.json"
    spans = work / "spans"
    out.unlink(missing_ok=True)
    shutil.rmtree(spans, ignore_errors=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "jobs.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--t0", repr(t0),
           "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    if timeline:
        cmd += ["--timeline", timeline]
    if setup_only:
        cmd += ["--setup-only"]
    with open(work / "job.log", "w", encoding="utf-8") as job_log:
        process = subprocess.Popen(cmd, cwd=ROOT, env=child_env(work, cache),
                                   stdout=job_log, stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    elapsed = time.monotonic() - t0
    if code != 0 or not out.is_file():
        tail = (work / "job.log").read_text(errors="replace")[-2000:]
        log(f"{workload} job failed ({code}):\n{tail}")
        return {"failed": f"exit {code}", "elapsed_s": elapsed}
    record = json.loads(out.read_text())
    record["elapsed_s"] = elapsed
    return record


def expected_digest(workload: str, seed: int):
    """The golden digest of this job's output, or None to fall back to
    agreement between the run's jobs (other library versions, or a seed
    without a recorded digest)."""
    try:
        golden = json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return None
    if golden["versions"] != versions():
        return None
    if workload in REPORT_WORKLOADS:
        return golden["report"]
    return golden[workload].get(str(seed))


def judge(records: list, workload: str, seed: int) -> int:
    """Mark each job record failed or not; returns the failure count."""
    expected = expected_digest(workload, seed)
    if expected is None:
        log(f"{workload} seed {seed}: no golden digest for these library "
            f"versions and seed; requiring all jobs of the run to agree")
        digests = [r["digest"] for r in records if "failed" not in r]
        expected = statistics.mode(digests) if digests else None
    failed = 0
    for record in records:
        if "failed" not in record:
            if record["problems"]:
                record["failed"] = "; ".join(record["problems"])
            elif record["digest"] != expected:
                record["failed"] = f"digest {record['digest'][:16]} != " \
                                   f"expected {str(expected)[:16]}"
        if "failed" in record:
            failed += 1
            log(f"{workload} job failed: {record['failed']}")
    return failed


# ---------------------------------------------------------------------- #
# One run


def measure(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    work = WORK_ROOT / str(os.getpid())
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, work: Path) -> int:
    """Start jobs until the next one is not expected to end within
    ``--seconds`` of the start, the warm report's cache fill included."""
    workload, seed = args.workload, args.seed
    timeline = os.path.abspath(args.timeline) if args.timeline else None
    cache = work / "cache"
    start = time.monotonic()
    fills = []
    if workload == "report-warm":
        # Each warm run reads the cache its own cold run just filled.
        fills.append(run_job("report-cold", seed, work / "fill", cache))
        if judge(fills, "report-cold", seed):
            log("could not fill the cache for report-warm")
            return 1

    records = []
    while True:
        if workload == "report-cold":
            shutil.rmtree(cache, ignore_errors=True)
        traced = bool(args.trace) and len(records) % 2 == 1
        record = run_job(workload, seed, work / "job", cache, traced=traced,
                         timeline=timeline if traced else None)
        record["traced"] = traced
        records.append(record)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["elapsed_s"] for r in records)
        if len(records) >= MIN_JOBS and elapsed + typical > args.seconds:
            break

    probes = []
    for _ in range(SETUP_PROBES):
        if workload == "report-cold":
            shutil.rmtree(cache, ignore_errors=True)
        probes.append(run_job(workload, seed, work / "job", cache,
                              setup_only=True))
    failed = judge(records, workload, seed)
    failed += sum("failed" in p for p in probes)
    done = [r for r in records if "wall_s" in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        log(f"{workload}: no job completed")
        return 1
    for r in done:
        log(f"{workload} {'traced ' if r['traced'] else ''}job: wall "
            f"{r['wall_s']:.3f} s (raw {r['raw_wall_s']:.3f}), set-up "
            f"{r['setup_s']:.3f} s (raw {r['raw_setup_s']:.3f}), cpu "
            f"{r['cpu_s']:.3f} s (raw "
            f"{r['raw_cpu_s']:.3f}), peak {r['peak_rss_mb']:.0f} MB")
    if args.trace:
        metrics = trace_metrics(plain, traced)
    else:
        # Every job sets up the same way, the warm report's fill included.
        samples = {"setup_s": [r for r in fills + done + probes
                               if "setup_s" in r]}
        metrics = {
            m["name"]: {
                "value": statistics.median(
                    r[m["name"]] for r in samples.get(m["name"], plain)),
                "unit": m["unit"],
            }
            for m in contract()["end_to_end"]
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(fills) + len(records) + len(probes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def trace_metrics(plain: list, traced: list) -> dict:
    """Per-layer medians over traced jobs, plus the tracing overhead."""
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    return {
        m["name"]: {
            "value": overhead if m["name"] == "tracing.overhead_s" else
            statistics.median(r["layers"][m["name"]] for r in traced),
            "unit": m["unit"],
        }
        for m in contract()["per_layer"]
    }


# ---------------------------------------------------------------------- #
# suite / compare / golden


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, trace: int, timeline=None) -> dict:
    """One ``run.py`` run in a child; a crash counts as one failed job."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(contract()["run_seconds"]),
           "--trace", str(trace)]
    if timeline:
        cmd += ["--timeline", str(timeline)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def suite(args) -> int:
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **versions(),
        "loadavg_before": os.getloadavg(),
    }
    out = Path(args.out)
    runs = {w: [] for w in workloads()}
    # Round-robin, so machine drift spreads evenly over the workloads.
    for rep in range(SUITE_REPS):
        for workload in workloads():
            result = one_run(workload, rep, 0)
            runs[workload].append(result)
            log(f"rep {rep} {workload}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
    traced = {}
    for workload in workloads():
        timeline = out.with_name(f"{out.stem}.{workload}.trace.json")
        traced[workload] = one_run(workload, 0, 1, timeline)
    host["loadavg_after"] = os.getloadavg()

    summary = {"host": host, "run_seconds": contract()["run_seconds"],
               "reps": SUITE_REPS, "workloads": {}}
    for workload, results in runs.items():
        everything = results + [traced[workload]]
        attempted = sum(r["attempted"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        metrics = {}
        for m in contract()["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if m["name"] in r["metrics"]]
            if values:
                metrics[m["name"]] = {"unit": m["unit"], "values": values,
                                      **quartiles(values)}
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "metrics": metrics,
            "per_layer": traced[workload]["metrics"],
        }
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print_suite(summary)
    log(f"wrote {out}")
    return 0


def print_suite(summary: dict) -> None:
    print(f"{'workload':<14s} {'metric':<12s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'n':>3s}  unit")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<14s} {name:<12s} {m['median']:>10.4f} "
                  f"{m['q1']:>10.4f} {m['q3']:>10.4f} {m['n']:>3d}  "
                  f"{m['unit']}")
        print(f"{workload:<14s} {'error_rate':<12s} "
              f"{entry['error_rate']:>10.4f} "
              f"({entry['failed']}/{entry['attempted']} jobs failed)")
    print()
    workloads = list(summary["workloads"])
    print(f"{'per-layer (traced run)':<42s}"
          + "".join(f"{w:>14s}" for w in workloads))
    for m in contract()["per_layer"]:
        cells = [summary["workloads"][w]["per_layer"].get(m["name"])
                 for w in workloads]
        print(f"{m['name'] + ' (' + m['unit'] + ')':<42s}" + "".join(
            f"{c['value']:>14.4g}" if c else f"{'-':>14s}" for c in cells))


def compare(args) -> int:
    a = json.loads(Path(args.a).read_text())["workloads"]
    b = json.loads(Path(args.b).read_text())["workloads"]
    print(f"{'workload':<14s} {'metric':<12s} {'A median [q1, q3]':>28s} "
          f"{'B median [q1, q3]':>28s} {'bound':>6s}  verdict")
    worse = False
    for workload in workloads():
        if workload not in a or workload not in b:
            continue
        for metric in contract()["end_to_end"]:
            name = metric["name"]
            ma = a[workload]["metrics"].get(name)
            mb = b[workload]["metrics"].get(name)
            if not ma or not mb:
                continue
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            result = verdict(ma["values"], mb["values"], metric["better"],
                             metric["bound"], floor)
            worse |= result == "worse"
            cells = [f"{m['median']:.4f} [{m['q1']:.4f}, {m['q3']:.4f}]"
                     for m in (ma, mb)]
            print(f"{workload:<14s} {name:<12s} {cells[0]:>28s} "
                  f"{cells[1]:>28s} {metric['bound']:>6.0%}  {result}")
        ea, eb = a[workload]["error_rate"], b[workload]["error_rate"]
        result = "worse" if eb > ea else "within bound"
        worse |= eb > ea
        print(f"{workload:<14s} {'error_rate':<12s} {ea:>28.4f} "
              f"{eb:>28.4f} {0:>6.0%}  {result}")
    return 1 if worse else 0


def golden(args) -> int:
    """Record the output digests of this commit into ``golden.json``."""
    work = WORK_ROOT / f"golden-{os.getpid()}"
    data = {"versions": versions(), "report": None,
            "sim-sweep": {}, "thermal-sweep": {}}
    try:
        record = run_job("report-cold", 0, work / "report", work / "cache")
        if "failed" in record or record["problems"]:
            log(f"report job failed: {record}")
            return 1
        data["report"] = record["digest"]
        for workload in ("sim-sweep", "thermal-sweep"):
            for seed in range(GOLDEN_SEEDS):
                record = run_job(workload, seed, work / "job", work / "cache")
                if "failed" in record or record["problems"]:
                    log(f"{workload} seed {seed} failed: {record}")
                    return 1
                data[workload][str(seed)] = record["digest"]
                log(f"{workload} seed {seed}: {record['digest'][:16]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(data, indent=2) + "\n")
    log(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("suite", "compare", "golden"):
        parser = argparse.ArgumentParser(prog="run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        p = sub.add_parser("suite", help="every workload, round-robin, "
                                         "then one traced run each")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=suite)
        p = sub.add_parser("compare", help="judge B's runs against A's")
        p.add_argument("a")
        p.add_argument("b")
        p.set_defaults(fn=compare)
        p = sub.add_parser("golden", help="re-record golden.json")
        p.set_defaults(fn=golden)
    else:
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=workloads())
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--timeline",
                            help="write the last traced job as Chrome "
                                 "trace-event JSON")
        parser.set_defaults(fn=measure)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
