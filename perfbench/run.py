"""Benchmark for wcl: CLI drivers run end to end, untraced and traced.

One run of one workload, the form used for measurements:

    python3 perfbench/run.py --workload pairs-mem --seed 3 --seconds 40 --trace 0

times ``import wcl.cli`` in three fresh processes, then starts passes of
the workload until ``--seconds`` have passed.  Each pass is a fresh
process that also times the import first; ``setup_s`` is the median of
all these import times.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it give every metric with its unit, the failure
breakdown and the environment.

Every workload, untraced and then traced, with the tracing overhead:

    python3 perfbench/run.py [--seed N] [--seconds S]

which also writes ``perfbench/out/summary.json`` and the spans of each
traced pass.  Exit code 1 if any operation failed or the traced self
times do not add up to the traced wall time within 5 %.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from instrument import LAYER_SELF, PER_LAYER
from workload import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
IMPORT_PROBES = 3  # extra fresh imports per untraced run, for setup_s
SELF_SUM_TOLERANCE = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WCL_THREADS", None)  # serial drivers: one client, no MC threads
    env.pop("PYTHONPATH", None)
    return env


def run_child(tmp: Path, tag: str, args: list[str], timeout: float):
    """Run workload.py; its result dict, or None if the process failed."""
    result = tmp / f"{tag}.json"
    log = tmp / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "workload.py"), "--result", str(result), *args]
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"perfbench: {tag} exited with {code}: " + " | ".join(tail), file=sys.stderr)
        return None
    return json.loads(result.read_text())


def op_failures(op: dict) -> Counter:
    """Why one driver call failed; empty when it passed."""
    why = Counter()
    if op["exception"] is not None:
        why[f"exception.{op['exception']}"] += 1
    if op["exit_code"] not in (0, None):
        why["exit_code"] += 1
    if op["failed_rows"]:
        why["failed_rows"] += op["failed_rows"]
    if op["digest"] is None and op["exception"] is None:
        why["missing_report"] += 1
    return why


def tally(passes: list, n_ops: int):
    """(attempted, failed, reasons) over passes of one seed.  A pass is a
    list of op records, or None when its process died.  An op fails when
    it raised, exited non-zero, had a failed row, wrote no report, or
    wrote a report.json whose digest differs from the first pass's."""
    attempted = failed = 0
    reasons = Counter()
    first_digest = {}
    for ops in passes:
        if ops is None:
            attempted += n_ops
            failed += n_ops
            reasons["crashed_pass"] += 1
            continue
        for i, op in enumerate(ops):
            attempted += 1
            why = op_failures(op)
            if op["digest"] is not None:
                if first_digest.setdefault(i, op["digest"]) != op["digest"]:
                    why["digest_mismatch"] += 1
            if why:
                failed += 1
                reasons.update(why)
    return attempted, failed, dict(reasons)


def tail_percentile(samples: list[float]):
    """(p, value) for the highest percentile with at least ten samples
    above it, or None when that is not above the median."""
    xs = sorted(samples)
    rank = len(xs) - 10  # 1-based rank with ten samples beyond it
    if rank < 1 or 2 * rank <= len(xs):
        return None
    return 100.0 * rank / len(xs), xs[rank - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: passes of ``workload`` until ``seconds`` have passed."""
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    start = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    try:
        setup = []
        for k in range(0 if trace else IMPORT_PROBES):
            probe = run_child(tmp, f"probe{k}", ["--import-only"], left())
            if probe is None:
                raise BenchError("import wcl.cli failed")
            setup.append(probe["import_s"])
        passes = []
        measured = time.perf_counter()
        while not passes or time.perf_counter() - measured < seconds:
            k = len(passes)
            args = ["--workload", workload, "--seed", str(seed),
                    "--out", str(tmp / f"pass{k}")] + (["--trace"] if trace else [])
            passes.append(run_child(tmp, f"pass{k}", args, left()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [p for p in passes if p is not None]
    if not done:
        raise BenchError(f"no pass of {workload} completed")
    attempted, failed, reasons = tally([p and p["ops"] for p in passes],
                                       len(WORKLOADS[workload]))
    walls = [p["wall_s"] for p in done]
    setup += [p["import_s"] for p in done]
    run = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": failed, "failures": reasons,
        "failed_frac": failed / attempted,
        "passes": len(passes), "wall_s_samples": walls,
        "wall_s_tail_percentile": tail_percentile(walls),
        "setup_s_samples": setup,
    }
    if trace:
        run["metrics"] = {name: (statistics.median(p["layers"][name] for p in done), unit)
                          for name, unit, _ in PER_LAYER}
        spans_file = OUT / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps(done[-1]["spans"]))
        run["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        run["metrics"] = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in done), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    return run


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "WCL_THREADS": os.environ.get("WCL_THREADS", "unset") + " (unset in passes)",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def print_run(run: dict) -> None:
    for name, (value, unit) in run["metrics"].items():
        print(f"{run['workload']} {name} = {value:.6g} {unit}")
    detail = {k: v for k, v in run.items() if k != "metrics"}
    print(json.dumps(detail))


def result_line(run: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    })


def run_all(seed: int, seconds: float) -> int:
    runs = {w: {"untraced": measure(w, seed, seconds, False)} for w in WORKLOADS}
    for w in WORKLOADS:
        runs[w]["traced"] = measure(w, seed, seconds, True)
    ok = True
    summary = {"environment": environment(), "seed": seed, "seconds": seconds,
               "workloads": {}}
    for w, pair in runs.items():
        untraced, traced = pair["untraced"], pair["traced"]
        print_run(untraced)
        print_run(traced)
        wall = untraced["metrics"]["wall_s"][0]
        traced_wall = traced["metrics"]["trace.wall_s"][0]
        self_sum = sum(traced["metrics"][m][0] for m in LAYER_SELF.values()) / traced_wall
        adds_up = abs(self_sum - 1.0) <= SELF_SUM_TOLERANCE
        failed_frac = (untraced["failed"] + traced["failed"]) / (
            untraced["attempted"] + traced["attempted"])
        print(f"{w} failed_frac = {failed_frac:.6g} ratio")
        print(f"{w} tracing_overhead_s = {traced_wall - wall:.6g} s "
              f"({(traced_wall - wall) / wall:+.1%} of untraced wall_s)")
        print(f"{w} self times sum to {self_sum:.4f} of traced wall_s "
              f"({'within' if adds_up else 'OUTSIDE'} {SELF_SUM_TOLERANCE:.0%})")
        ok = ok and adds_up and failed_frac == 0
        summary["workloads"][w] = {"untraced": untraced, "traced": traced,
                                   "failed_frac": failed_frac,
                                   "tracing_overhead_s": traced_wall - wall}
    print(json.dumps({"environment": summary["environment"]}))
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {(OUT / 'summary.json').relative_to(ROOT)}")
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # runs the finally blocks that stop passes


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="wcl end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one run of one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0, help="master seed of the drivers")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "wcl" / "cli.py").is_file():
        print(f"perfbench: no wcl source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_run(run)
    print(json.dumps({"environment": environment()}))
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
