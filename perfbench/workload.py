"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload mc-light --seed 7 --out DIR --result FILE [--trace]

Times ``import wcl.cli``, then runs the workload's CLI drivers one after
another through ``wcl.cli.cli_main`` (a closed loop with one client: the
next driver starts when the previous one returns; ``fac-g`` is the one
op run outside the CLI, see ``fac_g_stages``) and writes one JSON
result: the import time, the pass wall time, the process's peak RSS and
one record per driver call.  With ``--trace`` every layer is wrapped in
spans (see ``instrument``) and the result adds the per-layer metrics.
``--import-only`` stops after the timed import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each workload is a tuple of driver argument lists.  Seed, output
# directory and --quiet are appended per call.
WORKLOADS = {
    # Five light drivers at their CLI default budgets: sampling and O(n)
    # functionals, no pair tables.  A pair-kernel change must not move it.
    "mc-light": (("selftest",), ("bridge",), ("rice",), ("kac",), ("sweep",)),
    # The two pair kernels.  First the G_eps stages of `wcl fac` (see
    # fac_g_stages), whose KL-tail and Holder diagnostics evaluate G_eps
    # again on the FAC study's paths; then the chaos-term tables, which set
    # the peak RSS, and the 4000-node leggauss oracle, whose cost does not
    # depend on the sample count.  One workload rather than two: alone,
    # the short G_eps pass gave run-to-run spreads near the wall_s bound.
    "pairs-mem": (("fac-g", "--steps", "256", "--samples", "500"),
                  ("chaos", "--steps", "256", "--samples", "250")),
}


def fac_g_stages(argv) -> int:
    """The G_eps stages of ``wcl fac`` with the driver's arguments, rows and
    gates, written by wcl's own report writer; called like ``cli_main``.

    The driver's first stage, the endpoint-kernel ratios, fails its gate
    or raises IllConditionedDenominator on about a third of seeds at this
    budget (README), which would leave the pair kernel unmeasured on those
    seeds; so this op runs the stages after it.
    """
    from wcl import experiments as ex
    from wcl import fac
    from wcl.functionals import SelfIntersection
    from wcl.processes import BrownianMotion, TimeGrid

    parser = argparse.ArgumentParser(prog=argv[0])
    for flag in ("--steps", "--samples", "--seed"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv[1:])
    config = ex.ExperimentConfig("fac", n_steps=args.steps, n_samples=args.samples,
                                 seed=args.seed, out_dir=args.out)
    grid = TimeGrid(config.n_steps)
    bm2 = BrownianMotion(2)
    family = lambda eps: SelfIntersection(eps, (0.4, 0.3))
    coarse_grid = [1.0, 0.5, 0.1]
    full_grid = sorted(set(config.eps_grid) | set(coarse_grid), reverse=True)
    study = fac.uniform_fac_study(bm2, family, full_grid, degree=4, n_random_polys=20,
                                  mc=fac.MCConfig(min(config.n_samples, 3000), config.seed),
                                  grid=grid, family_name="SelfIntersection")
    coarse_sup = max(r for e, r in zip(study.eps_grid, study.max_ratios)
                     if e in coarse_grid)
    rows = [ex.ReportRow("g_family_sup_ratio", study.sup_ratio),
            ex.ReportRow("g_family_plateau_factor", study.sup_ratio / coarse_sup, None,
                         1.0, config.tolerance("plateau", 1.0))]
    diag_mc = fac.MCConfig(min(config.n_samples, 2000), config.seed)
    tail = fac.tail_moment_diagnostic(bm2, family, [1.0, 0.1], basis_size=8,
                                      mc=diag_mc, grid=grid)
    analytic_tail = sum(fac.bm_kl_second_moment(k) for k in range(1, 9)) * 2
    rows.append(ex.ReportRow("kl_tail_n1_unweighted", tail.unweighted_tails[0],
                             tail.unweighted_std_errors[0], analytic_tail,
                             config.tolerance("kl_tail", 0.0)))
    hold = fac.holder_moment_diagnostic(
        bm2, family, [1.0, 0.1], m0=2,
        time_pairs=[(0.125, 0.25), (0.25, 0.5), (0.25, 0.75), (0.5, 1.0)],
        mc=diag_mc, grid=grid)
    for eps, expo, se in zip(hold.eps_grid, hold.exponents, hold.exponent_std_errors):
        rows.append(ex.ReportRow(f"holder_exponent_eps{eps:g}", expo, se, 2.0,
                                 config.tolerance("holder", 0.5)))
    report = ex.ExperimentReport(config, rows)
    report.write()
    return 0 if report.all_passed else 1


# ops the benchmark runs itself rather than through wcl.cli.cli_main
LOCAL_OPS = {"fac-g": fac_g_stages}


def gate_margins(report) -> list[float]:
    """(gate - |estimate - oracle|) / gate for every gated report row,
    with the report's pass rule gate = max(tolerance, 3 * std_error)."""
    margins = []
    for row in report["rows"]:
        if row["oracle"] is None:
            continue
        gate = max(row["tolerance"] or 0.0, 3.0 * (row["std_error"] or 0.0))
        if gate > 0:
            margins.append((gate - abs(row["estimate"] - row["oracle"])) / gate)
    return margins


def run_op(cli_main, argv, out_dir) -> dict:
    """Run one driver call; whatever it does, return a record of it."""
    record = {"argv": list(argv), "exit_code": None, "exception": None,
              "failed_rows": 0, "digest": None, "margin": None}
    try:
        record["exit_code"] = cli_main([*argv, "--out", str(out_dir), "--quiet"])
    except Exception as exc:  # a raising driver is a failed operation
        record["exception"] = type(exc).__name__
    path = Path(out_dir) / "report.json"
    if path.is_file():
        data = path.read_bytes()
        record["digest"] = hashlib.sha256(data).hexdigest()
        try:
            report = json.loads(data)
            record["failed_rows"] = sum(row["passed"] is False for row in report["rows"])
            margins = gate_margins(report)
        except (ValueError, KeyError, TypeError):
            record["exception"] = record["exception"] or "UnreadableReport"
        else:
            record["margin"] = min(margins) if margins else None
    return record


def run_pass(cli_main, ops, seed, out_root) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        out_dir = Path(out_root) / f"{i}-{op[0]}"
        main = LOCAL_OPS.get(op[0], cli_main)
        records.append(run_op(main, [*op, "--seed", str(seed)], out_dir))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="directory for the drivers' reports")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.import_only and None in (args.workload, args.seed, args.out):
        parser.error("--workload, --seed and --out are required")

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import wcl.cli
    result = {"import_s": time.perf_counter() - start}
    if not args.import_only:
        # reports record their output directory, so every pass writes to
        # the same relative paths to keep report digests comparable
        Path(args.out).mkdir(parents=True, exist_ok=True)
        os.chdir(args.out)
        result.update(measure_pass(wcl.cli.cli_main, WORKLOADS[args.workload],
                                   args.seed, ".", args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


def measure_pass(cli_main, ops, seed, out_root, trace) -> dict:
    if not trace:
        start = time.perf_counter()
        records = run_pass(cli_main, ops, seed, out_root)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "ops": records}

    import instrument
    from spans import Tracer

    tracer, counters = Tracer(), instrument.Counters()
    instrument.install(tracer, counters)
    traced_main = tracer.wrap("cli.cli_main", cli_main)
    start = time.perf_counter()
    root = tracer.open("bench.pass")
    records = run_pass(traced_main, ops, seed, out_root)
    tracer.close(root)
    wall = time.perf_counter() - start
    margins = [r["margin"] for r in records if r["margin"] is not None]
    layers = instrument.layer_metrics(tracer.spans, counters, wall,
                                      min(margins) if margins else 1.0)
    spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "ops": records,
            "layers": layers, "spans": spans}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


if __name__ == "__main__":
    sys.exit(main())
