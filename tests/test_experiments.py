import collections
import inspect
import json
import math
import tracemalloc

import pytest

from wcl import chaos, fac, functionals, processes
from wcl.cli import build_parser, cli_main
from wcl.experiments import (
    DRIVERS,
    EXPERIMENTS,
    EPS_GRID,
    MAX_STEPS,
    PAIR_MAX_STEPS,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    bridge_weighted_second_moment_quadrature,
    degenerate_outside_mass_quadrature,
    kac_moment_quadrature,
    rice_closed_form,
    rice_quadrature,
    selftest_experiment,
)
from wcl.processes import MAX_SAMPLES

# the optional config keys: each driver takes those of its ``reads`` record
OPTIONAL_KEYS = ("n_samples", "n_steps", "eps_grid", "omega", "u")
# a valid value of each, for every driver that reads it
SETTINGS = {"n_samples": 5000, "n_steps": 1024, "eps_grid": [0.5], "omega": 3.0,
            "u": [0.1, 0.2]}
UNREAD = [(name, key) for name in sorted(DRIVERS) for key in OPTIONAL_KEYS
          if key not in DRIVERS[name].reads]


class TestOracles:
    def test_rice_closed_form(self):
        assert rice_closed_form(2.0 * math.pi, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert rice_closed_form(2.0 * math.pi, 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-14)

    def test_rice_quadrature_matches_closed_form(self):
        for omega in (2.0 * math.pi, 5.0):
            for c in (0.0, 1.0):
                assert rice_quadrature(omega, c) == pytest.approx(
                    rice_closed_form(omega, c), rel=1e-8)

    def test_kac_quadrature(self):
        assert kac_moment_quadrature(1) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-6)
        assert kac_moment_quadrature(2) == pytest.approx(1.0, rel=1e-6)
        # n = 3: Gamma(4) (2 pi)^{-3/2} Gamma(1/2)^3 / Gamma(5/2)
        expect = 6.0 * (2.0 * math.pi) ** -1.5 * math.pi ** 1.5 / math.gamma(2.5)
        assert kac_moment_quadrature(3, rule_nodes=120) == pytest.approx(expect, rel=1e-6)

    def test_bridge_quadrature_limit(self):
        # E[w(1/2)^2 p_eps(w(1))] / E[p_eps(w(1))] by scipy's adaptive 2-D
        # quadrature over w(1) = y ~ N(0, 1) and w(1/2) - y/2 = zeta ~
        # N(0, 1/4), with the densities written out here; it tends to
        # Var B(1/2) = 1/4
        from scipy.integrate import dblquad  # reference only

        def density(x, var):
            return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        for eps in (0.5, 0.1, 0.01):
            # 12 sd of the weighted law of w(1), N(0, eps / (1 + eps)), and of zeta
            half = 12.0 * math.sqrt(eps / (1.0 + eps))

            def weight(zeta, y):
                return density(y, 1.0) * density(y, eps) * density(zeta, 0.25)

            num, den = (dblquad(f, -half, half, -6.0, 6.0, epsabs=0.0, epsrel=1e-12)[0]
                        for f in (lambda z, y: (0.5 * y + z) ** 2 * weight(z, y), weight))
            assert bridge_weighted_second_moment_quadrature(eps) == pytest.approx(
                num / den, rel=1e-9)
        assert bridge_weighted_second_moment_quadrature(1e-12) == pytest.approx(0.25)

    def test_degenerate_mass_vanishes(self):
        big = degenerate_outside_mass_quadrature(1.0, 0.1)
        small = degenerate_outside_mass_quadrature(1e-4, 0.1)
        assert small < 1e-10 < big

    def test_degenerate_mass_matches_scipy_erfc(self):
        # weighted by p_eps, xi ~ N(0, eps / (1 + eps)); a 400-node
        # Gauss-Hermite rule gave 9.2e-108 at eps = 1e-4 and 0.077 at 0.01
        from scipy.special import erfc  # reference only

        for eps in (1e-4, 0.01, 1.0):
            ref = float(erfc(0.1 / math.sqrt(2.0 * eps / (1.0 + eps))))
            assert degenerate_outside_mass_quadrature(eps, 0.1) == pytest.approx(ref, rel=1e-12)
        assert degenerate_outside_mass_quadrature(0.01, 0.1) == pytest.approx(0.3149, rel=1e-3)

    def test_sweep_quadrature_rows_pass_at_small_eps(self):
        # a 500-node rule in t was off by 1.8e-4 at eps = 1e-6, against a
        # 1e-8 gate
        cfg = ExperimentConfig("sweep", n_steps=256, n_samples=100,
                               eps_grid=[1e-4, 1e-5, 1e-6])
        rows = [r for r in EXPERIMENTS["sweep"](cfg).rows
                if r.name.startswith("local_time_mean_quadrature_")]
        assert [r.name for r in rows] == [
            "local_time_mean_quadrature_eps0.0001", "local_time_mean_quadrature_eps1e-05",
            "local_time_mean_quadrature_eps1e-06"]
        for r in rows:
            assert r.passed and abs(r.estimate - r.oracle) <= 1e-13, r.name


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = ExperimentConfig("sweep")
        assert cfg.eps_grid == [1.0, 0.1, 0.01] == EPS_GRID
        # an unset key the driver reads is the driver's default, as on the
        # command line; a key it does not read stays None
        cfg = ExperimentConfig("fac")
        assert (cfg.n_steps, cfg.n_samples) == (512, 10000)
        for name, driver in DRIVERS.items():
            cfg = ExperimentConfig(name)
            assert {k: getattr(cfg, k) for k in OPTIONAL_KEYS} == {
                k: driver.reads.get(k) for k in OPTIONAL_KEYS}
        assert DRIVERS["selftest"].keys() == ["experiment", "seed", "out_dir"]
        # the (driver, key) pairs a config may set, experiment aside
        assert sum(len(DRIVERS[name].keys()) - 1 for name in DRIVERS) == 31
        # each config holds its own copy of a default list
        ExperimentConfig("sweep").eps_grid.append(1e-3)
        ExperimentConfig("chaos").u.append(0.3)
        assert ExperimentConfig("sweep").eps_grid == EPS_GRID == [1.0, 0.1, 0.01]
        assert ExperimentConfig("chaos").u == [0.5]
        with pytest.raises(ValueError):
            ExperimentConfig("rice", n_steps=100)
        with pytest.raises(ValueError):
            ExperimentConfig("rice", n_samples=10)

    def test_from_json(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({
            "experiment": "sweep", "n_steps": 512, "n_samples": 300,
            "seed": 5, "eps_grid": [1.0, 0.5, 0.25],
        }))
        assert cli_main(["sweep", "--config", str(f), "--out", str(tmp_path),
                         "--quiet"]) == 0
        cfg = json.loads((tmp_path / "report.json").read_text())["config"]
        assert cfg["n_steps"] == 512
        assert cfg["seed"] == 5
        assert cfg["eps_grid"] == [1.0, 0.5, 0.25]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="nope"):
            ExperimentConfig("nope")

    def test_out_dir_is_any_path(self, tmp_path):
        # a pathlib.Path is kept as a str, and the report is written whole
        cfg = ExperimentConfig("selftest", out_dir=tmp_path / "out")
        assert cfg.out_dir == str(tmp_path / "out")
        report = DRIVERS["selftest"](cfg)
        report.write()
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["config"]["out_dir"] == cfg.out_dir
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == len(report.rows) + 1
        for out_dir in (5, None, [str(tmp_path)], b"out", ""):
            with pytest.raises(ValueError, match="out_dir must be a non-empty path"):
                ExperimentConfig("selftest", out_dir=out_dir)

    @pytest.mark.parametrize("name, key", UNREAD)
    def test_unread_key_is_refused(self, name, key):
        # a driver takes only the keys it reads, in Python as on the CLI
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(name, **{key: SETTINGS[key]})
        message = str(exc.value)
        assert len(message.splitlines()) == 1
        assert message == (f"{name} takes no config key(s) {key}; "
                           f"its keys are {', '.join(DRIVERS[name].keys())}")

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_report_config_is_the_drivers_keys(self, name):
        report = ExperimentReport(ExperimentConfig(name), [])
        assert sorted(report.to_dict()["config"]) == sorted(DRIVERS[name].keys())

    def test_chaos_dimension_is_that_of_u(self, tmp_path, monkeypatch):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"u": [0.4, 0.3]}))
        models = []
        table = chaos.chaos_term_table

        def recorded(model, *args, **kwargs):
            models.append(model)
            return table(model, *args, **kwargs)

        monkeypatch.setattr(chaos, "chaos_term_table", recorded)
        assert cli_main(["chaos", "--config", str(f), "--steps", "256", "--samples", "100",
                         "--out", str(tmp_path), "--quiet"]) in (0, 1)
        assert [m.d for m in models] == [2]
        data = json.loads((tmp_path / "report.json").read_text())
        assert "dimension" not in data["config"] and data["config"]["u"] == [0.4, 0.3]
        row = data["rows"][0]
        assert row["name"] == "term0_second_moment_eps1"
        assert row["oracle"] == chaos.self_intersection_mean_quadrature(1.0, [0.4, 0.3], 2) ** 2


class TestReportRows:
    def test_pass_rule(self):
        assert ReportRow("a", 1.0, 0.01, 1.005, 0.02).passed is True
        assert ReportRow("a", 1.0, 0.001, 1.5, 0.02).passed is False
        assert ReportRow("a", 1.0).passed is None
        # 3 sigma beats a tighter tolerance
        assert ReportRow("a", 1.0, 0.1, 1.2, 0.0).passed is True

    @pytest.mark.parametrize("estimate, std_error", [
        (math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (-math.inf, None)])
    def test_non_finite_row_fails(self, estimate, std_error):
        # gated or not: an inf std_error would otherwise open a gate of 3 * inf
        assert ReportRow("a", estimate, std_error, 1.0, 0.02).passed is False
        assert ReportRow("a", estimate, std_error).passed is False
        report = ExperimentReport(ExperimentConfig("selftest"), [
            ReportRow("ok", 1.0, 0.0, 1.0, 0.1), ReportRow("info", estimate, std_error)])
        assert not report.all_passed
        assert report.to_dict()["rows"][1]["passed"] is False

    def test_all_passed_ignores_informational_rows(self):
        report = ExperimentReport(ExperimentConfig("selftest"), [
            ReportRow("info", 1.0),
            ReportRow("ok", 1.0, 0.0, 1.0, 0.1),
        ])
        assert report.all_passed


class TestSelftest:
    def test_all_rows_pass(self):
        report = selftest_experiment(ExperimentConfig("selftest"))
        assert report.all_passed
        assert [r.name for r in report.rows] == [
            "hermite_H0", "hermite_H2_at_0", "hermite_H3_at_2", "hermite_bound_a1",
            "heat_kernel_1d", "heat_kernel_2d", "heat_kernel_offset", "simplex_area",
            "simplex_volume", "simplex_beta_pi", "kac_n1", "kac_n2",
            "rice_quadrature_c1", "bridge_term_n0", "bridge_term_n1",
            "bridge_term_n2_at_0", "bridge_variance_n2", "endpoint_bound_H2",
            "endpoint_pairing_H2_quadrature"]

    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig("selftest", out_dir=str(tmp_path))
        report = selftest_experiment(cfg)
        report.write()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["all_passed"] is True
        assert data["config"]["experiment"] == "selftest"
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "name,estimate,std_error,oracle,tolerance,passed"
        assert len(lines) == len(report.rows) + 1

    @pytest.mark.parametrize("name, settings", [
        ("selftest", {}), ("rice", {"n_steps": 256, "n_samples": 2100})],
        ids=["selftest", "rice-2100"])
    def test_byte_identical_reports(self, tmp_path, monkeypatch, name, settings):
        # identical configs must give byte-identical files, Monte Carlo
        # drivers over several replica chunks included
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)  # the config's out_dir is "."
            cfg = ExperimentConfig(name, **settings)
            EXPERIMENTS[name](cfg).write()
            outs.append((d / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestCli:
    def test_registry_covers_spec_subcommands(self):
        assert set(EXPERIMENTS) == {
            "rice", "kac", "bridge", "chaos", "fac", "sweep", "selftest"}

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["selftest", "--seed", "3", "--quiet"])
        assert args.experiment == "selftest"
        assert args.seed == 3

    def test_usage_error_exit_code(self):
        assert cli_main(["not-a-command"]) == 2
        assert cli_main([]) == 2

    def test_selftest_run_exit_zero(self, tmp_path):
        code = cli_main(["selftest", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_declared_model_fields_are_read(self, tmp_path, monkeypatch, name):
        # the optional keys a config may set, budgets included, are exactly
        # those the run reads, and every driver reads its seed but
        # selftest, which takes one because perfbench passes --seed to
        # every driver it runs (ROADMAP item 1)
        read = set()
        lookup = ExperimentConfig.__getattribute__

        def recorded(config, key):
            read.add(key)
            return lookup(config, key)

        budget = {k: v for k, v in [("n_steps", 256), ("n_samples", 100)]
                  if k in DRIVERS[name].reads}
        cfg = ExperimentConfig(name, **budget, out_dir=str(tmp_path))
        monkeypatch.setattr(ExperimentConfig, "__getattribute__", recorded)
        DRIVERS[name](cfg)
        seed = set() if name == "selftest" else {"seed"}
        assert read & {*OPTIONAL_KEYS, "seed"} == set(DRIVERS[name].reads) | seed

    def test_fac_small_budget_runs_to_a_report(self, tmp_path):
        # 100 samples leave the endpoint ratios' H_4 rows heavy-tailed: the
        # driver may fail a gate but must still finish and write its report
        code = cli_main(["fac", "--steps", "256", "--samples", "100", "--seed", "7",
                         "--out", str(tmp_path), "--quiet"])
        assert code in (0, 1)
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, n_samples, calls", [("fac", 2100, 10),
                                                         ("chaos", 1100, 2)])
    def test_each_chunk_drawn_once_per_pass(self, tmp_path, monkeypatch, name,
                                            n_samples, calls):
        # fac: one pass each for the endpoint ratios (3 chunks, 2100 paths),
        # the study (3, 2100), the KL tails (2, 2000) and the Hoelder moments
        # (2, 2000); chaos: one pass over 2 chunks for the whole eps grid.
        # Each draw streams every path of its chunk once, in order
        drawn = []
        sample_blocks = processes.sample_blocks

        def counted(model, grid, seed, n_paths):
            rows = []
            drawn.append((n_paths, rows))
            for block in sample_blocks(model, grid, seed, n_paths):
                rows.extend(range(block[0].start, block[0].stop))
                yield block

        monkeypatch.setattr(processes, "sample_blocks", counted)
        cli_main([name, "--steps", "256", "--samples", str(n_samples),
                  "--out", str(tmp_path), "--quiet"])
        assert len(drawn) == calls
        assert all(rows == list(range(n_paths)) for n_paths, rows in drawn)
        paths = {"fac": 2100 + 2100 + 2000 + 2000, "chaos": 1100}[name]
        assert sum(n_paths for n_paths, _ in drawn) == paths

    @pytest.mark.parametrize("name, n_samples, module, kernel, grids", [
        ("fac", 2100, functionals, "_self_intersection_many", [4]),
        ("chaos", 1100, chaos, "chaos_terms_many", [3])])
    def test_each_chunk_evaluated_once_per_pass(self, tmp_path, monkeypatch, name,
                                                n_samples, module, kernel, grids):
        # each pair-kernel call serves every eps of its pass, whose sizes are
        # ``grids``, and each (path, eps) is evaluated once.  fac: the study
        # (all paths, 4 eps); the KL tails and the Hoelder moments (its first
        # 2000 paths, 2 of its eps) read their G_eps from the memo; chaos:
        # all paths, 3 eps
        evaluated = collections.Counter()
        sizes = set()
        original = getattr(module, kernel)
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            sizes.add(len(bound["eps_grid"]))
            evaluated.update((path.tobytes(), eps) for path in bound["values"]
                             for eps in bound["eps_grid"])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, kernel, counted)
        cli_main([name, "--steps", "256", "--samples", str(n_samples),
                  "--out", str(tmp_path), "--quiet"])
        assert sizes == set(grids)
        assert set(evaluated.values()) == {1}
        assert len(evaluated) == n_samples * sum(grids)

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        # a wrong closed form fails its one selftest row
        monkeypatch.setattr(fac, "endpoint_hermite_bound", lambda n: 0.0)
        code = cli_main(["selftest", "--out", str(tmp_path), "--quiet"])
        assert code == 1
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert [r["name"] for r in rows if not r["passed"]] == ["endpoint_bound_H2"]

    def test_flag_overrides_config(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"experiment": "selftest", "seed": 5}))
        code = cli_main(["selftest", "--config", str(f), "--out", str(tmp_path),
                         "--seed", "77", "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["config"]["seed"] == 77


class TestCliValidation:
    """Invalid settings exit 2 with a one-line message, before any run."""

    def assert_usage_error(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_steps_below_minimum(self, tmp_path, capsys):
        err = self.assert_usage_error(
            ["kac", "--steps", "8", "--out", str(tmp_path), "--quiet"], capsys)
        assert "n_steps" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**20])
    def test_steps_above_maximum(self, tmp_path, capsys, steps):
        # refused by the config check alone: a run would need a block of
        # more than 64 MB before its first path
        tracemalloc.start()
        try:
            err = self.assert_usage_error(
                ["rice", "--steps", str(steps), "--out", str(tmp_path), "--quiet"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "n_steps" in err and str(MAX_STEPS) in err
        assert peak < 1e6
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name", ["fac", "chaos"])
    def test_pair_drivers_refuse_steps_above_their_bound(self, tmp_path, capsys, name):
        # past 2^13 steps the pair kernels' node pairs take hours; only the
        # config check runs, never a grid of that size
        assert PAIR_MAX_STEPS == 1 << 13
        assert ExperimentConfig(name, n_steps=PAIR_MAX_STEPS).n_steps == PAIR_MAX_STEPS
        err = self.assert_usage_error(
            [name, "--steps", str(PAIR_MAX_STEPS + 8), "--out", str(tmp_path), "--quiet"],
            capsys)
        assert "n_steps" in err and str(PAIR_MAX_STEPS) in err and name in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**20])
    def test_samples_above_maximum(self, tmp_path, capsys, samples):
        # the engine keeps one sums array per replica chunk; only the config
        # check runs, never a budget of that size
        assert MAX_SAMPLES == 10**7
        assert ExperimentConfig("rice", n_samples=MAX_SAMPLES).n_samples == MAX_SAMPLES
        err = self.assert_usage_error(
            ["rice", "--samples", str(samples), "--out", str(tmp_path), "--quiet"], capsys)
        assert "n_samples" in err and str(MAX_SAMPLES) in err
        assert not (tmp_path / "report.json").exists()

    def test_fac_steps_not_multiple_of_8(self, tmp_path, capsys):
        # the Hoelder diagnostic reads t = 1/8 off the grid
        err = self.assert_usage_error(
            ["fac", "--steps", "300", "--out", str(tmp_path), "--quiet"], capsys)
        assert "n_steps" in err and "8" in err
        assert not (tmp_path / "report.json").exists()

    def test_bridge_odd_steps(self, tmp_path, capsys):
        # bridge reads w(1/2), which an odd grid does not have
        err = self.assert_usage_error(
            ["bridge", "--steps", "257", "--out", str(tmp_path), "--quiet"], capsys)
        assert "n_steps" in err and "2" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, eps", [("kac", "0.5"), ("bridge", "0.3"),
                                           ("selftest", "0.7")])
    def test_unread_flag(self, tmp_path, capsys, name, eps):
        # only sweep, chaos and fac read eps_grid; elsewhere the flag is as
        # unknown as any misspelt one
        assert cli_main([name, "--eps-grid", eps, "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --eps-grid" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--steps", "--samples"])
    def test_unread_budget_flag(self, tmp_path, capsys, flag):
        # selftest reads no budget, so it has neither flag
        assert cli_main(["selftest", flag, "1024", "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, data", [
        ("sweep", {"omega": 3.0}),
        ("fac", {"u": [0, 0], "dimension": 2}),
        ("rice", {"u": [0, 0], "dimension": 2}),
        # every gate is fixed in its driver; no config widens one
        ("selftest", {"tolerances": {"selftest": 1.0}}),
        # the dimension is len(u)
        ("chaos", {"dimension": 2}),
        # and every optional key of every driver that does not read it
        *[(name, {key: SETTINGS[key]}) for name, key in UNREAD]])
    def test_unread_config_key(self, tmp_path, capsys, name, data):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(data))
        err = self.assert_usage_error(
            [name, "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        refused, keys = err.strip().split("; ")
        assert refused.endswith(f"{name} takes no config key(s) {', '.join(sorted(data))}")
        assert keys == f"its keys are {', '.join(DRIVERS[name].keys())}"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("u", [[1, 2, 3, 4], []])
    def test_u_outside_one_to_three_dimensions(self, tmp_path, capsys, u):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"u": u}))
        err = self.assert_usage_error(
            ["chaos", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        assert "u must be a list of 1, 2 or 3" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("u", [[1e200, 0], [1e155, 1e155], [0.5, -1.5e12]])
    def test_u_out_of_range(self, tmp_path, capsys, u):
        # |u|^2 would overflow in the chaos kernel and leave NaN rows
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"u": u}))
        err = self.assert_usage_error(
            ["chaos", "--samples", "100", "--config", str(f), "--out", str(tmp_path),
             "--quiet"], capsys)
        assert "u must be a list of 1, 2 or 3 numbers in [-1e12, 1e12]" in err
        assert not (tmp_path / "report.json").exists()

    def test_config_for_another_experiment(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"experiment": "kac"}))
        err = self.assert_usage_error(
            ["selftest", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        assert "kac" in err and "selftest" in err
        assert not (tmp_path / "report.json").exists()

    def test_sweep_negative_eps(self, tmp_path, capsys):
        err = self.assert_usage_error(
            ["sweep", "--eps-grid", "0.1,-1", "--out", str(tmp_path), "--quiet"], capsys)
        assert "eps_grid" in err
        assert not (tmp_path / "report.json").exists()

    def test_sweep_eps_out_of_range(self, tmp_path, capsys):
        # at 1e17 the oracle's upper limit 1 + eps rounds to eps; at 1e-320
        # the ratio (1 + eps) / eps of its log map overflows
        for eps in ("1e17", "1e-320"):
            err = self.assert_usage_error(
                ["sweep", "--eps-grid", eps, "--samples", "100", "--steps", "256",
                 "--out", str(tmp_path), "--quiet"], capsys)
            assert "eps_grid" in err
        assert not (tmp_path / "report.json").exists()

    def test_chaos_eps_out_of_range(self, tmp_path, capsys):
        err = self.assert_usage_error(
            ["chaos", "--eps-grid", "1e17", "--samples", "100", "--steps", "256",
             "--out", str(tmp_path), "--quiet"], capsys)
        assert "eps_grid" in err
        assert not (tmp_path / "report.json").exists()

    def test_omega_out_of_range(self, tmp_path, capsys):
        # at 1e308 rice's oracle overflows omega^2; at 1e-300 omega^2 is a
        # zero variance
        f = tmp_path / "cfg.json"
        for omega in (1e308, 1e-300):
            f.write_text(json.dumps({"omega": omega}))
            err = self.assert_usage_error(
                ["rice", "--config", str(f), "--samples", "100", "--steps", "256",
                 "--out", str(tmp_path), "--quiet"], capsys)
            assert "omega" in err
        assert not (tmp_path / "report.json").exists()

    def test_config_file_with_flag_name(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"samples": 200}))
        err = self.assert_usage_error(
            ["kac", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        assert "samples" in err and "n_samples" in err

    def test_negative_seed(self, tmp_path, capsys):
        # numpy's SeedSequence refuses negative entropy mid-run
        for argv in (["rice", "--steps", "256", "--samples", "100"], ["selftest"]):
            err = self.assert_usage_error(
                [*argv, "--seed", "-1", "--out", str(tmp_path), "--quiet"], capsys)
            assert "seed" in err
        assert not (tmp_path / "report.json").exists()

    def test_repeated_eps(self, tmp_path, capsys):
        for grid in ("0.1,0.1", "1,0.1,0.10000001"):
            err = self.assert_usage_error(
                ["sweep", "--eps-grid", grid, "--out", str(tmp_path), "--quiet"], capsys)
            assert "eps_grid" in err and "distinct" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("out_dir", [5, None, ["out"]])
    def test_out_dir_of_the_wrong_type(self, tmp_path, capsys, monkeypatch, out_dir):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"out_dir": out_dir}))
        monkeypatch.chdir(tmp_path)
        err = self.assert_usage_error(["selftest", "--config", str(f), "--quiet"], capsys)
        assert "out_dir must be a non-empty path" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_that_is_not_a_directory(self, tmp_path, capsys):
        # a file, or a path under one: refused before the driver runs, not
        # with a traceback from the report writer after it
        f = tmp_path / "taken"
        f.write_text("")
        for out in (f, f / "sub"):
            err = self.assert_usage_error(["selftest", "--out", str(out), "--quiet"], capsys)
            assert str(f) in err
        assert f.read_text() == ""
