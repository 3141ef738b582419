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
    MAX_STEPS,
    MODEL_FIELDS,
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
        # exact value 0.25 (1 + eps / (1 + eps)); tends to Var B(1/2) = 1/4
        for eps in (0.5, 0.1, 0.01):
            expect = 0.25 * (1.0 + eps / (1.0 + eps))
            assert bridge_weighted_second_moment_quadrature(eps) == pytest.approx(
                expect, rel=1e-9)

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
        cfg = ExperimentConfig("selftest")
        assert cfg.eps_grid == [1.0, 0.1, 0.01]
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


class TestReportRows:
    def test_pass_rule(self):
        assert ReportRow("a", 1.0, 0.01, 1.005, 0.02).passed is True
        assert ReportRow("a", 1.0, 0.001, 1.5, 0.02).passed is False
        assert ReportRow("a", 1.0).passed is None
        # 3 sigma beats a tighter tolerance
        assert ReportRow("a", 1.0, 0.1, 1.2, 0.0).passed is True

    def test_all_passed_ignores_informational_rows(self):
        report = ExperimentReport(ExperimentConfig("selftest"), [
            ReportRow("info", 1.0),
            ReportRow("ok", 1.0, 0.0, 1.0, 0.1),
        ])
        assert report.all_passed


class TestSelftest:
    def test_all_rows_pass(self):
        report = selftest_experiment(ExperimentConfig("selftest", n_steps=256,
                                                      n_samples=100))
        assert report.all_passed
        assert [r.name for r in report.rows] == [
            "hermite_H0", "hermite_H2_at_0", "hermite_H3_at_2", "hermite_bound_a1",
            "heat_kernel_1d", "heat_kernel_2d", "heat_kernel_offset", "simplex_area",
            "simplex_volume", "simplex_beta_pi", "kac_n1", "kac_n2",
            "rice_quadrature_c1", "bridge_term_n0", "bridge_term_n1",
            "bridge_term_n2_at_0", "bridge_variance_n2", "endpoint_bound_H2",
            "endpoint_pairing_H2_quadrature"]

    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig("selftest", n_steps=256, n_samples=100,
                               out_dir=str(tmp_path))
        report = selftest_experiment(cfg)
        report.write()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["all_passed"] is True
        assert data["config"]["experiment"] == "selftest"
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "name,estimate,std_error,oracle,tolerance,passed"
        assert len(lines) == len(report.rows) + 1

    @pytest.mark.parametrize("name, n_samples", [("selftest", 100), ("rice", 2100)])
    def test_byte_identical_reports(self, tmp_path, monkeypatch, name, n_samples):
        # identical configs must give byte-identical files, Monte Carlo
        # drivers over several replica chunks included
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)  # the config's out_dir is "."
            cfg = ExperimentConfig(name, n_steps=256, n_samples=n_samples)
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
        code = cli_main(["selftest", "--out", str(tmp_path), "--steps", "256",
                         "--samples", "100", "--quiet"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_declared_model_fields_are_read(self, tmp_path, monkeypatch, name):
        # the model fields a config may set are exactly those the run reads
        read = set()
        lookup = ExperimentConfig.__getattribute__

        def recorded(config, key):
            read.add(key)
            return lookup(config, key)

        cfg = ExperimentConfig(name, n_steps=256, n_samples=100, out_dir=str(tmp_path))
        monkeypatch.setattr(ExperimentConfig, "__getattribute__", recorded)
        DRIVERS[name](cfg)
        assert read & set(MODEL_FIELDS) == set(DRIVERS[name].reads)

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
        f.write_text(json.dumps({
            "experiment": "selftest", "n_steps": 256, "n_samples": 100,
        }))
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
            ["selftest", "--steps", "8", "--out", str(tmp_path), "--quiet"], capsys)
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

    @pytest.mark.parametrize("name, data", [
        ("sweep", {"omega": 3.0}),
        ("fac", {"u": [0, 0], "dimension": 2}),
        ("rice", {"u": [0, 0], "dimension": 2}),
        # every gate is fixed in its driver; no config widens one
        ("selftest", {"tolerances": {"selftest": 1.0}})])
    def test_unread_config_key(self, tmp_path, capsys, name, data):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(data))
        err = self.assert_usage_error(
            [name, "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        refused, keys = err.strip().split("; ")
        assert refused.endswith(f"{name} takes no config key(s) {', '.join(sorted(data))}")
        assert keys == f"its keys are {', '.join(DRIVERS[name].keys())}"
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
            ["selftest", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        assert "samples" in err and "n_samples" in err

    def test_negative_seed(self, tmp_path, capsys):
        # numpy's SeedSequence refuses negative entropy mid-run
        for name in ("rice", "selftest"):
            err = self.assert_usage_error(
                [name, "--seed", "-1", "--steps", "256", "--samples", "100",
                 "--out", str(tmp_path), "--quiet"], capsys)
            assert "seed" in err
        assert not (tmp_path / "report.json").exists()

    def test_repeated_eps(self, tmp_path, capsys):
        for grid in ("0.1,0.1", "1,0.1,0.10000001"):
            err = self.assert_usage_error(
                ["sweep", "--eps-grid", grid, "--out", str(tmp_path), "--quiet"], capsys)
            assert "eps_grid" in err and "distinct" in err
        assert not (tmp_path / "report.json").exists()

    def test_out_that_is_not_a_directory(self, tmp_path, capsys):
        # a file, or a path under one: refused before the driver runs, not
        # with a traceback from the report writer after it
        f = tmp_path / "taken"
        f.write_text("")
        for out in (f, f / "sub"):
            err = self.assert_usage_error(["selftest", "--out", str(out), "--quiet"], capsys)
            assert str(f) in err
        assert f.read_text() == ""
