import inspect
import json
import math

import pytest

from wcl import chaos, functionals, processes
from wcl.cli import build_parser, cli_main
from wcl.experiments import (
    EXPERIMENTS,
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
from wcl.processes import thread_cap


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
            "experiment": "selftest", "n_steps": 512, "n_samples": 300,
            "seed": 5, "eps_grid": [1.0, 0.5, 0.25],
        }))
        assert cli_main(["selftest", "--config", str(f), "--out", str(tmp_path),
                         "--quiet"]) == 0
        cfg = json.loads((tmp_path / "report.json").read_text())["config"]
        assert cfg["n_steps"] == 512
        assert cfg["seed"] == 5
        assert cfg["eps_grid"] == [1.0, 0.5, 0.25]

    def test_tolerance_override(self):
        cfg = ExperimentConfig("rice", tolerances={"rice_bias": 0.5})
        assert cfg.tolerance("rice_bias", 0.02) == 0.5
        assert cfg.tolerance("missing", 0.02) == 0.02


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
        assert len(report.rows) >= 20

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
    def test_byte_identical_reports(self, tmp_path, name, n_samples):
        # identical configs must give byte-identical files, Monte Carlo
        # drivers over several replica chunks included
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            cfg = ExperimentConfig(name, n_steps=256, n_samples=n_samples)
            EXPERIMENTS[name](cfg).write(out_dir=str(d))
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
        # fac: one pass each for the endpoint ratios (3 chunks), the study
        # (3), the KL tails (2) and the Hoelder moments (2); chaos: one pass
        # over 2 chunks for the whole eps grid
        drawn = []
        sample_values = processes.sample_values

        def counted(*args, **kwargs):
            drawn.append(1)
            return sample_values(*args, **kwargs)

        monkeypatch.setattr(processes, "sample_values", counted)
        cli_main([name, "--steps", "256", "--samples", str(n_samples),
                  "--out", str(tmp_path), "--quiet"])
        assert len(drawn) == calls

    @pytest.mark.parametrize("name, n_samples, module, kernel, grids", [
        ("fac", 2100, functionals, "_self_intersection_many", [4, 4, 4, 2, 2, 2, 2]),
        ("chaos", 1100, chaos, "chaos_terms_many", [3, 3])])
    def test_each_chunk_evaluated_once_per_pass(self, tmp_path, monkeypatch, name,
                                                n_samples, module, kernel, grids):
        # one pair-kernel call per chunk serves every eps of its pass.  fac:
        # the study (3 chunks, 4 eps), then the KL tails and the Hoelder
        # moments (2 chunks, 2 eps each); chaos: 2 chunks, 3 eps
        seen = []
        original = getattr(module, kernel)
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            seen.append(len(signature.bind(*args, **kwargs).arguments["eps_grid"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, kernel, counted)
        cli_main([name, "--steps", "256", "--samples", str(n_samples),
                  "--out", str(tmp_path), "--quiet"])
        assert seen == grids

    def test_failure_exit_code(self, tmp_path):
        # impossible tolerance forces a failing row
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({
            "experiment": "selftest", "n_steps": 256, "n_samples": 100,
            "out_dir": str(tmp_path),
            "tolerances": {"selftest": 0.0},
        }))
        code = cli_main(["selftest", "--config", str(f), "--quiet"])
        assert code == 1

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

    def test_selftest_negative_eps(self, tmp_path, capsys):
        err = self.assert_usage_error(
            ["selftest", "--eps-grid", "0.1,-1", "--out", str(tmp_path), "--quiet"],
            capsys)
        assert "eps_grid" in err

    def test_sweep_negative_eps(self, tmp_path, capsys):
        err = self.assert_usage_error(
            ["sweep", "--eps-grid", "0.1,-1", "--out", str(tmp_path), "--quiet"], capsys)
        assert "eps_grid" in err
        assert not (tmp_path / "report.json").exists()

    def test_config_file_with_flag_name(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"samples": 200}))
        err = self.assert_usage_error(
            ["selftest", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
        assert "samples" in err and "n_samples" in err

    def test_bad_tolerance(self, tmp_path, capsys):
        # unchecked, NaN would fail every selftest row, a negative value some
        # and Infinity none
        f = tmp_path / "cfg.json"
        for bad in (math.nan, -1e-9, math.inf):
            f.write_text(json.dumps({"tolerances": {"selftest": bad}}))
            err = self.assert_usage_error(
                ["selftest", "--config", str(f), "--out", str(tmp_path), "--quiet"], capsys)
            assert "tolerances" in err
        assert not (tmp_path / "report.json").exists()

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


class TestThreading:
    def test_thread_cap_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("WCL_THREADS", raising=False)
        assert thread_cap() == 1
        monkeypatch.setenv("WCL_THREADS", "4")
        assert thread_cap() == 4
        for bad in ("junk", "0", "-3"):
            monkeypatch.setenv("WCL_THREADS", bad)
            with pytest.raises(ValueError, match="WCL_THREADS"):
                thread_cap()
            # the CLI refuses it as a usage error before the driver runs
            assert cli_main(["selftest", "--out", str(tmp_path), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and "WCL_THREADS" in err
            assert not (tmp_path / "report.json").exists()

    def test_threaded_run_reproduces_serial(self, tmp_path, monkeypatch):
        # several replica chunks per driver, so two threads share the work
        for name, n_samples in (("sweep", 2100), ("rice", 2100), ("kac", 2100),
                                ("bridge", 2100), ("chaos", 1100)):
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("WCL_THREADS", threads)
                d = tmp_path / f"{name}-{threads}"
                cfg = ExperimentConfig(name, n_steps=256, n_samples=n_samples,
                                       out_dir=str(d), eps_grid=[1.0, 0.1, 0.01])
                EXPERIMENTS[name](cfg).write()
                reports.append(json.loads((d / "report.json").read_text()))
            assert reports[0]["rows"] == reports[1]["rows"], name
