"""Config parsing, CSV emission, and the sim command line."""

import cmath
import math
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jcdrive.cli import main
from jcdrive.config import (
    _KEYS, ConfigError, ScenarioConfig, cavity_cutoff, dt_bound, parse_config, trace_steps,
)
from jcdrive.dressed import dressed_basis, dressed_state
from jcdrive.dynamics import TimeGrid, excited_trace
from jcdrive.hilbert import FockCutoff, SystemParams, basis_state
from jcdrive.scenarios import (
    _POINTS, CSV_BLOCK_ROWS, ScenarioResult, convergence_probe, emit_csv, run_scenario,
)


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.scenario == "fig2a"
        assert cfg.g == 1.0 and cfg.lam == 0.1 and cfg.omega_c == 100.0
        assert cfg.epsilon == 0.05
        assert cfg.drive_form == "rwa"
        assert cfg.phase_correction is True
        params = cfg.system_params()
        assert params.omega_q == 110.0 and params.chi == pytest.approx(0.1)

    def test_lambda_overrides_detuning(self):
        cfg = parse_config("lambda = 0.2\n")
        assert cfg.system_params().delta == pytest.approx(5.0)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nscenario=fig2b  # trailing\n")
        assert cfg.scenario == "fig2b"

    def test_unknown_scenario_names_valid_ones(self):
        with pytest.raises(ConfigError, match="fig2a"):
            parse_config("scenario=fig9\n")

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("g=1\n# ok\nbogus_key=2\n")

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("omega_c=ten\n")

    def test_inconsistent_derived_quantities(self):
        with pytest.raises(ConfigError, match="contradict"):
            parse_config("lambda=0.1\nomega_q=120\nomega_c=100\ng=1\n")

    def test_consistent_omega_q_accepted(self):
        cfg = parse_config("lambda=0.1\nomega_q=110\nomega_c=100\ng=1\n")
        assert cfg.system_params().lam == pytest.approx(0.1)

    def test_bool_and_sweep_values(self):
        cfg = parse_config("phase_correction=off\nsweep_values=1,2,4\nworkers=2\n")
        assert cfg.phase_correction is False
        assert cfg.sweep_grid() == (1.0, 2.0, 4.0)
        assert cfg.workers == 2

    def test_readme_key_table_names_every_key(self):
        # the first cell of each row of the README's config table names its keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
        cells = [row.split("|")[1] for row in table.splitlines()]
        assert {name for cell in cells for name in re.findall(r"`([^`]+)`", cell)} == set(_KEYS)


class TestPoints:
    """ScenarioConfig.points(): one config per swept value, the swept quantity replaced."""

    def test_alpha_sq_replaced(self):
        cfg = parse_config("scenario=fig2b\nsweep_values=1,9\nepsilon=0.03+0.04j\n")
        points = cfg.points()
        assert [p.alpha_sq for p in points] == [1.0, 9.0]
        assert all(p.epsilon == cfg.epsilon and p.lam == cfg.lam for p in points)
        assert [p.drive_amplitude() for p in points] == [1.0, 3.0]

    def test_swept_lambda_drops_omega_q(self):
        cfg = parse_config("scenario=fig2c\nomega_q=105\nsweep_values=0.1,0.2\n")
        assert cfg.system_params().lam == pytest.approx(0.2)
        points = cfg.points()
        assert [(p.lam, p.omega_q) for p in points] == [(0.1, None), (0.2, None)]
        assert points[0].system_params().omega_q == 110.0

    @pytest.mark.parametrize("epsilon, phase", [("0.03+0.04j", cmath.phase(0.03 + 0.04j)),
                                                 ("-0.05", cmath.pi), ("0", 0.0)])
    def test_swept_epsilon_keeps_its_phase(self, epsilon, phase):
        cfg = parse_config(f"scenario=fig2d\nepsilon={epsilon}\nsweep_values=0.02,0.1\n")
        points = cfg.points()
        assert [abs(p.epsilon) for p in points] == pytest.approx([0.02, 0.1], rel=1e-15)
        assert all(cmath.phase(p.epsilon) == pytest.approx(phase) for p in points)
        assert all(p.alpha_sq == cfg.alpha_sq for p in points)

    @pytest.mark.parametrize("scenario", ["fig4", "readout"])
    def test_one_point_scenarios(self, scenario):
        cfg = parse_config(f"scenario={scenario}\n")
        assert cfg.points() == (cfg,)

    def test_drive_amplitude(self):
        assert ScenarioConfig(scenario="fig4", alpha_sq=4.0).drive_amplitude() == 2.0
        # readout: |alpha_g| = |epsilon| pi/|chi|, chi = 0.1
        readout = ScenarioConfig(scenario="readout", epsilon=0.05j)
        assert readout.drive_amplitude() == pytest.approx(0.05 * np.pi / 0.1)


class TestConfigFaults:
    """Values the numerics cannot use stop at the config: exit 1, naming the line."""

    def _run(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("g=nan\n", 1),
        ("scenario=fig2b\nlambda=inf\n", 2),
        ("# drive\nepsilon=nan+0.1j\n", 2),
        ("scenario=fig4\neta_phase=-inf\n", 2),
    ])
    def test_non_finite_value(self, tmp_path, capsys, text, line):
        code, err = self._run(tmp_path, capsys, text)
        assert code == 1
        assert f"line {line}:" in err and "finite" in err

    @pytest.mark.parametrize("line", ["sweep_start=1", "sweep_stop=1", "sweep_points=2",
                                      "out=x.csv"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        # the linear sweep duplicated sweep_values, and out duplicated sim run --out
        code, err = self._run(tmp_path, capsys, f"scenario=fig2b\n{line}\n")
        assert code == 1
        assert f"line 2: unknown key '{line.split('=')[0]}'" in err

    def test_non_finite_sweep_value(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "scenario=fig2b\nsweep_values=1,inf\n")
        assert code == 1
        assert "line 2:" in err and "finite" in err

    def test_empty_sweep_values(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "scenario=fig2b\n\nsweep_values=,\n")
        assert code == 1
        assert "line 3:" in err and "sweep_values" in err

    @pytest.mark.parametrize("scenario", ["fig2a", "fig2b", "fig2c", "custom"])
    def test_zero_epsilon_where_pulse_length_derives_from_it(self, tmp_path, capsys, scenario):
        code, err = self._run(tmp_path, capsys, f"epsilon=0\nscenario={scenario}\n")
        assert code == 1
        assert "line 1:" in err and "epsilon" in err

    def test_n_max_below_fock_minimum(self, tmp_path, capsys):
        # FockCutoff needs two levels: the key's own bound, before the truncation rule
        code, err = self._run(tmp_path, capsys, "scenario=fig4\nn_max=-4\n")
        assert code == 1
        assert "line 2:" in err and "n_max" in err

    @pytest.mark.parametrize("text, needed", [
        ("scenario=fig2a\nsweep_values=4,1", 27),          # the largest swept alpha_sq
        ("scenario=fig2d\nalpha_sq=9", 39),                # alpha_sq held fixed
        ("scenario=fig4\nalpha_sq=4", 27),                 # |beta| = 2
        ("scenario=readout\nepsilon=0.05j", 23),           # |alpha_g| = 0.05 pi / 0.1
    ])
    def test_n_max_against_the_largest_amplitude(self, text, needed):
        assert parse_config(f"{text}\nn_max={needed}\n").n_max == needed
        with pytest.raises(ConfigError, match="below the truncation rule") as info:
            parse_config(f"{text}\nn_max={needed - 1}\n")
        assert info.value.line == 3

    def test_zero_epsilon_accepted_by_fig2d(self):
        # fig2d sweeps |epsilon| itself and reads only arg(epsilon)
        assert parse_config("scenario=fig2d\nepsilon=0\n").epsilon == 0

    @pytest.mark.parametrize("text, line, key", [
        ("scenario=fig2b\nsweep_values=-1\n", 2, "alpha_sq"),
        ("scenario=fig2a\nsweep_values=-1,1.5,4\n", 2, "alpha_sq"),
        ("scenario=custom\n\nsweep_values=1,0\n", 3, "alpha_sq"),
        ("scenario=fig2a\n\nsweep_values=4,0\n", 3, "alpha_sq"),
        ("scenario=fig4\nalpha_sq=-1\n", 2, "alpha_sq"),
        ("alpha_sq=-0.5\nscenario=fig2c\n", 1, "alpha_sq"),
        ("scenario=fig2c\nalpha_sq=0\n", 2, "alpha_sq"),
        ("alpha_sq=0\nscenario=fig2d\n", 1, "alpha_sq"),
        ("scenario=fig2c\nsweep_values=0.1,0\n", 2, "lambda"),
        ("scenario=fig2c\nsweep_values=-0.1,0,0.1\n", 2, "lambda"),
        ("scenario=fig2d\nsweep_values=0\n", 2, "epsilon_abs"),
        ("scenario=fig2d\nsweep_values=0.02,-0.01\n", 2, "epsilon_abs"),
        ("scenario=fig2d\nsweep_values=0,0.05,0.1\n", 2, "epsilon_abs"),
    ])
    def test_sweep_value_the_numerics_cannot_use(self, tmp_path, capsys, text, line, key):
        code, err = self._run(tmp_path, capsys, text)
        assert code == 1
        assert f"line {line}:" in err and key in err

    @pytest.mark.parametrize("text, line, key", [
        ("omega_q=100\nlambda=0.1\n", 1, "omega_q"),
        ("# resonant\nomega_q=100\n", 2, "omega_q"),
        ("scenario=fig2b\ng=0\n", 2, "g"),
        ("lambda=1.5\n", 1, "lambda"),
        ("scenario=fig2c\nsweep_values=1.5\n", 2, "swept lambda=1.5"),
        ("scenario=fig2c\ng=0\nomega_q=110\nsweep_values=0.1\n", 4, "swept lambda=0.1"),
        ("scenario=fig2c\n\nsweep_values=0.1,1.5\n", 3, "swept lambda=1.5"),
        ("scenario=fig2c\nsweep_values=-1,-0.45,0.1\n", 2, "swept lambda=-1"),
        # the default lambda grid: g = 0 makes every point resonant
        ("scenario=fig2c\ng=0\nomega_q=110\n", 2, "swept lambda=0.05"),
    ])
    def test_no_dispersive_system(self, tmp_path, capsys, text, line, key):
        code, err = self._run(tmp_path, capsys, text)
        assert code == 1
        assert f"line {line}: {key} gives no dispersive system" in err

    def test_zero_coupling_in_readout(self, tmp_path, capsys):
        # with omega_q given, g = 0 is a valid system with chi = 0, but the
        # readout pulse length is pi/|chi|
        code, err = self._run(tmp_path, capsys, "scenario=readout\ng=0\nomega_q=110\n")
        assert code == 1
        assert "line 2:" in err and "g must be nonzero" in err

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("text, line", [
        ("scenario=fig4\nomega_q=0\n", 2),
        ("scenario=fig4\n# below the cavity\nomega_q=-50\n", 3),
        ("lambda=-0.005\nscenario=fig4\n", 1),       # omega_q = 100 - 200
    ])
    def test_fig4_qubit_drive_without_positive_omega_q(self, tmp_path, capsys, command, text,
                                                        line):
        # without eta_abs the qubit drive strength is 0.05 omega_q, and the
        # pulse one period of it: a config error, not a division by zero
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: omega_q=")
        assert "must be positive for scenario=fig4 without eta_abs" in err
        assert parse_config(text + "eta_abs=1.1\n").eta_abs == 1.1

    @pytest.mark.parametrize("value", ["1", "-3"])
    def test_too_few_time_points(self, tmp_path, capsys, value):
        code, err = self._run(tmp_path, capsys, f"scenario=fig4\n\ntime_points={value}\n")
        assert code == 1
        assert "line 3:" in err and "time_points" in err

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("text, line", [
        ("epsilon=1e-300\n", 1),
        ("omega_c=1e17\n", 1),
        ("omega_c=-1e17\n", 1),  # rho bounds magnitudes: either sign of omega_c
        ("scenario=fig4\neta_abs=1e-300\n", 2),
        ("scenario=fig4\nomega_drive=1e14\n", 2),  # H_F's eigenvalues reach |omega| n_max
        ("scenario=fig4\nomega_drive=1e14\neta_abs=1e-300\n", 3),  # rho alone is beyond
    ])
    def test_step_count_beyond_exact_arithmetic(self, tmp_path, capsys, command, text, line):
        # a lab-frame phase rho T beyond 0.099 * 2**53 rad is refused on a line
        # that sets one of its inputs, before any numerics; no line sets the
        # detuning here, so the detuning-phase rule does not see these
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text(text)
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: lab-frame phase rho T = ")
        assert "0.099 * 2**53" in err and not out.exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_rule_cutoff_beyond_the_cap(self, tmp_path, capsys, monkeypatch, command):
        # readout at lambda = 1e-3 drives |alpha_g| = |eps| pi/|chi| to 157,
        # whose rule cutoff of 25,685 levels would take 39.3 GiB per dense
        # matrix: refused on the lambda line before the scenario is built
        def never(config):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr("jcdrive.cli.run_scenario", never)
        monkeypatch.setattr("jcdrive.cli.convergence_probe", never)
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text("scenario=readout\nlambda=1e-3\n")
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: |alpha| = 157.1 needs a cutoff of 25685 levels")
        assert "more than 2048" in err and not out.exists()

    @pytest.mark.parametrize("text, line", [
        ("scenario=fig2b\nsweep_values=1,1800\n", 2),     # the sweep values stand for alpha_sq
        ("scenario=fig4\nepsilon=1\nalpha_sq=1800\n", 3),  # epsilon is no input of |beta|
        ("scenario=readout\ng=0.5\nepsilon=1\nlambda=1e-3\n", 3),  # epsilon before lambda
        ("scenario=readout\nomega_q=110\ng=0.01\n", 2),    # omega_q before g
    ])
    def test_rule_cutoff_line(self, text, line):
        with pytest.raises(ConfigError, match="needs a cutoff of") as info:
            parse_config(text)
        assert info.value.line == line

    def test_cutoff_cap_edges(self):
        assert parse_config("scenario=fig2b\nn_max=2048\n").n_max == 2048
        with pytest.raises(ConfigError, match="^line 2: n_max must be between 2 and 2048"):
            parse_config("scenario=fig2b\nn_max=2049\n")
        # by the rule alpha_sq = 1769 needs 2048 levels and 1769.5 needs 2049;
        # an alpha_sq that high is refused for its Poisson weights (see
        # test_poisson_range_edges), so the accepted side of the edge is a
        # readout amplitude |epsilon| pi/|chi| = 42.05
        assert parse_config("scenario=readout\nepsilon=1.3385\n").epsilon == 1.3385
        with pytest.raises(ConfigError, match="^line 2: .* needs a cutoff of 2049 levels"):
            parse_config("scenario=readout\nepsilon=1.339\n")
        with pytest.raises(ConfigError, match="^line 2: .* needs a cutoff of 2049 levels"):
            parse_config("scenario=fig2b\nsweep_values=1769.5\n")

    @pytest.mark.parametrize("text", ["scenario=fig4\nalpha_sq={}\n",
                                      "scenario=fig2b\nsweep_values=1,{}\n"])
    def test_poisson_range_edges(self, text):
        # e^{-alpha_sq/2} leaves the normal floats above alpha_sq = 1416.79,
        # within the 2,048-level cap (1668 levels there)
        assert parse_config(text.format(1416.79)).scenario in ("fig4", "fig2b")
        with pytest.raises(ConfigError, match="^line 2: alpha_sq=1416.8 puts the Poisson "
                                              "weights of the target beyond float range"):
            parse_config(text.format(1416.8))

    def test_fig4_trace_beyond_a_dense_matrix(self):
        # the default fig4 cutoff is 27 levels, dimension 54: each trace may
        # store time_points + 1 rows with 54 * (time_points + 1) <= 4096**2
        assert parse_config("scenario=fig4\ntime_points=310688\n").time_points == 310688
        with pytest.raises(ConfigError, match="^line 2: time_points=310689 gives each fig4 trace "
                                              "310690 stored rows, more than the 310689 that "
                                              "dimension 54 allows"):
            parse_config("scenario=fig4\ntime_points=310689\n")

    def test_fig4_trace_guard_counts_the_stored_rows(self):
        # at eta_abs = 0.4225 the dt_bound grid has 1.2 M steps, stored every
        # 3: 400,076 rows, not time_points + 1
        text = "scenario=fig4\neta_abs=0.4225\ntime_points=300000\n"
        steps, stride = trace_steps(ScenarioConfig(scenario="fig4", eta_abs=0.4225,
                                                   time_points=300000))
        assert (steps - 1) // stride + 2 == 400076
        with pytest.raises(ConfigError, match="^line 3: time_points=300000 gives each fig4 trace "
                                              "400076 stored rows, more than the 310689"):
            parse_config(text)

    def test_cosine_pulse_of_any_length(self, tmp_path, capsys):
        # pulses of 3.2e8, 3.2e7 (the swept |epsilon| = 1e-6) and 1e11 drive
        # periods parse: the periodic path squares its period propagator, so
        # its cost does not grow with the pulse.  The 3.2e8-period pulse
        # checks and runs converged and ends where the rwa drive, solved in
        # closed form, does: the counter-rotating term moves the physics
        # columns by about epsilon / omega_c = 1e-9
        assert parse_config("scenario=fig2d\nsweep_values=0.05,1e-6\ndrive_form=cosine\n")
        assert parse_config("scenario=readout\nomega_c=1e9\ndrive_form=cosine\nlambda=0.01\n")
        text = "scenario=custom\ndrive_form=cosine\nsweep_values=1\nepsilon=1e-7\n"
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("custom: converged: F(m=4 vs 8) = ")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()[1:]
        assert row.split(",")[header.split(",").index("converged")] == "true"
        cosine = run_scenario(parse_config(text))
        rwa = run_scenario(parse_config(text.replace("drive_form=cosine\n", "")))
        for name in ("F_D_g", "F_D_e", "P_e_e", "n_g", "n_e"):
            assert abs(cosine.column(name)[0] - rwa.column(name)[0]) < 1e-8, name

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("text", ["scenario=readout\nepsilon=1e300\n",
                                      "scenario=readout\nepsilon=1e300\nn_max=20\n",
                                      "scenario=readout\nepsilon=1e308\n"])
    def test_rule_cutoff_beyond_float_range(self, tmp_path, capsys, command, text):
        # |alpha_g| = |epsilon| pi/|chi| = 3.1e301 (inf at 1e308): |alpha|^2
        # overflows, so the rule has no level count, and the amplitude is
        # beyond the cap on the epsilon line, before any n_max is compared
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text(text)
        args = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: |alpha| = ")
        assert "needs a cutoff beyond float range, more than 2048 levels" in err

    def test_dt_bound_sums_magnitudes(self):
        # rho bounds max|eig H| at either sign of each parameter: the mirror
        # system (omega_c, omega_q, g) -> -(omega_c, omega_q, g) has the
        # negated spectrum, and g -> -g with lambda -> -lambda is the same
        # system, so fig4 stores the same times
        cut = FockCutoff(27)
        bound = dt_bound(SystemParams(100.0, 110.0, 1.0), cut, 0.05, 0.3)
        for params in (SystemParams(-100.0, -110.0, -1.0), SystemParams(100.0, 110.0, -1.0)):
            assert dt_bound(params, cut, 0.05, 0.3) == bound
        fig4 = ScenarioConfig(scenario="fig4")
        assert trace_steps(ScenarioConfig(scenario="fig4", g=-1.0, lam=-0.1)) == trace_steps(fig4)

    @pytest.mark.parametrize("factor, accepted", [(0.999, True), (1.001, False)])
    def test_lab_phase_edge(self, factor, accepted):
        # the bound is T / dt_bound <= 2**53, the most steps whose counts are
        # exact as floats: rho T <= 0.099 * 2**53.  T = |alpha|/|epsilon| =
        # 1/|epsilon| at alpha_sq = 1; the |epsilon| that puts rho T at factor
        # times the bound is about 2e-12, whose drive term 2 |epsilon|
        # sqrt(n_max) is below rounding in rho ~ 1.9e3
        params = ScenarioConfig().system_params()
        rho = 0.099 / dt_bound(params, FockCutoff(cavity_cutoff(1.0, None)), 0.0)
        eps = rho / (factor * 0.099 * 2**53)
        text = f"scenario=fig2b\nsweep_values=1\nepsilon={eps!r}\n"
        if accepted:
            assert parse_config(text).epsilon == eps
        else:
            with pytest.raises(ConfigError, match="^line 3: lab-frame phase"):
                parse_config(text)

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("text, line, key", [
        # |Delta| T = 1e12 * 20 = 2e13 rad: run anyway, this point's F
        # against the doubled-cutoff oracle is 0.99995
        ("scenario=fig2b\nsweep_values=1\nlambda=1e-12\n", 3, "lambda"),
        ("scenario=readout\nlambda=1e-6\n", 2, "lambda"),
        ("scenario=fig4\neta_abs=1.1\nomega_q=1e12\n", 3, "omega_q"),
        ("scenario=fig2c\nsweep_values=0.1,1e-12\n", 2, "swept lambda=1e-12"),
    ])
    def test_detuning_phase_beyond_the_precision(self, tmp_path, capsys, command, text, line,
                                                 key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: {key} gives a detuning phase")

    def test_fig4_at_tiny_lambda_still_runs(self, tmp_path, capsys):
        # tau = 2 pi/eta, eta = 0.05 omega_q, shrinks with omega_q: |Delta| tau
        # stays near 126 rad, and the run converges
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario=fig4\nlambda=1e-12\n")
        assert main(["check", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("fig4: converged: ")

    def test_zero_beta_sq_accepted_by_fig4(self):
        # fig4's drive length is set by eta, not by the amplitude
        assert parse_config("scenario=fig4\nalpha_sq=0\n").alpha_sq == 0

    @pytest.mark.parametrize("value", ["0", "-1.1"])
    def test_nonpositive_eta_abs(self, tmp_path, capsys, value):
        code, err = self._run(tmp_path, capsys, f"scenario=fig4\ncheck_convergence=off\neta_abs={value}\n")
        assert code == 1
        assert "line 3:" in err and "eta_abs" in err


class TestTruncationHeadroom:
    """Rule-chosen cutoffs pass the truncation bound where the rule is tightest.

    At lambda = 0.4 with g = 1.5, fig4 at alpha_sq = 0 fails its bound with
    a floor of 7 levels (B = 2.4e-4), and at alpha_sq = 0.1 with a headroom
    of 3 (B = 1.6e-4); the check fails above B = 1e-4.
    """

    @pytest.mark.filterwarnings("ignore::jcdrive.hilbert.DispersiveRegimeWarning")
    @pytest.mark.parametrize("text", [
        "scenario=fig4\nalpha_sq=0\n",
        "scenario=fig4\nalpha_sq=1\nlambda=0.3\n",
        "scenario=readout\nlambda=0.3\n",
        "scenario=fig4\nalpha_sq=0\nlambda=0.4\ng=1.5\n",    # pins MIN_CUTOFF
        "scenario=fig4\nalpha_sq=0.1\nlambda=0.4\ng=1.5\n",  # pins CUTOFF_HEADROOM
    ])
    def test_convergence_at_the_rule_cutoff(self, text):
        assert convergence_probe(parse_config(text)).passed


def _cell(v) -> str:
    """The per-cell oracle: one cell as emit_csv must write it."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


# every emit_csv case runs on tuple columns and on NumPy arrays of the
# dtype the cells infer (float64, int64 or bool)
COLUMN_KINDS = pytest.mark.parametrize("as_column", [tuple, np.asarray], ids=["tuples", "arrays"])


class TestEmitCsv:
    @COLUMN_KINDS
    def test_empty_table(self, tmp_path, as_column):
        data = (as_column(np.empty(0)), as_column(np.empty(0, dtype=bool)))
        res = ScenarioResult("fig2b", ("a", "b"), data, {"g": "1"})
        path = tmp_path / "out.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# scenario=fig2b, params=")
        assert lines[1] == "a,b"
        assert len(lines) == 2
        assert res.rows == ()

    @COLUMN_KINDS
    def test_round_trip_12_digits(self, tmp_path, as_column):
        values = (0.123456789012345, 1.0 / 3.0, 9.87654321e-7)
        res = ScenarioResult("custom", ("x", "y", "z"), tuple(as_column([v]) for v in values), {})
        path = tmp_path / "rt.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "x,y,z"
        assert len(lines) == 3 and len(lines[2].split(",")) == 3  # one row of three cells
        back = np.genfromtxt(path, delimiter=",", skip_header=2)
        np.testing.assert_allclose(back, values, rtol=1e-11)

    @COLUMN_KINDS
    def test_bool_cells(self, tmp_path, as_column):
        res = ScenarioResult("custom", ("ok",), (as_column([True, False, False, True]),), {})
        path = tmp_path / "b.csv"
        emit_csv(res, path)
        assert path.read_text().splitlines()[2:] == ["true", "false", "false", "true"]

    # columns of 7 types: float, int, bool varying by row, numpy float64,
    # numpy int64, float near the range ends, bool
    MIXED = (
        (0.5, np.nan, 0.0),
        (3, -2**40, 0),
        (True, False, True),
        (np.float64(-1.0 / 3.0), np.inf, -0.0),
        (np.int64(-7), np.int64(0), np.int64(12345678901)),
        (1e-300, -2.5e17, 9.87654321e-7),
        (False, True, True),
    )

    @COLUMN_KINDS
    @pytest.mark.parametrize("count", [3, 1], ids=["three_rows", "one_row"])
    def test_same_bytes_as_per_cell_formatting(self, tmp_path, as_column, count):
        data = tuple(as_column(col[:count]) for col in self.MIXED)
        if as_column is np.asarray:
            assert [c.dtype.kind for c in data] == list("fibfifb")
        res = ScenarioResult("custom", tuple("abcdefg"), data, {"g": "1"})
        path = tmp_path / "mixed.csv"
        emit_csv(res, path)
        body = path.read_bytes().split(b"\n", 2)[2]
        expected = "".join(",".join(_cell(v) for v in row) + "\n" for row in zip(*data))
        assert body == expected.encode("utf-8")
        # the row view holds the same cells (nan is no cell's equal, so compare as text)
        assert [list(map(_cell, row)) for row in res.rows] == [list(map(_cell, row))
                                                                for row in zip(*data)]
        assert len(res.rows) == count

    # emit_csv formats and writes CSV_BLOCK_ROWS rows at a time: tables that
    # end on either side of a block edge
    B = CSV_BLOCK_ROWS

    @COLUMN_KINDS
    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_row_blocks_same_bytes_as_per_cell_formatting(self, tmp_path, as_column, count):
        rng = np.random.default_rng(count)
        data = (
            as_column(rng.normal(size=count) * 10.0 ** rng.integers(-30, 31, size=count)),
            as_column(rng.integers(-2**40, 2**40, size=count)),
            as_column(rng.random(count) < 0.5),
        )
        res = ScenarioResult("custom", ("x", "n", "ok"), data, {"g": "1"})
        path = tmp_path / "blocks.csv"
        emit_csv(res, path)
        head, columns, body = path.read_bytes().split(b"\n", 2)
        assert head == b"# scenario=custom, params=g=1" and columns == b"x,n,ok"
        expected = "".join(",".join(_cell(v) for v in row) + "\n" for row in zip(*data))
        assert body == expected.encode("utf-8")

    def test_tuple_format_from_its_first_cell_in_every_block(self, tmp_path):
        # an int first cell makes the column %d: its later floats print whole
        # in every block, where per-cell formatting would print their fractions
        count = 2 * self.B + 1
        floats = tuple(k + 0.25 for k in range(count))
        whole = (7, *floats[1:])
        res = ScenarioResult("custom", ("n", "x"), (whole, floats), {})
        path = tmp_path / "first_cell.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()[2:]
        assert lines == [f"{int(n)},{_cell(x)}" for n, x in zip(whole, floats)]
        assert all(line.split(",")[0] != _cell(x) for line, x in zip(lines[1:], floats[1:]))

    def test_columns_of_one_length_one_per_name(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            ScenarioResult("custom", ("a", "b"), ((1.0, 2.0), (1.0,)), {})
        with pytest.raises(ValueError, match="1 columns of data for 2 names"):
            ScenarioResult("custom", ("a", "b"), ((1.0,),), {})

    def test_12g_reads_back_as_the_11e_cell(self):
        # the same 12 correctly rounded significant digits in either form,
        # so both cells parse to the same double, bit for bit
        rng = np.random.default_rng(12)
        values = [
            *(rng.normal(size=400) * 10.0 ** rng.integers(-300, 301, size=400)),
            *rng.uniform(-2.2e-308, 2.2e-308, size=50),  # subnormal
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf,
        ]
        for v in values:
            got, want = float("%.12g" % v), float("%.11e" % v)
            assert struct.pack("<d", got) == struct.pack("<d", want), (v, "%.12g" % v)


FAST_SCENARIO = """
scenario=fig2b
sweep_values=1
check_convergence=off
"""


_FIDELITY = "one_minus_F_D_g,one_minus_F_D_e,F_D_g,F_D_e"
_FIG2A = f"alpha_sq,{_FIDELITY},gap_g,gap_e,P_e_g,P_e_e,n_g,n_e,entropy_g,entropy_e"
_META = "g lambda omega_c omega_q chi epsilon drive_form phase_correction basis check_convergence"
# scenario -> (fast config, CSV header, keys of the '# scenario=' line)
SCHEMAS = {
    "fig2a": ("sweep_values=1", f"{_FIG2A},converged,wall_time_s", f"{_META} initial"),
    "fig2b": ("sweep_values=1", "alpha_sq,F_D_g,F_g,gap_g,F_D_e,F_e,gap_e,converged,wall_time_s",
              f"{_META} initial"),
    "fig2c": ("sweep_values=0.1\nalpha_sq=1", f"lambda,{_FIDELITY},converged,wall_time_s",
              f"{_META} alpha_sq initial"),
    "fig2d": ("sweep_values=0.1\nalpha_sq=1", f"epsilon_abs,{_FIDELITY},converged,wall_time_s",
              f"{_META} alpha_sq initial"),
    "custom": ("sweep_values=1", f"{_FIG2A},converged,wall_time_s", f"{_META} initial"),
    "fig4": ("time_points=10", "t,P_e_beta_real,P_e_beta_imag,abs_diff,converged",
             f"{_META} beta_sq eta_abs omega_drive max_abs_diff wall_time_s"),
    "readout": ("", "alpha_g_abs_analytic,alpha_e_abs_analytic,n_g_sim,n_e_sim,"
                "predicted_spurious_n,rel_error,converged,wall_time_s",
                f"{_META} T omega_d initial"),
}


class TestRunScenario:
    @pytest.mark.parametrize("scenario", list(SCHEMAS))
    def test_csv_schema(self, tmp_path, scenario):
        text, header, keys = SCHEMAS[scenario]
        cfg = parse_config(f"scenario={scenario}\ncheck_convergence=off\n{text}\n")
        path = tmp_path / "out.csv"
        emit_csv(run_scenario(cfg), path)
        meta, columns = path.read_text().splitlines()[:2]
        assert meta.startswith(f"# scenario={scenario}, params=")
        params = meta.split("params=", 1)[1].split(", ")
        assert [kv.split("=", 1)[0] for kv in params] == keys.split()
        assert columns == header

    @pytest.mark.parametrize("text, check, initial", [
        ("", "on", "dressed"),
        ("check_convergence=off\ninitial=bare\n", "off", "bare"),
    ])
    def test_sweep_metadata_names_the_check_and_the_start(self, tmp_path, text, check, initial):
        cfg = parse_config(f"scenario=fig2b\nsweep_values=1\n{text}")
        path = tmp_path / "out.csv"
        emit_csv(run_scenario(cfg), path)
        params = path.read_text().splitlines()[0].split("params=", 1)[1].split(", ")
        assert f"check_convergence={check}" in params and f"initial={initial}" in params

    @pytest.mark.parametrize("initial", [None, "dressed", "bare"])
    @pytest.mark.parametrize("scenario", ["fig2a", "fig2b", "fig2c", "fig2d", "custom",
                                          "readout"])
    def test_metadata_names_the_excited_start(self, tmp_path, scenario, initial):
        # initial= on the metadata line is the state the e-run starts from:
        # dressed |e> or bare |e,0>, by default dressed for the sweeps and
        # bare for readout
        text = f"scenario={scenario}\ncheck_convergence=off\n{SCHEMAS[scenario][0]}\n"
        cfg = parse_config(text + (f"initial={initial}\n" if initial else ""))
        path = tmp_path / "out.csv"
        emit_csv(run_scenario(cfg), path)
        params = path.read_text().splitlines()[0].split("params=", 1)[1].split(", ")
        named = dict(kv.split("=", 1) for kv in params)["initial"]
        assert named == initial or (initial is None
                                    and named == ("bare" if scenario == "readout" else "dressed"))
        system, runs = _POINTS[scenario](cfg.points()[0])
        cutoff = runs["e"].ham.cutoff
        starts = {"dressed": dressed_state("e", 0, dressed_basis(system, cutoff, "exact")),
                  "bare": basis_state(cutoff, "e", 0)}
        assert np.max(np.abs(starts["dressed"] - starts["bare"])) > 1e-3
        np.testing.assert_array_equal(runs["e"].psi0, starts[named])

    def test_fig4_rows_when_the_pulse_is_short(self):
        # at eta_abs = 1e5 the pulse is about 65 dt_bound steps, fewer than
        # time_points: the grid steps by tau/time_points instead
        cfg = parse_config("scenario=fig4\neta_abs=1e5\ncheck_convergence=off\n")
        assert len(run_scenario(cfg).rows) >= 401

    def test_fig4_below_a_negative_omega_c(self, tmp_path, capsys):
        # omega_c = -100 (omega_q = -90): dt_bound sums magnitudes, so its
        # step is positive and the traces store at least time_points + 1 rows
        cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
        cfg.write_text("scenario=fig4\nomega_c=-100\neta_abs=1\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) >= 401 and all(row.endswith(",true") for row in rows)

    def test_fig4_columns_are_the_traces(self, tmp_path):
        # the P_e columns are the rows of one excited_trace call on the stack
        # of both starts, on the grid the runner picks: the dt_bound step, or
        # tau/time_points where that is finer
        cfg = parse_config("scenario=fig4\nalpha_sq=1\ntime_points=10\ncheck_convergence=off\n")
        result = run_scenario(cfg)
        emit_csv(result, tmp_path / "fig4.csv")
        assert "rows" not in vars(result)  # no row view until one is read
        params, runs = _POINTS["fig4"](cfg)
        real = runs["real"]
        tau = real.drive.tau
        dt = min(dt_bound(params, real.ham.cutoff, 0.0, cfg.qubit_drive_strength()),
                 tau / cfg.time_points)
        grid = TimeGrid.for_duration(tau, dt)
        every = max(1, grid.steps // cfg.time_points)
        assert trace_steps(cfg) == (grid.steps, every)
        assert runs["imag"].ham is real.ham  # one Hamiltonian, one stacked trace
        times, (pe_r, pe_i) = excited_trace(real.ham, np.stack((real.psi0, runs["imag"].psi0)),
                                            grid, every)
        for name, want in (("t", times), ("P_e_beta_real", pe_r), ("P_e_beta_imag", pe_i),
                           ("abs_diff", np.abs(pe_r - pe_i))):
            np.testing.assert_array_equal(result.column(name), want)
        assert result.column("converged").tolist() == [True] * len(times)
        assert result.rows == tuple(zip(*result.data))
        assert len(result.rows) == len(times) == (grid.steps - 1) // every + 2 >= 11

    def test_fig4_converged_column_is_the_check(self, tmp_path, monkeypatch):
        # a failed check flags every row, and the CSV writes each flag as false
        monkeypatch.setattr("jcdrive.scenarios.convergence_check",
                            lambda ham, psi0, grid: SimpleNamespace(passed=False, final=psi0))
        result = run_scenario(parse_config("scenario=fig4\nalpha_sq=1\ntime_points=10\n"))
        path = tmp_path / "fig4.csv"
        emit_csv(result, path)
        body = path.read_text().splitlines()[2:]
        assert len(body) == len(result.column("t")) >= 11
        assert all(line.endswith(",false") for line in body)

    def test_swept_lambda_is_simulated_lambda(self):
        # omega_q=105 means lambda=0.2; the row labelled lambda=0.1 must still simulate 0.1
        sweep = "scenario=fig2c\nsweep_values=0.1,0.2\nalpha_sq=1\ncheck_convergence=off\n"
        given = run_scenario(parse_config(sweep + "omega_q=105\n"))
        plain = run_scenario(parse_config(sweep))
        drop = given.columns.index("wall_time_s")
        assert [r[:drop] for r in given.rows] == [r[:drop] for r in plain.rows]
        assert given.rows[0][1] != given.rows[1][1]

    def test_fig2b_schema(self, tmp_path):
        cfg = parse_config(FAST_SCENARIO)
        result = run_scenario(cfg)
        assert result.columns[:7] == (
            "alpha_sq", "F_D_g", "F_g", "gap_g", "F_D_e", "F_e", "gap_e",
        )
        assert len(result.rows) == 1
        row = dict(zip(result.columns, result.rows[0]))
        assert 0.9 < row["F_D_g"] <= 1.0
        assert row["gap_g"] > 0

    def test_deterministic_physics_columns(self):
        cfg = parse_config(FAST_SCENARIO)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        drop = r1.columns.index("wall_time_s")
        for a, b in zip(r1.rows, r2.rows):
            assert a[:drop] == b[:drop]

    def test_worker_pool_matches_serial(self):
        cfg = parse_config(FAST_SCENARIO + "sweep_values=1,2\n")
        serial = run_scenario(cfg)
        cfg2 = parse_config(FAST_SCENARIO + "sweep_values=1,2\nworkers=2\n")
        parallel = run_scenario(cfg2)
        drop = serial.columns.index("wall_time_s")
        for a, b in zip(serial.rows, parallel.rows):
            assert a[:drop] == b[:drop]


class TestCli:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        return str(p)

    def test_run_success(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAST_SCENARIO)
        out = str(tmp_path / "result.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        text = (tmp_path / "result.csv").read_text()
        assert text.startswith("# scenario=fig2b")

    @COLUMN_KINDS
    def test_flagged_rows_counted_from_the_converged_column(self, tmp_path, capsys, monkeypatch,
                                                            as_column):
        data = ((1.0, 2.0, 3.0), (3, 4, 5), (True, False, False), (0.5, 0.5, 0.5))
        result = ScenarioResult("custom", ("x", "k", "converged", "wall_time_s"),
                                tuple(map(as_column, data)), {})
        monkeypatch.setattr("jcdrive.cli.run_scenario", lambda config: result)
        out = str(tmp_path / "f.csv")
        assert main(["run", "--config", self._write(tmp_path, ""), "--out", out]) == 0
        assert capsys.readouterr().out == (
            f"fig2a: 3 rows -> {out} (2 rows flagged not converged)\n"
        )
        assert "rows" not in vars(result)  # counted without the row view

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "scenario=fig9\n")
        assert main(["run", "--config", cfg]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/no/such/file.cfg"]) == 1

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # a decoding fault is a config error on the file, not a numerical failure
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"scenario=custom\n# caf\xe9\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(cfg)!r}: 'utf-8' codec ")

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["run"], ["run", "--config"],
        ["run", "--config", "CFG", "--config", "CFG"],
        ["run", "--config", "CFG", "--bogus", "1"],
        ["run", "--conf", "CFG"],
        ["check", "--config", "CFG", "--out", "x"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_usage_error(self, tmp_path, capsys, argv):
        # a command line outside the grammar exits 1, like a config error,
        # without raising SystemExit
        cfg = self._write(tmp_path, FAST_SCENARIO)
        assert main([cfg if arg == "CFG" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and captured.err.count("usage: sim") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "-h"], ["check", "--help"]],
                             ids=" ".join)
    def test_help(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: sim run ") and captured.err == ""

    def test_options_joined_by_equals(self, tmp_path, capsys):
        # --opt=VALUE is --opt VALUE; a --set value keeps its own '='
        cfg = self._write(tmp_path, FAST_SCENARIO)
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["run", "--config", cfg, "--out", str(spaced), "--set", "sweep_values=2"]) == 0
        assert main(["run", f"--config={cfg}", f"--out={joined}", "--set=sweep_values=2"]) == 0
        # every cell but the last, wall_time_s
        spaced_rows, joined_rows = (
            [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
            for path in (spaced, joined)
        )
        assert spaced_rows == joined_rows and joined_rows[2].startswith("2,")

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr("jcdrive.scenarios.integrate", fail)
        cfg = self._write(tmp_path, FAST_SCENARIO)
        assert main(["run", "--config", cfg]) == 2
        assert "numerical failure: eigenvalues did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/dir/x.csv", "missing/", "folder", "folder/", None])
    def test_unwritable_out_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        # an --out in no existing directory, or naming a directory (here the
        # default fig2b.csv too), is a usage error: exit 1, before any
        # compute, and nothing is written
        def run(config):
            raise AssertionError("run_scenario called")

        monkeypatch.setattr("jcdrive.cli.run_scenario", run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "fig2b.csv").mkdir()
        cfg = self._write(tmp_path, FAST_SCENARIO)
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", cfg] + ([] if out is None else ["--out", out])) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: run: cannot write ") and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_write_fault_after_the_run_is_a_failure(self, tmp_path, capsys, monkeypatch):
        # a fault that shows only at write time stays exit 2
        def refuse(result, path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("jcdrive.cli.emit_csv", refuse)
        cfg = self._write(tmp_path, FAST_SCENARIO)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("cannot write ")

    @pytest.mark.parametrize("text", ["scenario=fig4\nalpha_sq=300\n",
                                      "scenario=fig2b\nsweep_values=140\n"])
    def test_rule_cutoff_passes_the_leak_checks(self, tmp_path, capsys, text):
        # the rule's levels hold all but 1e-10 of the Poisson weight, as the
        # leak checks require: these configs once parsed at a cutoff that the
        # checks then refused, and exited 2
        cfg, out = self._write(tmp_path, text), tmp_path / "o.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        converged = header.index("converged")
        assert rows and all(row[converged] == "true" for row in rows)
        assert main(["check", "--config", cfg]) == 0

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_n_max_below_truncation_rule_is_config_error(self, tmp_path, capsys, command):
        # |alpha| = 1 needs n_max >= 17
        cfg = self._write(tmp_path, FAST_SCENARIO + "n_max=5\n")
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: line 5: configured n_max=5 below the truncation rule (17)\n"
        )

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_n_max_below_the_rule_at_a_later_sweep_point(self, tmp_path, capsys, command):
        # n_max = 24 holds alpha_sq = 1 but not 9 (39); sim check builds only
        # the first point, so the refusal must come from the config
        cfg = self._write(tmp_path, "scenario=custom\nsweep_values=1,9\nn_max=24\n")
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: line 3: configured n_max=24 below the truncation rule (39)\n"
        )

    def test_set_overrides(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAST_SCENARIO)
        out = str(tmp_path / "o.csv")
        code = main([
            "run", "--config", cfg, "--out", out,
            "--set", "sweep_values=2", "--set", "phase_correction=off",
        ])
        assert code == 0
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert "phase_correction=off" in lines[0]
        assert float(lines[2].split(",")[0]) == pytest.approx(2.0)
        # the scenario, too, is a config entry
        out = str(tmp_path / "r.csv")
        code = main([
            "run", "--config", cfg, "--out", out,
            "--set", "scenario=readout", "--set", "check_convergence=off",
        ])
        assert code == 0
        assert "# scenario=readout" in (tmp_path / "r.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("entry, message", [
        ("bogus=1", "unknown key 'bogus'"),
        ("time_points=1", "time_points must be >= 2"),
        # the lab-frame phase rule, on a config that sets none of its inputs
        ("omega_c=1e17", "lab-frame phase rho T = "),
    ])
    def test_set_fault_names_the_entry(self, tmp_path, capsys, entry, message):
        # a fault on a --set entry names the entry, not a line past the file
        out = tmp_path / "o.csv"
        cfg = self._write(tmp_path, FAST_SCENARIO)
        assert main(["run", "--config", cfg, "--out", str(out), "--set", "g=1",
                     "--set", entry]) == 1
        assert capsys.readouterr().err.startswith(f"config error: --set {entry}: {message}")
        assert not out.exists()

    def test_fault_in_the_file_keeps_its_line(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAST_SCENARIO + "bogus=1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--set", "g=1"]) == 1
        assert capsys.readouterr().err.startswith("config error: line 5: unknown key 'bogus'")

    @pytest.mark.parametrize("text, trace", [
        ("scenario=fig2a\n", False),
        ("scenario=readout\n", False),
        ("scenario=custom\ndrive_form=cosine\nsweep_values=1,2\n", False),
        ("scenario=fig4\n", True),
    ])
    def test_only_fig4_traces_take_a_step_grid(self, tmp_path, monkeypatch, text, trace):
        # sweep and readout runs are scored at T alone, so they take the
        # one-step grid [0, T], made once, by integrate or, when checked, by
        # convergence_check; fig4's two traces take their P_e from one
        # excited_trace call on the stack of both starts, on the dt_bound
        # grid, while its converged flag and sim check make the first run in
        # one step
        import jcdrive.scenarios as scenarios

        grids = {"integrate": [], "convergence_check": [], "excited_trace": []}
        for name, calls in grids.items():
            def record(ham, psi0, grid, *args, _real=getattr(scenarios, name), _calls=calls,
                       **kwargs):
                _calls.append((ham.cutoff, grid, np.shape(psi0)))
                return _real(ham, psi0, grid, *args, **kwargs)

            monkeypatch.setattr(scenarios, name, record)
        cfg = self._write(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        config = parse_config(text)
        traces, runs = grids["excited_trace"], grids["integrate"] + grids["convergence_check"]
        if trace:
            tau = config.pulse_length()
            dt = dt_bound(config.system_params(), traces[0][0], 0.0,
                          config.qubit_drive_strength())
            dim = traces[0][0].dim
            assert [(g, shape) for _, g, shape in traces] == [
                (TimeGrid.for_duration(tau, dt), (2, dim))]
            assert traces[0][1].steps > 1000
            assert [g.steps for _, g, _ in runs] == [1]
        else:
            assert not traces
            assert len(runs) == 2 * len(config.points())
            assert all(g.steps == 1 and g.t0 == 0.0 and g.t1 == g.dt for _, g, _ in runs)
        for calls in grids.values():
            calls.clear()
        assert main(["check", "--config", cfg]) == 0
        assert [g.steps for _, g, _ in grids["convergence_check"]] == [1]
        assert not grids["integrate"] and not grids["excited_trace"]

    @pytest.mark.parametrize("scenario", list(SCHEMAS))
    def test_check_subcommand(self, tmp_path, capsys, scenario):
        cfg = self._write(tmp_path, f"scenario={scenario}\n")
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{scenario}: converged: ")
        # every default drive declares its rotating frame, so every run is exact
        assert "dt: exact" in out and "dt/2" not in out

    def test_check_integrates_the_first_run_of_run(self, tmp_path, monkeypatch):
        # a fig2c sweep with omega_q given: its first point simulates the
        # swept lambda = 0.1, not the lambda = 0.2 that omega_q implies
        import jcdrive.scenarios as scenarios

        cfg = self._write(tmp_path, "scenario=fig2c\nomega_q=105\nsweep_values=0.1,0.2\n"
                                    "alpha_sq=1\ncheck_convergence=off\n")
        # an unchecked run is integrate's, a checked one convergence_check's
        makers = {name: getattr(scenarios, name) for name in ("integrate", "convergence_check")}
        first = {}
        for command in ("run", "check"):
            calls = []
            for name, real in makers.items():
                def record(ham, psi0, grid, *args, _real=real, _calls=calls, **kwargs):
                    _calls.append((ham, psi0, grid))
                    return _real(ham, psi0, grid, *args, **kwargs)

                monkeypatch.setattr(scenarios, name, record)
            out = ["--out", str(tmp_path / "o.csv")] if command == "run" else []
            assert main([command, "--config", cfg, *out]) == 0
            first[command] = calls[0]
        (ham_r, psi_r, grid_r), (ham_c, psi_c, grid_c) = first["run"], first["check"]
        # the ground branch drives at omega_c - chi, chi = g lambda = 0.1
        assert ham_r.omega == ham_c.omega == pytest.approx(100.0 - 0.1)
        assert np.array_equal(ham_r.static_part, ham_c.static_part)
        assert np.array_equal(ham_r.drive, ham_c.drive)
        assert np.array_equal(psi_r, psi_c)
        assert grid_r == grid_c

    def test_installed_entry_point(self, tmp_path):
        cfg = self._write(tmp_path, "scenario=fig9\n")
        proc = subprocess.run(
            [sys.executable, "-m", "jcdrive.cli", "run", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_runtime_does_not_load_the_process_pool(self):
        # concurrent.futures and multiprocessing load only when workers > 1
        code = (
            "import jcdrive, jcdrive.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_run_does_not_load_argparse(self, tmp_path):
        # the command line is parsed directly: neither argparse nor the
        # gettext and locale modules its messages pull in are loaded by a run
        argv = ["run", "--config", self._write(tmp_path, FAST_SCENARIO),
                "--out", str(tmp_path / "o.csv")]
        code = (
            "import sys; from jcdrive.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_runtime_does_not_load_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-only oracle
        code = (
            "import jcdrive, jcdrive.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
