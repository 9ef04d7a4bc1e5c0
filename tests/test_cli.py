import hashlib
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stigmagame import cli, evaluate_point

from conftest import PAPER_CFG, REPO_ROOT, src_env
from test_golden import COMMANDS, CONFIGS, GOLDEN

GOOD_CFG = PAPER_CFG.read_text(encoding="utf-8")
DATA = REPO_ROOT / "tests" / "data"
# each command's quickest run, passing only flags that the command takes
QUICK = {"check": [], "evaluate": [], "sweep": ["--grid", "5"], "optimize": [],
         "simulate": ["--pairs", "1000"], "figures": ["--grid", "5"]}


def write_cfg(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def edited_cfg(**overrides):
    lines = []
    for line in GOOD_CFG.splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides.pop(key)}")
        else:
            lines.append(line)
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestLoadConfig:
    def test_bundled_config_parses(self):
        cfg = cli.load_config(PAPER_CFG)
        p = cfg.params
        assert (p.theta_L, p.theta_H, p.v, p.c) == (0.2, 0.8, 1.0, 0.55)
        assert (p.c_h, p.z, p.u, p.tau_hat) == (1.0, 2.5, 0.1, 0.5)
        assert p.M == 1.0  # defaulted
        assert p.tau_true == 0.0  # defaulted
        assert cfg.convention == "corrected"
        assert p.dist_y.support_hi == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, GOOD_CFG + "gamma = 0.5\n")
        with pytest.raises(cli.ConfigError, match="gamma"):
            cli.load_config(path)

    def test_missing_key_rejected(self, tmp_path):
        text = "\n".join(
            line for line in GOOD_CFG.splitlines() if not line.startswith("tau_hat")
        )
        path = write_cfg(tmp_path, text)
        with pytest.raises(cli.ConfigError, match="tau_hat"):
            cli.load_config(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, edited_cfg(v="fast"))
        with pytest.raises(cli.ConfigError, match="'v'"):
            cli.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, GOOD_CFG + "v = 2\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_piecewise_distribution_roundtrip(self, tmp_path):
        knots = tmp_path / "y.csv"
        knots.write_text("x,p\n0,0\n0.5,0.25\n2,1\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(dist_y="piecewise:y.csv"))
        cfg = cli.load_config(path)
        assert cfg.params.dist_y.knots_x == (0.0, 0.5, 2.0)
        assert cfg.params.dist_y.knots_p == (0.0, 0.25, 1.0)

    def test_two_knot_piecewise_is_the_uniform(self, tmp_path, capsys):
        knots = tmp_path / "y.csv"
        knots.write_text("x,p\n0,0\n2,1\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(dist_y="piecewise:y.csv"))
        assert cli.load_config(path).params == cli.load_config(PAPER_CFG).params
        assert cli.main(["check", "--config", str(path)]) == 0
        assert "dist_y = uniform(0,2)" in capsys.readouterr().out

    def test_missing_knot_file_rejected(self, tmp_path):
        path = write_cfg(tmp_path, edited_cfg(dist_y="piecewise:nope.csv"))
        with pytest.raises(cli.ConfigError, match="dist_y"):
            cli.load_config(path)


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert cli.main(["check", "--config", str(PAPER_CFG)]) == 0

    def test_config_error_table(self, tmp_path, capsys):
        cases = [
            (GOOD_CFG + "gamma = 0.5\n", "unknown key"),
            (edited_cfg(v="fast"), "malformed"),
            (edited_cfg(c="0.1"), "assumption 1"),  # theta_L*v = 0.2 > c
            (edited_cfg(c="0.9"), "assumption 1"),  # c > theta_H*v = 0.8
            (edited_cfg(theta_L="0.9"), "theta ordering"),
            (edited_cfg(tau_hat="1.5"), "tau range"),
            (edited_cfg(convention="folk"), "bad convention"),
        ]
        for text, label in cases:
            path = write_cfg(tmp_path, text)
            rc = cli.main(["check", "--config", str(path)])
            assert rc == 2, label

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["check", "--config", str(tmp_path / "ghost.cfg")]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(GOOD_CFG.encode("utf-8") + b"# \xff\n")
        assert cli.main(["check", "--config", str(path)]) == 2
        assert f"config file {path} is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_knot_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "beta.csv").write_bytes(b"x,p\n0,0\n1,1 # \xff\n")
        path = write_cfg(tmp_path, edited_cfg(dist_beta="piecewise:beta.csv"))
        assert cli.main(["check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"key 'dist_beta': knot file {tmp_path / 'beta.csv'} is not UTF-8" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # editors that save UTF-8 with a byte-order mark made line 1 of a
        # config, and a knot file's header row, fail to parse (exit 2)
        bom = write_cfg(tmp_path, "\ufeff" + GOOD_CFG, "bom.cfg")
        outputs = []
        for path in (PAPER_CFG, bom):
            assert cli.main(["evaluate", "--config", str(path), "--out", str(tmp_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        (tmp_path / "y.csv").write_text("\ufeffx,p\n0,0\n0.5,0.25\n2,1\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(dist_y="piecewise:y.csv"))
        assert cli.load_config(path).params.dist_y.knots_x == (0.0, 0.5, 2.0)

    def test_assumption1_message_names_it(self, tmp_path, capsys):
        path = write_cfg(tmp_path, edited_cfg(c="0.1"))
        assert cli.main(["check", "--config", str(path)]) == 2
        assert "assumption 1" in capsys.readouterr().err

    def test_strict_gap_violation_exits_3(self, tmp_path, capsys):
        path = write_cfg(tmp_path, edited_cfg(c_h="0.3"))
        assert cli.main(["check", "--config", str(path), "--strict"]) == 3
        assert "assumption 3" in capsys.readouterr().err

    def test_gap_violation_without_strict_reports(self, tmp_path, capsys):
        path = write_cfg(tmp_path, edited_cfg(c_h="0.3"))
        assert cli.main(["check", "--config", str(path)]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_gap_violation_blocks_evaluate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, edited_cfg(c_h="0.3"))
        rc = cli.main(
            ["evaluate", "--config", str(path), "--out", str(tmp_path)]
        )
        assert rc == 3

    @pytest.mark.parametrize("command", ["check", "evaluate"])
    def test_nan_knot_probability_exits_2_fast(self, tmp_path, capsys, command):
        (tmp_path / "beta.csv").write_text("x,p\n0,0\n0.5,nan\n1,1\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(dist_beta="piecewise:beta.csv"))
        t0 = time.perf_counter()
        rc = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert time.perf_counter() - t0 < 1.0
        assert "knot probabilities" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("dist", ["uniform(0,1e160)", "uniform(-1e160,2)"])
    def test_overflowing_support_exits_2(self, tmp_path, capsys, command, dist):
        path = write_cfg(tmp_path, edited_cfg(dist_y=dist))
        rc = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "finite squares" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key", ["dist_y", "dist_beta"])
    def test_overflowing_density_exits_2(self, tmp_path, capsys, key):
        # a density of 1/1e-310 = inf made the chain's gap nan, and evaluate
        # died with an IndexError traceback in cdf (exit 1)
        path = write_cfg(tmp_path, edited_cfg(**{key: "uniform(0,1e-310)"}))
        assert cli.main(["evaluate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}': a segment density above 1e150 (inf)" in err

    @pytest.mark.parametrize("key", ["dist_y", "dist_beta"])
    def test_overflowing_inverse_slope_exits_2(self, tmp_path, capsys, key):
        # width 1 over mass 5e-324 is inf: the inverse CDF's slope table would
        # draw nan at u = 0, where the division form drew 0.0
        (tmp_path / "knots.csv").write_text("x,p\n0,0\n1,5e-324\n2,1\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(**{key: "piecewise:knots.csv"}))
        assert cli.main(["simulate", "--config", str(path), "--pairs", "1000"]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}': a segment whose width over mass overflows" in err

    @pytest.mark.parametrize("command", ["check", "evaluate", "simulate"])
    @pytest.mark.parametrize("config", ["negative_y.cfg", "negative_beta.cfg"])
    def test_negative_support_exits_2(self, tmp_path, capsys, command, config):
        # valuations or present bias below 0 lie outside the closed forms
        argv = [command, "--config", str(DATA / config), "--out", str(tmp_path)]
        assert cli.main(argv + QUICK[command]) == 2
        assert "support must start at 0 or above" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("knots, rc", [(512, 0), (513, 2)])
    def test_present_bias_knot_limit(self, tmp_path, capsys, knots, rc):
        # r reads a table of about knots**2 / 2 breakpoints built per config
        rng = np.random.default_rng(knots)
        xs = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, knots - 2)), [1.0]))
        ps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, knots - 1))))
        rows = [f"{x!r},{p!r}" for x, p in zip(xs.tolist(), (ps / ps[-1]).tolist())]
        (tmp_path / "beta.csv").write_text("\n".join(["x,p", *rows]) + "\n", encoding="utf-8")
        path = write_cfg(tmp_path, edited_cfg(dist_beta="piecewise:beta.csv"))
        assert cli.main(["evaluate", "--config", str(path)]) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            row = out.splitlines()[-1].split(",")
            assert all(math.isfinite(float(x)) for x in row)
        else:
            assert "dist_beta has more knots than the limit of 512" in err

    def test_overflowing_pair_welfare_exits_2(self, tmp_path, capsys):
        # 0.5 (ua1 + ua2 + ub1 + ub2) overflows at M = 1e308: simulate used to
        # print W: inf +/- nan at exit 0, with numpy overflow warnings
        path = write_cfg(tmp_path, edited_cfg(M="1e308"))
        argv = ["simulate", "--config", str(path), "--pairs", "40000"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "pair welfare up to 1e+308 overflows a float" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sim.csv").exists()

    def test_bad_flag_values(self, tmp_path, capsys):
        # each value goes to a command that reads its flag
        cases = [("sweep", "--grid", "1", "must lie in [3, 1000001]")]
        cases += [("optimize", "--tol", tol, "must be positive and finite")
                  for tol in ("0", "nan", "inf", "-inf")]
        cases += [("simulate", "--pairs", "0", "must be >= 1"),
                  ("evaluate", "--tau", "1.5", "must lie in [0, 1]")]
        for command, flag, value, rule in cases:
            argv = [command, "--config", str(PAPER_CFG), "--out", str(tmp_path)]
            assert cli.main(argv + [f"{flag}={value}"]) == 2, (flag, value)
            err = capsys.readouterr().err
            assert f"error: argument {flag}: {flag} {rule}, got " in err, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "figures"])
    def test_oversized_grid_exits_2_at_once(self, tmp_path, capsys, command):
        t0 = time.perf_counter()
        argv = [command, "--config", str(PAPER_CFG), "--grid", "100000000"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "--grid must lie in [3, 1000001]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_bounds_are_inclusive(self):
        for grid in (3, cli.MAX_GRID):
            argv = ["sweep", "--config", str(PAPER_CFG), "--grid", str(grid)]
            assert cli._build_parser()[0].parse_args(argv).grid == grid

    @pytest.mark.parametrize("command", ["check", "evaluate", "sweep", "optimize",
                                         "simulate", "figures"])
    @pytest.mark.parametrize("below", ["", "x"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, below):
        # --out is an existing file, or a path below one
        blocker = tmp_path / "file"
        blocker.write_text("kept\n", encoding="utf-8")
        out = blocker / below if below else blocker
        argv = [command, "--config", str(PAPER_CFG), "--out", str(out)]
        assert cli.main(argv + QUICK[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").mkdir()
        argv = ["sweep", "--config", str(PAPER_CFG), "--grid", "5"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {tmp_path / 'sweep.csv'}: ")

    def test_run_setting_defaults(self, tmp_path, capsys):
        argv = ["--config", str(PAPER_CFG), "--out", str(tmp_path)]
        assert cli.main(["simulate", *argv]) == 0
        header, row = (tmp_path / "sim.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert (cols["n_pairs"], cols["seed"]) == ("500000", "2024")
        assert cli.main(["sweep", *argv]) == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 101
        args = cli._build_parser()[0].parse_args(["optimize", "--config", "x.cfg"])
        assert (args.tol, args.out) == (1e-6, Path("."))
        assert args.convention is None
        assert cli._build_parser()[0].parse_args(["evaluate", "--config", "x.cfg"]).tau is None


class TestEvaluate:
    def test_defaults_echoed(self, capsys):
        assert cli.main(["evaluate", "--config", str(PAPER_CFG)]) == 0
        out = capsys.readouterr().out
        assert "M = 1" in out
        assert "tau_hat,S,gap,H,r,R_H,R,W_A,W_B,W" in out

    def test_round_trip_against_sweep(self, tmp_path, capsys):
        assert (
            cli.main(
                [
                    "sweep",
                    "--config",
                    str(PAPER_CFG),
                    "--grid",
                    "11",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for i, expected in enumerate(sweep_lines):
            tau = i / 10
            rc = cli.main(["evaluate", "--config", str(PAPER_CFG), "--tau", str(tau)])
            assert rc == 0
            got = capsys.readouterr().out.strip().splitlines()[-1]
            assert got == expected


def exact_uniform_gap(p, Y: Fraction) -> Fraction:
    """The continuation gap in rational arithmetic for dist_y = uniform(0, Y),
    from G(x) = x/Y and E[y; y <= t] = t^2/2Y."""
    th_l, th_h = Fraction(p.theta_L), Fraction(p.theta_H)
    net = th_h * Fraction(p.v) - Fraction(p.c)
    s = min(Fraction(p.tau_hat) * th_h * Fraction(p.z) / Y, Fraction(1))
    y_star = min(net / s, Y)
    bonus = net * y_star / Y - s * y_star * y_star / (2 * Y)
    return Fraction(p.c_h) * (th_h - th_l) - bonus


class TestWideValuationSupport:
    """The gap keeps its accuracy however large E[y] is, so the welfare
    commands succeed on every valuation support."""

    @pytest.mark.parametrize("k", range(18))
    def test_gap_is_exact_and_commands_succeed(self, tmp_path, capsys, k):
        path = write_cfg(tmp_path, edited_cfg(dist_y=f"uniform(0,1e{k})"))
        p = cli.load_config(path).params
        gap = evaluate_point(p, p.tau_hat).gap
        exact = exact_uniform_gap(p, Fraction(10) ** k)
        assert abs(Fraction(gap) - exact) <= Fraction(1, 10**12) * exact
        assert cli.main(["evaluate", "--config", str(path)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert all(math.isfinite(float(x)) for x in row)
        argv = ["sweep", "--config", str(path), "--grid", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


class TestArtifacts:
    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main(
                ["sweep", "--config", str(PAPER_CFG), "--grid", "51", "--out", str(out)]
            )
            assert rc == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main(
                [
                    "simulate",
                    "--config",
                    str(PAPER_CFG),
                    "--pairs",
                    "20000",
                    "--seed",
                    "99",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
        assert (out1 / "sim.csv").read_bytes() == (out2 / "sim.csv").read_bytes()

    def test_simulate_csv_carries_targets(self, tmp_path):
        rc = cli.main(
            [
                "simulate",
                "--config",
                str(PAPER_CFG),
                "--pairs",
                "20000",
                "--seed",
                "99",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        header, row = (tmp_path / "sim.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["S_analytic"] == "0.5"
        assert float(cols["r_analytic"]) == pytest.approx(512.0 / 8281.0, abs=1e-10)
        assert int(cols["n_pairs"]) == 20000

    def test_optimize_prints_and_traces(self, tmp_path, capsys):
        rc = cli.main(
            ["optimize", "--config", str(PAPER_CFG), "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tau_star" in out and "W_star" in out
        trace = (tmp_path / "optimize_trace.csv").read_text().splitlines()
        assert trace[0] == "stage,tau_hat,W"
        assert any(line.startswith("refine") for line in trace)

    def test_optimize_below_float_spacing_tol_ends(self, tmp_path, capsys):
        # 1e-300 is below the float spacing near tau*, so no piece gets that
        # narrow and the refinement must stop on the spacing; a fresh
        # interpreter under a timeout turns a hang into a failure
        argv = ["optimize", "--config", str(PAPER_CFG), "--out", str(tmp_path / "tiny")]
        proc = subprocess.run(
            [sys.executable, "-m", "stigmagame.cli", *argv, "--tol", "1e-300"],
            env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["optimize", "--config", str(PAPER_CFG), "--out", str(tmp_path)]) == 0
        tiny = (tmp_path / "tiny" / "optimize_trace.csv").read_text().splitlines()
        default = (tmp_path / "optimize_trace.csv").read_text().splitlines()
        # the same piece ends, then more refinement steps
        ends = [line for line in default if line.startswith("end,")]
        assert ends and [line for line in tiny if line.startswith("end,")] == ends
        assert len(tiny) > len(default)
        tau_tiny, tau_default = (float(t[-1].split(",")[1]) for t in (tiny, default))
        assert tau_tiny == pytest.approx(tau_default, abs=1e-6)

    def test_optimize_trace_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                cli.main(["optimize", "--config", str(PAPER_CFG), "--out", str(out)])
                == 0
            )
        assert (out1 / "optimize_trace.csv").read_bytes() == (
            out2 / "optimize_trace.csv"
        ).read_bytes()

    def test_figures_outputs(self, tmp_path):
        rc = cli.main(
            [
                "figures",
                "--config",
                str(PAPER_CFG),
                "--grid",
                "41",
                "--out",
                str(tmp_path),
                "--svg",
            ]
        )
        assert rc == 0
        for n in range(1, 6):
            assert (tmp_path / f"fig{n}.csv").is_file()
            svg = (tmp_path / f"fig{n}.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_fig5_full_stigma_beats_none(self, tmp_path):
        rc = cli.main(
            [
                "figures",
                "--config",
                str(PAPER_CFG),
                "--grid",
                "41",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "fig5.csv").read_text().splitlines()
        assert lines[0] == "# convention = corrected"
        header = lines[1].split(",")
        first = dict(zip(header, lines[2].split(",")))
        last = dict(zip(header, lines[-1].split(",")))
        assert float(first["tau_hat"]) == 0.0
        assert float(last["tau_hat"]) == 1.0
        assert float(last["W_demeaned"]) > float(first["W_demeaned"])

    def test_fig5_honours_convention_flag(self, tmp_path):
        rc = cli.main(
            [
                "figures",
                "--config",
                str(PAPER_CFG),
                "--grid",
                "21",
                "--out",
                str(tmp_path),
                "--convention",
                "paper_literal",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "fig5.csv").read_text().splitlines()
        assert lines[0] == "# convention = paper_literal"
        header = lines[1].split(",")
        first = dict(zip(header, lines[2].split(",")))
        last = dict(zip(header, lines[-1].split(",")))
        # under the literal bookkeeping full stigma loses to none
        assert float(last["W_demeaned"]) < float(first["W_demeaned"])

    def test_convention_key_and_flag_agree(self, tmp_path):
        cfg = write_cfg(tmp_path, edited_cfg(convention="paper_literal"))
        by_key, by_flag = tmp_path / "key", tmp_path / "flag"
        base = ["figures", "--grid", "21"]
        assert cli.main(base + ["--config", str(cfg), "--out", str(by_key)]) == 0
        assert (
            cli.main(
                base
                + ["--config", str(PAPER_CFG), "--out", str(by_flag)]
                + ["--convention", "paper_literal"]
            )
            == 0
        )
        fig5 = (by_key / "fig5.csv").read_bytes()
        assert fig5.startswith(b"# convention = paper_literal\n")
        assert fig5 == (by_flag / "fig5.csv").read_bytes()

    def test_figures_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main(
                [
                    "figures",
                    "--config",
                    str(PAPER_CFG),
                    "--grid",
                    "21",
                    "--out",
                    str(out),
                    "--svg",
                ]
            )
            assert rc == 0
        for n in range(1, 6):
            assert (out1 / f"fig{n}.csv").read_bytes() == (
                out2 / f"fig{n}.csv"
            ).read_bytes()
            assert (out1 / f"fig{n}.svg").read_bytes() == (
                out2 / f"fig{n}.svg"
            ).read_bytes()


class TestExitCodeMatrix:
    # c_h = 0.3 fails assumption 3 (margin -0.07); tau_true = 0.2 is outside
    # the analysis, a config error for every command. Every welfare-bearing
    # command reports the same code for the same config, whatever point of
    # the chain it reaches first.
    CONFIGS = {"a3": {"c_h": "0.3"}, "tau_true": {"tau_true": "0.2"}}
    EXPECTED = {
        ("evaluate", "a3"): 3,
        ("sweep", "a3"): 3,
        ("optimize", "a3"): 3,
        ("simulate", "a3"): 3,
        ("figures", "a3"): 3,
        ("check", "a3"): 0,
        ("check --strict", "a3"): 3,
        ("evaluate", "tau_true"): 2,
        ("sweep", "tau_true"): 2,
        ("optimize", "tau_true"): 2,
        ("simulate", "tau_true"): 2,
        ("figures", "tau_true"): 2,
        ("check", "tau_true"): 2,
    }

    @pytest.mark.parametrize("command, config", sorted(EXPECTED))
    def test_exit_code(self, tmp_path, capsys, command, config):
        path = write_cfg(tmp_path, edited_cfg(**self.CONFIGS[config]))
        argv = command.split() + ["--config", str(path), "--out", str(tmp_path)]
        argv += QUICK[argv[0]]
        rc = cli.main(argv)
        assert rc == self.EXPECTED[command, config]
        err = capsys.readouterr().err
        assert "numerical failure" not in err
        prefix = {0: "", 2: "config error: ", 3: "assumption failure: "}[rc]
        assert err.startswith(prefix), err


class TestTauFlag:
    def test_check_echoes_and_uses_tau(self, capsys):
        assert cli.main(["check", "--config", str(PAPER_CFG), "--tau", "0.9"]) == 0
        at_09 = capsys.readouterr().out
        assert "tau_hat = 0.9," in at_09
        assert cli.main(["check", "--config", str(PAPER_CFG)]) == 0
        at_05 = capsys.readouterr().out
        assert "tau_hat = 0.5," in at_05
        a2 = [line for line in at_09.splitlines() if line.startswith("assumption 2")]
        assert a2 and a2[0] not in at_05

    def test_figures_use_tau(self, tmp_path):
        comments = {}
        for tau in ("0.5", "0.9"):
            out = tmp_path / tau
            argv = ["figures", "--config", str(PAPER_CFG), "--grid", "5"]
            assert cli.main(argv + ["--tau", tau, "--out", str(out)]) == 0
            comments[tau] = [
                line
                for n in (1, 3)
                for line in (out / f"fig{n}.csv").read_text().splitlines()
                if line.startswith("#")
            ]
        s_05, natural_05, policy_05 = comments["0.5"]
        s_09, natural_09, policy_09 = comments["0.9"]
        assert s_05 == "# stigma S = 0.5"
        # comment values use the 12-digit CSV format: S is 0.9000000000000001
        assert s_09 == "# stigma S = 0.9"
        assert natural_09 == natural_05 == "# hot threshold natural = 0.285714285714"
        assert policy_05 == "# hot threshold policy  = 0.175824175824"
        assert policy_09 == "# hot threshold policy  = 0.171632896305"


class TestFlagsPerCommand:
    """Each command takes only the run settings it reads (README's CLI table):
    a non-default value of one it takes changes its output or exit code, and
    any other flag, or an abbreviated one, exits 2 before anything is written."""

    TAKES = {
        "check": ("--tau", "--strict"),
        "evaluate": ("--tau",),
        "sweep": ("--grid",),
        "optimize": ("--tol",),
        "simulate": ("--tau", "--pairs", "--seed"),
        "figures": ("--tau", "--grid", "--svg"),
    }
    # a non-default in-range value of each flag; the switches take none
    VALUES = {"--tau": ["0.9"], "--grid": ["7"], "--tol": ["1e-3"],
              "--pairs": ["2000"], "--seed": ["7"], "--strict": [], "--svg": []}

    @staticmethod
    def run(argv, out, capsys):
        """(exit code, stdout, files written), and stderr."""
        out.mkdir()
        rc = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return (rc, captured.out.replace(str(out), "<out>"), files), captured.err

    @pytest.mark.parametrize("flag", sorted(VALUES))
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_a_flag_is_read_or_refused(self, tmp_path, capsys, command, flag):
        # --strict shows only on a config that fails assumption 3 (c_h = 0.3)
        config = write_cfg(tmp_path, edited_cfg(c_h="0.3")) if flag == "--strict" else PAPER_CFG
        argv = [command, "--config", str(config)]
        result, err = self.run(argv + [flag, *self.VALUES[flag]], tmp_path / "flag", capsys)
        if flag in self.TAKES[command]:
            plain, _ = self.run(argv, tmp_path / "plain", capsys)
            assert plain[0] == 0
            assert result != plain
        else:
            # reported with the usage of the command, which lists the flags it takes
            assert result == (2, "", {})
            assert err.startswith(f"usage: stigmagame {command} [-h] --config CONFIG")
            assert f"stigmagame {command}: error: unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("argv", [["optimize", "--t", "0.3"],
                                      ["sweep", "--conv", "paper_literal"]])
    def test_no_flag_is_abbreviated(self, tmp_path, capsys, argv):
        result, err = self.run(argv + ["--config", str(PAPER_CFG)], tmp_path / "out", capsys)
        assert result == (2, "", {})
        assert err.startswith(f"usage: stigmagame {argv[0]} [-h] --config CONFIG")
        assert f"stigmagame {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err


def fresh_main(argv, cwd):
    """main(argv) in a new interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "stigmagame.cli", *argv], cwd=cwd,
        env=dict(src_env(), COLUMNS="80"), capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    # main() builds the parser once per process and reuses it, so each call
    # must behave as the first call of a fresh process would

    def test_bad_argv_then_valid_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        bad = ["simulate", "--config", str(PAPER_CFG), "--pairs", "many", "--out", "out"]
        good = ["simulate", "--config", str(PAPER_CFG), "--pairs", "3000", "--seed", "5",
                "--out", "out"]
        runs = []
        for argv in (bad, good):
            runs.append((cli.main(argv), *capsys.readouterr()))
        sim = (tmp_path / "out" / "sim.csv").read_bytes()
        assert [run[0] for run in runs] == [2, 0]
        assert runs == [fresh_main(bad, tmp_path), fresh_main(good, tmp_path)]
        assert (tmp_path / "out" / "sim.csv").read_bytes() == sim

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["figures", "-h"]])
    def test_help_text_is_unchanged(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            assert cli.main(argv) == 0
            texts.append(capsys.readouterr().out)
        code, out, err = fresh_main(argv, tmp_path)
        assert (code, err) == (0, "")
        assert texts == [out, out]
        assert "usage: stigmagame" in out


@pytest.mark.parametrize("command", ["figures", "simulate"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_lazy_command_alone_writes_the_golden_bytes(config, command, tmp_path):
    # the first command of a fresh interpreter loads figures or montecarlo
    # itself, through the CLI module run as __main__
    out = tmp_path / "out"
    argv = [*COMMANDS[command], "--config", str(CONFIGS[config]), "--out", str(out)]
    code, stdout, err = fresh_main(argv, tmp_path)
    assert (code, err) == (0, "")
    texts = {"stdout": stdout.replace(str(out), "<out>").encode("utf-8")}
    texts.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
    hashes = {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()}
    assert hashes == GOLDEN[config, command]
