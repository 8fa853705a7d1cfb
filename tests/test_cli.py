import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from breatherlab import breathers as br
from breatherlab import cli
from breatherlab import functionals
from breatherlab import galerkin
from breatherlab import quadrature
from breatherlab import stability
from breatherlab.quadrature import window_plan

import loop_oracles


def run(args):
    return cli.main(args)


def _exit_code(argv):
    """cli.main's return value, or the code argparse exits with."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


_SMALL_MKDV = ["--family", "mkdv", "--alpha", "0.5", "--n", "10"]


class TestSpectrumCommand:
    def test_csv_output_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = [
            "spectrum", "--family", "mkdv", "--beta", "1", "--alpha", "0.5",
            "--x1", "0.09", "--n", "40", "--n-eigs", "4",
        ]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.startswith("# config:")
        assert "eig_index,eigenvalue" in text
        assert "# classification:" in text

    def test_json_schema(self, tmp_path):
        out = tmp_path / "s.json"
        assert run([
            "spectrum", "--family", "kksh", "--beta", "1", "--m", "0.5",
            "--n", "24", "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "eigenvalues", "classification", "diagnostics"}
        assert set(payload["classification"]) == {"n_neg", "kernel_dim", "gap"}
        assert set(payload["diagnostics"]) == {"asymmetry", "quadrature_drift", "nodes"}
        assert payload["config"]["family"] == "kksh"
        assert "L" in payload["config"]
        assert payload["config"]["n"] == 24 and isinstance(payload["config"]["n"], int)

    @pytest.mark.parametrize("argv", [
        ["--family", "kksh", "--beta", "1", "--k", "0.0005", "--n", "2"],  # doubles from 16 nodes
        ["--family", "kksh", "--beta", "1", "--m", "0.5", "--n", "24"],
        ["--family", "mkdv", "--alpha", "0.5", "--beta", "1", "--n", "10"],
    ])
    def test_json_reports_the_accepted_node_count(self, argv, capsys):
        assert run(["spectrum"] + argv + ["--format", "json"]) == 0
        nodes = json.loads(capsys.readouterr().out)["diagnostics"]["nodes"]
        args = cli.build_parser().parse_args(["spectrum"] + argv)
        problem = cli._problem(cli._family_from_args(args), cli._basis_size(args))
        assert nodes == galerkin.assemble(problem).nodes >= 2 * problem.plan.n_nodes

    def test_narrow_profile_passes_the_drift_gate(self, tmp_path):
        # beta = 3: the profile's complex singularities lie pi/6 off the line,
        # closer than a panel's width of 0.5
        out = tmp_path / "s.json"
        assert run([
            "spectrum", "--family", "mkdv", "--alpha", "0.2", "--beta", "3", "--n", "40",
            "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["diagnostics"]["quadrature_drift"] <= 1e-9

    def test_header_reports_the_time_and_its_normal_form(self, capsys):
        assert run(["spectrum", "--family", "mkdv", "--alpha", "0.5", "--t", "0.7", "--n", "10"]) == 0
        header = capsys.readouterr().out.split("\n")[0]
        x1 = br.normal_form(br.MkdvBreather(alpha=0.5, beta=1.0), 0.7).x1
        assert x1 > 10.0
        assert f" t={cli.fmt(0.7)} " in header
        assert f" x1_normal={cli.fmt(x1)} " in header
        assert " n=10 " in header

    def test_matrix_dump(self, tmp_path):
        dump = tmp_path / "m.csv"
        assert run([
            "spectrum", "--family", "mkdv", "--alpha", "1.0", "--n", "10",
            "--dump-matrix", str(dump), "--out", str(tmp_path / "x.csv"),
        ]) == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "# galerkin N=10 family=mkdv"
        assert len(lines) == 12
        assert len(lines[1].split(",")) == 11

    def test_invalid_parameters_exit_2(self, capsys):
        assert run(["spectrum", "--family", "sg", "--beta", "2.0", "--v", "0.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_m_at_the_line_endpoint_exit_2(self, capsys):
        assert run(["spectrum", "--family", "kksh", "--m", "1"]) == 2
        assert "m must lie in (0, 1), got 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["spectrum", "--family", "gardner", "--alpha", "0.5", "--beta", "1"], "--mu"),
        (["residual", "--family", "gardner", "--alpha", "0.5", "--beta", "1"], "--mu"),
        (["spectrum", "--family", "mkdv"], "--alpha"),
    ])
    def test_missing_family_parameter_exit_2(self, argv, flag, capsys):
        assert run(argv) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["residual", "--family", "mkdv", "--alpha", "0.5", "--mu", "0.3"], "--mu"),
        (["residual", "--family", "mkdv", "--alpha", "0.5", "--c", "2"], "--c"),
        (["spectrum", "--family", "sg", "--beta", "0.5", "--alpha", "0.5"], "--alpha"),
        (["residual", "--family", "kksh", "--k", "0.03", "--m", "0.2"], "--m"),
        (["residual", "--family", "sg-kink", "--beta", "2", "--x2", "4"], "--beta"),
        (["residual", "--family", "sg-kink", "--x2", "4"], "--x2"),
        (["residual", "--family", "mkdv-soliton", "--c", "1.5", "--v", "0.5"], "--v"),
        (["spectrum", "--family", "mkdv", "--alpha", "0.5", "--v", "0.3"], "--v"),
        (["residual", "--family", "nonzero-mean", "--mu", "1.3", "--c1", "0.9", "--p", "2",
          "--q", "3", "--x1", "0.2"], "--x1"),
    ])
    def test_flag_the_family_does_not_take_exit_2(self, argv, flag, capsys):
        assert run(argv) == 2
        assert flag in capsys.readouterr().err

    _SG = ["--family", "sg", "--beta", "0.5", "--v", "0.7"]
    _KKSH = ["--family", "kksh", "--beta", "1", "--k", "0.03"]

    @pytest.mark.parametrize("argv,flag", [
        # only the kink reads (a, b); a breather fixes its own
        (["residual", *_SG, "--a", "5", "--b", "2"], "--a"),
        (["residual", *_SG, "--b", "2"], "--b"),
        (["residual", "--family", "mkdv", "--alpha", "0.5", "--a", "0"], "--a"),
        # a torus family's grid spans its period
        (["residual", *_KKSH, "--grid-lo", "-3", "--grid-hi", "3"], "--grid-lo"),
        (["residual", *_KKSH, "--grid-hi", "3"], "--grid-hi"),
        # --dim-total sets the basis size
        (["spectrum", *_SG, "--n", "80", "--dim-total", "10"], "--n"),
        (["sweep", *_SG, "--n", "5", "--dim-total", "10", "--param", "x1", "--values", "0"], "--n"),
    ])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_flag_the_run_would_ignore_exit_2(self, argv, flag, from_config, tmp_path, capsys):
        if from_config:
            # a key in a config file counts as given
            at = argv.index(flag)
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]} = {argv[at + 1]}\n")
            argv = argv[:at] + argv[at + 2:] + ["--config", str(cfg)]
        assert run(argv) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,given", [
        (["residual", "--family", "mkdv", "--alpha", "0.5"], ["--grid-lo", "-10", "--grid-hi", "10"]),
        (["residual", "--family", "sg-kink", "--v", "0.4"], ["--a", "0"]),
        (["residual", *_KKSH], ["--grid-points", "200"]),
        (["spectrum", "--family", "mkdv", "--alpha", "0.5"], ["--n", "80"]),
    ])
    def test_a_default_prints_what_its_value_prints(self, argv, given, capsys):
        assert run(argv) == 0
        defaulted = capsys.readouterr().out
        assert run(argv + given) == 0
        assert capsys.readouterr().out == defaulted

    @pytest.mark.parametrize("argv", [
        ["spectrum", *_SMALL_MKDV, "--dim-total", "50"],
        ["sweep", *_SMALL_MKDV, "--dim-total", "50", "--param", "x1", "--values", "0"],
        ["spectrum", "--family", "sg", "--beta", "0.5", "--v", "0.7", "--dim-total", "21"],
        ["spectrum", "--family", "sg", "--beta", "0.5", "--v", "0.7", "--dim-total", "0"],
    ])
    def test_bad_dim_total_exit_2(self, argv, capsys):
        assert run(argv) == 2
        assert "--dim-total" in capsys.readouterr().err

    def test_dim_total_is_the_sg_matrix_size(self, tmp_path):
        dump = tmp_path / "m.csv"
        assert run([
            "spectrum", "--family", "sg", "--beta", "0.5", "--v", "0.7", "--dim-total", "20",
            "--dump-matrix", str(dump), "--out", str(tmp_path / "s.csv"),
        ]) == 0
        assert len(dump.read_text().strip().split("\n")) == 1 + 20


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=mkdv\nalpha=0.5\nbeta=1.0\nn=24\nx1=0.09\n")
        out1 = tmp_path / "c1.csv"
        assert run(["spectrum", "--family", "mkdv", "--config", str(cfg), "--out", str(out1)]) == 0
        assert "alpha=0.5" in out1.read_text().split("\n")[0]
        out2 = tmp_path / "c2.csv"
        assert run([
            "spectrum", "--family", "mkdv", "--config", str(cfg),
            "--alpha", "0.7", "--out", str(out2),
        ]) == 0
        assert "alpha=0.7" in out2.read_text().split("\n")[0]

    def test_config_value_prints_the_same_header_as_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1\nx1 = 0\n")
        base = ["residual", "--family", "mkdv"]
        assert run(base + ["--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert run(base + ["--alpha", "1", "--x1", "0"]) == 0
        assert from_file == capsys.readouterr().out

    @pytest.mark.parametrize("argv,text", [
        (["spectrum", *_SMALL_MKDV], "n = abc\n"),
        (["residual", "--family", "nonzero-mean", "--mu", "1.3", "--c1", "0.9", "--q", "3"],
         "p = 22.5\n"),
        (["spectrum", "--family", "mkdv", "--n", "10"], "alpha =\n"),
        (["spectrum", *_SMALL_MKDV], "func = x\n"),
        (["spectrum", *_SMALL_MKDV], "beta 1\n"),
        (["spectrum", *_SMALL_MKDV], "format = xml\n"),
        (["spectrum", *_SMALL_MKDV], "colour = red\n"),
    ])
    def test_bad_config_file_exit_2(self, tmp_path, argv, text, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert _exit_code(argv + ["--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_file_exit_2(self, tmp_path, name, capsys):
        argv = ["spectrum", *_SMALL_MKDV, "--config", str(tmp_path / name)]
        assert _exit_code(argv) == 2
        assert "error" in capsys.readouterr().err


class TestSweepAndTable:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--family", "mkdv", "--alpha", "0.5", "--n", "24",
            "--param", "x1", "--values", "0.0,0.5", "--out", str(out),
        ]) == 0
        rows = [l for l in out.read_text().split("\n") if l and not l.startswith("#")]
        assert rows[0].startswith("x1,eig1")
        assert len(rows) == 3

    def test_sweep_sets_the_swept_field_and_echoes_the_first_row(self, capsys):
        # kksh needs --k or --m: the swept k supplies it in each row
        assert run(["sweep", "--family", "kksh", "--beta", "1", "--n", "10",
                    "--param", "k", "--values", "0.01,0.02"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert " k=0.0100000000 " in lines[0] and " sweep=k " in lines[0]
        assert [l.split(",")[0] for l in lines if l[:1].isdigit()] == ["0.0100000000", "0.0200000000"]

    def test_table_preset_6_9(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["table", "--preset", "table-6-9", "--out", str(out)]) == 0
        text = out.read_text()
        rows = [l for l in text.split("\n") if l and not l.startswith("#")]
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert vals[0] == pytest.approx(-4.86, abs=0.1)
        assert abs(vals[1]) <= 1e-5 and abs(vals[2]) <= 1e-5
        assert vals[3] == pytest.approx(35.35, abs=0.5)
        # the header announces n_neg, kernel_dim, gap and the two diagnostics
        assert "# classification: n_neg=1 kernel_dim=2 gap=35.35" in text
        assert re.search(r"^# diagnostics: asymmetry=\S+ quadrature_drift=\S+$", text, re.M)

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_table_writes_what_its_command_writes(self, preset, tmp_path):
        table, command = tmp_path / "table.csv", tmp_path / "command.csv"
        assert run(["table", "--preset", preset, "--n-eigs", "3", "--out", str(table)]) == 0
        assert run(cli.PRESETS[preset].split() + ["--n-eigs", "3", "--out", str(command)]) == 0
        assert table.read_bytes() == command.read_bytes()

    def test_unknown_preset_exit_2(self):
        assert run(["table", "--preset", "fig99"]) == 2

    def test_fig20_rows_all_lie_below_kstar(self, tmp_path):
        out = tmp_path / "fig20.csv"
        assert run(["table", "--preset", "fig20", "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert len([l for l in lines if l[:1].isdigit()]) == 7
        assert not any(l.startswith("# skipped") for l in lines)

    def test_k_above_kstar_exit_2_shows_the_bound(self, capsys):
        assert run(["spectrum", "--family", "kksh", "--k", "0.058836254"]) == 2
        err = capsys.readouterr().err.strip()
        bound, rejected = re.search(r"k must lie in \(0, (\S+)\), got (\S+)$", err).groups()
        assert float(bound) == stability.find_kstar()
        assert float(bound) < float(rejected)

    @pytest.mark.parametrize("argv,dim", [
        (["sweep", "--family", "sg", "--beta", "0.5", "--n", "3", "--n-eigs", "10",
          "--param", "x1", "--values", "0.1"], 6),
        (["table", "--preset", "fig14-left", "--n-eigs", "60"], 50),
    ])
    def test_more_eigenvalues_than_the_matrix_dimension_exit_2(self, argv, dim, capsys):
        # the header would name more eig columns than each row holds
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"matrix dimension {dim}" in captured.err

    @pytest.mark.parametrize("argv,dim", [
        (["table", "--preset", "table-6-9", "--n-eigs", "100"], 81),
        # the default --n-eigs of 8 at a dimension of 5
        (["spectrum", "--family", "kksh", "--beta", "1", "--k", "0.0005", "--n", "2"], 5),
    ])
    def test_a_spectrum_prints_every_eigenvalue_when_n_eigs_exceeds_the_dimension(self, argv, dim, capsys):
        # one eigenvalue per line, so a short list leaves no column empty
        assert run(argv) == 0
        rows = [l for l in capsys.readouterr().out.split("\n") if l[:1].isdigit()]
        assert [row.split(",")[0] for row in rows] == [str(i + 1) for i in range(dim)]

    @pytest.mark.parametrize("family_argv, param, values", [
        (["--family", "mkdv", "--beta", "1", "--alpha", "0.5", "--n", "40"], "x1", ["0.09", "1.53"]),
        (["--family", "kksh", "--beta", "1", "--x1", "0.1", "--n", "20"], "k", ["0.01", "0.05"]),
    ])
    def test_sweep_row_is_the_spectrum_run_at_its_value(self, family_argv, param, values, capsys):
        assert run(["sweep"] + family_argv + ["--param", param, "--values", ",".join(values)]) == 0
        rows = [l for l in capsys.readouterr().out.split("\n") if l[:1].isdigit()]
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            assert run(["spectrum"] + family_argv + [f"--{param}", value, "--n-eigs", "4"]) == 0
            out = capsys.readouterr().out
            eigs = [l.split(",")[1] for l in out.split("\n") if l[:1].isdigit()]
            cls = dict(kv.split("=") for kv in re.search(r"^# classification: (.*)$", out, re.M).group(1).split())
            diag = dict(kv.split("=") for kv in re.search(r"^# diagnostics: (.*)$", out, re.M).group(1).split())
            expected = [cli.fmt(float(value))] + eigs + [cls["n_neg"], cls["kernel_dim"], cls["gap"],
                                                        diag["asymmetry"], diag["quadrature_drift"]]
            assert row == ",".join(expected)

    def test_table_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["table", "--preset", "table-6-9", "--out", str(a)]) == 0
        assert run(["table", "--preset", "table-6-9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOtherCommands:
    def test_residual(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run([
            "residual", "--family", "gardner", "--alpha", "0.5", "--beta", "1.0",
            "--mu", "0.1", "--out", str(out),
        ]) == 0
        text = out.read_text()
        val = float([l for l in text.split("\n") if l.startswith("stationary,")][0].split(",")[1])
        assert val < 1e-8

    def test_moving_kink_residual_defaults_to_admissible_b(self, tmp_path):
        out = tmp_path / "kink.csv"
        assert run(["residual", "--family", "sg-kink", "--v", "0.4", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().split("\n") if l.startswith("stationary_")]
        assert [name for name, _ in rows] == ["stationary_first", "stationary_second"]
        assert max(float(value) for _, value in rows) <= 1e-9

    def test_conserved(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run([
            "conserved", "--family", "sg", "--beta", "0.5", "--v", "0.7",
            "--kind", "energy", "--times", "0,0.7,2.1", "--out", str(out),
        ]) == 0
        text = out.read_text()
        rows = [l for l in text.split("\n") if l and not l.startswith("#") and l[0].isdigit()]
        assert float(rows[0].split(",")[1]) == pytest.approx(8.0, rel=1e-8)

    def test_sg_conserved_panels_follow_the_spatial_wavenumber(self, capsys):
        # the window resolves 6 times the spatial wavenumber alpha |v|; at
        # the time frequency alpha it would take more nodes
        fam = br.SgBreather(beta=0.5, v=0.7)
        n_nodes = functionals.family_plan(fam).n_nodes
        assert n_nodes == window_plan(fam, 6.0 * fam.alpha * abs(fam.v)).n_nodes
        assert n_nodes < window_plan(fam, 6.0 * fam.alpha).n_nodes
        assert run(["conserved", "--family", "sg", "--beta", "0.5", "--v", "0.7",
                    "--kind", "energy", "--times", "0,0.7,2.1"]) == 0
        drift = re.search(r"# max drift: (\S+)", capsys.readouterr().out).group(1)
        assert float(drift) <= 1e-10

    @pytest.mark.parametrize("mu", ["0.3", "1"])
    def test_gardner_f_passes_the_drift_gate(self, mu, capsys):
        # the F density cancels: its |density| integrates to 164 |F| at mu = 0.3
        assert run(["conserved", "--family", "gardner", "--alpha", "0.5", "--beta", "1", "--mu", mu,
                    "--kind", "f"]) == 0
        drift = re.search(r"# max drift: (\S+)", capsys.readouterr().out).group(1)
        assert float(drift) <= 1e-10

    def test_stability_csv(self, tmp_path):
        out = tmp_path / "hg.csv"
        assert run(["stability", "--beta", "1", "--k", "0.03,0.057", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().split("\n") if l and not l.startswith("#")]
        assert lines[0] == "beta,k,m,alpha,L,mass,a1,a2,D,HG,verdict"
        assert lines[1].endswith("stable-candidate")
        assert lines[2].endswith("unstable-candidate")

    def test_stability_prints_m_in_full(self, capsys):
        assert run(["stability", "--beta", "1", "--k", "0.001,2e-12"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.split("\n") if l and l[0].isdigit()]
        assert [float(r[1]) for r in rows] == [0.001, 2e-12]
        for r in rows:
            assert float(r[2]) == stability.solve_commensurability(float(r[1]), 1.0).m

    def test_stability_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BREATHER_THREADS", "1")
        out = tmp_path / "hg1.csv"
        assert run(["stability", "--beta", "1", "--k", "0.03,0.04", "--out", str(out)]) == 0
        monkeypatch.setenv("BREATHER_THREADS", "3")
        out2 = tmp_path / "hg3.csv"
        assert run(["stability", "--beta", "1", "--k", "0.03,0.04", "--out", str(out2)]) == 0
        assert out.read_text().split("\n")[3:] == out2.read_text().split("\n")[3:]

    @pytest.mark.parametrize("beta", ["nan", "-1", "inf", "0"])
    def test_stability_bad_beta_exit_2(self, beta, capsys):
        assert run(["stability", f"--beta={beta}", "--k", "0.03"]) == 2
        assert "beta must be positive and finite" in capsys.readouterr().err

    def test_stability_small_k(self, capsys):
        # k lies below the former fixed difference step of 1e-6
        assert run(["stability", "--beta", "1", "--k", "5e-7"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(",stable-candidate")

    def test_stability_k_below_double_precision_exit_2(self, capsys):
        assert run(["stability", "--beta", "1", "--k", "1e-12"]) == 2
        assert capsys.readouterr().err == (
            "error: k = 1e-12 needs 1 - m < 1e-15, which double precision cannot hold\n")

    def test_stability_reports_the_largest_lock_residual(self, capsys):
        ks = [0.001, 2e-12, 0.03, 0.058]
        assert run(["stability", "--beta", "1", "--k", ",".join(map(repr, ks))]) == 0
        lines = capsys.readouterr().out.split("\n")
        worst = max(abs(p.residual) / p.gate for p in map(stability.solve_commensurability, ks))
        assert lines[3] == f"# max commensurability residual / gate: {worst:.1e}"
        assert 0.0 < worst <= 1.0 and lines[4] == stability.StabilityReport.CSV_COLUMNS

    def test_backlund(self, tmp_path):
        out = tmp_path / "bk.csv"
        assert run([
            "backlund", "--c1", "1.65", "--c2", "2.95", "--p", "22", "--q", "23",
            "--out", str(out),
        ]) == 0
        text = out.read_text()
        get = lambda key: float(
            [l for l in text.split("\n") if l.startswith(key + ",")][0].split(",")[1]
        )
        assert get("mu") == pytest.approx(2.90966, abs=1e-4)
        assert get("superposition_vs_closed_form") < 1e-10
        assert get("seed_relation_residual") < 1e-10

    @pytest.mark.parametrize("mu, c1, p, q", [(1.0, 1.0, 4, 3), (1.0, 1.5, 5, 4), (1.0, 0.9, 2, 3)])
    def test_backlund_prints_the_construction_diagnostics(self, mu, c1, p, q, capsys):
        assert run(["backlund", f"--mu={mu}", f"--c1={c1}", f"--p={p}", f"--q={q}"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[3:])
        _, perm, seed = br.backlund_construct(mu, c1, p, q)
        assert rows["superposition_vs_closed_form"] == cli.fmt(perm)
        assert rows["seed_relation_residual"] == cli.fmt(seed)
        # |p| > |q| puts c2 below c1, where the recurrence once had the wrong shift
        assert float(rows["periodicity_defect"]) < 1e-12

    def test_backlund_needs_mu_or_c2(self):
        assert run(["backlund", "--c1", "1.0", "--p", "2", "--q", "3"]) == 2

    def test_backlund_takes_mu_or_c2_not_both(self, capsys):
        # --mu fixes c2 itself, so a given --c2 would go unread
        assert run(["backlund", "--mu", "1", "--c1", "1", "--c2", "5", "--p", "4", "--q", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: backlund takes --mu or --c2, not both\n"

    def test_numerical_quality_failure_exit_3(self, monkeypatch, capsys):
        from breatherlab import linops
        from breatherlab.quadrature import QuadratureError

        def broken(*a, **kw):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(linops, "operator_for", broken)
        assert run(["spectrum", "--family", "mkdv", "--alpha", "1.0", "--n", "10"]) == 3
        assert "numerical-quality" in capsys.readouterr().err

    def test_non_finite_matrix_exit_3(self, monkeypatch, capsys):
        from breatherlab import galerkin

        def nan_matrices(problems):
            return [galerkin.AssembledMatrix(matrix=np.full((p.dim, p.dim), math.nan), asymmetry=0.0, drift=0.0)
                    for p in problems]

        monkeypatch.setattr(galerkin, "assemble_all", nan_matrices)
        for argv in (["spectrum"] + _SMALL_MKDV, ["sweep"] + _SMALL_MKDV + ["--param", "x1", "--values", "0,1"]):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "numerical-quality failure: matrix has non-finite entries" in captured.err


_FAMILY_ARGV = {
    "mkdv": ["--alpha", "0.5", "--beta", "1", "--x1", "0", "--x2", "0"],
    "gardner": ["--alpha", "0.5", "--beta", "1", "--mu", "0.01", "--x1", "0", "--x2", "0"],
    "sg": ["--beta", "0.5", "--v", "0.3", "--x1", "0", "--x2", "0"],
    "kksh": ["--beta", "1", "--k", "0.03", "--x1", "0", "--x2", "0"],
    "nonzero-mean": ["--mu", "1.3", "--c1", "0.9", "--p", "2", "--q", "3"],
    "mkdv-soliton": ["--c", "1"],
    "gardner-soliton": ["--c", "1", "--mu", "0.5"],
    "sg-kink": ["--v", "0.3", "--a", "0", "--b", "0"],
}


# conserved takes no --a/--b: the kink has no single (a, b)
_CONSERVED_ARGV = {**_FAMILY_ARGV, "sg-kink": ["--v", "0.4"]}


@pytest.mark.parametrize("kind", ["mass", "energy", "momentum", "f", "lyapunov"])
@pytest.mark.parametrize("family", sorted(_CONSERVED_ARGV))
def test_conserved_exit_code_contract(family, kind, capsys):
    code = run(["conserved", "--family", family, "--kind", kind] + _CONSERVED_ARGV[family])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("family", sorted(_FAMILY_ARGV))
def test_non_finite_family_parameter_exit_2(family, bad, capsys):
    argv = _FAMILY_ARGV[family]
    for i in range(0, len(argv), 2):
        if argv[i] in ("--p", "--q"):  # integer flags
            continue
        bad_argv = argv[:i] + [f"{argv[i]}={bad}"] + argv[i + 2:]
        assert run(["residual", "--family", family] + bad_argv) == 2, argv[i]
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stability", "--k", "0.01:0.02:0"],
    ["stability", "--k", "0.02:0.01:0.001"],
    ["stability", "--k", "0.01:0.02:-0.001"],
    ["stability", "--k", "0.01:nan:0.001"],
    ["stability", "--k", "0.01:0.02:inf"],
    ["stability", "--k", "0:0.05:1e-9"],
    ["sweep", "--family", "mkdv", "--alpha", "0.5", "--param", "x1", "--values", "0:1:0"],
    ["sweep", "--family", "mkdv", "--alpha", "0.5", "--param", "x1", "--values", "1:0:-0.5"],
    ["sweep", "--family", "mkdv", "--alpha", "0.5", "--param", "x1", "--values", "1:2"],
    ["stability", "--k", "0.01:0.02"],
])
def test_bad_value_grid_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "grid" in capsys.readouterr().err


_MKDV = ["--family", "mkdv", "--alpha", "0.5"]


@pytest.mark.parametrize("argv,flag", [
    (["residual", *_MKDV, "--t=nan"], "--t"),
    (["residual", *_MKDV, "--t=-inf"], "--t"),
    (["residual", *_MKDV, "--grid-lo=nan"], "--grid-lo"),
    (["residual", *_MKDV, "--grid-hi=inf"], "--grid-hi"),
    (["residual", *_MKDV, "--grid-lo=1", "--grid-hi=1"], "--grid-lo"),
    (["residual", *_MKDV, "--grid-lo=2", "--grid-hi=-2"], "--grid-lo"),
    (["residual", *_MKDV, "--grid-points=0"], "--grid-points"),
    (["residual", *_MKDV, "--grid-points=1"], "--grid-points"),
    (["conserved", *_MKDV, "--kind", "f", "--times=nan"], "--times"),
    (["conserved", *_MKDV, "--kind", "f", "--times=0,inf,2"], "--times"),
    (["spectrum", *_MKDV, "--n", "10", "--n-eigs=-2"], "--n-eigs"),
    (["spectrum", *_MKDV, "--n", "10", "--n-eigs=0"], "--n-eigs"),
    (["sweep", *_MKDV, "--n", "10", "--n-eigs=0", "--param", "x1", "--values", "0"], "--n-eigs"),
    (["table", "--preset", "fig2", "--n-eigs=0"], "--n-eigs"),
    (["sweep", *_MKDV, "--n", "20", "--param", "n", "--values", "1,2"], "--param"),
    (["sweep", *_MKDV, "--n", "20", "--param", "family", "--values", "1,2"], "--param"),
    (["sweep", "--family", "sg-kink", "--n", "20", "--param", "x0", "--values", "1,2"], "--param"),
    (["sweep", "--family", "nonzero-mean", "--mu", "1.3", "--c1", "0.9", "--p", "2", "--q", "3",
      "--n", "20", "--param", "x1", "--values", "1,2"], "--param"),
    (["spectrum", *_MKDV, "--n", "10", "--kernel-tol=nan"], "kernel tolerance"),
    (["spectrum", *_MKDV, "--n", "10", "--kernel-tol=inf"], "kernel tolerance"),
    (["sweep", *_MKDV, "--n", "10", "--kernel-tol=nan", "--param", "x1", "--values", "0"],
     "kernel tolerance"),
    (["spectrum", *_MKDV, "--n", "10", "--t=nan"], "--t"),
])
def test_bad_run_flag_exit_2(argv, flag, capsys):
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


def test_residual_grid_points_above_the_bound_exit_2(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    assert run(["residual", *_MKDV, "--grid-points=10001"]) == 2
    assert capsys.readouterr().err == "error: --grid-points must be at most 10000, got 10001\n"


_NONZERO_MEAN = ["--family", "nonzero-mean", "--mu", "1.3", "--c1", "0.9"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["residual", *_NONZERO_MEAN, "--p", "1", "--q", "-1"],
                 "|p| != |q|, got p=1, q=-1", id="residual"),
    pytest.param(["conserved", *_NONZERO_MEAN, "--p", "-1", "--q", "1", "--kind", "mass"],
                 "|p| != |q|, got p=-1, q=1", id="conserved"),
    pytest.param(["backlund", "--mu", "1.3", "--c1", "0.9", "--p", "1", "--q", "-1"],
                 "|p| != |q|, got p=1, q=-1", id="backlund-mu"),
    pytest.param(["backlund", "--c1", "1", "--c2", "0.5", "--p", "2", "--q", "2"],
                 "|p| != |q|, got p=2, q=2", id="backlund-c2"),
    pytest.param(["backlund", "--c1", "1", "--c2", "0.5", "--p", "2", "--q", "-2"],
                 "|p| != |q|, got p=2, q=-2", id="backlund-c2-opposite"),
    pytest.param(["backlund", "--c1", "1", "--p", "1", "--q", "2", "--c2", "nan"],
                 "c1 and c2 must be finite, got 1.0 and nan", id="backlund-nan-c2"),
    pytest.param(["backlund", "--c1", "inf", "--p", "1", "--q", "2", "--c2", "1"],
                 "c1 and c2 must be finite, got inf and 1.0", id="backlund-inf-c1"),
])
def test_nonzero_mean_degenerate_parameters_exit_2(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", ["residual", "spectrum", "conserved"])
def test_sg_default_beta_is_named(command, capsys):
    # the default beta = 1 lies outside sg's range at v = 0
    extra = ["--kind", "mass"] if command == "conserved" else []
    assert run([command, "--family", "sg", *extra]) == 2
    assert "--beta was not given and took its default 1.0" in capsys.readouterr().err
    assert run([command, "--family", "sg", "--beta", "1.0", *extra]) == 2
    assert "--beta" not in capsys.readouterr().err


def test_default_beta_prints_the_same_as_the_flag(capsys):
    assert run(["residual", *_MKDV]) == 0
    implicit = capsys.readouterr()
    assert run(["residual", *_MKDV, "--beta", "1.0"]) == 0
    assert capsys.readouterr() == implicit


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_exit_3_without_warnings(capsys):
    assert run(["residual", *_MKDV, "--t", "1e300"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical-quality failure: overflow encountered in cosh\n"


def test_residual_nan_at_a_sampled_point_exit_3(monkeypatch, capsys):
    family = br.MkdvBreather(alpha=0.5, beta=1.0)
    loop_oracles.plant_nan(monkeypatch, br.MkdvBreather, loop_oracles.sample_xs(50, 0)[17])
    # the per-point loop dropped the NaN, and the run printed a finite pde value
    assert math.isfinite(loop_oracles.pde_residual_loop(family, n_points=50))
    assert run(["residual", *_MKDV]) == 3
    assert "pde is nan" in capsys.readouterr().err


def test_backlund_nan_periodicity_defect_exit_3(monkeypatch, capsys):
    loop_oracles.plant_nan(monkeypatch, br.NonzeroMeanBreather, loop_oracles.sample_xs(40, 0)[5])
    assert run(["backlund", "--c1", "1.65", "--c2", "2.95", "--p", "22", "--q", "23"]) == 3
    assert "periodicity_defect is nan" in capsys.readouterr().err


_EDGE_FLOATS = hs.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300])


@settings(max_examples=150, deadline=None)
@given(
    beta=hs.floats() | hs.floats(min_value=0.01, max_value=100.0) | _EDGE_FLOATS,
    k=hs.floats() | hs.floats(min_value=0.0, max_value=0.06) | _EDGE_FLOATS,
)
def test_stability_exit_code_contract(beta, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["stability", f"--beta={beta!r}", f"--k={k!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        row = out.getvalue().rstrip().split("\n")[-1].split(",")
        # only a degenerate row carries NaN, in its HG column
        values = row[:-2] if row[-1] == "degenerate" else row[:-1]
        assert all(math.isfinite(float(v)) for v in values)


_GRID_FLOATS = hs.floats() | hs.floats(min_value=-0.1, max_value=0.1) | _EDGE_FLOATS


@settings(max_examples=150, deadline=None)
@given(a=_GRID_FLOATS, b=_GRID_FLOATS, step=_GRID_FLOATS)
def test_value_grid_exit_code_contract(a, b, step):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["stability", f"--k={a!r}:{b!r}:{step!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(t=_GRID_FLOATS, lo=_GRID_FLOATS, hi=_GRID_FLOATS)
def test_residual_exit_code_contract(t, lo, hi):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["residual", *_MKDV, f"--t={t!r}", f"--grid-lo={lo!r}", f"--grid-hi={hi!r}"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue()


# cheap runs: the command line fixes the basis size and the family
_CONFIG_BASE = {
    "spectrum": ["spectrum", *_SMALL_MKDV],
    "residual": ["residual", *_MKDV],
    "stability": ["stability", "--k", "0.03"],
}
# paths the run would write to
_PATH_KEYS = {"help", "out", "dump_matrix"}
# an unbounded basis or grid size can allocate many GB
_SIZE_KEYS = {"n", "grid_points", "dim_total", "n_eigs"}
# no flag begins with any of these, so argparse cannot take one as an abbreviation
_UNKNOWN_KEYS = ["func", "colour", "nodes", "x_3", "Beta", ""]
_CONFIG_VALUES = (
    hs.text(hs.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=10)
    | hs.floats().map(repr)
    | hs.integers(-5, 100).map(str)
    | hs.sampled_from(["", "nan", "-inf", "1e300", "csv", "json", "mkdv", "0:1:0.5"])
)


def _config_keys(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [o for a in sub.choices[command]._actions for o in a.option_strings]
    keys = {o[2:].replace("-", "_") for o in flags if o.startswith("--")}
    return sorted(keys - _PATH_KEYS) + _UNKNOWN_KEYS


def _config_line(key):
    values = hs.integers(-2, 64).map(str) if key in _SIZE_KEYS else _CONFIG_VALUES
    return values.map(lambda value: f"{key} = {value}")


@settings(max_examples=150, deadline=None)
@given(data=hs.data())
def test_config_file_exit_code_contract(data):
    command = data.draw(hs.sampled_from(sorted(_CONFIG_BASE)))
    keys = _config_keys(command)
    lines = data.draw(hs.lists(hs.sampled_from(keys).flatmap(_config_line), max_size=4))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _exit_code([*_CONFIG_BASE[command], "--config", path])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# every subcommand on cheap inputs: the run's fixed flags, then the flags a
# run may add, each with the values it may take
_FAMILY_VALUES = ["-1", "0", "0.03", "0.3", "0.5", "0.9", "1", "2", "nan", "inf"]
_ARGV_FLAGS = {
    "family": list(br.FAMILIES),
    "beta": _FAMILY_VALUES, "v": _FAMILY_VALUES, "alpha": _FAMILY_VALUES, "mu": _FAMILY_VALUES,
    "k": _FAMILY_VALUES, "m": _FAMILY_VALUES, "c": _FAMILY_VALUES, "c1": _FAMILY_VALUES,
    "c2": _FAMILY_VALUES, "p": ["-1", "1", "2", "3"], "q": ["-1", "1", "2", "3"],
    "x1": ["0", "0.4", "nan"], "n": ["1", "2", "5"], "n_eigs": ["0", "1", "4", "12"],
    "t": ["0", "1", "1e300", "nan"], "grid_points": ["1", "2", "20"], "kind": ["mass", "energy"],
    "param": ["x1", "v", "beta"], "values": ["0", "0.1,0.3", "0:0.2:0.1", "a"],
    "preset": ["fig14-left", "fig14-right", "table-6-9", "fig0"],
}
_ARGV_COMMANDS = {
    "spectrum": (["spectrum", "--family", "mkdv", "--n", "4"],
                 ["family", "beta", "v", "alpha", "mu", "k", "m", "c", "c1", "p", "q", "x1", "n",
                  "n_eigs", "t"]),
    "sweep": (["sweep", "--family", "mkdv", "--alpha", "0.5", "--n", "4", "--param", "x1",
               "--values", "0,0.5"],
              ["family", "beta", "v", "alpha", "mu", "k", "x1", "n", "n_eigs", "param", "values"]),
    "table": (["table", "--preset", "fig0"], ["preset", "n_eigs"]),
    "residual": (["residual", "--family", "mkdv", "--alpha", "0.5", "--grid-points", "20"],
                 ["family", "beta", "v", "alpha", "mu", "k", "m", "c", "c1", "c2", "p", "q",
                  "x1", "t", "grid_points"]),
    "conserved": (["conserved", "--family", "mkdv", "--alpha", "0.5", "--kind", "mass",
                   "--times", "0,1"],
                  ["family", "beta", "v", "alpha", "mu", "k", "c", "c1", "p", "q", "kind"]),
    "stability": (["stability", "--k", "0.03"], ["beta", "k"]),
    "backlund": (["backlund", "--c1", "1.65", "--p", "2", "--q", "3"], ["mu", "c1", "c2", "p", "q"]),
}


def _argv(command):
    base, keys = _ARGV_COMMANDS[command]

    def flag(key):
        return hs.sampled_from(_ARGV_FLAGS[key]).map(lambda v: f"--{key.replace('_', '-')}={v}")

    return hs.lists(hs.sampled_from(keys).flatmap(flag), max_size=3).map(lambda extra: base + extra)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(argv=hs.sampled_from(sorted(_ARGV_COMMANDS)).flatmap(_argv))
# four eig columns in the header over a three-dimensional matrix
@example(argv=_ARGV_COMMANDS["sweep"][0] + ["--n=2"])
def test_every_subcommand_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
        width = lines[0].count(",")
        assert all(ln.count(",") == width for ln in lines[1:])


def test_number_format():
    assert cli.fmt(0.0) == "0"
    assert cli.fmt(12.5) == "12.5000000000"
    assert cli.fmt(1e-5) == "1.0000000000e-05"
    assert cli.fmt(3) == "3"
    assert cli.fmt(np.int64(3)) == "3"
    # an np.float64 takes the float path and prints as the Python float does
    for x in (0.0, -0.0, 1e-3, math.nextafter(1e-3, 0.0), -2.75, math.nan, math.inf, -math.inf):
        assert cli.fmt(np.float64(x)) == cli.fmt(x)
    assert [cli.fmt(x) for x in (-0.0, 1e-3, math.nextafter(1e-3, 0.0), -2.75)] == [
        "0", "0.0010000000", "1.0000000000e-03", "-2.7500000000"]


def test_value_range_parsing():
    assert cli._parse_values("1,2,3") == [1.0, 2.0, 3.0]
    vals = cli._parse_values("0.0:1.0:0.25")
    assert vals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    # the stability sweep's grid: a + i step, unchanged by the validation
    assert cli._parse_values("0.001:0.058:0.0005") == [0.001 + i * 0.0005 for i in range(115)]
    for spec in ("1:2", "0.01:0.02", "0:1:0.5:2"):
        with pytest.raises(ValueError, match=re.escape(f"grid {spec!r} must be a:b:step")):
            cli._parse_values(spec)


@pytest.mark.parametrize("argv,n_nodes", [
    # a Hermite plan: the strip term 48 beta of the node step
    (["spectrum", "--family", "mkdv", "--alpha", "0.5", "--beta", "1e7", "--n", "4"], 1870537856),
    # a functional window: the harmonic 6 alpha
    (["conserved", "--family", "mkdv", "--alpha", "1e7", "--beta", "1", "--kind", "mass"], 763944186),
])
def test_an_oversized_plan_exits_2_before_any_node_is_made(argv, n_nodes, monkeypatch, capsys):
    def no_nodes(plan, refine=1):
        raise AssertionError(f"nodes made for a plan of {plan.n_nodes}")

    monkeypatch.setattr(quadrature.TrapezoidPlan, "nodes_weights", no_nodes)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"needs {n_nodes} nodes" in err
    assert str(quadrature.MAX_NODES) in err


def test_an_oversized_sweep_exits_2_before_any_node_is_made(monkeypatch, capsys):
    def no_nodes(plan, refine=1):
        raise AssertionError(f"nodes made for a plan of {plan.n_nodes}")

    monkeypatch.setattr(quadrature.TrapezoidPlan, "nodes_weights", no_nodes)
    # 10,000 rows of dimension 101 hold 1.0e8 entries, more than 8 * 1024^2
    argv = ["sweep", "--family", "kksh", "--beta", "1", "--k", "0.03", "--n", "50",
            "--param", "x1", "--values", "0:0.9999:0.0001"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: the sweep would hold 10000 matrices of dimension 101, more than "
        f"{cli.MAX_SWEEP_ENTRIES} entries (8 x {galerkin.MAX_DIM}^2) allowed\n")
    assert cli.MAX_SWEEP_ENTRIES == 8 * galerkin.MAX_DIM**2


@pytest.mark.parametrize("argv,dim", [
    (["spectrum", "--family", "kksh", "--beta", "1", "--k", "0.03", "--n", "30000"], 60001),
    (["spectrum", "--family", "mkdv", "--alpha", "0.5", "--n", "20000"], 20001),
    (["spectrum", "--family", "sg", "--beta", "0.5", "--dim-total", "1026"], 1026),
    (["sweep", "--family", "kksh", "--beta", "1", "--k", "0.03", "--n", "512",
      "--param", "k", "--values", "0.02,0.03"], 1025),
])
def test_an_oversized_matrix_exits_2_before_any_node_is_made(argv, dim, monkeypatch, capsys):
    def no_nodes(plan, refine=1):
        raise AssertionError(f"nodes made for a plan of {plan.n_nodes}")

    monkeypatch.setattr(quadrature.TrapezoidPlan, "nodes_weights", no_nodes)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: the Galerkin matrix would have dimension {dim}, more than the {galerkin.MAX_DIM} allowed\n"


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _run_fresh(script):
    """Run a script on a fresh interpreter that imports this source tree."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestHeapPolicy:
    """``cli.main`` keeps freed heap for the next node block: it sets glibc's
    mmap and trim thresholds once per process, and importing the package
    sets nothing."""

    MKDV_F = ["conserved", "--family", "mkdv", "--alpha", "0.5", "--beta", "1",
              "--kind", "f", "--times", "0,0.7,2.1"]

    @pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in this C library")
    def test_a_repeated_command_faults_in_no_fresh_pages(self):
        # with glibc's default thresholds the heap is trimmed after every node
        # block, and the second call faults in several hundred pages again
        out = _run_fresh(f"""
            import contextlib, io, resource
            from breatherlab import cli

            def faults():
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

            added = []
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    before = faults()
                    assert cli.main({self.MKDV_F!r}) == 0
                    added.append(faults() - before)
            print(added[1])
        """)
        assert int(out) < 20

    def test_main_sets_both_thresholds_once_and_import_sets_none(self):
        out = _run_fresh(f"""
            import contextlib, ctypes, io, types
            calls = []

            def mallopt(param, value):
                calls.append((param, value))
                return 1

            ctypes.CDLL = lambda name, *args, **kwargs: types.SimpleNamespace(mallopt=mallopt)
            import breatherlab
            from breatherlab import (breathers, cli, functionals, galerkin, jets,
                                     linops, quadrature, specfun, stability)
            print(calls)
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(2):
                    assert cli.main({self.MKDV_F!r}) == 0
            print(calls)
        """)
        assert out.splitlines() == ["[]", repr([(-3, 32 << 20), (-1, 64 << 20)])]

    @pytest.mark.parametrize("cdll", [
        lambda name: (_ for _ in ()).throw(OSError("no C library")),
        lambda name: (_ for _ in ()).throw(TypeError("no handle for None")),
        lambda name: object(),
    ], ids=["OSError", "TypeError", "no-mallopt"])
    def test_without_mallopt_main_runs_as_before(self, cdll, monkeypatch, capsys):
        assert run(self.MKDV_F) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._retain_heap.cache_clear()
        try:
            assert run(self.MKDV_F) == 0
            assert capsys.readouterr().out == expected
            assert cli._retain_heap.cache_info().misses == 1
        finally:
            cli._retain_heap.cache_clear()
