import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dyadosc as d
from dyadosc import cli, martingale
from oracles import left_neighbor


def run(args):
    return cli.main(args)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["phi"]) == 2  # missing --eta

    def test_unknown_command(self):
        assert run(["no-such-thing"]) == 2

    def test_domain_error(self, tmp_path):
        assert run(["phi", "--eta", "1.5", "--out", str(tmp_path)]) == 3

    def test_weierstrass_phase_past_the_float_range(self, tmp_path, capsys):
        # in-domain --x-max whose top phase b^(N-1) x overflows: the batch
        # used to write 5e+307,nan and 1e+308,nan rows and exit 0
        out = tmp_path / "w"
        assert run(["weierstrass", "--alpha", "0.5", "--points", "3",
                    "--x-max", "1e308", "--out", str(out)]) == 3
        assert "x = 5e+307" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_eps_with_an_infinite_reciprocal(self, tmp_path):
        # 1/eps overflowed to inf and the octave loop never ended: in a
        # subprocess, so that a hang fails the test instead of the suite
        out = tmp_path / "t"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(d.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dyadosc import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "theta", "--alpha", "0.5",
             "--eps", "5e-324", "--points", "2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert "eps = 5e-324" in proc.stderr
        assert not out.exists()

    def test_depth_cap(self, tmp_path):
        assert run(["schedule", "--beta", "0.5", "--stages", "1",
                    "--depth", "16", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("argv", [
        ["mass-measure", "--martingale", "binary", "--eta", "0.5", "--depth", "7"],
        ["mass-measure", "--martingale", "block-discounted", "--eta", "0.25",
         "--depth", "7"],
        ["martingale-extract", "--b", "2", "--alpha", "0.5", "--depth", "7"],
    ])
    def test_sweep_budget(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(martingale, "SWEEP_CELL_BUDGET", 1 << 6)
        assert run(argv + ["--out", str(tmp_path)]) == 4
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag, count", [
        ("--pairs", "0"), ("--pairs", "-1"), ("--points", "0"), ("--points", "-1"),
    ])
    def test_counterexample_sample_counts(self, tmp_path, flag, count):
        # no certificate from zero samples, and no traceback from fewer
        assert run(["counterexample", "--alpha", "0.5", "--stages", "1",
                    "--depth", "160", "--pairs", "20", "--points", "5",
                    flag, count, "--seed", "6", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["gap", "--panels", "0"], ["gap", "--panels", "-2"],
        ["gap", "--points", "0"], ["gap", "--points", "-1"],
        ["theta", "--panels", "0"], ["theta", "--panels", "-2"],
    ])
    def test_quadrature_counts(self, tmp_path, argv):
        # no gap profile from zero points, and no traceback from zero panels
        small = {"gap": ["--depth", "6", "--first-level", "5", "--points", "2",
                         "--panels", "4", "--seed", "1"],
                 "theta": ["--eps", "0.01", "--points", "2", "--panels", "4"]}
        assert run(argv[:1] + ["--alpha", "0.5"] + small[argv[0]] + argv[1:]
                   + ["--out", str(tmp_path)]) == 3
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, flag", [
        (["theta", "--alpha", "0.5", "--eps", "0.001", "--panels", "1000000000000",
          "--points", "1"], "panels"),
        (["gap", "--alpha", "0.5", "--seed", "1", "--panels", "1000000000000",
          "--points", "1"], "panels"),
        (["sigma-stats", "--alpha", "0.5", "--seed", "1", "--samples", "100000000000"],
         "samples"),
        (["weierstrass", "--alpha", "0.5", "--points", "1000000000000"], "--points"),
        # one row of 239,675 points at 70 terms passes 2^24 cells by 34
        (["weierstrass", "--alpha", "0.5", "--points", "239675"], "--points"),
        (["theta", "--alpha", "0.5", "--eps", "0.001", "--points", "1000000000000"],
         "--points"),
        (["gap", "--alpha", "0.5", "--seed", "1", "--points", "1000000000000"], "--points"),
        (["gap", "--alpha", "0.5", "--seed", "1", "--depth", "1000000000000"], "--depth"),
        (["lemma32", "--eta", "0.5", "--n", "1000000000000", "--count", "1", "--seed", "1"],
         "--n"),
        (["counterexample", "--alpha", "0.5", "--pairs", "1000000000000", "--points", "1",
          "--seed", "1"], "pairs"),
    ])
    def test_count_budget(self, tmp_path, capsys, argv, flag):
        # each asked numpy for terabytes and ended in a MemoryError traceback
        assert run(argv + ["--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["theta", "--eps", "0.01", "--points", "0"],
        ["theta", "--eps", "0.01", "--points", "-1"],
        ["weierstrass", "--points", "0"], ["weierstrass", "--points", "-1"],
        ["sigma-stats", "--samples", "0", "--seed", "1"],
        ["sigma-stats", "--samples", "-1", "--seed", "1"],
    ])
    def test_empty_sample_counts(self, tmp_path, capsys, argv):
        # no header-only table and no traceback from zero points or samples
        assert run(argv[:1] + ["--alpha", "0.5"] + argv[1:]
                   + ["--out", str(tmp_path)]) == 3
        assert not list(tmp_path.glob("*.csv"))
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["lemma32", "--eta", "0.5", "--count", "0", "--seed", "1"], "--count"),
        (["lemma32", "--eta", "0.5", "--n", "0", "--seed", "1"], "--n"),
        (["lemma32", "--eta", "0.5", "--n", "-2", "--seed", "1"], "--n"),
        (["besicovitch", "--eta", "1/2", "--levels", "20,x"], "--levels"),
        (["dim-estimate", "--counts", "5"], "--counts"),
        (["mass-measure", "--eta", "0.5", "--depth", "-1"], "depth"),
        (["block", "--delta", "0.125", "--beta", "0.5", "--level", "2",
          "--index", "9"], "index"),
        (["mass-measure", "--martingale", "random", "--eta", "0.5"], "--seed"),
        (["wavelet", "--alpha", "0.5", "--points", "-1", "--seed", "1"], "--points"),
        (["besicovitch", "--eta", "x"], "--eta"),
        (["lemma32", "--eta", "1.5", "--seed", "1"], "--eta"),
        (["martingale-extract", "--alpha", "0.5", "--depth", "-1"], "depth"),
        (["wavelet", "--alpha", "0.5", "--eps", "-1", "--seed", "1"], "eps"),
        (["wavelet", "--alpha", "0.5", "--eps", "0", "--seed", "1"], "eps"),
        (["wavelet", "--alpha", "0.5", "--eps", "nan", "--seed", "1"], "eps"),
        (["block", "--delta", "nan", "--beta", "0.5"], "--delta"),
        (["block", "--delta", "0.125", "--beta", "nan"], "--beta"),
        (["verify-all", "--depth", "8", "--seed", "-1"], "--seed"),
        (["counterexample", "--alpha", "0.5", "--seed", "-1"], "--seed"),
        (["gap", "--alpha", "0.5", "--seed", "-1"], "--seed"),
        (["lemma32", "--eta", "0.5", "--seed", "-1"], "--seed"),
        (["sigma-stats", "--alpha", "0.5", "--seed", "-1"], "--seed"),
        (["sigma-stats", "--alpha", "0.5", "--eps", "5e-324", "--samples", "100",
          "--seed", "1"], "eps"),
    ])
    def test_bad_input_names_its_flag(self, tmp_path, capsys, argv, flag):
        # all but the --seed case ended in a traceback, a vacuous exit 0 or
        # the depth-cap exit 4
        assert run(argv + ["--out", str(tmp_path)]) == 3
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_all_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(d.divdiff, "theta_linear_closed_form", lambda *a: math.inf)
        assert run(["verify-all", "--depth", "8", "--seed", "7"]) == 5
        out = capsys.readouterr().out
        assert "[FAIL] theta closed form" in out
        assert out.splitlines()[-1] == "1 failed: ['theta closed form']"

    def test_wavelet_certification_failure(self, tmp_path, capsys, monkeypatch):
        # a witness search that fails on the third call: exit 5 with the
        # library's message, and no schedule without its witnesses
        real, calls = d.wavelet.witness_scales, []

        def failing(f, x, m):
            calls.append(m)
            if len(calls) == 3:
                raise d.CertificationError(f"no witness (x = 1/3, m={m})")
            return real(f, x, m)

        monkeypatch.setattr(d.wavelet, "witness_scales", failing)
        assert run(["wavelet", "--alpha", "0.5", "--stages", "3", "--points", "4",
                    "--seed", "1", "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert "no witness (x = 1/3, m=2)" in err and "Traceback" not in err
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []

    COUNTEREXAMPLE = ["counterexample", "--alpha", "0.5", "--stages", "1", "--depth", "160",
                      "--pairs", "20", "--points", "2", "--seed", "6"]

    def test_block_growth_verdict_read_from_the_schedule(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(d.BlockSchedule, "growth_ok", lambda self: False)
        assert run(self.COUNTEREXAMPLE + ["--out", str(tmp_path)]) == 5
        assert "growth_ok=False floors_ok=True" in capsys.readouterr().out
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["growth_bound_ok"] is False
        assert run(["verify-all", "--depth", "8", "--seed", "7"]) == 5
        out = capsys.readouterr().out
        assert "[FAIL] block growth bound" in out
        assert out.splitlines()[-1] == "1 failed: ['block growth bound']"

    def test_block_floor_verdict_read_from_the_schedule(self, tmp_path, capsys,
                                                        monkeypatch):
        # one stage whose least scaled floor sits just below -3 delta - 1e-9
        monkeypatch.setattr(d.BlockSchedule, "floor_rows",
                            lambda self: [(0, 7, -0.75 - 2e-9, -0.75)])
        assert run(self.COUNTEREXAMPLE + ["--out", str(tmp_path)]) == 5
        assert "growth_ok=True floors_ok=False" in capsys.readouterr().out
        assert (tmp_path / "floors.csv").read_text().splitlines() == [
            "stage,from_level,min_scaled,floor", f"0,7,{-0.75 - 2e-9!r},-0.75"]

    def test_success(self, tmp_path, capsys):
        assert run(["phi", "--eta", "0.5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("0.811278124459")


class TestManifests:
    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["lemma32", "--eta", "0.5", "--n", "12", "--count", "50",
                        "--seed", "5", "--out", str(out)]) == 0
        csv_a = (a / "lemma32.csv").read_bytes()
        csv_b = (b / "lemma32.csv").read_bytes()
        assert csv_a == csv_b
        man_a = json.loads((a / "lemma32_manifest.json").read_text())
        man_b = json.loads((b / "lemma32_manifest.json").read_text())
        assert man_a["outputs"] == man_b["outputs"]

    def test_manifest_fields(self, tmp_path):
        assert run(["besicovitch", "--eta", "1/2", "--levels", "20,100",
                    "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "besicovitch_manifest.json").read_text())
        assert man["command"] == "besicovitch"
        assert "version" in man and "max_depth" in man
        assert set(man["outputs"]) == {"besicovitch.csv"}

    # every argument of every subcommand set, at a small size
    FULL_ARGV = {
        "phi": ["--eta", "0.5"],
        "lemma32": ["--eta", "0.5", "--n", "6", "--count", "5", "--seed", "1"],
        "mass-measure": ["--martingale", "binary", "--eta", "0.5", "--depth", "4",
                         "--seed", "1"],
        "besicovitch": ["--eta", "1/2", "--levels", "20"],
        "dim-estimate": ["--counts", "20:21700"],
        "weierstrass": ["--b", "3", "--alpha", "0.5", "--x-min", "0.1",
                        "--x-max", "0.2", "--points", "4", "--tol", "1e-8"],
        "martingale-extract": ["--b", "2", "--alpha", "0.5", "--depth", "3",
                               "--tol", "1e-10"],
        "block": ["--delta", "0.25", "--beta", "0.5", "--level", "1", "--index", "1"],
        "schedule": ["--beta", "0.5", "--stages", "1", "--depth", "160"],
        "counterexample": ["--alpha", "0.5", "--stages", "1", "--depth", "160",
                           "--pairs", "20", "--points", "2", "--seed", "6"],
        "wavelet": ["--alpha", "0.5", "--eps", "0.005", "--stages", "2",
                    "--points", "1", "--seed", "1"],
        "theta": ["--b", "2", "--alpha", "0.5", "--eps", "0.01", "--x-min", "0.1",
                  "--x-max", "0.3", "--points", "2", "--panels", "4"],
        "sigma-stats": ["--b", "2", "--alpha", "0.5", "--x", "0.1", "--eps", "0.01",
                        "--delta", "0.1", "--c", "0.1", "--gamma", "0.05",
                        "--samples", "100", "--seed", "1"],
        "gap": ["--b", "2", "--alpha", "0.5", "--depth", "6", "--first-level", "5",
                "--points", "1", "--panels", "4", "--seed", "1"],
    }

    def test_manifest_params_are_the_arguments(self, tmp_path, capsys):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        # verify-all prints its checks and writes no manifest
        assert set(subparsers) - set(self.FULL_ARGV) == {"verify-all"}
        for cmd, argv in self.FULL_ARGV.items():
            out = tmp_path / cmd
            assert run([cmd, *argv, "--out", str(out)]) == 0, cmd
            man = json.loads((out / f"{cmd}_manifest.json").read_text())
            dests = {a.dest for a in subparsers[cmd]._actions} - {"help", "out", "format"}
            assert set(man["params"]) == dests, cmd

    def test_theta_manifest_records_the_x_range(self, tmp_path, capsys):
        assert run(["theta", "--alpha", "0.5", "--eps", "0.01", "--x-min", "0.1",
                    "--x-max", "0.3", "--points", "2", "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "theta_manifest.json").read_text())
        assert man["params"]["x_min"] == "0.1" and man["params"]["x_max"] == "0.3"

    def test_shared_flags_declared_once(self):
        # --alpha, the required --seed and --b are one action each, shared
        # by every subcommand that takes them
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        users = {"alpha": 7, "seed": 6, "b": 5}
        for dest, count in users.items():
            actions = [a for sp in subparsers.values() for a in sp._actions
                       if a.dest == dest and (dest != "seed" or a.required)]
            assert len(actions) == count and len({id(a) for a in actions}) == 1, dest

    def test_seed_required_for_randomized(self):
        assert run(["lemma32", "--eta", "0.5"]) == 2
        assert run(["sigma-stats", "--alpha", "0.5"]) == 2
        assert run(["verify-all"]) == 2


class TestDeclaredDomains:
    # the probe's values per flag type, and the ones each domain holds
    PROBE = {float: ["nan", "inf", "-1", "0", "1e308"], int: ["-1", "0"]}
    INSIDE = {"at least 1": set(), "nonnegative": {"0"}, "in (0, 1)": set(),
              "in [0, 1]": {"0"}, "positive and finite": {"1e308"},
              "finite": {"-1", "0", "1e308"}}
    ARGV = {**TestManifests.FULL_ARGV, "verify-all": ["--depth", "8", "--seed", "1"]}

    def test_every_numeric_flag_keeps_its_domain(self, tmp_path, capsys):
        # each probe value goes to one flag, the others at their small valid
        # values: a value outside the flag's domain exits 3 naming the flag
        # and writing nothing, so an exit 0 comes from inside the domain; a
        # value inside may still meet a narrower library check, but no
        # exception leaves main
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        probed = 0
        for cmd, sp in subparsers.items():
            for action in sp._actions:
                numeric = (action.type in (int, float)
                           or (cmd, action.dest) == ("besicovitch", "eta"))
                assert (action.domain is not None) == numeric, (cmd, action.dest)
                if not numeric:
                    continue
                flag = action.option_strings[0]
                assert action.domain in self.INSIDE and action.help == action.domain
                argv = list(self.ARGV[cmd])
                del argv[argv.index(flag):argv.index(flag) + 2]
                for value in self.PROBE[action.type if action.type is int else float]:
                    out = tmp_path / f"{cmd}{flag}={value}"
                    try:
                        code = run([cmd, *argv, flag, value, "--out", str(out)])
                    except Exception as exc:
                        pytest.fail(f"{cmd} {flag} {value}: {exc!r}")
                    err = capsys.readouterr().err
                    if value not in self.INSIDE[action.domain]:
                        assert code == 3 and f"{flag} must be" in err, (cmd, flag, value)
                        assert not out.exists(), (cmd, flag, value)
                    probed += 1
        assert probed == 220


class TestSubcommands:
    def test_besicovitch_values(self, tmp_path, capsys):
        assert run(["besicovitch", "--eta", "1/2", "--levels", "20",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "besicovitch.csv").read_text().splitlines()
        assert rows[0] == "N,eta,count,estimate,phi,gap"
        assert rows[1].split(",")[2] == "21700"

    def test_mass_measure_block(self, tmp_path):
        assert run(["mass-measure", "--martingale", "block-discounted",
                    "--eta", "0.25", "--depth", "10", "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "mass_report.json").read_text())
        assert rep["level_sums_exact"] is True

    @pytest.mark.parametrize("kind", ["binary", "zero", "random", "block-discounted"])
    def test_mass_dump_equals_scalar_oracle(self, tmp_path, capsys, monkeypatch, kind):
        S = cli._pick_martingale(kind, 5, 12)
        mm = d.MassMeasure(S, 0.7)
        expect = [f"{n},{j},{mm.mass_log2(d.DyadicInterval(n, j))!r}"
                  for n in range(11) for j in range(1 << n)]
        # the dump reads the kernel's level arrays: no scalar mass walk, and
        # no increment call beyond what the sweep itself makes
        calls = {"increment": 0}
        real = d.Martingale.increment

        def counting(self, child):
            calls["increment"] += 1
            return real(self, child)

        monkeypatch.setattr(d.Martingale, "increment", counting)
        d.sweep_mass_distribution(cli._pick_martingale(kind, 5, 12), 0.7, 12)
        sweep_calls = calls["increment"]
        monkeypatch.setattr(d.MassMeasure, "mass_log2",
                            lambda self, I: pytest.fail("scalar mass walk in the dump"))
        argv = ["mass-measure", "--martingale", kind, "--eta", "0.7", "--depth", "12",
                "--seed", "5", "--out", str(tmp_path)]
        assert run(argv) == 0
        rows = (tmp_path / "mass_measure.csv").read_text().splitlines()
        assert rows[0] == "level,index,mass_log2" and rows[1:] == expect
        dump_calls = calls["increment"] - 2 * sweep_calls
        # every kind's level arrays are array-first, the zero kind's too
        assert sweep_calls == dump_calls == 0

    def test_dim_estimate(self, tmp_path, capsys):
        assert run(["dim-estimate", "--counts", "20:21700,12:4096",
                    "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "0.720270" in text

    def test_verify_all_passes(self, tmp_path, capsys):
        assert run(["verify-all", "--depth", "8", "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out

    def test_wavelet_schedule_json(self, tmp_path):
        assert run(["wavelet", "--alpha", "0.5", "--stages", "2", "--points", "0",
                    "--seed", "1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "wavelet_schedule.json").read_text())
        assert payload["k"][0] == 1

    def test_gap_profile(self, tmp_path):
        assert run(["gap", "--alpha", "0.5", "--depth", "7", "--first-level", "5",
                    "--points", "2", "--panels", "8", "--seed", "4",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "gap.json").read_text())
        assert len(payload["gaps"]) == 3

    def test_counterexample_registry(self, tmp_path):
        assert run(["counterexample", "--alpha", "0.5", "--stages", "1",
                    "--depth", "160", "--pairs", "200", "--points", "20",
                    "--seed", "6", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "registry.csv").read_text().splitlines()
        assert rows[0] == "stage,level,index,flag,scaled_value"
        assert any(",special," in r for r in rows[1:])
        assert any(",left," in r for r in rows[1:])

    @pytest.mark.parametrize("alpha", ["0.3", "0.5", "0.7"])
    def test_counterexample_registry_matches_member_loop(self, tmp_path, alpha):
        # the rows as the command built them before `special_values`: one
        # DyadicInterval and one left_neighbor per special interval
        assert run(["counterexample", "--alpha", alpha, "--stages", "2",
                    "--pairs", "50", "--points", "5", "--seed", "6",
                    "--out", str(tmp_path)]) in (0, 5)
        beta = 1.0 - float(alpha)
        sched = d.build_schedule(beta, 2, depth_cap=1024)
        S = d.assemble_martingale(sched)
        want = ["stage,level,index,flag,scaled_value"]
        for j, rec in enumerate(sched.stages):
            if not rec.complete:
                continue
            for p in d.SpecialIntervalRegistry(sched, j, S).placements:
                if p.level > 12:
                    continue
                vals = S.level_values(p.end)
                for q in range(1 << p.level):
                    iv = d.DyadicInterval(p.end, q << p.M)
                    scaled = math.pow(2.0, -p.end * beta) * vals[iv.index]
                    rows = [[j, iv.level, iv.index, "special", scaled]]
                    left = left_neighbor(iv)
                    if left is not None:
                        rows.append([j, left.level, left.index, "left", scaled])
                    want += [",".join(str(cli._fmt(v)) for v in row) for row in rows]
        assert (tmp_path / "registry.csv").read_text().splitlines() == want

    def test_gap_json_is_strict_json(self, tmp_path, capsys):
        # one level has no Kendall p-value: json.dumps used to write a bare NaN
        assert run(["gap", "--alpha", "0.5", "--depth", "6", "--first-level", "6",
                    "--points", "2", "--panels", "2", "--seed", "1",
                    "--out", str(tmp_path)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads((tmp_path / "gap.json").read_text(), parse_constant=refuse)
        assert payload["trend_pvalue"] is None and len(payload["gaps"]) == 1

    def test_json_artifacts_write_non_finite_floats_as_null(self, tmp_path):
        w = cli.RunWriter(str(tmp_path), "t", {})
        path = w.write_json("t.json", {"a": [1.5, math.nan, (math.inf, -math.inf)],
                                       "b": {"c": 2, "d": -0.0, "e": None}})
        assert json.loads(path.read_text()) == {"a": [1.5, None, [None, None]],
                                                "b": {"c": 2, "d": -0.0, "e": None}}

    def test_sigma_gamma_flag(self, tmp_path, capsys):
        assert run(["sigma-stats", "--alpha", "0.5", "--x", "0.123",
                    "--gamma", "0.05", "--seed", "5", "--out", str(tmp_path)]) == 0
        assert "exceeds gamma" in capsys.readouterr().out

    def test_json_table_format(self, tmp_path):
        assert run(["besicovitch", "--eta", "1/2", "--levels", "20",
                    "--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "besicovitch.json").read_text())
        assert payload["header"][0] == "N"
        assert payload["rows"][0][2] == 21700
        man = json.loads((tmp_path / "besicovitch_manifest.json").read_text())
        assert "besicovitch.json" in man["outputs"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Each line of the README's block of CLI examples, as an argv."""
    block = re.search(r"```\n(dyadosc .*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()]


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_command_runs_and_its_manifest_holds(self, tmp_path, monkeypatch, capsys, argv):
        # relative --out paths land under tmp_path; every line but
        # verify-all (which writes nothing) names its own --out
        monkeypatch.chdir(tmp_path)
        assert ("--out" in argv) == (argv[0] != "verify-all")
        assert run(argv) == 0
        manifests = list(tmp_path.rglob("*_manifest.json"))
        assert len(manifests) == (argv[0] != "verify-all")
        for man in manifests:
            outputs = json.loads(man.read_text())["outputs"]
            assert outputs
            for name, digest in outputs.items():
                assert hashlib.sha256((man.parent / name).read_bytes()).hexdigest() == digest
