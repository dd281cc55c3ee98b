import json
from pathlib import Path

import pytest

import dyadosc as d
from dyadosc import cli


def run(args):
    return cli.main(args)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["phi"]) == 2  # missing --eta

    def test_unknown_command(self):
        assert run(["no-such-thing"]) == 2

    def test_domain_error(self, tmp_path):
        assert run(["phi", "--eta", "1.5", "--out", str(tmp_path)]) == 3

    def test_depth_cap(self, tmp_path):
        assert run(["schedule", "--beta", "0.5", "--stages", "1",
                    "--depth", "16", "--out", str(tmp_path)]) == 4

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

    def test_seed_required_for_randomized(self):
        assert run(["lemma32", "--eta", "0.5"]) == 2
        assert run(["sigma-stats", "--alpha", "0.5"]) == 2
        assert run(["verify-all"]) == 2


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


class TestCoverageAudit:
    def test_every_listed_operation_reachable(self):
        commands = set()
        parser = cli.build_parser()
        for action in parser._subparsers._actions:
            if hasattr(action, "choices") and action.choices:
                commands |= set(action.choices)
        missing = {op: cmd for op, cmd in cli.OP_COVERAGE.items()
                   if cmd not in commands}
        assert missing == {}

    def test_coverage_map_names_real_operations(self):
        for op in cli.OP_COVERAGE:
            assert hasattr(d, op) or op in ("children", "left_neighbor"), op
