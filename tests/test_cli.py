import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cqedlat import cli


def run(tmp_path, command, config, exit_code=0):
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    csv_path = tmp_path / f"{command}.csv"
    summary_path = tmp_path / f"{command}_summary.json"
    assert cli.run_command(command, cli.load_config(command, str(config_path), {}),
                           str(csv_path), str(summary_path)) == exit_code
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    jsonschema.validate(summary, cli.summary_schema())
    return rows, summary


def run_twice(tmp_path, command, config, exit_code=0):
    """Two runs in separate directories; their CSVs must be byte-identical."""
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(run(tmp_path / name, command, config, exit_code))
    csv_bytes = [(tmp_path / name / f"{command}.csv").read_bytes() for name in ("first", "second")]
    assert csv_bytes[0] == csv_bytes[1]
    return runs[0]


class TestCsvCells:
    def test_numpy_floats_are_written_as_plain_literals(self, tmp_path):
        rows, _ = run(tmp_path, "sector-nonlinearity",
                      {"omega_r": 50.0, "g": 1.0, "J": -0.5, "n_sites_list": [1, 2],
                       "n_max": 2, "cutoff_check": False})
        assert rows
        for row in rows:
            for key in ("u_measured", "u_closed_form", "rel_deviation"):
                assert not row[key].startswith("np."), row[key]
                float(row[key])

    def test_format_cell_round_trips_numpy_scalars(self):
        for value in (np.float64(0.1), np.float32(0.5), 1e-300, float("nan")):
            text = cli._format_cell(value)
            assert "np" not in text
            assert repr(float(text)) == repr(float(value))


class TestDimerG2:
    def test_cutoff_check_runs_at_dimension_144(self, tmp_path, capsys):
        # n_max = 3 checked at n_max = 5: a d = 144 steady state, d² = 20736.
        # The truncation shift, 3.5e-6, fails the check's 1e-6 rtol, so the
        # run is reported unconverged and exits with 2
        rows, summary = run(tmp_path, "dimer-g2",
                            {"omega_r": 50.0, "g": 1.0, "j_values": [0.5], "xi": 0.01,
                             "gamma1": 0.01, "gamma_kappa": 0.01, "n_max": 3,
                             "cutoff_check": True}, exit_code=2)
        assert summary["status"] == "unconverged"
        assert "convergence.cutoff_check.passed" in capsys.readouterr().err
        assert len(rows) == 1
        g2 = float(rows[0]["g2"])
        assert 0 < g2 < 1                       # antibunched below the band bottom
        # the two-photon populations behind g2 are ~1e-11 of the trace; the
        # reference value comes from a solve refined with long-double residuals
        assert g2 == pytest.approx(0.00452453367, rel=1e-6)
        check = summary["convergence"]["cutoff_check"]
        assert check["rel_shift"] < 1e-5        # truncation shift, not solver noise
        assert summary["convergence"]["points"] == 1

    def test_negative_g2_is_unconverged(self, tmp_path, capsys):
        # at ξ = 0.002 the two-photon population is below what the steady-state
        # residual certifies, and the solve returns a negative g2
        rows, summary = run(tmp_path, "dimer-g2",
                            {"omega_r": 50.0, "g": 1.0, "j_values": [0.5], "xi": 0.002,
                             "gamma1": 0.01, "gamma_kappa": 0.01, "n_max": 3,
                             "cutoff_check": False}, exit_code=2)
        assert summary["status"] == "unconverged"
        assert "convergence.g2_check.passed" in capsys.readouterr().err
        assert list(rows[0]) == ["J", "omega_d", "g2", "abs_a", "n_photon"]
        check = summary["convergence"]["g2_check"]
        assert check["passed"] is False
        assert check["min_g2"] == float(rows[0]["g2"]) < 0


class TestRunStatus:
    def test_passing_checks_give_ok_and_exit_zero(self, tmp_path, capsys):
        _, summary = run(tmp_path, "jc-spectrum",
                         {"omega_r": 1.0, "omega_q": 0.9, "g": 0.05, "n_max": 4})
        assert summary["convergence"]["analytic_matches_numeric"] is True
        assert summary["status"] == "ok"
        assert capsys.readouterr().err == ""

    def test_failed_check_is_named_and_exits_two(self, tmp_path, capsys):
        # the superfluid probe cell (zJ = 0.4) has ψ = 0.73 at n_max = 2 and 1.33 at 4
        _, summary = run(tmp_path, "meanfield-lobes",
                         {"omega_r": 10.0, "omega_q": 10.0, "g": 1.0, "mu_min": 9.3,
                          "mu_max": 9.5, "mu_points": 2, "zj_min": 0.0, "zj_max": 0.4,
                          "zj_points": 3, "n_max": 2}, exit_code=2)
        assert summary["convergence"]["cutoff_check"]["passed"] is False
        assert summary["status"] == "unconverged"
        assert "convergence.cutoff_check.passed" in capsys.readouterr().err


class TestDrivenMF:
    def test_repeat_runs_are_identical_and_verified(self, tmp_path):
        config = {"omega_r": 20.0, "g": 1.0, "zj_values": [1.0], "xi": 0.12, "gamma1": 0.06,
                  "kappa": 0.06, "drive_offset": 0.3, "seeds": [0.0, 1.5], "n_max": 4}
        rows, summary = run_twice(tmp_path, "driven-mf", config)
        assert len(rows) == 2
        assert summary["status"] == "ok"
        assert summary["convergence"]["g2_check"] == {
            "min_g2": min(float(r["g2"]) for r in rows), "passed": True}
        for fp in summary["convergence"]["fixed_points"]:
            assert fp["passed"] is True
            assert len(fp["residuals"]) == len(fp["stability_margins"]) == len(fp["branches"]) >= 1
            assert all(r <= summary["config"]["psi_tol"] for r in fp["residuals"])
            assert all(m < 0 for m in fp["stability_margins"])


class TestQuantize:
    NETLIST = str(Path(__file__).parent / "data" / "netlists" / "transmon_pair.nl")

    def test_default_runs_are_identical_and_verified(self, tmp_path):
        rows, summary = run_twice(tmp_path, "quantize", {"netlist": self.NETLIST})
        assert len(rows) == 6
        assert summary["status"] == "ok"
        conv = summary["convergence"]
        assert conv["dim"] == 41 ** 2 and 0 < conv["nnz"] < 5 * conv["dim"]
        assert conv["basis_check"]["passed"] is True
        assert conv["basis_check"]["dim"] == 61 ** 2

    def test_missing_netlist_exits_one(self, tmp_path, capsys):
        code = cli.main(["quantize", "--netlist", str(tmp_path / "absent.nl"),
                         "--output", str(tmp_path / "q.csv")])
        assert code == 1
        assert "file not found" in capsys.readouterr().err


class TestBlockadeScan:
    CONFIG = {"omega_r": 50.0, "omega_q": 50.0, "g": 1.0, "gamma1": 0.05, "kappa": 0.05,
              "drive_amplitudes": [0.005], "omega_d_min": 48.5, "omega_d_max": 51.5,
              "omega_d_points": 7, "n_max": 3}

    def test_repeat_runs_are_identical_and_verified(self, tmp_path):
        rows, summary = run_twice(tmp_path, "blockade-scan", self.CONFIG)
        assert len(rows) == 7
        assert summary["status"] == "ok"
        assert summary["convergence"]["cutoff_check"]["passed"] is True
        assert summary["convergence"]["g2_check"] == {
            "min_g2": min(float(r["g2"]) for r in rows), "passed": True}

    def test_negative_drive_amplitude_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(dict(self.CONFIG, drive_amplitudes=[0.005, -0.01])),
                               encoding="utf-8")
        code = cli.main(["blockade-scan", "--config", str(config_path),
                         "--output", str(tmp_path / "b.csv")])
        assert code == 1
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_truncated_strong_drive_is_unconverged(self, tmp_path, capsys):
        # at n_max = 1 a drive of 0.3 shifts |⟨a⟩| by 141% when checked at n_max = 3
        config = dict(self.CONFIG, drive_amplitudes=[0.3], n_max=1)
        _, summary = run_twice(tmp_path, "blockade-scan", config, exit_code=2)
        assert summary["status"] == "unconverged"
        assert summary["convergence"]["cutoff_check"]["rel_shift"] > 1.0
        assert "convergence.cutoff_check.passed" in capsys.readouterr().err

    def test_missing_required_key_exits_one(self, tmp_path, capsys):
        code = cli.main(["blockade-scan", "--omega-r", "50", "--omega-q", "50", "--g", "1",
                         "--kappa", "0.05", "--omega-d-min", "49", "--omega-d-max", "51",
                         "--output", str(tmp_path / "b.csv")])
        assert code == 1
        assert "drive_amplitudes" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


class TestMeanfieldLobes:
    CONFIG = {"omega_r": 10.0, "omega_q": 10.0, "g": 1.0, "mu_min": 9.3, "mu_max": 9.5,
              "mu_points": 2, "zj_min": 0.0, "zj_max": 0.2, "zj_points": 2, "n_max": 4}

    def lobes(self, tmp_path, **changes):
        config_path = tmp_path / "lobes.json"
        config_path.write_text(json.dumps(dict(self.CONFIG, **changes)), encoding="utf-8")
        return cli.main(["meanfield-lobes", "--config", str(config_path),
                         "--output", str(tmp_path / "l.csv")])

    def test_empty_zj_grid_exits_one(self, tmp_path, capsys):
        # zJ = 0 is dropped from the grid, which leaves no zJ value at all
        assert self.lobes(tmp_path, zj_points=1) == 1
        assert "config error at zj_points" in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    def test_minimum_at_the_window_edge_exits_one(self, tmp_path, capsys):
        assert self.lobes(tmp_path, zj_min=0.5, zj_max=2.0, psi_max=0.3) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "psi_max" in err
        assert "Traceback" not in err

    def test_mott_probe_cell_passes_the_cutoff_check(self, tmp_path):
        # the probe cell in the middle of this grid (μ = 9.322, zJ = 0.111) is
        # Mott1, so ψ = 0 exactly at n_max and at n_max + 2
        rows, summary = run(tmp_path, "meanfield-lobes",
                            {"omega_r": 10.0, "omega_q": 10.0, "g": 1.0, "mu_min": 8.6,
                             "mu_max": 9.9, "mu_points": 10, "zj_min": 0.0, "zj_max": 0.2,
                             "zj_points": 10, "n_max": 10})
        probe = rows[5 * 9 + 4]
        assert probe["phase"] == "Mott1" and float(probe["psi"]) == 0.0
        assert summary["status"] == "ok"
        assert summary["convergence"]["cutoff_check"] == {"rel_shift": 0.0, "passed": True}
        assert summary["convergence"]["cutoff_filling"] == {"cells": [], "passed": True}
        edges = summary["convergence"]["zj_critical"]
        assert len(edges) == 10
        for i, edge in enumerate(edges):
            for row in rows[9 * i:9 * (i + 1)]:
                assert row["phase"].startswith("Mott") == (float(row["zJ"]) < edge)

    def test_mott_cell_that_fills_the_cutoff_is_unconverged(self, tmp_path, capsys):
        # on resonance no finite lobe reaches μ = ω_r, yet at n_max 6 this cell
        # is labeled Mott6: its ground state fills the cutoff.  The cutoff
        # check cannot see it (still ψ = 0 at n_max 8); the filling check does
        rows, summary = run(tmp_path, "meanfield-lobes",
                            {"omega_r": 5.0, "omega_q": 5.0, "g": 1.0, "mu_min": 5.0,
                             "mu_max": 5.0, "mu_points": 1, "zj_min": 0.02, "zj_max": 0.02,
                             "zj_points": 1, "n_max": 6}, exit_code=2)
        assert [r["phase"] for r in rows] == ["Mott6"]
        assert summary["status"] == "unconverged"
        assert summary["convergence"]["cutoff_check"]["passed"]
        assert summary["convergence"]["cutoff_filling"] == {"cells": [[5.0, 0.02]],
                                                            "passed": False}
        assert "cutoff_filling.passed" in capsys.readouterr().err

    def test_degenerate_row_has_no_lobe_edge(self, tmp_path):
        # μ = ω_r - g is the vacuum/N=1 crossing on resonance: no Mott cell at any zJ > 0
        rows, summary = run(tmp_path, "meanfield-lobes",
                            dict(self.CONFIG, mu_min=9.0, mu_max=9.0, mu_points=1,
                                 zj_points=3, cutoff_check=False))
        assert summary["convergence"]["zj_critical"] == [None]
        assert [r["phase"] for r in rows] == ["SF", "SF"]


class TestModes:
    CONFIG = {"ell": 4e-7, "c": 1.6e-10, "L_x": 0.01, "C_minus": 1e-15, "C_plus": 1e-15,
              "count": 5, "samples": 3}

    def test_repeat_runs_are_identical(self, tmp_path):
        rows, summary = run_twice(tmp_path, "modes", self.CONFIG)
        assert len(rows) == 5
        assert summary["status"] == "ok"
        assert summary["convergence"]["max_normalization_defect"] < 1e-6

    def test_negative_length_exits_one(self, tmp_path, capsys):
        code = cli.main(["modes", "--ell", "4e-7", "--c", "1.6e-10", "--L-x", "-0.01",
                         "--output", str(tmp_path / "m.csv")])
        assert code == 1
        assert "L_x" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()
