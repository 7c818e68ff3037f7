import csv
import json

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
        runs = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            runs.append(run(tmp_path / name, "driven-mf", config))
        csv_bytes = [(tmp_path / name / "driven-mf.csv").read_bytes() for name in ("first", "second")]
        assert csv_bytes[0] == csv_bytes[1]
        rows, summary = runs[0]
        assert len(rows) == 2
        assert summary["status"] == "ok"
        for fp in summary["convergence"]["fixed_points"]:
            assert fp["passed"] is True
            assert len(fp["residuals"]) == len(fp["stability_margins"]) == len(fp["branches"]) >= 1
            assert all(r <= summary["config"]["psi_tol"] for r in fp["residuals"])
            assert all(m < 0 for m in fp["stability_margins"])
