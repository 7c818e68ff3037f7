import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.sparse as sp

from cqedlat import cli, hilbert, lindblad
from cqedlat.hilbert import LatticeSpace, expectation, photon_op_on
from cqedlat.resonator import Mode


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


class TestSectorNonlinearity:
    def test_band_degeneracy_is_reported_per_size(self, tmp_path):
        config = {"omega_r": 50.0, "g": 1.0, "n_max": 2, "cutoff_check": False}
        _, summary = run(tmp_path, "sector-nonlinearity",
                         {**config, "J": 0.5, "n_sites_list": [3, 4]})
        assert summary["convergence"]["band_degeneracy"] == {"3": 2, "4": 1}
        (tmp_path / "neg").mkdir()
        _, summary = run(tmp_path / "neg", "sector-nonlinearity",
                         {**config, "J": -0.5, "n_sites_list": [1, 2, 3, 4, 5]})
        assert summary["convergence"]["band_degeneracy"] == {str(n): 1 for n in range(1, 6)}


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
        assert g2 == pytest.approx(0.00452453367, rel=2.5e-7)
        check = summary["convergence"]["cutoff_check"]
        assert check["rel_shift"] < 1e-5        # truncation shift, not solver noise
        assert summary["convergence"]["points"] == 1
        # the statistics cover the row's solve (d = 64) and the check's (d = 144),
        # each on the even and odd blocks of the site mirror: D(D ± 1)/2 for
        # the site dimension D = 8 and 12
        krylov = summary["convergence"]["krylov"]
        assert 0 < krylov["mean_steps"] < krylov["max_steps"]
        assert 0 < krylov["mean_refine_steps"] <= krylov["max_refine_steps"]
        assert krylov["max_refine_residual"] <= lindblad.STEADY_REFINE_RTOL
        assert krylov["block_dims"] == [[36, 28], [78, 66]]

    def test_g2_below_the_photon_floor_is_nan_and_passes(self, tmp_path):
        # ξ = 1e-6, far above the band bottom: ⟨a†a⟩ ≈ 1.3e-13 is below the
        # photon floor at n_max 2 and at 4, so g2 is NaN at both cutoffs
        rows, summary = run(tmp_path, "dimer-g2",
                            {"omega_r": 50.0, "g": 1.0, "j_values": [0.5], "xi": 1e-6,
                             "drive_offset": 5.0, "gamma1": 0.01, "gamma_kappa": 0.01,
                             "n_max": 2, "cutoff_check": True})
        assert rows[0]["g2"] == "nan"
        assert summary["convergence"]["cutoff_check"]["passed"] is True
        assert summary["convergence"]["g2_check"]["passed"] is True
        assert summary["status"] == "ok"

    def test_negative_g2_is_unconverged(self, tmp_path, capsys, monkeypatch):
        # a negative g2 is what a solve returns when the two-photon population
        # is below what its residual certifies; it is stubbed here, because
        # whether a given weak drive shows it depends on the solver's roundoff
        point = lindblad.DrivenLattice.point
        monkeypatch.setattr(lindblad.DrivenLattice, "point",
                            lambda *args: dataclasses.replace(point(*args), g2=-0.25))
        rows, summary = run(tmp_path, "dimer-g2",
                            {"omega_r": 50.0, "g": 1.0, "j_values": [0.5], "xi": 0.01,
                             "gamma1": 0.01, "gamma_kappa": 0.01, "n_max": 3,
                             "cutoff_check": False}, exit_code=2)
        assert summary["status"] == "unconverged"
        assert "convergence.g2_check.passed" in capsys.readouterr().err
        assert list(rows[0]) == ["J", "omega_d", "g2", "abs_a", "n_photon"]
        check = summary["convergence"]["g2_check"]
        assert check["passed"] is False
        assert check["min_g2"] == float(rows[0]["g2"]) < 0

    def test_non_physical_steady_state_exits_two(self, tmp_path, capsys, monkeypatch):
        # every solved state fails a positivity floor of 1, as one with a
        # negative eigenvalue fails the real one: numerical non-convergence
        monkeypatch.setattr(hilbert, "RHO_EIGENVALUE_FLOOR", 1.0)
        csv_path = tmp_path / "out.csv"
        code = cli.main(["dimer-g2", "--omega-r", "50", "--g", "1", "--j-values", "0.5",
                         "--xi", "0.01", "--gamma1", "0.01", "--gamma-kappa", "0.01",
                         "--n-max", "2", "--cutoff-check", "false", "--output", str(csv_path)])
        assert code == 2
        assert "numerical non-convergence: steady state 0" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_rows_are_the_sparse_observables_of_the_same_state(self, monkeypatch):
        # the route the command took before its model: g2_zero and expectation
        # of a₀ and a₀†a₀ on the steady state each row was read from
        states = []

        def recording(liouv):
            states.append(lindblad.steady_state(liouv))
            return states[-1]

        monkeypatch.setattr(cli, "steady_state", recording)
        config = cli.load_config("dimer-g2", None, {
            "omega_r": 50.0, "g": 1.0, "j_values": [0.45, 0.5, 0.55], "xi": 0.01,
            "gamma1": 0.01, "gamma_kappa": 0.01, "n_max": 3, "cutoff_check": False})
        rows, _ = cli.COMMANDS["dimer-g2"](config)
        space = LatticeSpace.uniform(2, 3)
        a0 = photon_op_on(space, 0, "a")
        for row, state in zip(rows, states, strict=True):
            assert row["g2"] == pytest.approx(lindblad.g2_zero(state, 0, space), rel=1e-14)
            assert row["abs_a"] == pytest.approx(abs(expectation(a0, state)), rel=1e-14)
            assert row["n_photon"] == pytest.approx(expectation(a0.getH() @ a0, state).real,
                                                    rel=1e-14)


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

    def test_jc_spectrum_numeric_shift_fails_the_comparison(self, tmp_path, capsys, monkeypatch):
        # a numeric spectrum 1e-8 off the closed form, far above the roundoff of
        # an eigensolve at these energies, must fail analytic_matches_numeric
        hamiltonian = cli.jc_hamiltonian

        def shifted(*args, **kwargs):
            h = hamiltonian(*args, **kwargs)
            return h + 1e-8 * sp.identity(h.shape[0], format="csr")

        monkeypatch.setattr(cli, "jc_hamiltonian", shifted)
        _, summary = run(tmp_path, "jc-spectrum",
                         {"omega_r": 1.0, "omega_q": 0.9, "g": 0.05, "n_max": 4}, exit_code=2)
        assert summary["convergence"]["analytic_matches_numeric"] is False
        assert summary["convergence"]["max_abs_err_below_cutoff"] == pytest.approx(1e-8, rel=1e-3)
        assert summary["status"] == "unconverged"
        assert "convergence.analytic_matches_numeric" in capsys.readouterr().err

    def test_jc_spectrum_without_rwa_claims_no_comparison(self, tmp_path, capsys):
        # the closed form is the RWA spectrum: without the RWA no row is compared
        rows, summary = run(tmp_path, "jc-spectrum",
                            {"omega_r": 1.0, "omega_q": 0.9, "g": 0.05, "n_max": 4, "rwa": False})
        assert summary["convergence"] == {}
        assert summary["status"] == "ok"
        assert [r["abs_err"] for r in rows] == ["nan"] * len(rows)
        assert capsys.readouterr().err == ""

    def test_shipped_schema_is_valid_against_its_metaschema(self):
        # the commands validate every summary against it, but never check it
        schema = cli.summary_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_summary_outside_the_schema_is_refused(self, tmp_path, monkeypatch):
        build = cli.build_summary
        monkeypatch.setattr(cli, "build_summary", lambda *args: dict(build(*args), extra=1))
        config = cli.load_config("jc-spectrum", None, {"omega_r": 1.0, "omega_q": 0.9, "g": 0.05})
        for _ in range(2):          # the second run reuses the validator of the first
            with pytest.raises(jsonschema.ValidationError, match="'extra' was unexpected"):
                cli.run_command("jc-spectrum", config, str(tmp_path / "jc.csv"),
                                str(tmp_path / "jc_summary.json"))
        assert not (tmp_path / "jc_summary.json").exists()


class TestDrivenMF:
    def test_repeat_runs_are_identical_and_verified(self, tmp_path):
        from cqedlat.meanfield import PSI_TOL

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
            assert all(r <= PSI_TOL for r in fp["residuals"])
            assert all(m < 0 for m in fp["stability_margins"])
            dynamics = fp["dynamics"]
            assert sorted(dynamics) == ["control_intervals", "lu_factorizations", "rhs_calls"]
            assert all(len(counts) == len(config["seeds"]) for counts in dynamics.values())
            assert min(dynamics["control_intervals"]) > 0 and min(dynamics["rhs_calls"]) > 0

    def test_non_convergence_exits_two(self, tmp_path, capsys, monkeypatch):
        from cqedlat import meanfield

        def unconverged(*args, **kwargs):
            raise meanfield.MeanFieldConvergenceError("neither settled nor cycled")

        monkeypatch.setattr(meanfield, "driven_mf_steady", unconverged)
        code = cli.main(["driven-mf", "--omega-r", "20", "--g", "1", "--zj-values", "1",
                         "--xi", "0.12", "--gamma1", "0.06", "--output", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical non-convergence:") and "neither settled" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()

    def test_integrator_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # the right-hand side turns NaN once the first control interval has
        # ended: the stepper cannot choose a step and raises StiffnessError
        from cqedlat import meanfield

        rhs, newton = meanfield._DrivenSite.rhs, meanfield._DrivenSite.newton
        intervals_done = []

        def counting_newton(self, psi, known):
            intervals_done.append(1)
            return newton(self, psi, known)

        def breaking_rhs(self, t, x):
            return np.full_like(x, np.nan) if intervals_done else rhs(self, t, x)

        monkeypatch.setattr(meanfield._DrivenSite, "newton", counting_newton)
        monkeypatch.setattr(meanfield._DrivenSite, "rhs", breaking_rhs)
        code = cli.main(["driven-mf", "--omega-r", "20", "--g", "1", "--zj-values", "1",
                         "--xi", "0.12", "--gamma1", "0.06", "--kappa", "0.06",
                         "--drive-offset", "0.3", "--n-max", "4",
                         "--output", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical non-convergence:")
        assert "step failed at t = 16.67" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()


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

    def test_too_small_charge_basis_fails_the_basis_check(self, tmp_path, capsys):
        # the one-junction transmon of the CI run at charge cutoff 4: its three
        # lowest levels move by 2.2e-2 relative at cutoff 14 (and by more than
        # 1e-9 up to cutoff 8), so the basis check fails and the run exits 2
        netlist = tmp_path / "transmon.nl"
        netlist.write_text("NODE a\nGROUND g\nC a g 1e-13\nJJ a g 1e-23\n", encoding="utf-8")
        code = cli.main(["quantize", "--netlist", str(netlist), "--charge-cutoff", "4",
                         "--levels", "3", "--output", str(tmp_path / "q.csv"),
                         "--summary", str(tmp_path / "q.json")])
        assert code == 2
        assert "convergence.basis_check.passed" in capsys.readouterr().err
        summary = json.loads((tmp_path / "q.json").read_text(encoding="utf-8"))
        assert summary["status"] == "unconverged"
        check = summary["convergence"]["basis_check"]
        assert check["passed"] is False
        assert 1e-9 < check["rel_shift"] < 1

    def test_missing_netlist_exits_one(self, tmp_path, capsys):
        code = cli.main(["quantize", "--netlist", str(tmp_path / "absent.nl"),
                         "--output", str(tmp_path / "q.csv")])
        assert code == 1
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff_check", ["true", "false"])
    def test_more_levels_than_the_basis_exits_one(self, tmp_path, capsys, cutoff_check):
        # a transmon at charge cutoff 1 has a basis of 3 charge states
        netlist = str(Path(__file__).parent / "data" / "netlists" / "transmon.nl")
        code = cli.main(["quantize", "--netlist", netlist, "--charge-cutoff", "1",
                         "--levels", "6", "--cutoff-check", cutoff_check,
                         "--output", str(tmp_path / "q.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "levels = 6" in err and "dimension 3" in err and "charge_cutoff" in err
        assert not (tmp_path / "q.csv").exists()


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

    def test_krylov_statistics_are_reported_without_a_verdict(self, tmp_path, monkeypatch):
        config = dict(self.CONFIG, cutoff_check=False)
        _, summary = run(tmp_path, "blockade-scan", config)
        krylov = summary["convergence"]["krylov"]
        assert set(krylov) == {"max_steps", "mean_steps", "max_refine_steps",
                               "mean_refine_steps", "max_refine_residual", "block_dims"}
        assert krylov["block_dims"] == [[8]]          # one JC site at n_max 3, one block
        assert 0 < krylov["mean_steps"] <= krylov["max_steps"]
        assert 0 < krylov["mean_refine_steps"] <= krylov["max_refine_steps"]
        assert 0 < krylov["max_refine_residual"] <= lindblad.STEADY_REFINE_RTOL
        # a refinement that cannot reach its tolerance runs every restart cycle
        # and is reported, while the status still follows the generator residual
        monkeypatch.setattr(lindblad, "STEADY_REFINE_RTOL", 1e-30)
        (tmp_path / "stalled").mkdir()
        _, stalled = run(tmp_path / "stalled", "blockade-scan", config)
        assert stalled["status"] == "ok"
        assert stalled["convergence"]["krylov"]["max_refine_residual"] > 1e-30
        assert stalled["convergence"]["krylov"]["max_refine_steps"] > krylov["max_refine_steps"]

    def test_benchmark_site_is_solved_on_one_block(self, tmp_path):
        # one site has no mirror: its d = 14 states at n_max 6 are one block
        _, summary = run(tmp_path, "blockade-scan",
                         dict(self.CONFIG, n_max=6, omega_d_points=3, cutoff_check=False))
        assert summary["convergence"]["krylov"]["block_dims"] == [[14]]

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

    def test_undefined_g2_is_null_in_a_strict_json_summary(self, tmp_path):
        # without a drive every point is below the photon floor, so g2 and its minimum are NaN
        config = dict(self.CONFIG, drive_amplitudes=[0.0], cutoff_check=False)
        rows, _ = run(tmp_path, "blockade-scan", config)
        assert all(r["g2"] == "nan" for r in rows)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "blockade-scan_summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=refuse)
        assert summary["convergence"]["g2_check"] == {"min_g2": None, "passed": True}
        assert summary["status"] == "ok"

    def test_more_workers_than_cpus_exits_one(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(cli, "transmission_scan", refuse)
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(dict(self.CONFIG, workers=2)), encoding="utf-8")
        code = cli.main(["blockade-scan", "--config", str(config_path),
                         "--output", str(tmp_path / "b.csv")])
        assert code == 1
        assert "config error at workers:" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

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

    def test_coordination_number_is_not_a_key(self, tmp_path, capsys):
        # the grid is in zJ, so z never entered a cell
        assert self.lobes(tmp_path, z=4) == 1
        assert "config error at z: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff_check, exit_code", [(True, 2), (False, 0)])
    def test_superfluid_beyond_psi_three_reaches_the_cutoff_verdict(self, tmp_path, capsys,
                                                                    cutoff_check, exit_code):
        # near μ = ω_r at n_max 14 every ψ* lies above 3 and inside √14; a larger
        # cutoff moves it further out, which the cutoff check reports
        assert self.lobes(tmp_path, mu_min=9.5, mu_max=9.9, mu_points=3, zj_min=0.5,
                          zj_max=1.0, zj_points=2, n_max=14,
                          cutoff_check=cutoff_check) == exit_code
        err = capsys.readouterr().err
        assert ("convergence.cutoff_check.passed" in err) == (exit_code == 2)
        with open(tmp_path / "l.csv", encoding="utf-8", newline="") as fh:
            psi = [float(row["psi"]) for row in csv.DictReader(fh)]
        assert len(psi) == 6 and all(3.0 < p < np.sqrt(14) for p in psi)

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
        assert summary["convergence"]["cutoff_check"] == {"rel_shift": 0.0, "passed": True,
                                                          "n_max": 10, "n_max_ref": 12}
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
              "count": 5}

    def test_repeat_runs_are_identical(self, tmp_path):
        rows, summary = run_twice(tmp_path, "modes", self.CONFIG)
        assert len(rows) == 5
        assert summary["status"] == "ok"
        check = summary["convergence"]["normalization_check"]
        assert check["passed"] is True
        assert check["max_normalization_defect"] <= cli.MODE_NORMALIZATION_ATOL

    def test_normalization_defect_is_unconverged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(Mode, "normalization_integral", lambda self: 1.0 + 1e-6)
        _, summary = run(tmp_path, "modes", self.CONFIG, exit_code=2)
        assert summary["status"] == "unconverged"
        assert "convergence.normalization_check.passed" in capsys.readouterr().err
        check = summary["convergence"]["normalization_check"]
        assert check["passed"] is False
        assert check["max_normalization_defect"] == pytest.approx(1e-6)

    def test_negative_length_exits_one(self, tmp_path, capsys):
        code = cli.main(["modes", "--ell", "4e-7", "--c", "1.6e-10", "--L-x", "-0.01",
                         "--output", str(tmp_path / "m.csv")])
        assert code == 1
        assert "L_x" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()


class TestConfigValues:
    @pytest.mark.parametrize("argv, key", [
        (["modes", "--ell", "nan", "--c", "1.6e-10", "--L-x", "0.01"], "ell"),
        (["modes", "--ell", "4e-7", "--c", "1.6e-10", "--L-x", "inf"], "L_x"),
        (["jc-spectrum", "--omega-r", "5", "--omega-q", "inf", "--g", "0.1"], "omega_q"),
        (["dimer-g2", "--omega-r", "50", "--g", "1", "--j-values", "0.5,-inf", "--xi", "0.01",
          "--gamma-kappa", "0.01"], "j_values"),
        (["driven-mf", "--omega-r", "20", "--g", "1", "--zj-values", "1", "--xi", "0.1",
          "--gamma1", "0.1", "--seeds", "0,nan"], "seeds"),
    ])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, argv, key):
        code = cli.main(argv + ["--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"config error at {key}:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, config, key", [
        ("meanfield-lobes", TestMeanfieldLobes.CONFIG, "psi_max"),
        ("driven-mf", {"omega_r": 20.0, "g": 1.0, "zj_values": [1.0], "xi": 0.1,
                       "gamma1": 0.1}, "psi_tol"),
    ])
    def test_mean_field_search_settings_are_not_keys(self, tmp_path, capsys, command, config,
                                                     key):
        # the ψ window is the cutoff's bound √n_max, the residual bound a constant
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(config, **{key: 3.0})), encoding="utf-8")
        code = cli.main([command, "--config", str(config_path),
                         "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"config error at {key}: unknown key" in capsys.readouterr().err
        # the same setting as a flag is refused alike, not with argparse's exit 2
        config_path.write_text(json.dumps(config), encoding="utf-8")
        flag = f"--{key.replace('_', '-')}"
        code = cli.main([command, "--config", str(config_path), flag, "3",
                         "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"config error at {flag}: unknown option" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, config, key", [
        pytest.param("jc-spectrum", {"omega_r": True, "omega_q": 5, "g": 0.1}, "omega_r",
                     id="pos"),
        pytest.param("jc-spectrum", {"omega_r": 5, "omega_q": 5, "g": True}, "g", id="nonneg"),
        pytest.param("jc-spectrum", {"omega_r": 5, "omega_q": 5, "g": 0.1, "n_max": True},
                     "n_max", id="posint"),
        pytest.param("sector-nonlinearity", {"omega_r": 50, "g": 1, "J": False,
                                             "n_sites_list": [2]}, "J", id="float"),
        pytest.param("sector-nonlinearity", {"omega_r": 50, "g": 1, "J": -0.5,
                                             "n_sites_list": [2, True]}, "n_sites_list",
                     id="floats"),
        pytest.param("driven-mf", {"omega_r": 20, "g": 1, "zj_values": [1], "xi": 0.1,
                                   "gamma1": 0.1, "seeds": [0, True]}, "seeds", id="seeds"),
        pytest.param("driven-mf", {"omega_r": 20, "g": 1, "zj_values": [1], "xi": 0.1,
                                   "gamma1": 0.1, "seeds": [[0.5, False]]}, "seeds",
                     id="seed_pair"),
    ])
    def test_json_boolean_is_not_a_number(self, tmp_path, command, config, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(command, str(config_path), {})
        assert [k for k, _ in info.value.errors] == [key]

    def test_infinite_integer_in_a_config_file_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "jc.json"
        config_path.write_text('{"omega_r": 5, "omega_q": 5, "g": 0.1, "n_max": Infinity}',
                               encoding="utf-8")
        code = cli.main(["jc-spectrum", "--config", str(config_path),
                         "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "config error at n_max:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("case", ["config_directory", "config_not_utf8", "netlist_directory"])
    def test_unreadable_input_file_exits_one(self, tmp_path, capsys, case):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"omega_r": 5, "omega_q": 5, "g": 0.1, "note": "é"}'.encode("latin-1"))
        argv = {"config_directory": ["jc-spectrum", "--config", str(tmp_path)],
                "config_not_utf8": ["jc-spectrum", "--config", str(latin1)],
                "netlist_directory": ["quantize", "--netlist", str(tmp_path)]}[case]
        code = cli.main(argv + ["--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert f"config error at {argv[1][2:]}:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_integer_chain_size_exits_one(self, tmp_path, capsys):
        code = cli.main(["sector-nonlinearity", "--omega-r", "50", "--g", "1", "--J", "-0.5",
                         "--n-sites-list", "2,2.7", "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "config error at n_sites_list:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestColdStart:
    LAZY = ("scipy.integrate", "scipy.optimize", "cqedlat.meanfield")
    SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cqedlat import cli
lazy = json.loads(sys.argv[2])
out = {"after_import": [m for m in lazy if m in sys.modules]}
out["exit_codes"] = [cli.main(argv) for argv in json.loads(sys.argv[3])]
out["after_runs"] = [m for m in lazy if m in sys.modules]
print(json.dumps(out))
"""

    def test_cli_loads_meanfield_and_the_ode_and_root_packages_only_when_run(self, tmp_path):
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(dict(TestBlockadeScan.CONFIG, omega_d_points=3,
                                        cutoff_check=False)), encoding="utf-8")
        dimer = tmp_path / "dimer.json"
        dimer.write_text(json.dumps({"omega_r": 50.0, "g": 1.0, "j_values": [0.5], "xi": 0.01,
                                     "gamma1": 0.01, "gamma_kappa": 0.01, "n_max": 2,
                                     "cutoff_check": False}), encoding="utf-8")
        # uncoupled ends give the modes in closed form, with no root search
        runs = [["blockade-scan", "--config", str(scan), "--output", str(tmp_path / "b.csv")],
                ["dimer-g2", "--config", str(dimer), "--output", str(tmp_path / "d.csv")],
                ["modes", "--ell", "4e-7", "--c", "1.6e-10", "--L-x", "0.01",
                 "--output", str(tmp_path / "m.csv")]]
        src = str(Path(cli.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, src, json.dumps(self.LAZY),
                                 json.dumps(runs)], cwd=tmp_path, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        out = json.loads(result.stdout.splitlines()[-1])
        assert out == {"after_import": [], "exit_codes": [0, 0, 0], "after_runs": []}

    def test_no_command_loads_the_ode_or_root_packages(self, tmp_path):
        # the driven transient runs on the package's own stepper and coupled
        # modes on its own Brent search
        runs = [["driven-mf", "--omega-r", "20", "--g", "1", "--zj-values", "1", "--xi", "0.12",
                 "--gamma1", "0.06", "--kappa", "0.06", "--drive-offset", "0.3",
                 "--seeds", "0,1.5", "--n-max", "3", "--output", str(tmp_path / "dr.csv")],
                ["meanfield-lobes", "--omega-r", "10", "--omega-q", "10", "--g", "1",
                 "--mu-min", "8.6", "--mu-max", "9.9", "--mu-points", "10", "--zj-min", "0",
                 "--zj-max", "0.2", "--zj-points", "10", "--n-max", "10",
                 "--output", str(tmp_path / "l.csv")],
                ["modes", "--ell", "4e-7", "--c", "1.6e-10", "--L-x", "0.01",
                 "--C-minus", "1e-15", "--C-plus", "1e-15", "--count", "20",
                 "--output", str(tmp_path / "m.csv")]]
        packages = ["scipy.integrate", "scipy.optimize"]
        src = str(Path(cli.__file__).resolve().parent.parent)
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, src, json.dumps(packages),
                                 json.dumps(runs)], cwd=tmp_path, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        out = json.loads(result.stdout.splitlines()[-1])
        assert out == {"after_import": [], "exit_codes": [0, 0, 0], "after_runs": []}
        with open(tmp_path / "m.csv", encoding="utf-8", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 20

    def test_mean_field_errors_are_one_class_in_every_module(self):
        from cqedlat import lindblad, meanfield

        assert (meanfield.MeanFieldConvergenceError is lindblad.MeanFieldConvergenceError
                is cli.MeanFieldConvergenceError)
