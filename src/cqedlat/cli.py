"""Command-line front end: reproducible runs emitting CSV data and JSON summaries.

One subcommand per physics family:

  jc-spectrum         dressed-level table, analytic vs numeric
  blockade-scan       steady-state transmission / g²(0) over a drive grid
  dimer-g2            exact two-site g²(0) versus hopping
  sector-nonlinearity finite-size blockade nonlinearity U(N_s)
  meanfield-lobes     grand-canonical phase-diagram grid
  driven-mf           driven-dissipative mean-field fixed points
  modes               transmission-line resonator mode table
  quantize            netlist quantization spectrum

Configuration comes from a JSON file (--config) and/or per-key flags; flags
override the file, and every key of a command's schema in ``SCHEMAS`` is both.
Every run writes a CSV table plus a JSON summary holding the fully resolved
configuration, library versions and the verdict of every check; the summary
validates against the schema shipped in ``cqedlat/schemas`` and is strict JSON,
a non-finite number being written as ``null``.  An unreadable config or
netlist file is an input error, like a malformed one.  Runs are
deterministic: identical configs produce byte-identical CSVs.  The scan of
``blockade-scan`` solves its ω_d points in batches that ``workers`` does not
change, so its CSV keeps the grid order and the same bytes on any ``workers``
count.

The three commands that report g²(0) (``blockade-scan``, ``dimer-g2`` and
``driven-mf``) carry a ``g2_check``: g²(0) is a ratio of non-negative moments,
so a negative value is a failed solve, while NaN marks a point below the
photon floor and passes.  So does the cutoff check of ``dimer-g2`` when g²(0)
is NaN at both cutoffs.  ``meanfield-lobes`` carries a ``cutoff_filling``
check, which lists every Mott cell whose filling N reaches ``n_max``: such a
lobe is made by the photon cutoff.  Each ``driven-mf`` fixed-point entry
also carries ``dynamics``, the per-seed control intervals, right-hand-side
calls and LU factorizations of the run: counts, not a check.  So does the
``krylov`` entry of ``blockade-scan`` and ``dimer-g2``: the Krylov steps of
their steady-state solves, the largest refinement residual, and the
dimensions of the diagonal blocks the solves ran on (``block_dims``: [[14]]
for one JC site at n_max 6, [[36, 28]] for the mirror-symmetric dimer at
n_max 3).

Exit codes: 0 success, 1 input error, 2 numerical non-convergence: a
``ConvergenceError`` of ``lindblad``, or a ``MeanFieldConvergenceError`` or
``StiffnessError`` of ``meanfield``.  A run whose summary reports a failed check
(``passed`` false anywhere under ``convergence``) still writes its CSV and
summary, with ``status: "unconverged"``, names the check on stderr and exits
with 2.

No command loads ``scipy.integrate`` or ``scipy.optimize``: the driven
transient runs on the package's own DOP853 stepper and coupled ``modes`` on its
own Brent search.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable

import numpy as np
import scipy

from . import __version__
from .circuits import NetlistError, build_lagrangian, parse_netlist, quantize
from .hilbert import LatticeSpace, SiteSpace, cutoff_convergence
from .jc import JCParams, jc_hamiltonian, mixing_angle, polariton_energy, chi as chi_n
from .lattice import (
    LatticeParams,
    band_degeneracy,
    band_resonant_chain,
    measured_nonlinearity,
    nonlinearity_closed_form,
    photon_band_minimum,
)
from .lindblad import (
    ConvergenceError,
    DissipationRates,
    DrivenLattice,
    KrylovStats,
    steady_state,
    transmission_scan,
)
from .meanfield import (
    PSI_TOL,
    MeanFieldConvergenceError,
    StiffnessError,
    driven_mf_steady,
    minimize_order_parameter,
    mott_window_analytic,
    phase_diagram,
)
from .resonator import ResonatorSpec, solve_modes

__all__ = ["main", "run_command", "load_config", "ConfigError"]

REQUIRED = object()
# largest |∫ normalization - 1| of a mode table that passes the modes check
MODE_NORMALIZATION_ATOL = 1e-8


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` holds (key, message) pairs."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{k}: {m}" for k, m in errors))


@dataclass(frozen=True)
class Field:
    kind: str                  # float | nonneg | pos | posint | str | bool | floats | seeds
    default: Any
    help: str


# per-command configuration schemas; every key doubles as a CLI flag
SCHEMAS: dict[str, dict[str, Field]] = {
    "jc-spectrum": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency (rad/time, hbar=1)"),
        "omega_q": Field("pos", REQUIRED, "qubit frequency"),
        "g": Field("nonneg", REQUIRED, "qubit-photon coupling"),
        "n_max": Field("posint", 6, "photon cutoff"),
        "rwa": Field("bool", True, "rotating-wave form"),
    },
    "blockade-scan": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency"),
        "omega_q": Field("pos", REQUIRED, "qubit frequency"),
        "g": Field("nonneg", REQUIRED, "coupling"),
        "gamma1": Field("nonneg", 0.0, "qubit relaxation rate"),
        "gamma_phi": Field("nonneg", 0.0, "pure dephasing rate"),
        "gamma_kappa": Field("nonneg", 0.0, "uniform photon loss rate"),
        "kappa": Field("nonneg", 0.0, "output-port rate on site 0"),
        "drive_amplitudes": Field("floats", REQUIRED, "drive strengths xi"),
        "omega_d_min": Field("float", REQUIRED, "scan start"),
        "omega_d_max": Field("float", REQUIRED, "scan end"),
        "omega_d_points": Field("posint", 51, "scan points"),
        "n_max": Field("posint", 6, "photon cutoff"),
        "cutoff_check": Field("bool", True, "repeat one point at n_max+2"),
        "workers": Field("posint", 1, "scan process pool size, at most the CPU count"),
    },
    "dimer-g2": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency"),
        "g": Field("nonneg", REQUIRED, "coupling"),
        "j_values": Field("floats", REQUIRED, "hopping amplitudes to scan"),
        "xi": Field("nonneg", REQUIRED, "drive strength (both sites)"),
        "gamma1": Field("nonneg", 0.0, "qubit relaxation rate"),
        "gamma_phi": Field("nonneg", 0.0, "pure dephasing rate"),
        "gamma_kappa": Field("nonneg", 0.0, "uniform photon loss rate"),
        "drive_offset": Field("float", 0.0, "drive detuning from the lower-polariton band bottom"),
        "n_max": Field("posint", 3, "photon cutoff"),
        "cutoff_check": Field("bool", True, "repeat one point at n_max+2"),
    },
    "sector-nonlinearity": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency"),
        "g": Field("nonneg", REQUIRED, "coupling"),
        "J": Field("float", REQUIRED, "hopping amplitude (sign included)"),
        "n_sites_list": Field("floats", REQUIRED, "chain sizes"),
        "n_max": Field("posint", 4, "photon cutoff"),
        "cutoff_check": Field("bool", True, "repeat largest chain at n_max+2"),
    },
    "meanfield-lobes": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency"),
        "omega_q": Field("pos", REQUIRED, "qubit frequency"),
        "g": Field("nonneg", REQUIRED, "coupling"),
        "mu_min": Field("float", REQUIRED, "chemical potential scan start"),
        "mu_max": Field("float", REQUIRED, "chemical potential scan end"),
        "mu_points": Field("posint", 40, "grid points in mu"),
        "zj_min": Field("nonneg", REQUIRED, "zJ scan start"),
        "zj_max": Field("pos", REQUIRED, "zJ scan end"),
        "zj_points": Field("posint", 40, "grid points in zJ"),
        "n_max": Field("posint", 10, "photon cutoff"),
        "cutoff_check": Field("bool", True, "repeat one cell at n_max+2"),
    },
    "driven-mf": {
        "omega_r": Field("pos", REQUIRED, "cavity frequency"),
        "g": Field("nonneg", REQUIRED, "coupling"),
        "zj_values": Field("floats", REQUIRED, "mean-field hopping weights zJ"),
        "xi": Field("nonneg", REQUIRED, "drive strength"),
        "gamma1": Field("nonneg", 0.0, "qubit relaxation rate"),
        "gamma_phi": Field("nonneg", 0.0, "pure dephasing rate"),
        "gamma_kappa": Field("nonneg", 0.0, "uniform photon loss rate"),
        "kappa": Field("nonneg", 0.0, "output-port rate"),
        "drive_offset": Field("float", 0.0, "drive detuning from the lower-polariton band bottom"),
        "seeds": Field("seeds", [0.0], "initial order-parameter seeds (re or [re, im])"),
        "n_max": Field("posint", 7, "photon cutoff"),
    },
    "modes": {
        "ell": Field("pos", REQUIRED, "inductance per unit length [H/m]"),
        "c": Field("pos", REQUIRED, "capacitance per unit length [F/m]"),
        "L_x": Field("pos", REQUIRED, "resonator length [m]"),
        "C_minus": Field("nonneg", 0.0, "left end capacitance [F]"),
        "C_plus": Field("nonneg", 0.0, "right end capacitance [F]"),
        "count": Field("posint", 5, "number of modes"),
    },
    "quantize": {
        "netlist": Field("str", REQUIRED, "netlist file path"),
        "charge_cutoff": Field("posint", 20, "charge basis cutoff +-N"),
        "oscillator_levels": Field("posint", 30, "oscillator basis size"),
        "levels": Field("posint", 6, "number of eigenvalues to emit"),
        "cutoff_check": Field("bool", True, "repeat with enlarged bases"),
    },
}


def _finite(value: Any) -> float:
    if isinstance(value, bool):     # bool is an int subclass: a JSON true would read as 1
        raise ValueError(f"expected a number, got {value!r}")
    fv = float(value)
    if not math.isfinite(fv):
        raise ValueError(f"expected a finite number, got {value!r}")
    return fv


def _coerce(key: str, field: Field, value: Any, errors: list[tuple[str, str]]) -> Any:
    kind = field.kind
    try:
        if kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    return True
                if value.lower() in ("false", "0", "no"):
                    return False
            raise ValueError(f"expected a boolean, got {value!r}")
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError(f"expected a string, got {value!r}")
            return value
        if kind == "posint":
            iv = int(value)
            if isinstance(value, bool) or iv != float(value):
                raise ValueError(f"expected an integer, got {value!r}")
            if iv < 1:
                raise ValueError(f"must be >= 1, got {iv}")
            return iv
        if kind in ("float", "nonneg", "pos"):
            fv = _finite(value)
            if kind == "nonneg" and fv < 0:
                raise ValueError(f"must be >= 0, got {fv}")
            if kind == "pos" and fv <= 0:
                raise ValueError(f"must be > 0, got {fv}")
            return fv
        if kind in ("floats", "seeds"):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v.strip()]
            if not isinstance(value, (list, tuple)) or not value:
                noun = "numbers" if kind == "floats" else "seeds"
                raise ValueError(f"expected a non-empty list of {noun}, got {value!r}")
            if kind == "floats":
                return [_finite(v) for v in value]
            # a seed is re or [re, im]
            pairs = [v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0) for v in value]
            return [complex(_finite(re), _finite(im)) for re, im in pairs]
        raise AssertionError(f"unknown field kind {kind}")
    except (TypeError, ValueError, OverflowError) as exc:   # int() of ±inf overflows
        errors.append((key, str(exc)))
        return None


def _read_text(path: str, key: str) -> str:
    """The text of a UTF-8 file; one that cannot be read is a config error at ``key``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError([(key, f"file not found: {path}")])
    except (OSError, UnicodeDecodeError) as exc:     # a directory, unreadable, not UTF-8
        raise ConfigError([(key, f"cannot read {path}: {exc}")])


def load_config(command: str, config_path: str | None,
                overrides: dict[str, Any]) -> dict[str, Any]:
    """Merge config file and flag overrides against the command schema.

    Raises :class:`ConfigError` listing every unknown key, type mismatch and
    missing required key by its key path.
    """
    schema = SCHEMAS[command]
    errors: list[tuple[str, str]] = []
    raw: dict[str, Any] = {}
    if config_path is not None:
        try:
            loaded = json.loads(_read_text(config_path, "config"))
        except json.JSONDecodeError as exc:
            raise ConfigError([("config", f"invalid JSON: {exc}")])
        if not isinstance(loaded, dict):
            raise ConfigError([("config", "top level must be a JSON object")])
        raw.update(loaded)
    for k, v in overrides.items():
        if v is not None:
            raw[k] = v

    for key in raw:
        if key not in schema:
            errors.append((key, "unknown key"))
    config: dict[str, Any] = {}
    for key, field in schema.items():
        if key in raw:
            val = _coerce(key, field, raw[key], errors)
            if val is not None:
                config[key] = val
        elif field.default is REQUIRED:
            errors.append((key, "missing required key"))
        else:
            config[key] = field.default
    if errors:
        raise ConfigError(sorted(errors))
    return config


# ---------------------------------------------------------------------------
# command implementations; each returns (csv_rows, convergence_dict), the CSV
# columns being the keys of the first row

def _rates_from(config: dict[str, Any]) -> DissipationRates:
    """The rates of an open-system command, with ``kappa`` as the port rate of site 0;
    a run without dissipation has no unique steady state and is refused."""
    rates = DissipationRates(gamma1=config["gamma1"], gamma_phi=config["gamma_phi"],
                             gamma_kappa=config["gamma_kappa"], kappa=config.get("kappa", 0.0))
    if not rates.any_nonzero():
        raise ConfigError([("gamma_kappa", "at least one dissipation rate must be positive")])
    return rates


def _g2_check(values: list[float]) -> dict[str, Any]:
    """Fails on a negative g²(0); NaN, below the photon floor, passes."""
    low = min((v for v in values if not math.isnan(v)), default=math.nan)
    return {"min_g2": low, "passed": not low < 0}


def _krylov_summary(stats: list[KrylovStats]) -> dict[str, Any]:
    """The Krylov steps of the first and of the refinement GMRES solve of every
    steady state a run solves, its cutoff check's included, the largest
    refinement residual, and the block dimensions the solves ran on, each
    distinct list once in order of first use.  Informational: a residual
    above ``STEADY_REFINE_RTOL`` shows a stalled refinement, which the
    generator-residual bound of the steady state judges, so there is no
    ``passed`` key."""
    first = [s.steps for s in stats]
    refine = [s.refine_steps for s in stats]
    return {"max_steps": max(first), "mean_steps": sum(first) / len(first),
            "max_refine_steps": max(refine), "mean_refine_steps": sum(refine) / len(refine),
            "max_refine_residual": max(s.refine_residual for s in stats),
            "block_dims": [list(dims) for dims in dict.fromkeys(s.block_dims for s in stats)]}


def _cmd_jc_spectrum(config: dict[str, Any]):
    p = JCParams(config["omega_r"], config["omega_q"], config["g"])
    space = SiteSpace(config["n_max"])
    h = jc_hamiltonian(p, space, rwa=config["rwa"])
    numeric = np.linalg.eigvalsh(h.toarray())
    rows = []
    max_err = 0.0
    # without the RWA the closed form is no prediction, so no row is compared
    rows.append({"n": 0, "branch": "0", "energy": 0.0, "chi": 0.0, "theta": 0.0,
                 "energy_numeric": float(numeric[np.argmin(np.abs(numeric))]),
                 "abs_err": float(np.min(np.abs(numeric))) if config["rwa"] else float("nan")})
    for n in range(1, config["n_max"] + 1):
        for branch in ("-", "+"):
            e = polariton_energy(p, n, branch)
            k = int(np.argmin(np.abs(numeric - e)))
            err = abs(float(numeric[k]) - e) if config["rwa"] else float("nan")
            if config["rwa"] and n < config["n_max"]:
                max_err = max(max_err, err)
            rows.append({"n": n, "branch": branch, "energy": e, "chi": chi_n(p, n),
                         "theta": mixing_angle(p, n), "energy_numeric": float(numeric[k]),
                         "abs_err": err})
    if not config["rwa"]:
        return rows, {}
    return rows, {"analytic_check": {"max_abs_err_below_cutoff": max_err,
                                     "passed": max_err < 1e-10}}


def _cmd_blockade_scan(config: dict[str, Any]):
    cpus = os.cpu_count() or 1
    if config["workers"] > cpus:
        raise ConfigError([("workers",
                            f"{config['workers']} exceeds the {cpus} CPUs of this machine")])
    p = JCParams(config["omega_r"], config["omega_q"], config["g"])
    params = LatticeParams.single_site(p)
    rates = _rates_from(config)
    space = LatticeSpace.uniform(1, config["n_max"])
    grid = np.linspace(config["omega_d_min"], config["omega_d_max"], config["omega_d_points"])
    points = transmission_scan(params, space, rates, config["drive_amplitudes"],
                               grid, max_workers=config["workers"])
    rows = [{"xi": q.xi, "omega_d": q.omega_d, "re_a": q.a.real, "im_a": q.a.imag,
             "abs_a": q.abs_a, "t_norm": q.t_norm, "n_photon": q.n_photon, "g2": q.g2}
            for q in points]
    conv = {"steady_state_method": "preconditioned_gmres", "points": len(rows),
            "g2_check": _g2_check([q.g2 for q in points])}
    krylov = [q.krylov for q in points]
    if config["cutoff_check"]:
        # the grid midpoint at the first drive amplitude, repeated at n_max + 2
        k = len(grid) // 2
        xi0 = config["drive_amplitudes"][0]

        def observable(n_max: int) -> complex:
            sp_ = LatticeSpace.uniform(1, n_max)
            pt = transmission_scan(params, sp_, rates, [xi0], [grid[k]])[0]
            krylov.append(pt.krylov)
            return pt.abs_a

        conv["cutoff_check"] = cutoff_convergence(observable, config["n_max"], rows[k]["abs_a"])
    conv["krylov"] = _krylov_summary(krylov)
    return rows, conv


def _cmd_dimer_g2(config: dict[str, Any]):
    rates = _rates_from(config)
    xi = config["xi"]
    krylov = []           # of every row's solve and of the cutoff check's

    def point(j_val: float, n_max: int):
        """The steady state of both sites driven at ω_d, read at site 0."""
        params = band_resonant_chain(config["omega_r"], config["g"], j_val, 2)
        omega_d = photon_band_minimum(params) - config["g"] + config["drive_offset"]
        model = DrivenLattice(params, LatticeSpace.uniform(2, n_max), rates, driven_sites=(0, 1))
        q = model.point(xi, omega_d, steady_state(model.generator(xi, omega_d)))
        krylov.append(q.krylov)
        return q

    rows = []
    for j_val in config["j_values"]:
        q = point(float(j_val), config["n_max"])
        rows.append({"J": float(j_val), "omega_d": q.omega_d, "g2": q.g2, "abs_a": q.abs_a,
                     "n_photon": q.n_photon})
    conv = {"points": len(rows), "g2_check": _g2_check([r["g2"] for r in rows])}
    if config["cutoff_check"]:
        j0 = float(config["j_values"][0])
        conv["cutoff_check"] = cutoff_convergence(lambda nm: point(j0, nm).g2,
                                                  config["n_max"], rows[0]["g2"])
    conv["krylov"] = _krylov_summary(krylov)
    return rows, conv


def _cmd_sector_nonlinearity(config: dict[str, Any]):
    sizes = [int(ns) for ns in config["n_sites_list"]]
    if sizes != config["n_sites_list"]:
        raise ConfigError([("n_sites_list",
                            f"chain sizes must be integers, got {config['n_sites_list']}")])
    rows = []
    band_minima, degeneracy = {}, {}
    for ns in sizes:
        params = band_resonant_chain(config["omega_r"], config["g"], config["J"], ns)
        space = LatticeSpace.uniform(ns, config["n_max"])
        u = measured_nonlinearity(params, space)
        ucf = nonlinearity_closed_form(config["g"], ns)
        band_minima[str(ns)] = photon_band_minimum(params)
        degeneracy[str(ns)] = band_degeneracy(params)
        rows.append({"n_sites": ns, "u_measured": u, "u_closed_form": ucf,
                     "rel_deviation": (u - ucf) / ucf if ucf else float("nan")})
    conv = {"band_minima": band_minima, "band_degeneracy": degeneracy}
    if config["cutoff_check"]:
        ns = sizes[-1]
        params = band_resonant_chain(config["omega_r"], config["g"], config["J"], ns)
        conv["cutoff_check"] = cutoff_convergence(
            lambda nm: measured_nonlinearity(params, LatticeSpace.uniform(ns, nm)),
            config["n_max"], rows[-1]["u_measured"])
    return rows, conv


def _cmd_meanfield_lobes(config: dict[str, Any]):
    jc = JCParams(config["omega_r"], config["omega_q"], config["g"])
    space = SiteSpace(config["n_max"])
    mu = np.linspace(config["mu_min"], config["mu_max"], config["mu_points"])
    zj = np.linspace(config["zj_min"], config["zj_max"], config["zj_points"])
    zj = zj[zj > 0] if config["zj_min"] == 0 else zj
    if zj.size == 0:
        raise ConfigError([("zj_points", "zj_min = 0 is skipped, so at least 2 points are needed")])
    cells = phase_diagram(jc, mu, zj, space)
    rows = [{"mu": c.mu, "zJ": c.zj, "psi": c.psi, "energy": c.energy,
             "n_polariton": c.n_polariton, "phase": c.phase} for c in cells]
    windows = {f"N={n}": mott_window_analytic(jc, n) for n in (1, 2, 3)}
    # the lobe edge 1/χ(μ) of each μ row; null where the J = 0 ground state is degenerate
    zj_critical = [c.zj_critical or None for c in cells[::len(zj)]]
    # a Mott cell holding n_max or more polaritons fills the photon cutoff: its
    # lobe is an artifact of the truncation, which a larger n_max moves along
    filled = [[c.mu, c.zj] for c in cells
              if c.phase.startswith("Mott") and int(c.phase[4:]) >= config["n_max"]]
    conv: dict[str, Any] = {"j0_mott_windows": {k: list(v) for k, v in windows.items()},
                            "zj_critical": zj_critical,
                            "cutoff_filling": {"cells": filled, "passed": not filled}}
    if config["cutoff_check"]:
        i_mu, i_zj = len(mu) // 2, len(zj) // 2

        conv["cutoff_check"] = cutoff_convergence(
            lambda nm: minimize_order_parameter(jc, mu[i_mu], zj[i_zj], SiteSpace(nm)).psi,
            config["n_max"], cells[i_mu * len(zj) + i_zj].psi, rtol=1e-4)
    return rows, conv


def _cmd_driven_mf(config: dict[str, Any]):
    rows = []
    fixed_points = []
    any_cycle = False
    rates = _rates_from(config)
    space = SiteSpace(config["n_max"])
    for zj in config["zj_values"]:
        zj = float(zj)
        omega_q = config["omega_r"] - zj
        omega_d = omega_q - config["g"] + config["drive_offset"]
        jc = JCParams(config["omega_r"], omega_q, config["g"])
        result = driven_mf_steady(jc, rates, config["xi"], omega_d, zj,
                                  seeds=tuple(config["seeds"]), space=space)
        any_cycle = any_cycle or result.limit_cycle
        for fp in result.per_seed:
            rows.append({"zJ": zj, "seed_re": fp.seed.real, "seed_im": fp.seed.imag,
                         "re_psi": fp.psi.real, "im_psi": fp.psi.imag, "g2": fp.g2,
                         "multistable_flag": int(result.multistable),
                         "limit_cycle_flag": int(fp.limit_cycle)})
        residuals = [b.residual for b in result.branches]
        margins = [b.stability_margin for b in result.branches]
        fixed_points.append({"zJ": zj,
                             "branches": [[b.psi.real, b.psi.imag] for b in result.branches],
                             "residuals": residuals,
                             "stability_margins": margins,
                             "passed": (all(r <= PSI_TOL for r in residuals)
                                        and all(m < 0 for m in margins)),
                             "multistable": result.multistable,
                             "limit_cycle": result.limit_cycle,
                             "dynamics": {"control_intervals": list(result.control_intervals),
                                          "rhs_calls": list(result.rhs_calls),
                                          "lu_factorizations": list(result.lu_factorizations)}})
    conv = {"fixed_points": fixed_points, "limit_cycle_seen": any_cycle,
            "g2_check": _g2_check([r["g2"] for r in rows])}
    return rows, conv


def _cmd_modes(config: dict[str, Any]):
    spec = ResonatorSpec(ell=config["ell"], c=config["c"], L_x=config["L_x"],
                         C_minus=config["C_minus"], C_plus=config["C_plus"])
    modes = solve_modes(spec, config["count"])
    rows = []
    for m in modes:
        row = {"mu": m.mu, "omega_bar": m.omega_bar, "omega": m.omega,
               "phi_left": m.left_value, "phi_right": m.right_value,
               "normalization": m.normalization_integral()}
        rows.append(row)
    defect = max(abs(r["normalization"] - 1.0) for r in rows)
    conv = {"normalization_check": {"max_normalization_defect": defect,
                                    "passed": defect <= MODE_NORMALIZATION_ATOL}}
    return rows, conv


def _cmd_quantize(config: dict[str, Any]):
    netlist = parse_netlist(_read_text(config["netlist"], "netlist"))
    lagr = build_lagrangian(netlist)
    qc = quantize(lagr, charge_cutoff=config["charge_cutoff"],
                  oscillator_levels=config["oscillator_levels"])
    evals = qc.eigenvalues(config["levels"])
    rows = [{"level": i, "energy_joule": float(e)} for i, e in enumerate(evals)]
    conv: dict[str, Any] = {"bases": [{"node": b.node, "kind": b.kind, "size": b.size}
                                      for b in qc.bases],
                            "dim": qc.dim, "nnz": qc.hamiltonian.nnz}
    if config["cutoff_check"]:
        qc2 = quantize(lagr, charge_cutoff=config["charge_cutoff"] + 10,
                       oscillator_levels=config["oscillator_levels"] + 10)
        e2 = qc2.eigenvalues(config["levels"])
        shift = float(np.max(np.abs(evals - e2)) / max(np.max(np.abs(e2)), 1e-300))
        conv["basis_check"] = {"rel_shift": shift, "passed": shift < 1e-9, "dim": qc2.dim}
    return rows, conv


COMMANDS: dict[str, Callable[[dict[str, Any]], tuple[list[dict], dict]]] = {
    "jc-spectrum": _cmd_jc_spectrum,
    "blockade-scan": _cmd_blockade_scan,
    "dimer-g2": _cmd_dimer_g2,
    "sector-nonlinearity": _cmd_sector_nonlinearity,
    "meanfield-lobes": _cmd_meanfield_lobes,
    "driven-mf": _cmd_driven_mf,
    "modes": _cmd_modes,
    "quantize": _cmd_quantize,
}


# ---------------------------------------------------------------------------
# output plumbing

def _format_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))       # a plain float literal, never np.float64(...)
    return str(value)


def write_csv(path: str, rows: list[dict]) -> None:
    """One line per row under a header of the first row's keys."""
    header = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row[h]) for h in header])


def summary_schema() -> dict:
    with resources.files("cqedlat").joinpath("schemas/run_summary.schema.json").open() as fh:
        return json.load(fh)


def _failed_checks(convergence: Any, path: str = "convergence") -> list[str]:
    """Key path of every ``passed: false``, the flag that makes a run
    "unconverged" (exit code 2)."""
    if isinstance(convergence, dict):
        items = convergence.items()
    elif isinstance(convergence, (list, tuple)):
        items = enumerate(convergence)
    else:
        return []
    failed = []
    for key, value in items:
        if key == "passed" and not value:
            failed.append(f"{path}.{key}")
        else:
            failed += _failed_checks(value, f"{path}.{key}")
    return failed


def build_summary(command: str, config: dict[str, Any], csv_path: str,
                  n_rows: int, convergence: dict) -> dict:
    def jsonable(v: Any) -> Any:
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, (list, tuple)):
            return [jsonable(x) for x in v]
        if isinstance(v, dict):
            return {k: jsonable(x) for k, x in v.items()}
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        if isinstance(v, float) and not math.isfinite(v):
            return None       # JSON has no NaN or infinity
        if isinstance(v, (bool, int, float, str)) or v is None:
            return v
        return str(v)

    return {
        "command": command,
        "config": jsonable(config),
        "versions": {
            "cqedlat": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(x) for x in sys.version_info[:3]),
        },
        "convergence": jsonable(convergence),
        "output": {"csv": csv_path, "rows": n_rows},
        "status": "unconverged" if _failed_checks(convergence) else "ok",
    }


@functools.lru_cache(maxsize=None)
def _summary_validator():
    """The validator of ``summary_schema()``.  The schema is a shipped file,
    checked against its metaschema by the tests, not at run time."""
    import jsonschema

    schema = summary_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def run_command(command: str, config: dict[str, Any], csv_path: str,
                summary_path: str | None) -> int:
    import jsonschema

    rows, convergence = COMMANDS[command](config)
    write_csv(csv_path, rows)
    summary = build_summary(command, config, csv_path, len(rows), convergence)
    # the error ``jsonschema.validate`` would raise
    error = jsonschema.exceptions.best_match(_summary_validator().iter_errors(summary))
    if error is not None:
        raise error
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    failed = _failed_checks(convergence)
    if failed:
        print(f"unconverged: {', '.join(failed)} is false", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqedlat",
        description="Circuit QED lattice simulations: spectra, blockade, lobes, modes, circuits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--output", "-o", default=None, help="CSV output path")
        p.add_argument("--summary", default=None, help="JSON summary path")
        for key, field in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                           default=None, help=field.help)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # argparse's own exit code 2 would read as an unconverged run
        print(f"config error at {unknown[0]}: unknown option", file=sys.stderr)
        return 1

    overrides = {k[len("cfg_"):]: v for k, v in vars(args).items() if k.startswith("cfg_")}
    csv_path = args.output or f"{args.command.replace('-', '_')}.csv"
    summary_path = args.summary or (os.path.splitext(csv_path)[0] + "_summary.json")
    try:
        config = load_config(args.command, args.config, overrides)
        return run_command(args.command, config, csv_path, summary_path)
    except ConfigError as exc:
        for key, msg in exc.errors:
            print(f"config error at {key}: {msg}", file=sys.stderr)
        return 1
    except (NetlistError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, StiffnessError, MeanFieldConvergenceError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
