"""Workload definitions: generated CLI configs and the oracle checks on their outputs.

A workload is one study: a fixed list of subcommand invocations that one
client runs back to back in one process.  Each workload function makes the
configs for a seed; the seed only moves grids inside the ranges stated next
to each draw, and seed 0 (``DEFAULT_SEED``) gives the unperturbed configs
whose outputs are stored under ``reference/``.  An invocation whose config the
seed leaves unchanged is compared with the reference at every seed.  ``check``
returns the failed checks of one invocation; it reads only the CSV and JSON
summary the program wrote.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
NETLIST = os.path.join(HERE, "data", "transmon_pair.nl")

# reference comparison, per cell: |x - ref| <= rtol |ref| + REF_ATOL median|ref column| + floor,
# with rtol = REF_RTOL and floor = 0 unless REF_COLUMN_TOL says otherwise; the median term
# covers cells at roundoff level, e.g. <a†a> ~ 1e-9 whose absolute roundoff is ~1e-14
REF_RTOL = 1e-6
REF_ATOL = 1e-8
# (invocation, column): (rtol, floor) for values the arithmetic or the program fixes more
# loosely; the margins are against the largest change seen under other BLAS kernels
REF_COLUMN_TOL = {
    ("scan", "g2"): (1e-3, 0.0),        # <a†²a²>/n² moves by up to 4e-5 relative
    ("dimer", "g2"): (1e-3, 0.0),       # moves by up to 5e-5 relative
    ("lobes", "psi"): (REF_RTOL, 1e-5),          # golden-section search: moves by up to 3.5e-7
    ("lobes", "n_polariton"): (REF_RTOL, 1e-5),  # follows ψ: moves by up to 2e-7
    ("jc", "abs_err"): (REF_RTOL, 1e-9),         # roundoff of eigenvalues up to 1.5e3
}
# driven mean field: |tr(a rho_ss(psi)) - psi| for a reported fixed point psi
SELF_CONSISTENCY_ATOL = 1e-5
# blockade scan: g2(0) at the weak-drive polariton peaks (antibunched below 1)
BLOCKADE_G2_MAX = 1.0
MODE_NORMALIZATION_ATOL = 1e-8
INTEGER_FILLING_ATOL = 1e-6
PSI_FLOOR = 1e-5


@dataclass(frozen=True)
class Invocation:
    name: str                 # unique within the workload; file stem of its outputs
    command: str              # CLI subcommand
    config: dict[str, Any]    # JSON config handed to ``cli.load_config``


class _Draw:
    """Uniform offsets from the workload seed; zero at the default seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed) if seed != DEFAULT_SEED else None

    def __call__(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi) if self.rng is not None else 0.0


# ---------------------------------------------------------------------------
# configs

BLOCKADE = dict(omega_r=50.0, omega_q=50.0, g=1.0, gamma1=0.01, kappa=0.01,
                drive_amplitudes=[0.005, 0.02], omega_d_min=48.9, omega_d_max=51.1,
                omega_d_points=51, n_max=6, cutoff_check=True, workers=1)
DIMER = dict(omega_r=50.0, g=1.0, j_values=[0.5], xi=0.01, gamma1=0.01, gamma_kappa=0.01,
             n_max=3, cutoff_check=False)
DRIVEN = dict(omega_r=20.0, g=1.0, zj_values=[1.0], xi=0.12, gamma1=0.06, kappa=0.06,
              drive_offset=0.3, seeds=[0.0, 1.5], n_max=6)
LOBES = dict(omega_r=10.0, omega_q=10.0, g=1.0, mu_min=8.6, mu_max=9.9, mu_points=10,
             zj_min=0.0, zj_max=0.2, zj_points=10, n_max=10)
QUANTIZE = dict(charge_cutoff=9, cutoff_check=True)
SECTOR = dict(omega_r=50.0, g=1.0, J=-0.5, n_sites_list=[1, 2, 3, 4, 5])
JC = dict(omega_r=50.0, omega_q=50.0, g=1.0, n_max=30)
MODES = dict(ell=4e-7, c=1.6e-10, L_x=0.01, C_minus=1e-15, C_plus=1e-15, count=20)


def blockade_scan(seed: int) -> list[Invocation]:
    draw = _Draw(seed)
    cfg = dict(BLOCKADE)
    step = (cfg["omega_d_max"] - cfg["omega_d_min"]) / (cfg["omega_d_points"] - 1)
    shift = draw(-0.5 * step, 0.5 * step)          # grid offset within half a step
    cfg["omega_d_min"] += shift
    cfg["omega_d_max"] += shift
    return [Invocation("scan", "blockade-scan", cfg)]


def dimer_g2(seed: int) -> list[Invocation]:
    draw = _Draw(seed)
    cfg = dict(DIMER)
    cfg["j_values"] = [j + draw(-0.05, 0.05) for j in DIMER["j_values"]]   # J within ±0.05
    return [Invocation("dimer", "dimer-g2", cfg)]


def driven_mf(seed: int) -> list[Invocation]:
    draw = _Draw(seed)
    cfg = dict(DRIVEN)
    # low seed in [0, 0.01], high seed in [1.45, 1.55]: one in each basin; wider
    # ranges change the RK45 step count, and so the study time, by several percent
    cfg["seeds"] = [DRIVEN["seeds"][0] + draw(0.0, 0.01), DRIVEN["seeds"][1] + draw(-0.05, 0.05)]
    return [Invocation("driven", "driven-mf", cfg)]


def closed_spectra(seed: int) -> list[Invocation]:
    draw = _Draw(seed)
    lobes = dict(LOBES)
    mu_shift = draw(-0.05, 0.05)                    # μ window moved by up to ±0.05
    lobes["mu_min"] += mu_shift
    lobes["mu_max"] += mu_shift
    lobes["zj_max"] *= 1.0 + draw(-0.1, 0.1)        # zJ window stretched by up to ±10%
    return [
        Invocation("lobes", "meanfield-lobes", lobes),
        Invocation("quantize", "quantize", dict(QUANTIZE, netlist=NETLIST)),
        Invocation("sector", "sector-nonlinearity", dict(SECTOR)),
        Invocation("jc", "jc-spectrum", dict(JC)),
        Invocation("modes", "modes", dict(MODES)),
    ]


# the one-line reason for each workload is in BENCHMARK.json, the long one in README.md
WORKLOADS: dict[str, Callable[[int], list[Invocation]]] = {
    "blockade_scan": blockade_scan,
    "dimer_g2": dimer_g2,
    "driven_mf": driven_mf,
    "closed_spectra": closed_spectra,
}


# ---------------------------------------------------------------------------
# checks

def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def _num(text: str) -> float:
    # sector-nonlinearity writes some cells as numpy reprs, e.g. "np.float64(0.5)";
    # the value is checked here, the cell format is a known program defect
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _failed_flags(node: Any, path: str = "") -> list[str]:
    """Every ``passed: false`` / ``analytic_matches_numeric: false`` in a summary."""
    out: list[str] = []
    if isinstance(node, dict):
        for k, v in node.items():
            if k in ("passed", "analytic_matches_numeric") and v is False:
                out.append(f"{path}.{k} is false")
            else:
                out.extend(_failed_flags(v, f"{path}.{k}"))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.extend(_failed_flags(v, f"{path}[{i}]"))
    return out


def reference_names(workload: str, invocations: list[Invocation]) -> set[str]:
    """Invocations compared with the reference: those whose config equals the default seed's."""
    default = {inv.name: inv.config for inv in WORKLOADS[workload](DEFAULT_SEED)}
    return {inv.name for inv in invocations if inv.config == default.get(inv.name)}


def compare_reference(name: str, header: list[str], rows: list[dict[str, str]],
                      ref_header: list[str], ref_rows: list[dict[str, str]]) -> list[str]:
    """CSV values of invocation ``name`` against a stored reference, within the stated tolerance."""
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    errors: list[str] = []
    for col in header:
        try:
            ref = np.array([_num(r[col]) for r in ref_rows])
            got = np.array([_num(r[col]) for r in rows])
        except ValueError:
            bad = [i for i, (a, b) in enumerate(zip(rows, ref_rows)) if a[col] != b[col]]
            if bad:
                errors.append(f"column {col}: row {bad[0]} reads {rows[bad[0]][col]!r}, "
                              f"reference {ref_rows[bad[0]][col]!r}")
            continue
        finite = np.isfinite(ref)
        if not np.array_equal(finite, np.isfinite(got)):
            errors.append(f"column {col}: non-finite entries differ from reference")
            continue
        if not finite.any():
            continue
        rtol, floor = REF_COLUMN_TOL.get((name, col), (REF_RTOL, 0.0))
        tol = rtol * np.abs(ref[finite]) + REF_ATOL * float(np.median(np.abs(ref[finite]))) + floor
        dev = np.abs(got[finite] - ref[finite])
        if np.any(dev > tol):
            k = int(np.argmax(dev - tol))
            errors.append(f"column {col}: deviation {dev[k]:.3e} exceeds tolerance {tol[k]:.3e}")
    return errors


def _check_blockade(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    errors: list[str] = []
    expected = len(cfg["drive_amplitudes"]) * cfg["omega_d_points"]
    if len(rows) != expected:
        errors.append(f"{len(rows)} scan points, expected {expected}")
    step = (cfg["omega_d_max"] - cfg["omega_d_min"]) / (cfg["omega_d_points"] - 1)
    weak = [r for r in rows if _num(r["xi"]) == min(cfg["drive_amplitudes"])]
    w_r, g = cfg["omega_r"], cfg["g"]
    # weak drive: one peak on each single-polariton line ω_r ∓ g (resonant JC), and
    # photon blockade there: the second photon is off resonance, so g2(0) < 1
    for side, target in ((-1, w_r - g), (1, w_r + g)):
        half = [r for r in weak if (_num(r["omega_d"]) - w_r) * side > 0]
        if not half:
            errors.append(f"no scan point on side {side:+d} of omega_r")
            continue
        peak = max(half, key=lambda r: _num(r["abs_a"]))
        if abs(_num(peak["omega_d"]) - target) > step * (1 + 1e-9):
            errors.append(f"weak-drive peak at {peak['omega_d']}, expected {target} within {step:.4g}")
        if not _num(peak["g2"]) < BLOCKADE_G2_MAX:
            errors.append(f"weak-drive peak at {peak['omega_d']}: g2 = {peak['g2']}, "
                          f"expected < {BLOCKADE_G2_MAX} (antibunching)")
    if "cutoff_check" not in summary["convergence"]:
        errors.append("cutoff check missing from summary")
    return errors


def _check_dimer(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    errors: list[str] = []
    if len(rows) != len(cfg["j_values"]):
        errors.append(f"{len(rows)} rows, expected {len(cfg['j_values'])}")
    for r in rows:
        g2, abs_a, n = _num(r["g2"]), _num(r["abs_a"]), _num(r["n_photon"])
        if not (math.isfinite(g2) and g2 > 0):
            errors.append(f"J={r['J']}: g2 {g2} is not a positive number")
        if not (n > 0 and abs_a * abs_a <= n * (1 + 1e-9)):   # |<a>|^2 <= <a†a>
            errors.append(f"J={r['J']}: |<a>|^2 = {abs_a * abs_a:.6e} exceeds <n> = {n:.6e}")
    return errors


def _jc_driven_generator(cfg: dict, zj: float, psi: complex) -> tuple[np.ndarray, np.ndarray]:
    """Dense Lindblad generator of one driven site with the mean field frozen at ψ.

    Built here, independently of the program, in the drive frame:
    H = (ω_r-ω_d)a†a + (ω_q-ω_d)σ⁺σ⁻ + g(a†σ⁻+aσ⁺) + ξ(a+a†) - zJ(ψa† + ψ*a),
    jumps √γ₁σ⁻ and √κ a.  Returns (L, a) with row-major vec(ρ).
    """
    n = cfg["n_max"] + 1
    omega_q = cfg["omega_r"] - zj
    omega_d = omega_q - cfg["g"] + cfg["drive_offset"]
    a = np.kron(np.diag(np.sqrt(np.arange(1, n)), k=1), np.eye(2))
    sm = np.kron(np.eye(n), np.array([[0.0, 1.0], [0.0, 0.0]]))   # qubit basis (g, e)
    ad = a.conj().T
    h = ((cfg["omega_r"] - omega_d) * ad @ a + (omega_q - omega_d) * sm.conj().T @ sm
         + cfg["g"] * (ad @ sm + a @ sm.conj().T) + cfg["xi"] * (a + ad)
         - zj * (psi * ad + np.conj(psi) * a))
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in ((cfg["gamma1"], sm), (cfg["kappa"], a)):
        if rate > 0:
            cdc = c.conj().T @ c
            gen += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen, a


def driven_self_consistency(cfg: dict, zj: float, psi: complex) -> float:
    """|tr(a ρ_ss(ψ)) - ψ| with ρ_ss from a dense null-space solve at frozen ψ."""
    gen, a = _jc_driven_generator(cfg, zj, psi)
    d = a.shape[0]
    m = gen.copy()
    m[0, :] = np.eye(d).reshape(-1)               # trace row replaces one redundant row
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(m, b).reshape(d, d)
    return abs(np.trace(a @ rho) - psi)


def _check_driven(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    errors: list[str] = []
    if len(rows) != len(cfg["zj_values"]) * len(cfg["seeds"]):
        errors.append(f"{len(rows)} rows, expected one per (zJ, seed)")
    for r in rows:
        psi = complex(_num(r["re_psi"]), _num(r["im_psi"]))
        dev = driven_self_consistency(cfg, _num(r["zJ"]), psi)
        if not dev <= SELF_CONSISTENCY_ATOL:
            errors.append(f"psi={psi:.6g} is not self-consistent: |tr(a rho) - psi| = {dev:.3e}")
        if r["limit_cycle_flag"] != "0":
            errors.append(f"seed {r['seed_re']} ended on a limit cycle")
    for fp in summary["convergence"]["fixed_points"]:
        if len(fp["branches"]) < 2:
            errors.append(f"zJ={fp['zJ']}: {len(fp['branches'])} branch found, expected 2")
    return errors


def _polariton_lower(cfg: dict, n: int) -> float:
    """Closed-form lower-branch JC energy ε_n⁻ (ε_0 = 0)."""
    if n == 0:
        return 0.0
    delta = cfg["omega_r"] - cfg["omega_q"]
    return n * cfg["omega_r"] - 0.5 * delta - math.sqrt(n * cfg["g"] ** 2 + 0.25 * delta ** 2)


def _check_lobes(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    errors: list[str] = []
    mott = [r for r in rows if r["phase"].startswith("Mott")]
    if not mott or len(mott) == len(rows):
        errors.append(f"{len(mott)} of {len(rows)} cells are Mott; expected both phases")
    for r in mott:
        n_lab = int(r["phase"][4:])
        n_val, psi, mu = _num(r["n_polariton"]), _num(r["psi"]), _num(r["mu"])
        if abs(n_val - n_lab) > INTEGER_FILLING_ATOL or psi > PSI_FLOOR:
            errors.append(f"cell mu={mu}, zJ={r['zJ']}: {r['phase']} with n={n_val}, psi={psi}")
        # lobes only shrink with zJ, so a Mott(N) cell lies in the J = 0 window of N
        lower = (_polariton_lower(cfg, n_lab) - _polariton_lower(cfg, n_lab - 1)
                 if n_lab > 0 else -math.inf)
        upper = _polariton_lower(cfg, n_lab + 1) - _polariton_lower(cfg, n_lab)
        if not lower - 1e-9 <= mu <= upper + 1e-9:
            errors.append(f"cell mu={mu}: {r['phase']} outside the J=0 window [{lower}, {upper}]")
    return errors


def _check_quantize(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    energies = [_num(r["energy_joule"]) for r in rows]
    if any(b < a for a, b in zip(energies, energies[1:])):
        return ["quantized energies are not ascending"]
    if "basis_check" not in summary["convergence"]:
        return ["basis check missing from summary"]
    return []


def _check_modes(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    errors = [f"mode {r['mu']}: normalization {r['normalization']}" for r in rows
              if abs(_num(r["normalization"]) - 1.0) > MODE_NORMALIZATION_ATOL]
    omegas = [_num(r["omega"]) for r in rows]
    if len(rows) != cfg["count"] or any(b <= a for a, b in zip(omegas, omegas[1:])):
        errors.append("mode table is not the requested ascending sequence")
    return errors


def _check_finite(cfg: dict, rows: list[dict[str, str]], summary: dict) -> list[str]:
    return [f"row {i}: non-finite {k}" for i, r in enumerate(rows) for k, v in r.items()
            if not math.isfinite(_num(v))]


ORACLES: dict[str, Callable[[dict, list[dict[str, str]], dict], list[str]]] = {
    "blockade-scan": _check_blockade,
    "dimer-g2": _check_dimer,
    "driven-mf": _check_driven,
    "meanfield-lobes": _check_lobes,
    "quantize": _check_quantize,
    "modes": _check_modes,
    "sector-nonlinearity": _check_finite,
    "jc-spectrum": lambda cfg, rows, summary: [],
}


def check(workload: str, inv: Invocation, csv_path: str, summary: dict,
          with_reference: bool) -> list[str]:
    """Failed checks of one invocation's outputs; empty when all hold."""
    header, rows = read_csv(csv_path)
    errors = []
    if summary.get("status") != "ok":
        errors.append(f"summary status {summary.get('status')!r}")
    if summary["output"]["rows"] != len(rows):
        errors.append(f"summary reports {summary['output']['rows']} rows, CSV has {len(rows)}")
    errors += _failed_flags(summary["convergence"], "convergence")
    errors += ORACLES[inv.command](inv.config, rows, summary)
    if with_reference:
        ref_header, ref_rows = read_csv(os.path.join(REFERENCE_DIR, workload, inv.name + ".csv"))
        errors += compare_reference(inv.name, header, rows, ref_header, ref_rows)
    return [f"{workload}/{inv.name}: {e}" for e in errors]
