"""Netlist parsing and canonical quantization of lumped superconducting circuits.

The pipeline follows the standard three steps: (i) node-flux Lagrangian with
per-element energies

    T_C = (C/2)(φ̇_a - φ̇_b)²,
    V_L = (1/2L)(φ_a - φ_b)²,
    V_JJ = -E_J cos[2π(φ_a - φ_b)/Φ₀],

where the designated closure branch of every externally fluxed loop picks up
the shift (φ_a - φ_b) → (φ_a - φ_b) - Φ_ext; (ii) Legendre transform
H = q†C⁻¹q/2 + V(φ), which requires inverting the full capacitance matrix
(only trivial for one-coordinate circuits); (iii) canonical quantization in a
mixed basis: Cooper-pair charge states for junction-only coordinates,
harmonic-oscillator levels for coordinates touching an inductor (junction
cosines are then built by exponentiating the flux operator).  Offset charges
are fixed at zero.

H is assembled as a sparse (CSR) sum of Kronecker products of per-coordinate
operators, never as a dense dim×dim array, and its lowest levels come from
shift-invert Lanczos.  A basis of more than ``MAX_BASIS_DIM`` states, or one
whose terms would store more than ``MAX_TERM_ENTRIES`` entries, is refused
with a ValueError before anything is assembled.

All quantities are SI: farad, henry, joule, weber.  Spectra come out in
joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

__all__ = [
    "E_CHARGE",
    "H_PLANCK",
    "HBAR",
    "PHI0",
    "Capacitor",
    "Inductor",
    "Junction",
    "CircuitNetlist",
    "CircuitLagrangian",
    "QuantizedCircuit",
    "NetlistError",
    "SingularCapacitanceError",
    "parse_netlist",
    "build_lagrangian",
    "quantize",
]

E_CHARGE = 1.602176634e-19          # elementary charge [C]
H_PLANCK = 6.62607015e-34           # Planck constant [J s]
HBAR = H_PLANCK / (2.0 * math.pi)
PHI0 = H_PLANCK / (2.0 * E_CHARGE)  # superconducting flux quantum h/2e [Wb]


class NetlistError(ValueError):
    """Malformed netlist; ``errors`` holds (line_number, message) pairs."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.errors))


class SingularCapacitanceError(ValueError):
    """Capacitance matrix singular after grounding; carries the null vector."""

    def __init__(self, message: str, null_vector: np.ndarray):
        self.null_vector = null_vector
        super().__init__(message)


@dataclass(frozen=True)
class Capacitor:
    node_a: str
    node_b: str
    farads: float


@dataclass(frozen=True)
class Inductor:
    node_a: str
    node_b: str
    henries: float


@dataclass(frozen=True)
class Junction:
    node_a: str
    node_b: str
    ej_joules: float
    closure_loop: str | None = None


@dataclass(frozen=True)
class CircuitNetlist:
    """Validated node graph with a designated ground and external fluxes."""

    nodes: tuple[str, ...]          # declaration order, ground included
    ground: str
    capacitors: tuple[Capacitor, ...] = ()
    inductors: tuple[Inductor, ...] = ()
    junctions: tuple[Junction, ...] = ()
    fluxes: tuple[tuple[str, float], ...] = ()   # (loop name, Φ_ext in Wb)

    @property
    def free_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n != self.ground)

    def flux_of(self, loop: str) -> float:
        for name, phi in self.fluxes:
            if name == loop:
                return phi
        raise KeyError(loop)


# ---------------------------------------------------------------------------
# parsing
#
# Line grammar (see docs/netlist_grammar.ebnf):
#   NODE <name>
#   GROUND <name>
#   C  <a> <b> <farads>
#   L  <a> <b> <henries>
#   JJ <a> <b> <EJ_joules> [CLOSURE <loop>]
#   FLUX <loop> <weber>
# '#' starts a comment; tokens are whitespace-separated.

def parse_netlist(text: str) -> CircuitNetlist:
    """Parse and validate a netlist; raises :class:`NetlistError` with all
    offending line numbers on failure."""
    errors: list[tuple[int, str]] = []
    nodes: list[str] = []
    node_lines: dict[str, int] = {}
    ground: str | None = None
    caps: list[Capacitor] = []
    inds: list[Inductor] = []
    jjs: list[tuple[int, Junction]] = []
    fluxes: dict[str, float] = {}
    flux_lines: dict[str, int] = {}

    def declare_node(name: str, ln: int) -> None:
        if name in node_lines:
            errors.append((ln, f"node {name!r} declared twice"))
        else:
            nodes.append(name)
            node_lines[name] = ln

    def number(tokens: list[str], pos: int, ln: int, what: str) -> float | None:
        try:
            v = float(tokens[pos])
        except ValueError:
            errors.append((ln, f"{what} {tokens[pos]!r} is not a number"))
            return None
        return v

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0].upper()
        if kind == "NODE":
            if len(tok) != 2:
                errors.append((ln, "NODE expects exactly one name"))
            else:
                declare_node(tok[1], ln)
        elif kind == "GROUND":
            if len(tok) != 2:
                errors.append((ln, "GROUND expects exactly one name"))
            elif ground is not None:
                errors.append((ln, f"duplicate ground {tok[1]!r} (ground is {ground!r})"))
            else:
                ground = tok[1]
                declare_node(tok[1], ln)
        elif kind in ("C", "L"):
            if len(tok) != 4:
                errors.append((ln, f"{kind} expects: {kind} <a> <b> <value>"))
                continue
            value = number(tok, 3, ln, f"{kind} value")
            if value is None:
                continue
            if value <= 0:
                errors.append((ln, f"{kind} value must be positive, got {value}"))
                continue
            if tok[1] == tok[2]:
                errors.append((ln, f"{kind} element shorts node {tok[1]!r} to itself"))
                continue
            if kind == "C":
                caps.append(Capacitor(tok[1], tok[2], value))
            else:
                inds.append(Inductor(tok[1], tok[2], value))
        elif kind == "JJ":
            if len(tok) not in (4, 6) or (len(tok) == 6 and tok[4].upper() != "CLOSURE"):
                errors.append((ln, "JJ expects: JJ <a> <b> <EJ_joules> [CLOSURE <loop>]"))
                continue
            ej = number(tok, 3, ln, "JJ energy")
            if ej is None:
                continue
            if ej <= 0:
                errors.append((ln, f"JJ energy must be positive, got {ej}"))
                continue
            if tok[1] == tok[2]:
                errors.append((ln, f"JJ shorts node {tok[1]!r} to itself"))
                continue
            loop = tok[5] if len(tok) == 6 else None
            jjs.append((ln, Junction(tok[1], tok[2], ej, loop)))
        elif kind == "FLUX":
            if len(tok) != 3:
                errors.append((ln, "FLUX expects: FLUX <loop> <weber>"))
                continue
            phi = number(tok, 2, ln, "flux value")
            if phi is None:
                continue
            if tok[1] in fluxes:
                errors.append((ln, f"flux loop {tok[1]!r} declared twice"))
                continue
            fluxes[tok[1]] = phi
            flux_lines[tok[1]] = ln
        else:
            errors.append((ln, f"unknown element {tok[0]!r}"))

    # cross-line validation
    declared = set(nodes)
    used: set[str] = set()
    for ln, elem in ([(0, c) for c in caps] + [(0, i) for i in inds]
                     + [(jline, j) for jline, j in jjs]):
        for endpoint in (elem.node_a, elem.node_b):
            if endpoint not in declared:
                errors.append((ln, f"element references undeclared node {endpoint!r}"))
            used.add(endpoint)
    for name, ln in node_lines.items():
        if name not in used:
            errors.append((ln, f"dangling node {name!r}: declared but connected to nothing"))
    if ground is None and not errors:
        errors.append((0, "no GROUND node declared"))

    closures: dict[str, int] = {}
    for jline, j in jjs:
        if j.closure_loop is not None:
            if j.closure_loop not in fluxes:
                errors.append((jline, f"CLOSURE references undeclared loop {j.closure_loop!r}"))
            else:
                closures[j.closure_loop] = closures.get(j.closure_loop, 0) + 1
    for loop, ln in flux_lines.items():
        n = closures.get(loop, 0)
        if n == 0:
            errors.append((ln, f"flux loop {loop!r} has no designated closure branch"))
        elif n > 1:
            errors.append((ln, f"flux loop {loop!r} has {n} closure branches, expected exactly one"))

    if errors:
        raise NetlistError(sorted(errors))
    return CircuitNetlist(nodes=tuple(nodes), ground=ground,
                          capacitors=tuple(caps), inductors=tuple(inds),
                          junctions=tuple(j for _, j in jjs),
                          fluxes=tuple(sorted(fluxes.items())))


# ---------------------------------------------------------------------------
# Lagrangian assembly

@dataclass(frozen=True)
class PotentialTerm:
    """One inductive or junction branch in grounded coordinates.

    ``index_a``/``index_b`` are coordinate indices, -1 meaning ground (φ = 0);
    ``shift`` is the closure-branch flux in weber.
    """

    kind: str            # "L" or "JJ"
    index_a: int
    index_b: int
    value: float         # henries for L, E_J joules for JJ
    shift: float = 0.0


@dataclass(frozen=True)
class CircuitLagrangian:
    coordinates: tuple[str, ...]       # free node names, declaration order
    c_matrix: np.ndarray               # grounded capacitance matrix [F]
    potentials: tuple[PotentialTerm, ...]

    @property
    def n_coordinates(self) -> int:
        return len(self.coordinates)


def build_lagrangian(netlist: CircuitNetlist) -> CircuitLagrangian:
    """Stamp the capacitance matrix and collect potential terms.

    Raises :class:`SingularCapacitanceError` when the grounded C matrix has a
    (numerically) zero mode: the circuit then contains a free charge degree of
    freedom and the Legendre transform does not exist.
    """
    free = netlist.free_nodes
    index = {name: k for k, name in enumerate(free)}
    index[netlist.ground] = -1
    n = len(free)
    c = np.zeros((n, n))
    for cap in netlist.capacitors:
        ia, ib = index[cap.node_a], index[cap.node_b]
        if ia >= 0:
            c[ia, ia] += cap.farads
        if ib >= 0:
            c[ib, ib] += cap.farads
        if ia >= 0 and ib >= 0:
            c[ia, ib] -= cap.farads
            c[ib, ia] -= cap.farads

    terms: list[PotentialTerm] = []
    for ind in netlist.inductors:
        terms.append(PotentialTerm(kind="L", index_a=index[ind.node_a],
                                   index_b=index[ind.node_b], value=ind.henries))
    for jj in netlist.junctions:
        shift = netlist.flux_of(jj.closure_loop) if jj.closure_loop else 0.0
        terms.append(PotentialTerm(kind="JJ", index_a=index[jj.node_a],
                                   index_b=index[jj.node_b], value=jj.ej_joules,
                                   shift=shift))

    if n > 0:
        vals, vecs = np.linalg.eigh(c)
        scale = max(abs(vals).max(), 1e-300)
        if vals[0] <= 1e-12 * scale:
            raise SingularCapacitanceError(
                f"capacitance matrix singular after grounding "
                f"(eigenvalue {vals[0]:.3e}); free charge mode "
                f"{np.round(vecs[:, 0], 6)} on coordinates {free}",
                null_vector=vecs[:, 0])
    return CircuitLagrangian(coordinates=free, c_matrix=c, potentials=tuple(terms))


# ---------------------------------------------------------------------------
# quantization

@dataclass(frozen=True)
class CoordinateBasis:
    node: str
    kind: str          # "charge" or "oscillator"
    size: int
    # oscillator parameters (unused for charge basis)
    phi_zpf: float = 0.0


# Limits quantize enforces before it assembles anything.  Measured on a 2-core
# x86_64 VM with one BLAS thread (assembly plus the six lowest levels), the
# largest accepted inputs take at most 12 s and 424 MiB peak:
# - MAX_BASIS_DIM bounds the product of the per-coordinate basis sizes.  Two
#   transmons at charge_cutoff 157 (dim 99225) take 3.9 s and 257 MiB.
# - MAX_TERM_ENTRIES bounds the stored entries of the Kronecker terms summed
#   into H.  A junction on an oscillator coordinate is dense in its basis: an
#   rf SQUID at 1575 levels takes 12 s and 413 MiB, mostly in the matrix
#   exponential; a junction oscillator coupled to a second oscillator (133
#   levels each) 8.4 s and 424 MiB; two oscillators joined by a junction (39
#   levels each, H dense) 0.9 s and 279 MiB.
# - MAX_DIAG_COORDINATES bounds the coordinates: a three-oscillator chain at
#   the default 30 levels (dim 27000) takes 8 to 9 s and 440 MiB, and its basis
#   check at 40 levels (dim 64000) 55 s more at a 1.57 GiB peak.
MAX_BASIS_DIM = 100_000
MAX_TERM_ENTRIES = 5_000_000
MAX_DIAG_COORDINATES = 2

# levels solved for beyond the ones asked for, so that a degenerate multiplet
# straddling the last requested level is resolved in full
_GUARD_LEVELS = 4


@dataclass
class QuantizedCircuit:
    lagrangian: CircuitLagrangian
    c_inverse: np.ndarray
    bases: tuple[CoordinateBasis, ...]
    hamiltonian: sp.csr_matrix         # Hermitian, joules

    def eigenvalues(self, count: int = 6) -> np.ndarray:
        """The lowest ``count`` eigenvalues in joules, ascending.

        Shift-invert Lanczos (ARPACK) on H scaled to unit ∞-norm, with the
        shift below a Gershgorin lower bound of the spectrum so that H - σ is
        positive definite.  A fixed start vector makes repeat solves identical.
        More levels than the basis holds are refused with a ValueError.
        """
        if count > self.dim:
            raise ValueError(f"levels = {count} exceeds the basis dimension {self.dim}; "
                             "raise charge_cutoff or oscillator_levels")
        h = self.hamiltonian
        k = count + _GUARD_LEVELS
        if k >= self.dim - 1:
            # ARPACK needs k < dim - 1 (complex Hermitian); this is a property
            # of the input, so such small bases take the full dense spectrum
            return np.linalg.eigvalsh(h.toarray())[:count]
        if not h.data.imag.any():
            h = h.real                      # real symmetric: ARPACK's Lanczos driver
        row_sums = np.asarray(abs(h).sum(axis=1)).ravel()
        scale = float(row_sums.max())
        diag = h.diagonal().real
        # the bound touches the lowest level when H is (nearly) diagonal, as
        # for a lone LC oscillator, so σ keeps a margin below it.  The margin
        # scales with the bound, not with the norm: the norm grows with the
        # basis (4E_C n² in the charge basis), and a shift far below the low
        # levels slows Lanczos by an order of magnitude
        bound = float((diag - (row_sums - np.abs(diag))).min()) / scale
        sigma = bound - 1e-3 * abs(bound) - 1e-8
        v0 = np.random.default_rng(0).standard_normal(self.dim).astype(h.dtype)
        vals = spla.eigsh(h / scale, k=k, sigma=sigma, which="LM", v0=v0, tol=0,
                          return_eigenvectors=False)
        return np.sort(vals.real)[:count] * scale

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _charge_ops(n_q: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Charge operator (Cooper pairs × 2e) and e^{iθ} in the ±n_q basis."""
    size = 2 * n_q + 1
    q = sp.diags(2.0 * E_CHARGE * np.arange(-n_q, n_q + 1, dtype=float), format="csr")
    e_itheta = sp.diags(np.ones(size - 1), -1, format="csr")   # e^{iθ}|n⟩ = |n+1⟩
    return q, e_itheta


def _oscillator_ops(phi_zpf: float, size: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Flux and charge operators in a harmonic basis with the given zero-point
    flux; [φ, q] = iħ."""
    a = sp.diags(np.sqrt(np.arange(1, size, dtype=float)), 1, shape=(size, size), format="csr")
    phi = phi_zpf * (a + a.T)
    q_zpf = HBAR / (2.0 * phi_zpf)
    q = 1j * q_zpf * (a.T - a)
    return phi.tocsr(), q.tocsr()


def quantize(lagr: CircuitLagrangian, charge_cutoff: int = 20,
             oscillator_levels: int = 30) -> QuantizedCircuit:
    """Sparse Hamiltonian H = q†C⁻¹q/2 + V(φ) in a per-coordinate basis.

    Coordinates touching an inductor get a harmonic-oscillator basis (the
    junction cosine is then exp(iφ·2π/Φ₀), a matrix exponential taken at
    single-coordinate size); junction-only coordinates get the
    2·charge_cutoff+1 Cooper-pair charge basis, where the cosine is exact.
    Purely capacitive coordinates have a continuous spectrum and are rejected.
    Every operator is a CSR matrix lifted to the product basis by sparse
    Kronecker products with identities, so H is assembled without a dense
    dim×dim array; :meth:`QuantizedCircuit.eigenvalues` takes the lowest
    levels by shift-invert Lanczos.  Refused with a ValueError before anything
    is assembled: more than :data:`MAX_DIAG_COORDINATES` coordinates, a basis of
    more than :data:`MAX_BASIS_DIM` states, and terms that would store more
    than :data:`MAX_TERM_ENTRIES` entries; the message names the cutoffs to
    lower.
    """
    n = lagr.n_coordinates
    if n == 0:
        raise ValueError("no free coordinates to quantize")
    if n > MAX_DIAG_COORDINATES:
        raise ValueError(
            f"{n} coordinates exceed the diagonalization limit {MAX_DIAG_COORDINATES}")

    touches_l = [False] * n
    touches_jj = [False] * n
    for t in lagr.potentials:
        for idx in (t.index_a, t.index_b):
            if idx >= 0:
                if t.kind == "L":
                    touches_l[idx] = True
                else:
                    touches_jj[idx] = True
    for k, node in enumerate(lagr.coordinates):
        if not (touches_l[k] or touches_jj[k]):
            raise ValueError(
                f"coordinate {node!r} has no inductive or junction potential; "
                "its spectrum is continuous and cannot be diagonalized")

    sizes = [oscillator_levels if touches_l[k] else 2 * charge_cutoff + 1 for k in range(n)]
    dim = math.prod(sizes)
    cutoffs = " or ".join(name for name, used in (("charge_cutoff", not all(touches_l)),
                                                  ("oscillator_levels", any(touches_l))) if used)
    if dim > MAX_BASIS_DIM:
        raise ValueError(
            f"basis dimension {dim} ({' x '.join(map(str, sizes))}) exceeds the limit "
            f"{MAX_BASIS_DIM}; lower {cutoffs}")
    c_inv = np.linalg.inv(lagr.c_matrix)

    # inductive Hessian diagonal fixes each oscillator's zero-point flux
    hess = np.zeros(n)
    for t in lagr.potentials:
        if t.kind == "L":
            for idx in (t.index_a, t.index_b):
                if idx >= 0:
                    hess[idx] += 1.0 / t.value

    # per-coordinate operators by name: "q", "q2" (q²), "phi", "phi2" (φ²), and
    # the junction shift "u" = e^{iθ} or e^{i2πφ/Φ₀} with its adjoint "u+"
    bases: list[CoordinateBasis] = []
    ops: list[dict[str, sp.csr_matrix]] = []
    for k, node in enumerate(lagr.coordinates):
        if touches_l[k]:
            l_eff = 1.0 / hess[k]
            c_eff = 1.0 / c_inv[k, k]
            z = math.sqrt(l_eff / c_eff)
            phi_zpf = math.sqrt(HBAR * z / 2.0)
            phi, q = _oscillator_ops(phi_zpf, oscillator_levels)
            bases.append(CoordinateBasis(node=node, kind="oscillator",
                                         size=oscillator_levels, phi_zpf=phi_zpf))
            ops.append({"q": q, "phi": phi, "phi2": phi @ phi})
        else:
            q, e_itheta = _charge_ops(charge_cutoff)
            bases.append(CoordinateBasis(node=node, kind="charge", size=2 * charge_cutoff + 1))
            ops.append({"q": q, "u": e_itheta, "u+": e_itheta.T.tocsr()})
        ops[k]["q2"] = q @ q

    # H as a sum of Kronecker products: (coefficient, {coordinate: operator
    # name}), with the identity on every coordinate a term does not name
    terms: list[tuple[complex, dict[int, str]]] = []
    for i in range(n):
        terms.append((0.5 * c_inv[i, i], {i: "q2"}))
        for j in range(i + 1, n):
            if c_inv[i, j] != 0.0:
                terms.append((c_inv[i, j], {i: "q", j: "q"}))
    for t in lagr.potentials:
        ends = [(sign, idx) for sign, idx in ((1.0, t.index_a), (-1.0, t.index_b)) if idx >= 0]
        if t.kind == "L":
            # (φ_a - φ_b - Φ)²/2L, expanded; a grounded end has φ = 0
            for sign, idx in ends:
                terms.append((0.5 / t.value, {idx: "phi2"}))
                if t.shift:
                    terms.append((-sign * t.shift / t.value, {idx: "phi"}))
            if len(ends) == 2:
                terms.append((-1.0 / t.value, {t.index_a: "phi", t.index_b: "phi"}))
            if t.shift:
                terms.append((0.5 * t.shift ** 2 / t.value, {}))
        else:
            # -E_J cos(θ_a - θ_b - 2πΦ/Φ₀) = -(E_J/2)(u + u†),
            # u = e^{iθ_a} e^{-iθ_b} e^{-i2πΦ/Φ₀}
            phase = np.exp(-1j * 2.0 * math.pi * t.shift / PHI0)
            terms.append((-0.5 * t.value * phase,
                          {idx: "u" if sign > 0 else "u+" for sign, idx in ends}))
            terms.append((-0.5 * t.value * np.conj(phase),
                          {idx: "u+" if sign > 0 else "u" for sign, idx in ends}))

    def entries(factors: dict[int, str]) -> int:
        count = 1
        for k in range(n):
            name = factors.get(k)
            if name is None:
                count *= sizes[k]                   # identity
            elif name in ops[k]:
                count *= ops[k][name].nnz
            else:
                count *= sizes[k] ** 2              # an oscillator's junction shift, dense
        return count

    total = sum(entries(factors) for _, factors in terms)
    if total > MAX_TERM_ENTRIES:
        raise ValueError(
            f"the terms of H hold {total} entries at basis dimension {dim}, above the "
            f"limit {MAX_TERM_ENTRIES}; lower {cutoffs}")
    for k in range(n):
        if touches_l[k] and touches_jj[k]:
            u = expm(1j * (2.0 * math.pi / PHI0) * ops[k]["phi"].toarray())
            ops[k]["u"] = sp.csr_matrix(u)
            ops[k]["u+"] = sp.csr_matrix(u.conj().T)

    def lift(factors: dict[int, str]) -> sp.csr_matrix:
        out = sp.identity(1, dtype=complex, format="csr")
        for k in range(n):
            op = ops[k][factors[k]] if k in factors else sp.identity(sizes[k], format="csr")
            out = sp.kron(out, op, format="csr")
        return out

    h = sp.csr_matrix((dim, dim), dtype=complex)
    for coefficient, factors in terms:
        term = lift(factors)
        term.data *= coefficient
        h = h + term
    return QuantizedCircuit(lagrangian=lagr, c_inverse=c_inv, bases=tuple(bases),
                            hamiltonian=h)

