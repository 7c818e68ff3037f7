import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import oracles
from cqedlat import cli
from cqedlat.circuits import (
    E_CHARGE,
    HBAR,
    MAX_BASIS_DIM,
    MAX_TERM_ENTRIES,
    PHI0,
    Capacitor,
    CircuitNetlist,
    Inductor,
    Junction,
    NetlistError,
    SingularCapacitanceError,
    build_lagrangian,
    parse_netlist,
    quantize,
)

NETLIST_DIR = Path(__file__).parent / "data" / "netlists"

EC = 0.2e9 * 6.62607015e-34      # 0.2 GHz charging energy in joules
EJ = 50 * EC
C_TRANSMON = E_CHARGE ** 2 / (2 * EC)

LC_TEXT = """GROUND g
NODE n
C g n 1e-12
L g n 1e-9
"""

TRANSMON_TEXT = f"""GROUND g
NODE n
C g n {C_TRANSMON!r}
JJ g n {EJ!r}
"""

# two identical transmons with no coupling capacitor
TRANSMON_TWINS_TEXT = f"""GROUND g
NODE a
NODE b
C g a {C_TRANSMON!r}
C g b {C_TRANSMON!r}
JJ g a {EJ!r}
JJ g b {EJ!r}
"""

# two oscillators joined by a junction: H is dense in the product basis
JUNCTION_COUPLED_OSCILLATORS_TEXT = """GROUND g
NODE a
NODE b
C g a 1e-13
C g b 1.1e-13
L g a 3e-10
L g b 3.3e-10
JJ a b 6.62607e-24
"""


def dense_levels(qc, count):
    """The lowest levels of ``qc``'s circuit by dense assembly: ``np.kron``
    lifts, dense products and a full ``eigvalsh``, in ``qc``'s bases."""
    sizes = [b.size for b in qc.bases]
    q_ops, phi_ops, shift_ops = [], [], []
    for b in qc.bases:
        if b.kind == "charge":
            n_q = (b.size - 1) // 2
            q_ops.append(2.0 * E_CHARGE * np.diag(np.arange(-n_q, n_q + 1.0)))
            phi_ops.append(None)
            shift_ops.append(np.eye(b.size, k=-1))
        else:
            a = np.diag(np.sqrt(np.arange(1.0, b.size)), k=1)
            phi = b.phi_zpf * (a + a.T)
            q_ops.append(1j * HBAR / (2.0 * b.phi_zpf) * (a.T - a))
            phi_ops.append(phi)
            shift_ops.append(expm(1j * (2.0 * math.pi / PHI0) * phi))

    def lift(op, k):
        full = np.ones((1, 1))
        for j, size in enumerate(sizes):
            full = np.kron(full, op if j == k else np.eye(size))
        return full

    c_inv = qc.c_inverse
    h = np.zeros((qc.dim, qc.dim), dtype=complex)
    for i in range(len(sizes)):
        h += 0.5 * c_inv[i, i] * lift(q_ops[i] @ q_ops[i], i)
        for j in range(i + 1, len(sizes)):
            h += c_inv[i, j] * (lift(q_ops[i], i) @ lift(q_ops[j], j))
    for t in qc.lagrangian.potentials:
        ends = [(sign, idx) for sign, idx in ((1, t.index_a), (-1, t.index_b)) if idx >= 0]
        if t.kind == "L":
            dphi = sum(sign * lift(phi_ops[idx], idx) for sign, idx in ends)
            h += (0.5 / t.value) * (dphi @ dphi)
        else:
            u = np.exp(-1j * 2.0 * math.pi * t.shift / PHI0) * np.eye(qc.dim)
            for sign, idx in ends:
                shift = lift(shift_ops[idx], idx)
                u = u @ (shift if sign > 0 else shift.conj().T)
            h -= 0.5 * t.value * (u + u.conj().T)
    return np.linalg.eigvalsh(h)[:count]


NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def netlists(draw):
    """Valid netlists: a random spanning tree over the nodes plus extra
    branches, and flux loops that each close on exactly one junction."""
    nodes = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    ground = draw(st.sampled_from(nodes))
    order = draw(st.permutations(nodes))
    pairs = [(order[i], draw(st.sampled_from(order[:i]))) for i in range(1, len(order))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                           .filter(lambda p: p[0] != p[1]), max_size=4))
    caps, inds, jjs = [], [], []
    for a, b in pairs:
        kind = draw(st.sampled_from("CLJ"))
        if kind == "C":
            caps.append(Capacitor(a, b, draw(POSITIVE)))
        elif kind == "L":
            inds.append(Inductor(a, b, draw(POSITIVE)))
        else:
            jjs.append((a, b, draw(POSITIVE), draw(st.booleans())))
    n_loops = sum(closes for *_, closes in jjs)
    loops = draw(st.lists(NAMES, min_size=n_loops, max_size=n_loops, unique=True))
    closures = iter(loops)
    junctions = [Junction(a, b, ej, next(closures) if closes else None)
                 for a, b, ej, closes in jjs]
    fluxes = sorted((loop, draw(st.floats(-1e-12, 1e-12))) for loop in loops)
    return CircuitNetlist(nodes=tuple(nodes), ground=ground, capacitors=tuple(caps),
                          inductors=tuple(inds), junctions=tuple(junctions),
                          fluxes=tuple(fluxes))


class TestParser:
    def test_minimal_lc(self):
        net = parse_netlist(LC_TEXT)
        assert net.free_nodes == ("n",)
        assert len(net.capacitors) == 1
        assert len(net.inductors) == 1

    def test_comments_and_blank_lines(self):
        net = parse_netlist("# header\nGROUND g\n\nNODE n  # island\nC g n 1e-12 # shunt\nL g n 1e-9\n")
        assert net.ground == "g"

    def test_closure_on_undeclared_loop(self):
        with pytest.raises(NetlistError) as err:
            parse_netlist("GROUND g\nNODE n\nC g n 1e-12\nJJ g n 1e-24 CLOSURE nope\n")
        assert any("nope" in msg for _, msg in err.value.errors)
        assert any(ln == 4 for ln, _ in err.value.errors)

    def test_duplicate_ground(self):
        with pytest.raises(NetlistError, match="duplicate ground"):
            parse_netlist("GROUND g\nGROUND h\nNODE n\nC g n 1e-12\nL g n 1e-9\n")

    def test_dangling_node(self):
        with pytest.raises(NetlistError, match="dangling"):
            parse_netlist("GROUND g\nNODE n\nNODE unused\nC g n 1e-12\nL g n 1e-9\n")

    def test_unknown_element(self):
        with pytest.raises(NetlistError, match="unknown element"):
            parse_netlist("GROUND g\nNODE n\nR g n 50\nC g n 1e-12\nL g n 1e-9\n")

    def test_undeclared_endpoint(self):
        with pytest.raises(NetlistError, match="undeclared node"):
            parse_netlist("GROUND g\nNODE n\nC g m 1e-12\nL g n 1e-9\n")

    def test_flux_without_closure(self):
        with pytest.raises(NetlistError, match="no designated closure"):
            parse_netlist("GROUND g\nNODE n\nC g n 1e-12\nJJ g n 1e-24\nFLUX l 1e-15\n")

    def test_two_closures_for_one_loop(self):
        text = ("GROUND g\nNODE n\nC g n 1e-12\n"
                "JJ g n 1e-24 CLOSURE l\nJJ g n 2e-24 CLOSURE l\nFLUX l 1e-15\n")
        with pytest.raises(NetlistError, match="2 closure branches"):
            parse_netlist(text)

    def test_nonpositive_value(self):
        with pytest.raises(NetlistError, match="positive"):
            parse_netlist("GROUND g\nNODE n\nC g n 0\nL g n 1e-9\n")

    def test_error_collection_is_comprehensive(self):
        with pytest.raises(NetlistError) as err:
            parse_netlist("GROUND g\nNODE n\nC g n -1\nRX g n 2\nL g q 1e-9\n")
        assert len(err.value.errors) >= 3

    def test_round_trip_corpus(self):
        corpus = sorted(NETLIST_DIR.glob("*.nl"))
        assert len(corpus) >= 10
        for path in corpus:
            net = parse_netlist(path.read_text())
            assert parse_netlist(oracles.serialize_netlist(net)) == net

    @settings(max_examples=100)
    @given(netlists())
    def test_round_trip_property(self, net):
        text = oracles.serialize_netlist(net)
        assert parse_netlist(text) == net
        assert oracles.serialize_netlist(parse_netlist(text)) == text


class TestLagrangian:
    def test_single_capacitor_stamp(self):
        lag = build_lagrangian(parse_netlist(LC_TEXT))
        assert np.allclose(lag.c_matrix, [[1e-12]])

    def test_bridged_pair_stamp(self):
        text = """GROUND g
NODE a
NODE b
C g a 2e-12
C g b 2e-12
C a b 5e-13
L g a 1e-9
L g b 1e-9
"""
        lag = build_lagrangian(parse_netlist(text))
        cs, cb = 2e-12, 5e-13
        assert np.allclose(lag.c_matrix, [[cs + cb, -cb], [-cb, cs + cb]])

    def test_half_quantum_flux_shift(self):
        text = (f"GROUND g\nNODE n\nC g n {C_TRANSMON!r}\nL g n 3e-10\n"
                f"JJ g n {EJ!r} CLOSURE ring\nFLUX ring {0.5 * PHI0!r}\n")
        lag = build_lagrangian(parse_netlist(text))
        jj = [t for t in lag.potentials if t.kind == "JJ"][0]
        # phase shift 2π·Φ_ext/Φ₀ = π
        assert 2 * math.pi * jj.shift / PHI0 == pytest.approx(math.pi, abs=1e-12)

    def test_singular_capacitance_reports_null_vector(self):
        text = ("GROUND g\nNODE a\nNODE b\nC a b 1e-12\n"
                "JJ g a 1e-24\nJJ g b 1e-24\n")
        with pytest.raises(SingularCapacitanceError) as err:
            build_lagrangian(parse_netlist(text))
        v = err.value.null_vector
        assert np.allclose(np.abs(v), [1 / math.sqrt(2)] * 2, atol=1e-9)


class TestQuantize:
    def test_lc_oscillator_levels(self):
        qc = quantize(build_lagrangian(parse_netlist(LC_TEXT)), oscillator_levels=40)
        spacings = np.diff(qc.eigenvalues(10))
        omega = 1 / math.sqrt(1e-9 * 1e-12)
        assert np.all(np.abs(spacings - HBAR * omega) <= 1e-9 * HBAR * omega)

    def test_transmon_against_asymptotic_oracle(self):
        # independent oracle: expanding -E_J cos θ to quartic order around
        # θ = 0 gives E01 ≈ sqrt(8 E_J E_C) - E_C
        qc = quantize(build_lagrangian(parse_netlist(TRANSMON_TEXT)), charge_cutoff=20)
        ev = qc.eigenvalues(3)
        e01 = ev[1] - ev[0]
        oracle = math.sqrt(8 * EJ * EC) - EC
        assert abs(e01 - oracle) / oracle < 0.02

    def test_charge_basis_convergence(self):
        lag = build_lagrangian(parse_netlist(TRANSMON_TEXT))
        e_31 = np.diff(quantize(lag, charge_cutoff=15).eigenvalues(2))[0]
        e_41 = np.diff(quantize(lag, charge_cutoff=20).eigenvalues(2))[0]
        assert abs(e_31 - e_41) / e_41 < 1e-10

    def test_transmon_anharmonicity_trend(self):
        # harmonic limit: E12 - E01 approaches -E_C from below in magnitude
        qc = quantize(build_lagrangian(parse_netlist(TRANSMON_TEXT)))
        ev = qc.eigenvalues(3)
        anharm = (ev[2] - ev[1]) - (ev[1] - ev[0])
        assert anharm < 0
        assert abs(anharm) == pytest.approx(EC, rel=0.25)

    def test_flux_periodicity(self):
        def squid_levels(phi_ext):
            text = (f"GROUND g\nNODE n\nC g n {C_TRANSMON!r}\n"
                    f"JJ g n {EJ!r}\nJJ g n {0.6 * EJ!r} CLOSURE loop\n"
                    f"FLUX loop {phi_ext!r}\n")
            return quantize(build_lagrangian(parse_netlist(text))).eigenvalues(5)

        for frac in (0.0, 0.31):
            base = squid_levels(frac * PHI0)
            shifted = squid_levels((frac + 1.0) * PHI0)
            assert np.max(np.abs(base - shifted)) <= 1e-9 * np.max(np.abs(base))

    def test_two_coordinate_circuit(self):
        path = NETLIST_DIR / "transmon_resonator.nl"
        qc = quantize(build_lagrangian(parse_netlist(path.read_text())),
                      charge_cutoff=8, oscillator_levels=12)
        kinds = sorted(b.kind for b in qc.bases)
        assert kinds == ["charge", "oscillator"]
        ev = qc.eigenvalues(3)
        assert ev[1] > ev[0]

    def test_three_coordinates_rejected_for_diagonalization(self):
        path = NETLIST_DIR / "lc_chain3.nl"
        lag = build_lagrangian(parse_netlist(path.read_text()))
        assert lag.n_coordinates == 3
        with pytest.raises(ValueError, match="diagonalization limit"):
            quantize(lag)

    def test_capacitor_only_coordinate_rejected(self):
        text = "GROUND g\nNODE n\nC g n 1e-12\n"
        with pytest.raises(ValueError, match="continuous"):
            quantize(build_lagrangian(parse_netlist(text)))

    def test_corpus_quantizes(self):
        for path in sorted(NETLIST_DIR.glob("*.nl")):
            lag = build_lagrangian(parse_netlist(path.read_text()))
            if lag.n_coordinates > 2:
                continue
            qc = quantize(lag, charge_cutoff=10, oscillator_levels=15)
            ev = qc.eigenvalues(3)
            assert np.all(np.diff(ev) > 0)


class TestSparseQuantize:
    @pytest.mark.parametrize("charge_cutoff, oscillator_levels", [(9, 12), (19, 25)])
    def test_corpus_matches_dense_assembly(self, charge_cutoff, oscillator_levels):
        checked = 0
        for path in sorted(NETLIST_DIR.glob("*.nl")):
            lag = build_lagrangian(parse_netlist(path.read_text()))
            if lag.n_coordinates > 2:
                continue
            qc = quantize(lag, charge_cutoff=charge_cutoff, oscillator_levels=oscillator_levels)
            ev = qc.eigenvalues(8)
            ref = dense_levels(qc, 8)
            assert np.max(np.abs(ev - ref)) <= 1e-10 * np.max(np.abs(ref)), path.name
            checked += 1
        assert checked == 11

    @pytest.mark.parametrize("charge_cutoff", [9, 19])
    def test_uncoupled_twins_are_sums_of_single_levels(self, charge_cutoff):
        single = quantize(build_lagrangian(parse_netlist(TRANSMON_TEXT)),
                          charge_cutoff=charge_cutoff)
        e1 = np.linalg.eigvalsh(single.hamiltonian.toarray())
        sums = np.sort((e1[:, None] + e1[None, :]).ravel())[:8]
        twins = quantize(build_lagrangian(parse_netlist(TRANSMON_TWINS_TEXT)),
                         charge_cutoff=charge_cutoff)
        assert twins.dim == (2 * charge_cutoff + 1) ** 2
        ev = twins.eigenvalues(8)
        scale = np.max(np.abs(sums))
        assert np.max(np.abs(ev - sums)) <= 1e-12 * scale
        # |01> and |10>: the first excited level is doubly degenerate, no more
        assert ev[2] - ev[1] <= 1e-12 * scale
        assert ev[1] - ev[0] > 0.1 * EC and ev[3] - ev[2] > 0.1 * EC

    def test_hamiltonian_is_sparse_and_hermitian(self):
        qc = quantize(build_lagrangian(parse_netlist((NETLIST_DIR / "transmon_pair.nl").read_text())),
                      charge_cutoff=19)
        h = qc.hamiltonian
        assert qc.dim == 1521
        assert h.format == "csr" and h.nnz == 7448
        assert (h - h.conj().T).count_nonzero() == 0

    def test_repeat_solves_are_identical(self):
        qc = quantize(build_lagrangian(parse_netlist((NETLIST_DIR / "transmon_resonator.nl").read_text())))
        assert qc.eigenvalues(6).tobytes() == qc.eigenvalues(6).tobytes()

    def test_oversized_basis_is_refused_at_once(self):
        lag = build_lagrangian(parse_netlist((NETLIST_DIR / "transmon_pair.nl").read_text()))
        dim = (2 * 10 ** 6 + 1) ** 2
        with pytest.raises(ValueError, match=f"basis dimension {dim} .* limit {MAX_BASIS_DIM}; "
                                             "lower charge_cutoff$"):
            quantize(lag, charge_cutoff=10 ** 6)

    def test_oversized_cli_run_exits_one(self, tmp_path, capsys):
        code = cli.main(["quantize", "--netlist", str(NETLIST_DIR / "transmon_pair.nl"),
                         "--charge-cutoff", "1000000", "--output", str(tmp_path / "q.csv")])
        assert code == 1
        assert f"exceeds the limit {MAX_BASIS_DIM}" in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()

    def test_dense_junction_coupling_is_refused(self):
        lag = build_lagrangian(parse_netlist(JUNCTION_COUPLED_OSCILLATORS_TEXT))
        # the junction's two Kronecker terms are dense: 2·60⁴ entries at dim 3600
        with pytest.raises(ValueError, match=f"limit {MAX_TERM_ENTRIES}; lower oscillator_levels$"):
            quantize(lag, oscillator_levels=60)
        qc = quantize(lag, oscillator_levels=12)
        assert qc.hamiltonian.nnz > qc.dim ** 2 // 2
        ev = qc.eigenvalues(6)
        assert np.max(np.abs(ev - dense_levels(qc, 6))) <= 1e-10 * np.max(np.abs(ev))

