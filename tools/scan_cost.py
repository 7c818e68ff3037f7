"""Per-solve cost of the seed-0 blockade scan and dimer point, in process.

The scan is the one of the benchmark's ``blockade_scan`` workload at seed 0:
ω_r = ω_q = 50, g = 1, γ₁ = κ = 0.01 (a port on site 0), ξ ∈ {0.005, 0.02},
51 drive frequencies on [48.9, 51.1] and n_max = 6 (d = 14), 102 steady
states.  It prints the median wall time per point over ``REPEATS`` scans and,
from a separate, untimed scan, the bordered-operator applications per point
(summed over the members of every batched GMRES call, true-residual products
included), the mean Krylov steps of the first and of the refinement solve, and
the number of batched steady-state solves.

The dimer point is the one of the ``dimer_g2`` workload at seed 0: the
periodic two-site ring with ω_r = 50, g = 1, J = 0.5, both sites driven at
ξ = 0.01 on the lower-polariton band bottom, γ₁ = γ_κ = 0.01 and n_max = 3
(d = 64).  The site mirror maps that dimer to itself, so its state is solved
on the mirror's even and odd blocks, of 36 and 28 states.  It prints those
block dimensions and the median wall time of its steady-state solve over
``REPEATS`` solves, and from a separate, untimed solve the bordered
applications and the Krylov steps of the first and of the refinement solve.

Usage: python tools/scan_cost.py

Run it from a source checkout (``src/`` is put on the path) or with the
package installed.  Uses the standard library and ``cqedlat`` only; pin BLAS
to one thread (``OPENBLAS_NUM_THREADS=1``) for numbers comparable across runs.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cqedlat import lindblad  # noqa: E402
from cqedlat.hilbert import LatticeSpace  # noqa: E402
from cqedlat.jc import JCParams  # noqa: E402
from cqedlat.lattice import LatticeParams, band_resonant_chain, photon_band_minimum  # noqa: E402

REPEATS = 7
DRIVE_AMPLITUDES = (0.005, 0.02)
OMEGA_D_GRID = [48.9 + k * (51.1 - 48.9) / 50 for k in range(51)]


def scan() -> list[lindblad.ScanPoint]:
    """Run the scan once."""
    params = LatticeParams.single_site(JCParams(50.0, 50.0, 1.0))
    rates = lindblad.DissipationRates(gamma1=0.01, kappa=0.01)
    return lindblad.transmission_scan(params, LatticeSpace.uniform(1, 6), rates,
                                      DRIVE_AMPLITUDES, OMEGA_D_GRID)


def dimer_generator() -> lindblad.Liouvillian:
    """The generator of the dimer point."""
    params = band_resonant_chain(50.0, 1.0, 0.5, 2)
    rates = lindblad.DissipationRates(gamma1=0.01, gamma_kappa=0.01)
    model = lindblad.DrivenLattice(params, LatticeSpace.uniform(2, 3), rates, driven_sites=(0, 1))
    return model.generator(0.01, photon_band_minimum(params) - 1.0)


def counted(run):
    """``run()`` once, its bordered applications summed over batch members and
    its batched steady-state solves."""
    gmres, solve = lindblad._gmres, lindblad.steady_states
    applications = batches = 0

    def counting_gmres(matvec, b, rtol):
        def counting_matvec(members, u):
            nonlocal applications
            applications += len(members)
            return matvec(members, u)

        return gmres(counting_matvec, b, rtol)

    def counting_solve(generators):
        nonlocal batches
        batches += 1
        return solve(generators)

    lindblad._gmres, lindblad.steady_states = counting_gmres, counting_solve
    try:
        result = run()
    finally:
        lindblad._gmres, lindblad.steady_states = gmres, solve
    return result, applications, batches


def median_ms(run) -> float:
    """Median wall time of ``run()`` over ``REPEATS`` calls, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    points, applications, batches = counted(scan)      # also the warm-up scan
    n_points = len(points)
    per_point = median_ms(scan) / n_points
    steps = statistics.mean(q.krylov.steps for q in points)
    refine_steps = statistics.mean(q.krylov.refine_steps for q in points)
    print(f"blockade scan, seed 0: {n_points} points in {batches} batches, "
          f"median {per_point:.2f} ms per point over {REPEATS} scans, "
          f"{applications / n_points:.2f} bordered applications per point, "
          f"mean Krylov steps {steps:.2f} (first solve) and {refine_steps:.2f} (refinement)")
    generator = dimer_generator()
    solve = partial(lindblad.steady_state, generator)
    state, applications, _ = counted(solve)             # also the warm-up solve
    print(f"dimer g2, seed 0 (d = {generator.dim}, blocks {list(state.krylov.block_dims)}): "
          f"median {median_ms(solve):.2f} ms per solve over {REPEATS} solves, "
          f"{applications} bordered applications, "
          f"Krylov steps {state.krylov.steps} (first solve) and "
          f"{state.krylov.refine_steps} (refinement)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
