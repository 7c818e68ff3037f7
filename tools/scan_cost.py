"""Per-point cost of the seed-0 blockade scan, in process.

The scan is the one of the benchmark's ``blockade_scan`` workload at seed 0:
ω_r = ω_q = 50, g = 1, γ₁ = κ = 0.01 (a port on site 0), ξ ∈ {0.005, 0.02},
51 drive frequencies on [48.9, 51.1] and n_max = 6 (d = 14), 102 steady
states.  It prints the median wall time per point over ``REPEATS`` scans and,
from a separate, untimed scan, the bordered-operator applications per point
(summed over the members of every batched GMRES call, true-residual products
included), the mean Krylov steps of the first and of the refinement solve, and
the number of batched steady-state solves.

Usage: python tools/scan_cost.py

Run it from a source checkout (``src/`` is put on the path) or with the
package installed.  Uses the standard library and ``cqedlat`` only; pin BLAS
to one thread (``OPENBLAS_NUM_THREADS=1``) for numbers comparable across runs.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cqedlat import lindblad  # noqa: E402
from cqedlat.hilbert import LatticeSpace  # noqa: E402
from cqedlat.jc import JCParams  # noqa: E402
from cqedlat.lattice import LatticeParams  # noqa: E402

REPEATS = 7
DRIVE_AMPLITUDES = (0.005, 0.02)
OMEGA_D_GRID = [48.9 + k * (51.1 - 48.9) / 50 for k in range(51)]


def scan() -> list[lindblad.ScanPoint]:
    """Run the scan once."""
    params = LatticeParams.single_site(JCParams(50.0, 50.0, 1.0))
    rates = lindblad.DissipationRates(gamma1=0.01, kappa=0.01)
    return lindblad.transmission_scan(params, LatticeSpace.uniform(1, 6), rates,
                                      DRIVE_AMPLITUDES, OMEGA_D_GRID)


def counted_scan() -> tuple[list[lindblad.ScanPoint], int, int]:
    """One scan, its bordered applications summed over batch members, and its batches."""
    gmres, solve = lindblad._gmres, lindblad.steady_states
    applications = batches = 0

    def counting_gmres(matvec, b, rtol):
        def counted(members, u):
            nonlocal applications
            applications += len(members)
            return matvec(members, u)

        return gmres(counted, b, rtol)

    def counting_solve(generators):
        nonlocal batches
        batches += 1
        return solve(generators)

    lindblad._gmres, lindblad.steady_states = counting_gmres, counting_solve
    try:
        points = scan()
    finally:
        lindblad._gmres, lindblad.steady_states = gmres, solve
    return points, applications, batches


def main() -> int:
    points, applications, batches = counted_scan()      # also the warm-up scan
    n_points = len(points)
    per_point = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        scan()
        per_point.append((time.perf_counter() - start) / n_points)
    steps = statistics.mean(q.krylov.steps for q in points)
    refine_steps = statistics.mean(q.krylov.refine_steps for q in points)
    print(f"blockade scan, seed 0: {n_points} points in {batches} batches, "
          f"median {statistics.median(per_point) * 1e3:.2f} ms per point over {REPEATS} scans, "
          f"{applications / n_points:.2f} bordered applications per point, "
          f"mean Krylov steps {steps:.2f} (first solve) and {refine_steps:.2f} (refinement)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
