"""Per-point cost of the seed-0 blockade scan, in process.

The scan is the one of the benchmark's ``blockade_scan`` workload at seed 0:
ω_r = ω_q = 50, g = 1, γ₁ = κ = 0.01 (a port on site 0), ξ ∈ {0.005, 0.02},
51 drive frequencies on [48.9, 51.1] and n_max = 6 (d = 14), 102 steady
states.  It prints the median wall time per point over ``REPEATS`` scans and
the number of ``Liouvillian.apply`` calls of one scan, counted in a separate,
untimed scan.

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


def scan() -> int:
    """Run the scan once; the number of points."""
    params = LatticeParams.single_site(JCParams(50.0, 50.0, 1.0))
    rates = lindblad.DissipationRates(gamma1=0.01, kappa_ports={0: 0.01})
    points = lindblad.transmission_scan(params, LatticeSpace.uniform(1, 6), rates,
                                        DRIVE_AMPLITUDES, OMEGA_D_GRID)
    return len(points)


def apply_calls() -> int:
    """``Liouvillian.apply`` calls of one scan."""
    apply = lindblad.Liouvillian.apply
    calls = 0

    def counting(self, rho):
        nonlocal calls
        calls += 1
        return apply(self, rho)

    lindblad.Liouvillian.apply = counting
    try:
        scan()
    finally:
        lindblad.Liouvillian.apply = apply
    return calls


def main() -> int:
    calls = apply_calls()          # also the warm-up scan
    per_point = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        n_points = scan()
        per_point.append((time.perf_counter() - start) / n_points)
    print(f"blockade scan, seed 0: {n_points} points, "
          f"median {statistics.median(per_point) * 1e3:.2f} ms per point over {REPEATS} scans, "
          f"{calls} Liouvillian.apply calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
