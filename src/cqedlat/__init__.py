"""cqedlat: desk-scale simulations of circuit QED lattices.

Subpackages map onto the physics layers: ``hilbert`` (spaces, states and the
operator term kernel), ``jc`` (single-site Jaynes-Cummings), ``lattice`` (JCHM terms
and sector diagonalization), ``lindblad`` (open-system engine), ``meanfield``
(equilibrium lobes and driven fixed points), ``resonator`` (transmission-line
modes), ``circuits`` (netlist quantization) and ``cli`` (reproducible runs).
The package holds what the eight CLI commands run; reference implementations
that only tests use live in the test suite (``tests/oracles.py``).
Operators are plain complex ``scipy.sparse`` CSR matrices.  Importing the
package or its CLI loads neither ``scipy.integrate`` nor ``scipy.optimize``:
``meanfield`` loads on first use, through the module ``__getattr__`` for the
three names re-exported from it.
"""

__version__ = "0.1.0"

from .hilbert import (  # noqa: F401
    DensityMatrix,
    LatticeSpace,
    SiteSpace,
    cutoff_convergence,
    expectation,
)
from .jc import JCParams, jc_hamiltonian, polariton_energy  # noqa: F401
from .lattice import LatticeParams, build_jchm, chain, sector_basis  # noqa: F401
from .lindblad import (  # noqa: F401
    DissipationRates,
    DriveSpec,
    build_liouvillian,
    g2_zero,
    steady_state,
    transmission_scan,
)
from .resonator import ResonatorSpec, solve_modes  # noqa: F401
from .circuits import build_lagrangian, parse_netlist, quantize  # noqa: F401

_MEANFIELD_NAMES = ("driven_mf_steady", "minimize_order_parameter", "phase_diagram")


def __getattr__(name: str):
    if name in _MEANFIELD_NAMES:
        from . import meanfield

        return getattr(meanfield, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
