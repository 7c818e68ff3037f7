"""cqedlat: desk-scale simulations of circuit QED lattices.

Subpackages map onto the physics layers: ``hilbert`` (spaces, states and the
operator term kernel), ``jc`` (single-site Jaynes-Cummings), ``lattice`` (JCHM terms
and sector diagonalization), ``lindblad`` (open-system engine), ``meanfield``
(equilibrium lobes and driven fixed points), ``resonator`` (transmission-line
modes), ``circuits`` (netlist quantization) and ``cli`` (reproducible runs).
The package holds what the eight CLI commands run; reference implementations
that only tests use live in the test suite (``tests/oracles.py``).
Operators are plain complex ``scipy.sparse`` CSR matrices.  The package
namespace holds only ``__version__``; every name is imported from its module.
No command loads ``scipy.integrate`` or ``scipy.optimize``: ``meanfield``
integrates with its own DOP853 stepper and ``resonator`` finds mode roots by
its own Brent search.
"""

__version__ = "0.1.0"
