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
Importing the package or its CLI loads neither ``scipy.integrate`` nor
``scipy.optimize``: the CLI imports ``meanfield`` inside the two commands that
run it.
"""

__version__ = "0.1.0"
