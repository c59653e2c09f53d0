"""Generalized fidelity amplitude of a chaotic environment coupled to a far bath.

The near environment is a random-matrix Hamiltonian probed by a Loschmidt
echo; the far environment enters as an isotropic damping of the echo
operator's quasi-density matrix.  The package samples ensembles, integrates
the (non-trace-preserving) echo master equation, and solves the Volterra
integral equation that predicts the ensemble-averaged damped amplitude from
the undamped one.  Each name is imported from the module that defines it,
e.g. ``from echo_gfa.harness import run_ensemble``.
"""

__version__ = "0.1.0"
