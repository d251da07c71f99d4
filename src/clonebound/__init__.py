"""No-signaling bound on universal qubit cloning.

The package builds the covariant two-clone output family, checks its
covariance / opposite-mixture / positivity constraints, maximizes the
shrink factor over the feasible set (closed form and brute-force grid),
realizes the saturating universal cloner as an explicit isometry, and
simulates the remote axis-guessing experiment that a constraint
violator would enable.  Everything else is imported from its module
(`clonebound.family`, `clonebound.pauli`, ...).
"""

from .bounds import max_eta_closed_form
from .buzek_hillery import bh_clone
from .errors import CloneBoundError
from .family import ClonerParams, no_signaling_residual, positivity_eigenvalues
from .pauli import bloch_to_density
from .signaling import monte_carlo_signal

__version__ = "0.1.0"

__all__ = [
    "CloneBoundError",
    "ClonerParams",
    "bh_clone",
    "bloch_to_density",
    "max_eta_closed_form",
    "monte_carlo_signal",
    "no_signaling_residual",
    "positivity_eigenvalues",
]
