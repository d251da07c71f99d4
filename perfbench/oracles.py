"""Independent re-derivations that the benchmark checks clonebound against.

Nothing here calls into clonebound.  States are rebuilt from their Pauli
coefficients with numpy, rotations come from Rodrigues' formula, and
spectra from `np.linalg.eigvalsh`.  The checks pin no report bytes and
no value of `helstrom_probability`: a Monte Carlo estimate is compared
with the report's own analytic rate, so the oracles stay valid when the
signaling statistics are fixed or reports gain keys.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SX, SY, SZ)
#: BASIS[j, k] = sigma_j (x) sigma_k, index 0 the identity
BASIS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
Z_AXIS = np.array([0.0, 0.0, 1.0])

ETA_MAX = 2.0 / 3.0
FIDELITY_MAX = 5.0 / 6.0

#: two-sided tail probability of a 4-sigma Gaussian test
FOUR_SIGMA_ALPHA = math.erfc(4.0 / math.sqrt(2.0))


def state(c00, a, b, t):
    """sum of coefficients times BASIS, coefficients without the 1/4."""
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = c00
    coeffs[1:, 0] = a
    coeffs[0, 1:] = b
    coeffs[1:, 1:] = t
    return np.einsum("jk,jkab->ab", coeffs, BASIS) / 4.0


def template(eta, t):
    """The z-frame output (1/4)(I + eta(Z(x)I + I(x)Z) + sum t_jk s_j(x)s_k)."""
    return state(1.0, eta * Z_AXIS, eta * Z_AXIS, t)


def family_matrix(t, t_xy):
    return np.array([[t, t_xy, 0.0], [-t_xy, t, 0.0], [0.0, 0.0, t]])


def rotation_z_to(m):
    """SO(3) rotation taking z to m along the minimal geodesic.

    Same convention as the package: rotate about z x m by arccos(m_z);
    m = z is the identity and m = -z a half turn about x.
    """
    m = np.asarray(m, dtype=float)
    axis = np.array([-m[1], m[0], 0.0])
    norm = np.linalg.norm(axis)
    if norm < 1e-9:
        return np.eye(3) if m[2] > 0 else np.diag([1.0, -1.0, -1.0])
    k = axis / norm
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    angle = math.acos(max(-1.0, min(1.0, m[2])))
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * cross @ cross


def opposite_sum(t, axis):
    """rho(+axis) + rho(-axis) for a co-rotating correlation matrix; eta cancels."""
    axis = np.asarray(axis, dtype=float)
    corr = sum(r @ t @ r.T for r in (rotation_z_to(axis), rotation_z_to(-axis)))
    return state(2.0, np.zeros(3), np.zeros(3), corr)


def trace_distance(rho, sigma):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def signaling_residual(t, axis_a, axis_b):
    return trace_distance(opposite_sum(t, axis_a), opposite_sum(t, axis_b))


def min_eigenvalue(eta, t):
    return float(np.linalg.eigvalsh(template(eta, t))[0])


def family_spectra(eta, t, t_xy):
    """Ascending spectra of the family templates, vectorised over points."""
    eta, t, t_xy = (np.asarray(v, dtype=float)[..., None, None] for v in (eta, t, t_xy))
    zz = BASIS[3, 0] + BASIS[0, 3]
    iso = BASIS[1, 1] + BASIS[2, 2] + BASIS[3, 3]
    anti = BASIS[1, 2] - BASIS[2, 1]
    mats = (BASIS[0, 0] + eta * zz + t * iso + t_xy * anti) / 4.0
    return np.linalg.eigvalsh(mats)


def bloch_rotation(u):
    """R_jk = Tr(sigma_j U sigma_k U^dag)/2."""
    return np.array(
        [[np.trace(sj @ u @ sk @ u.conj().T).real / 2.0 for sk in PAULIS[1:]]
         for sj in PAULIS[1:]]
    )


def close(x, y, tol):
    return bool(np.all(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) <= tol))


def mc_deviation_bound(p, shots, alpha):
    """Bernstein bound on |successes - shots*p| exceeded with probability <= alpha.

    Valid for every p, including the Poisson regime near 0 or 1 where a
    Gaussian sigma band would fail far more often than it claims.
    """
    log_term = math.log(2.0 / alpha)
    var = shots * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)


class MonteCarloLedger:
    """Checks Monte Carlo estimates against the reports' own analytic rates.

    Each estimate must lie within the Bernstein bound at a false-alarm
    rate of FOUR_SIGMA_ALPHA split over `max_checks` distinct estimates,
    so a correct program fails no check of a run with more than 4-sigma
    odds.  `pooled_z` adds the run-level 4-sigma test: the summed
    deviations of all distinct estimates, in units of their combined
    standard error, which catches a small bias shared by every estimate.
    """

    def __init__(self, max_checks):
        self.alpha = FOUR_SIGMA_ALPHA / max(1, max_checks)
        self.seen = set()
        self.deviation = 0.0
        self.variance = 0.0

    def check(self, key, estimate, p, shots):
        if not 0.5 - 1e-12 <= p <= 1.0 + 1e-12:
            return f"helstrom_probability {p!r} outside [1/2, 1]"
        dev = estimate * shots - p * shots
        if abs(dev) > mc_deviation_bound(p, shots, self.alpha):
            return f"mc_estimate {estimate!r} vs rate {p!r} over {shots} shots"
        if key not in self.seen:
            self.seen.add(key)
            self.deviation += dev
            self.variance += shots * p * (1.0 - p)
        return None

    def pooled_z(self):
        return self.deviation / math.sqrt(self.variance) if self.variance > 0 else 0.0
