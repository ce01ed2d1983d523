"""Dynamical consequences of the comoving construction, checked pointwise.

The gradient-flow fields carry a complex scalar phi = sqrt(p) exp(i S / hbar)
behind the scenes.  This module reconstructs that scalar and verifies, point
by point, the relations the rest of the package takes as given:

* phi satisfies the flat wave equation [box - (mc/hbar)^2] phi = 0, and the
  pulled-back field satisfies the curved-metric version in chart coordinates
  with the *same* residual budget (coordinate invariance);
* the conserved current J_mu = p d_mu S obeys the modulus identity
  J_mu J^mu = -(mcp)^2 and its time component signs a two-way classification
  (one-particle vs specular) that phase conjugation exchanges;
* the current reconstructs the kinematics (v, p) that seeded the chart, and
  the chart Jacobian collapses to the closed-form Lorentz boost of that v;
* the stationary osmotic balance holds on slices, and the full relativistic
  evolution collapses to diffusion-pressure hydrodynamics at quadratic rate
  in the velocity scale.

Residuals are normalized where a natural scale exists (the mass term for the
wave equation, mcp for currents) so budgets are dimensionless.
"""

from dataclasses import dataclass

import numpy as np

from .chart import boost_to_rest_frame
from .constants import natural_units, raise_index
from .errors import ZeroJ0
from .fields import Box, make_packet
from .geometry import (
    chart_spatial_patch,
    covariant_derivative_covector,
    laplace_beltrami,
)

__all__ = [
    "CurrentSample",
    "BoostMatrix",
    "wave_operator",
    "kg_residual",
    "comoving_kg_residual",
    "motion_residual",
    "covariant_residuals",
    "four_current",
    "current_divergence",
    "comoving_current",
    "reconstruct_kinematics",
    "boost_equivalence_check",
    "nonrel_packet_family",
    "nonrel_limit_study",
]

ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])


def _eta_dot(a, b):
    # eta^{mu nu} a_mu b_nu for covariant 4-gradients (may be complex)
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _eta_trace(m):
    return -m[0, 0] + m[1, 1] + m[2, 2] + m[3, 3]


# ---------------------------------------------------------------------------
# flat wave operator from (p, S) derivatives


def wave_operator(bundle, x):
    """phi, d_mu phi, and eta^{mu nu} d_mu d_nu phi at an event.

    Assembled from density and phase derivatives, so analytic bundles give
    the operator to roundoff while FD bundles inherit the bundle's step
    budget.  Only eta-traces of second derivatives are formed; the full
    hessian of sqrt(p) is never materialized.
    """
    x = np.asarray(x, dtype=float)
    hbar = bundle.constants.hbar
    p = float(bundle.density(x))
    dp = bundle.density_gradient(x)
    hp = bundle.density_hessian(x)
    s = float(bundle.phase(x))
    ds = bundle.phase_gradient(x)
    hs = bundle.phase_hessian(x)

    amp = np.sqrt(p)
    da = dp / (2.0 * amp)
    tr_ha = _eta_trace(hp) / (2.0 * amp) - _eta_dot(dp, dp) / (4.0 * amp ** 3)

    factor = np.exp(1j * s / hbar)
    phi = amp * factor
    dphi = (da + 1j * amp * ds / hbar) * factor
    box_phi = factor * (
        tr_ha
        + 1j * (2.0 * _eta_dot(da, ds) + amp * _eta_trace(hs)) / hbar
        - amp * _eta_dot(ds, ds) / hbar ** 2
    )
    return phi, dphi, box_phi


def kg_residual(bundle, x):
    """Normalized flat-space wave-equation residual at an event.

    |[box - (mc/hbar)^2] phi| / ((mc/hbar)^2 |phi|).  Zero to roundoff for
    any superposition of on-shell modes with analytic derivatives; a mode
    with a deliberately wrong frequency leaves |omega^2 - omega_c^2| / c^2
    (in units of the mass term) standing.
    """
    kc = bundle.constants.compton_wavenumber
    phi, _, box_phi = wave_operator(bundle, x)
    residual = box_phi - kc ** 2 * phi
    return float(abs(residual) / (kc ** 2 * abs(phi)))


# ---------------------------------------------------------------------------
# curved wave operator in chart coordinates


def comoving_kg_residual(bundle, chart, xi, h=1e-2, patch=None):
    """Normalized curved-metric wave residual of the pulled-back field.

    phi_tilde(xi) = phi(Phi^-1(xi)) is evaluated honestly through the chart
    inverse map (one batched call on the 21-point stencil).  The operator uses
    the block metric diag(g00(xi0), sigma_ij(xi_sp)) whose off-diagonal and
    time-block structure the chart diagnostics certify separately:

        g^{00} d0^2 phi + sigma^{ij} (d_i d_j - Gamma^k_ij d_k) phi
            - (mc/hbar)^2 phi

    Central differences with step ``h`` give an O(h^2 kc^2) floor on the
    normalized residual; budgets in callers are calibrated against that.
    """
    xi = np.asarray(xi, dtype=float)
    if patch is None:
        patch = chart_spatial_patch(chart)
    kc = bundle.constants.compton_wavenumber

    # the whole stencil in one inverse map: centre, +-h on each axis, and
    # the four diagonal corners of each spatial pair
    pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
    offsets = [np.zeros(4)]
    for sign in (1.0, -1.0):
        offsets.extend(sign * np.eye(4))
    for i, j in pairs:
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            z = np.zeros(4)
            z[i], z[j] = si, sj
            offsets.append(z)
    vals = bundle.amplitude(chart.inverse_map(xi + h * np.array(offsets)))
    f0, plus, minus = vals[0], vals[1:5], vals[5:9]
    corners = vals[9:].reshape(len(pairs), 4)

    d00 = (plus[0] - 2.0 * f0 + minus[0]) / h ** 2
    grad = (plus[1:] - minus[1:]) / (2.0 * h)
    hess = np.diag((plus[1:] - 2.0 * f0 + minus[1:]) / h ** 2)
    for (i, j), (fpp, fpm, fmp, fmm) in zip(pairs, corners):
        hess[i - 1, j - 1] = hess[j - 1, i - 1] = (
            (fpp - fpm - fmp + fmm) / (4.0 * h ** 2))

    q = xi[1:]
    inv = patch.inverse(q)
    gamma = patch.christoffel(q)
    lb = np.einsum("ij,ij->", inv, hess) - np.einsum(
        "ij,kij,k->", inv, gamma, grad
    )
    g00 = patch.g00(xi[0])
    residual = d00 / g00 + lb - kc ** 2 * f0
    return float(abs(residual) / (kc ** 2 * abs(f0)))


# ---------------------------------------------------------------------------
# stationary osmotic balance on slices


def motion_residual(u, patch, q, constants, h=None):
    """Covariant residual of the stationary balance for the osmotic field.

        (hbar^2 / 2m) (Lap u)_k + hbar (u^j nabla_j u)_k

    ``u`` maps a slice point to covariant components u_k.  Constant fields
    (log-linear density) and u = 0 satisfy the balance identically; both
    terms scale by the same positive constant under m -> gamma m together
    with u -> u / gamma, so the residual test is gauge-factor independent.
    """
    q = np.asarray(q, dtype=float)
    hbar = constants.hbar
    m = constants.mass
    lap = laplace_beltrami(patch, u, q, h=h)
    cov = covariant_derivative_covector(patch, u, q, h=h)
    u_up = patch.inverse(q) @ np.asarray(u(q), dtype=float)
    advect = u_up @ cov
    return (hbar ** 2 / (2.0 * m)) * lap + hbar * advect


def covariant_residuals(bundle, chart, xi, h=1e-2, patch=None):
    """(motion four-vector, continuity scalar) in chart coordinates.

    The congruence field is U~^mu = (0, u^i) on slices and the transport
    field V~^mu = (c / sqrt(-g00), 0, 0, 0).  Continuity is the covariant
    divergence of p~ V~; with a time-independent slice metric it reduces to
    c d0(p~) / sqrt(-g00), which vanishes identically because the pulled
    back density is constant along the congruence (current conservation).
    The motion part applies the stationary balance to the slice osmotic
    field built from the pulled-back density.
    """
    xi = np.asarray(xi, dtype=float)
    if patch is None:
        patch = chart_spatial_patch(chart)
    nu = bundle.constants.nu

    # motion_residual nests two central differences around u_cov, so u_cov
    # is needed on the 5^3 lattice of step h around xi, and the densities
    # its own central difference reads on the 7^3 lattice: one inverse map
    # covers them and the time pair
    reach = np.arange(-3, 4)
    cube = np.stack(np.meshgrid(reach, reach, reach, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    stencil = np.concatenate([
        xi + h * np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
        xi + h * np.concatenate([np.zeros((len(cube), 1)), cube], axis=1),
    ])
    rho = bundle.density(chart.inverse_map(stencil))
    log_rho = np.log(rho[2:]).reshape(7, 7, 7)
    inner = (slice(1, -1),) * 3
    u_lattice = (0.25 * nu / h) * np.stack([
        (np.roll(log_rho, -1, axis=i) - np.roll(log_rho, 1, axis=i))[inner]
        for i in range(3)
    ], axis=-1)

    g00 = patch.g00(xi[0])
    continuity = (
        bundle.constants.c * (rho[0] - rho[1]) / (2.0 * h) / np.sqrt(-g00)
    )

    def u_cov(q_xi):
        node = np.rint((np.asarray(q_xi) - xi[1:]) / h).astype(int) + 2
        if np.any(node < 0) or np.any(node > 4):
            raise ValueError("u_cov evaluated outside the density lattice")
        return u_lattice[tuple(node)]

    spatial = motion_residual(u_cov, patch, xi[1:], bundle.constants, h=h)
    motion = np.concatenate([[0.0], spatial])
    return motion, float(continuity)


# ---------------------------------------------------------------------------
# four-current and classification


@dataclass(frozen=True)
class CurrentSample:
    """Conserved current at one event, with its classification.

    ``j`` is contravariant (J^0, J^i); ``invariant`` is J_mu J^mu;
    ``modulus_residual`` is |J_mu J^mu + (mcp)^2| / (mcp)^2 and
    ``cross_check`` the relative disagreement between the (p, S) and
    complex-field routes to the same current.
    """

    x: np.ndarray
    j: np.ndarray
    j_cov: np.ndarray
    invariant: float
    density: float
    classification: str
    modulus_residual: float
    cross_check: float
    budget: float

    def __post_init__(self):
        if self.classification not in ("one_particle", "specular", "indeterminate"):
            raise ValueError("unknown classification %r" % (self.classification,))
        if self.classification != "indeterminate" and self.invariant > 0.0:
            raise ValueError("classified current must be causal (J.J <= 0)")


def four_current(bundle, x, budget=1e-9):
    """Conserved current J_mu = p d_mu S at an event, classified by J^0.

    The current is computed twice: from (p, S) directly and through the
    complex field as hbar Im(conj(phi) grad phi); the relative disagreement
    is recorded (roundoff for analytic bundles).  Classification uses the
    modulus identity J_mu J^mu = -(mcp)^2 with a dead zone of 10x ``budget``
    (the FD residual scale for the bundle at hand): one_particle when the
    identity holds and J^0 is positive, specular when it holds with J^0
    negative, indeterminate otherwise.
    """
    x = np.asarray(x, dtype=float)
    hbar = bundle.constants.hbar
    m = bundle.constants.mass
    c = bundle.constants.c

    p = float(bundle.density(x))
    ds = bundle.phase_gradient(x)
    j_cov = p * ds

    phi, dphi, _ = wave_operator(bundle, x)
    j_complex = hbar * np.imag(np.conj(phi) * dphi)

    scale_j = m * c * p
    cross = float(np.max(np.abs(j_cov - j_complex)) / scale_j)

    j = raise_index(j_cov)
    jj = float(j_cov @ j)
    scale = scale_j ** 2
    modulus_residual = abs(jj + scale) / scale

    tol = 10.0 * budget
    if modulus_residual >= tol:
        classification = "indeterminate"
    elif j[0] >= tol * scale_j:
        classification = "one_particle"
    elif j[0] <= -tol * scale_j:
        classification = "specular"
    else:
        classification = "indeterminate"

    return CurrentSample(
        x=x,
        j=j,
        j_cov=j_cov,
        invariant=jj,
        density=p,
        classification=classification,
        modulus_residual=float(modulus_residual),
        cross_check=cross,
        budget=float(budget),
    )


def current_divergence(bundle, x, h=1e-3):
    """Flat divergence d_mu J^mu by central differences (conservation check)."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        jp = four_current(bundle, x + e).j[mu]
        jm = four_current(bundle, x - e).j[mu]
        total += (jp - jm) / (2.0 * h)
    return float(total)


def comoving_current(bundle, chart, xi, step=1e-3):
    """Current components in chart coordinates at xi.

    J~^mu = (d xi^mu / d x^nu) J^nu evaluated at x = Phi^-1(xi).  For the
    comoving congruence the spatial components vanish and the time
    component equals m c p~ / sqrt(-g00); both are returned alongside the
    measured values so callers can budget the comparison.
    """
    xi = np.asarray(xi, dtype=float)
    x = chart.inverse_map(xi)
    sample = four_current(bundle, x)
    jac = chart.jacobian(x, step=step)
    j_tilde = jac @ sample.j
    g00 = chart.time_convention.g00(float(xi[0]))
    expected_time = (
        bundle.constants.mass * bundle.constants.c * sample.density / np.sqrt(-g00)
    )
    return {
        "j_tilde": j_tilde,
        "expected_time": float(expected_time),
        "spatial_max": float(np.max(np.abs(j_tilde[1:]))),
        "sample": sample,
        "x": x,
    }


def reconstruct_kinematics(bundle, x):
    """Three-velocity and density carried by the current: v^i = c J^i / J^0.

    Raises ZeroJ0 when the time component is too small to divide by (the
    classification would be indeterminate there anyway).
    """
    sample = four_current(bundle, x)
    c = bundle.constants.c
    scale = bundle.constants.mass * c * sample.density
    if scale <= 0.0 or abs(sample.j[0]) < 1e-12 * scale:
        raise ZeroJ0("current time component vanishes; velocity undefined")
    v = c * sample.j[1:] / sample.j[0]
    return v, sample.density


# ---------------------------------------------------------------------------
# closed-form boost comparison


@dataclass(frozen=True)
class BoostMatrix:
    """A Lorentz boost with its inverse and generating velocity.

    Construction validates the Minkowski form to 1e-12 and the speed bound;
    use ``from_velocity`` rather than assembling entries by hand.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        eta = np.diag(ETA_DIAG)
        dev = float(np.max(np.abs(self.matrix.T @ eta @ self.matrix - eta)))
        if dev > 1e-12:
            raise ValueError("matrix does not preserve the Minkowski form")
        rt = float(np.max(np.abs(self.matrix @ self.inverse - np.eye(4))))
        if rt > 1e-12:
            raise ValueError("inverse does not invert the boost")

    @classmethod
    def from_velocity(cls, velocity, c=1.0):
        v = np.asarray(velocity, dtype=float)
        if v @ v >= c * c:
            raise ValueError("boost speed must be below c")
        return cls(
            matrix=boost_to_rest_frame(v, c),
            inverse=boost_to_rest_frame(-v, c),
            velocity=v,
        )


def boost_equivalence_check(bundle, chart, x, step=1e-3):
    """Compare the chart Jacobian at x with the closed-form rest-frame boost.

    The boost is generated by the reconstructed velocity v(x); for constant
    velocity fields the chart is exactly that boost (identity spatial
    rotation, thanks to the principal-root frame normalization), so the
    deviation is pure FD noise.  For curved congruences the comparison is
    meaningful only at the chart origin, where the frame is normalized.
    """
    x = np.asarray(x, dtype=float)
    v, _ = reconstruct_kinematics(bundle, x)
    boost = BoostMatrix.from_velocity(v, bundle.constants.c)
    jac = chart.jacobian(x, step=step)
    return {
        "jacobian": jac,
        "boost": boost,
        "velocity": v,
        "max_deviation": float(np.max(np.abs(jac - boost.matrix))),
    }


# ---------------------------------------------------------------------------
# non-relativistic limit audit


def nonrel_packet_family(eps, constants=None, width=8.0):
    """Packet whose wavevector scale is ``eps`` in Compton units.

    The mode pattern is fixed in envelope units: a rest carrier plus six
    axis modes at |k| = eps k_c with asymmetric weights (so the local
    velocity does not vanish by symmetry).  The domain scales with the
    modulation wavelength 1/eps, making the family exactly self-similar:
    all fields are functions of eps * x up to the carrier phase.
    """
    constants = constants or natural_units()
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    scale = eps * constants.compton_wavenumber
    directions = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    wavevectors = np.vstack([np.zeros(3), scale * directions])
    weights = np.array([2.0, 0.30, 0.20, 0.28, 0.20, 0.26, 0.20])
    half = width / eps if eps > 0.0 else width
    domain = Box((-half,) * 4, (half,) * 4)
    return make_packet(wavevectors, weights, domain, constants)


def _fd_jacobian(func, x, h, axes):
    """rows[a] = d(func)/dx^axes[a] by central differences."""
    rows = []
    for axis in axes:
        e = np.zeros(4)
        e[axis] = h
        rows.append((func(x + e) - func(x - e)) / (2.0 * h))
    return np.asarray(rows)


def nonrel_limit_study(
    epsilons,
    constants=None,
    bundle_factory=None,
    n_per_axis=4,
    sample_width=5.0,
    fd_step=1e-2,
):
    """Convergence audit of the non-relativistic limit over a packet family.

    For each eps the full relativistic spatial evolution

        d_t v + (v . grad) v

    is compared against the diffusion-pressure hydrodynamics operator

        (hbar / 2m) lap u + (u . grad) u

    on a lattice of events scaled with the modulation wavelength; the
    discrepancy is normalized by the retained-term magnitude, so it decays
    at the *relative* correction rate (v/c)^2.  Alongside it two groups of
    dropped terms are audited directly:

    * spatial_dropped: the (hbar^2 / 2 m^2 c^2) grad[(d_t^2 sqrt p)/sqrt p]
      quantum term the limit removes from the spatial equation;
    * temporal_dropped: the residual of the limit continuity equation
      d_t p + div(p v), whose exact counterpart conserves p E / c^2.

    eps is measured post hoc as max |v| / c over the lattice; the returned
    slope fits log(discrepancy) against log(measured eps).  An eps = 0
    member has all operators identically zero and is excluded from the fit.
    """
    constants = constants or natural_units()
    factory = bundle_factory or (lambda e: nonrel_packet_family(e, constants))
    c = constants.c
    m = constants.mass
    hbar = constants.hbar
    nu = constants.nu

    # lattice in envelope units, offset to dodge the symmetry planes
    axis = np.linspace(-sample_width, sample_width, n_per_axis) + 0.37
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    hat_points = grid.reshape(-1, 3)

    rows = []
    for eps in epsilons:
        bundle = factory(eps)
        stretch = 1.0 / eps if eps > 0.0 else 1.0
        h = fd_step * stretch

        def vel(x):
            ds = bundle.phase_gradient(x)
            energy = -c * ds[0]
            return c * c * ds[1:] / energy

        def u_hat(x):
            return 0.5 * nu * bundle.density_gradient(x)[1:] / bundle.density(x)

        def quantum_time(x):
            # c^2 (d_0^2 sqrt p) / sqrt p from density derivatives
            p = bundle.density(x)
            dp = bundle.density_gradient(x)
            hp = bundle.density_hessian(x)
            amp = np.sqrt(p)
            dd = hp[0, 0] / (2.0 * amp) - dp[0] ** 2 / (4.0 * amp ** 3)
            return c * c * dd / amp

        def momentum_flux(x):
            return bundle.density(x) * vel(x)

        disc = 0.0
        retained = 0.0
        v_max = 0.0
        spatial_dropped = 0.0
        temporal_dropped = 0.0
        for q_hat in hat_points:
            x = np.concatenate([[0.0], stretch * q_hat])

            v0 = vel(x)
            v_max = max(v_max, float(np.linalg.norm(v0)) / c)

            jac_v = _fd_jacobian(vel, x, h, axes=(0, 1, 2, 3))
            a_exact = c * jac_v[0] + v0 @ jac_v[1:]

            u0 = u_hat(x)
            jac_u = _fd_jacobian(u_hat, x, h, axes=(1, 2, 3))
            lap_u = np.zeros(3)
            for i in range(3):
                e = np.zeros(4)
                e[i + 1] = h
                lap_u += (u_hat(x + e) - 2.0 * u0 + u_hat(x - e)) / h ** 2
            a_schrod = 0.5 * nu * lap_u + u0 @ jac_u

            disc = max(disc, float(np.max(np.abs(a_exact - a_schrod))))
            retained = max(retained, float(np.max(np.abs(a_schrod))))

            grad_qt = _fd_jacobian(quantum_time, x, h, axes=(1, 2, 3))
            spatial_dropped = max(
                spatial_dropped,
                float(np.max(np.abs(grad_qt))) * hbar ** 2 / (2.0 * m ** 2 * c ** 2),
            )

            dp_t = c * bundle.density_gradient(x)[0]
            jac_pv = _fd_jacobian(momentum_flux, x, h, axes=(1, 2, 3))
            temporal_dropped = max(
                temporal_dropped, float(abs(dp_t + np.trace(jac_pv)))
            )

        rows.append(
            {
                "eps_nominal": float(eps),
                "eps_measured": v_max,
                "discrepancy": disc / retained if retained > 0.0 else 0.0,
                "retained_scale": retained,
                "spatial_dropped": spatial_dropped,
                "temporal_dropped": temporal_dropped,
            }
        )

    fit_rows = [r for r in rows if r["eps_measured"] > 0.0 and r["discrepancy"] > 0.0]
    if len(fit_rows) >= 2:
        slope = float(
            np.polyfit(
                np.log([r["eps_measured"] for r in fit_rows]),
                np.log([r["discrepancy"] for r in fit_rows]),
                1,
            )[0]
        )
    else:
        slope = float("nan")

    return {"rows": rows, "slope": slope}
