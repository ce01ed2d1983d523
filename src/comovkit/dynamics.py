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
* the full relativistic evolution collapses to diffusion-pressure
  hydrodynamics at quadratic rate in the velocity scale.

Residuals are normalized where a natural scale exists (the mass term for the
wave equation, mcp for currents) so budgets are dimensionless.
"""

from dataclasses import dataclass

import numpy as np

from .chart import boost_to_rest_frame
from .constants import ETA, minkowski_norm_squared, natural_units, raise_index
from .errors import ZeroJ0
from .fields import (
    Box,
    _float_or_array,
    _lattice,
    central_gradient,
    central_hessian,
    make_packet,
)
from .geometry import chart_spatial_patch

__all__ = [
    "CurrentSample",
    "wave_operator",
    "kg_residual",
    "comoving_kg_residual",
    "four_current",
    "current_divergence",
    "comoving_current",
    "reconstruct_kinematics",
    "boost_equivalence_check",
    "nonrel_packet_family",
    "nonrel_limit_study",
]


def _eta_trace(m):
    return np.einsum("...mn,mn->...", m, ETA)


# ---------------------------------------------------------------------------
# flat wave operator from (p, S) derivatives


def wave_operator(bundle, x):
    """phi, d_mu phi, and eta^{mu nu} d_mu d_nu phi at events (..., 4).

    Returns (...), (..., 4) and (...) complex arrays; one (4,) event gives
    scalars and a (4,) gradient.  Assembled from density and phase
    derivatives, so analytic bundles give the operator to roundoff while FD
    bundles inherit the bundle's step budget.  Only eta-traces of second
    derivatives are formed; the full hessian of sqrt(p) is never
    materialized.
    """
    x = np.asarray(x, dtype=float)
    hbar = bundle.constants.hbar
    p = np.asarray(bundle.density(x))
    dp = bundle.density_gradient(x)
    hp = bundle.density_hessian(x)
    s = np.asarray(bundle.phase(x))
    ds = bundle.phase_gradient(x)
    hs = bundle.phase_hessian(x)

    amp = np.sqrt(p)
    da = dp / (2.0 * amp[..., None])
    tr_ha = (_eta_trace(hp) / (2.0 * amp)
             - minkowski_norm_squared(dp) / (4.0 * amp ** 3))

    factor = np.exp(1j * s / hbar)
    phi = amp * factor
    dphi = (da + 1j * amp[..., None] * ds / hbar) * factor[..., None]
    box_phi = factor * (
        tr_ha
        + 1j * (2.0 * minkowski_norm_squared(da, raise_index(ds))
                + amp * _eta_trace(hs)) / hbar
        - amp * minkowski_norm_squared(ds) / hbar ** 2
    )
    return phi, dphi, box_phi


def kg_residual(bundle, x):
    """Normalized flat-space wave-equation residual at events (..., 4).

    |[box - (mc/hbar)^2] phi| / ((mc/hbar)^2 |phi|).  Zero to roundoff for
    any superposition of on-shell modes with analytic derivatives; a mode
    with a deliberately wrong frequency leaves |omega^2 - omega_c^2| / c^2
    (in units of the mass term) standing.  Returns (...), a float for one
    event.
    """
    kc = bundle.constants.compton_wavenumber
    phi, _, box_phi = wave_operator(bundle, x)
    return _float_or_array(np.abs(box_phi - kc ** 2 * phi)
                           / (kc ** 2 * np.abs(phi)))


# ---------------------------------------------------------------------------
# curved wave operator in chart coordinates


def comoving_kg_residual(bundle, chart, xi, patch=None):
    """Normalized curved-metric wave residual of the pulled-back field.

    phi_tilde(xi) = phi(Phi^-1(xi)) is evaluated honestly through the chart
    inverse map: one call on the 33-point Hessian stencils of all chart
    points xi (..., 4), and one slice-metric call for their inverse metrics
    and Christoffel symbols.  Returns (...), a float for one point.  The
    operator uses the block metric diag(-1, sigma_ij(xi_sp)), an
    approximation: g0i vanishes, but g00 = -1 holds only on the reference
    curve, and the chart diagnostics bound max|g00 + 1| (acceptance gate
    02):

        -d0^2 phi + sigma^{ij} (d_i d_j - Gamma^k_ij d_k) phi
            - (mc/hbar)^2 phi

    Central differences with step h = 1e-2 give an O(h^2 kc^2) floor on
    the normalized residual; budgets in callers are calibrated against
    that.
    """
    xi = np.asarray(xi, dtype=float)
    if patch is None:
        patch = chart_spatial_patch(chart)
    kc = bundle.constants.compton_wavenumber

    f0, grad, hess = central_hessian(
        lambda p: bundle.amplitude(chart.inverse_map(p)), xi, 1e-2)

    q = xi[..., 1:]
    inv = patch.inverse(q)
    gamma = patch.christoffel(q)
    lb = np.einsum("...ij,...ij->...", inv, hess[..., 1:, 1:]) - np.einsum(
        "...ij,...kij,...k->...", inv, gamma, grad[..., 1:]
    )
    residual = -hess[..., 0, 0] + lb - kc ** 2 * f0
    return _float_or_array(np.abs(residual) / (kc ** 2 * np.abs(f0)))


# ---------------------------------------------------------------------------
# four-current and classification


_CLASSES = ("one_particle", "specular", "indeterminate")


@dataclass(frozen=True)
class CurrentSample:
    """Conserved current at events (...), with its classification.

    ``j`` is contravariant (J^0, J^i), (..., 4); ``invariant`` is
    J_mu J^mu; ``modulus_residual`` is |J_mu J^mu + (mcp)^2| / (mcp)^2 and
    ``cross_check`` the relative disagreement between the (p, S) and
    complex-field routes to the same current.  For one event the per-event
    fields are floats and ``classification`` a str; for a batch they are
    (...) arrays.
    """

    x: np.ndarray
    j: np.ndarray
    invariant: float
    density: float
    classification: str
    modulus_residual: float
    cross_check: float

    def __post_init__(self):
        cls = np.asarray(self.classification)
        if not np.all(np.isin(cls, _CLASSES)):
            raise ValueError("unknown classification %r" % (self.classification,))
        if np.any((cls != "indeterminate") & (np.asarray(self.invariant) > 0.0)):
            raise ValueError("classified current must be causal (J.J <= 0)")


def four_current(bundle, x, budget=1e-9):
    """Conserved current J_mu = p d_mu S at events (..., 4), classified by J^0.

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

    p, j = _current(bundle, x)
    j_cov = raise_index(j)

    phi, dphi, _ = wave_operator(bundle, x)
    j_complex = hbar * np.imag(np.conj(phi)[..., None] * dphi)

    scale_j = m * c * p
    cross = np.max(np.abs(j_cov - j_complex), axis=-1) / scale_j

    jj = np.einsum("...i,...i->...", j_cov, j)
    scale = scale_j ** 2
    modulus_residual = np.abs(jj + scale) / scale

    tol = 10.0 * budget
    classification = np.select(
        [modulus_residual >= tol, j[..., 0] >= tol * scale_j,
         j[..., 0] <= -tol * scale_j],
        ["indeterminate", "one_particle", "specular"], "indeterminate")

    return CurrentSample(
        x=x,
        j=j,
        invariant=_float_or_array(jj),
        density=_float_or_array(p),
        classification=(str(classification) if classification.ndim == 0
                        else classification),
        modulus_residual=_float_or_array(modulus_residual),
        cross_check=_float_or_array(cross),
    )


def _current(bundle, x):
    """Density p and current J^mu = p eta^{mu nu} d_nu S at events (..., 4)."""
    p = np.asarray(bundle.density(x))
    return p, p[..., None] * raise_index(bundle.phase_gradient(x))


def current_divergence(bundle, x):
    """Flat divergence d_mu J^mu at events (..., 4) by central differences
    of step 1e-3.

    The conservation check: one current call on the 8-point stencil of
    every event; returns (...), a float for one event.
    """
    grad = central_gradient(lambda y: _current(bundle, y)[1], x, 1e-3)
    return _float_or_array(np.trace(grad, axis1=-2, axis2=-1))


def comoving_current(bundle, chart, xi):
    """Current components in chart coordinates at xi.

    J~^mu = (d xi^mu / d x^nu) J^nu evaluated at x = Phi^-1(xi).  For the
    comoving congruence the spatial components vanish and the time
    component is m c p~ where g00 = -1, on the reference curve only (off
    it g00 = -(dS.dS)(ref(xi0)) / (dS.dS)(x)); both are returned alongside
    the measured values so callers can budget the comparison.
    """
    xi = np.asarray(xi, dtype=float)
    x = chart.inverse_map(xi)
    sample = four_current(bundle, x)
    jac = chart.jacobian(x)
    j_tilde = jac @ sample.j
    expected_time = bundle.constants.mass * bundle.constants.c * sample.density
    return {
        "j_tilde": j_tilde,
        "expected_time": float(expected_time),
        "spatial_max": float(np.max(np.abs(j_tilde[1:]))),
        "sample": sample,
        "x": x,
    }


def reconstruct_kinematics(bundle, x):
    """Three-velocity and density carried by the current: v^i = c J^i / J^0.

    Takes events (..., 4) and returns v (..., 3) and the density (...), a
    float for one event. Raises ZeroJ0, naming the first such event, when
    the time component is too small to divide by at any event (the
    classification would be indeterminate there anyway).
    """
    sample = four_current(bundle, x)
    c = bundle.constants.c
    j0 = sample.j[..., 0]
    scale = bundle.constants.mass * c * np.asarray(sample.density)
    small = (scale <= 0.0) | (np.abs(j0) < 1e-12 * scale)
    if np.any(small):
        raise ZeroJ0("current time component vanishes at %s; velocity "
                     "undefined" % sample.x[small][0].tolist())
    return c * sample.j[..., 1:] / j0[..., None], sample.density


# ---------------------------------------------------------------------------
# closed-form boost comparison


def boost_equivalence_check(bundle, chart, x):
    """Compare the chart Jacobian at x with the closed-form rest-frame boost.

    The boost is generated by the reconstructed velocity v(x); for constant
    velocity fields the chart is exactly that boost (identity spatial
    rotation, thanks to the principal-root frame normalization), so the
    deviation is pure FD noise.  For curved congruences the comparison is
    meaningful only at the chart origin, where the frame is normalized.
    """
    x = np.asarray(x, dtype=float)
    v, _ = reconstruct_kinematics(bundle, x)
    boost = boost_to_rest_frame(v, bundle.constants.c)
    jac = chart.jacobian(x)
    return {
        "jacobian": jac,
        "boost": boost,
        "velocity": v,
        "max_deviation": float(np.max(np.abs(jac - boost))),
    }


# ---------------------------------------------------------------------------
# non-relativistic limit audit


def nonrel_packet_family(eps, constants=None):
    """Packet whose wavevector scale is ``eps`` in Compton units.

    The mode pattern is fixed in envelope units: a rest carrier plus six
    axis modes at |k| = eps k_c with asymmetric weights (so the local
    velocity does not vanish by symmetry).  The domain, of half-width 8/eps
    (8 at eps = 0), scales with the modulation wavelength 1/eps, making the
    family exactly self-similar: all fields are functions of eps * x up to
    the carrier phase.
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
    half = 8.0 / eps if eps > 0.0 else 8.0
    domain = Box((-half,) * 4, (half,) * 4)
    return make_packet(wavevectors, weights, domain, constants)


def nonrel_limit_study(epsilons, constants=None, n_per_axis=4,
                       sample_width=5.0):
    """Convergence audit of the non-relativistic limit over the
    ``nonrel_packet_family`` packets.

    For each eps the full relativistic spatial evolution

        d_t v + (v . grad) v

    is compared against the diffusion-pressure hydrodynamics operator

        (hbar / 2m) lap u + (u . grad) u

    on a lattice of events scaled with the modulation wavelength, with
    central differences of step 1e-2 in the same units; the
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
    c = constants.c
    m = constants.mass
    hbar = constants.hbar
    nu = constants.nu

    # lattice in envelope units, offset to dodge the symmetry planes
    axis = np.linspace(-sample_width, sample_width, n_per_axis) + 0.37
    hat_points = _lattice([axis] * 3)

    rows = []
    for eps in epsilons:
        bundle = nonrel_packet_family(eps, constants)
        stretch = 1.0 / eps if eps > 0.0 else 1.0
        h = 1e-2 * stretch
        q = stretch * hat_points
        x = np.concatenate([np.zeros((len(q), 1)), q], axis=1)

        def vel(y):
            ds = bundle.phase_gradient(y)
            energy = -c * ds[..., :1]
            return c * c * ds[..., 1:] / energy

        def u_hat(y):
            return (0.5 * nu * bundle.density_gradient(y)[..., 1:]
                    / bundle.density(y)[..., None])

        def quantum_time(y):
            # c^2 (d_0^2 sqrt p) / sqrt p from density derivatives
            p = bundle.density(y)
            dp = bundle.density_gradient(y)
            hp = bundle.density_hessian(y)
            amp = np.sqrt(p)
            dd = (hp[..., 0, 0] / (2.0 * amp)
                  - dp[..., 0] ** 2 / (4.0 * amp ** 3))
            return c * c * dd / amp

        def momentum_flux(y):
            return bundle.density(y)[..., None] * vel(y)

        def on_slice(func):
            # func of events, differentiated along the t = 0 slice
            return lambda p: func(np.concatenate(
                [np.zeros(p.shape[:-1] + (1,)), p], axis=-1))

        v0 = vel(x)
        v_max = float(np.max(np.linalg.norm(v0, axis=-1))) / c

        jac_v = central_gradient(vel, x, h)
        a_exact = c * jac_v[:, 0] + np.einsum("ni,nij->nj", v0, jac_v[:, 1:])

        u0, jac_u, hess_u = central_hessian(on_slice(u_hat), q, h)
        a_schrod = (0.5 * nu * np.einsum("niik->nk", hess_u)
                    + np.einsum("ni,nij->nj", u0, jac_u))
        disc = float(np.max(np.abs(a_exact - a_schrod)))
        retained = float(np.max(np.abs(a_schrod)))

        grad_qt = central_gradient(on_slice(quantum_time), q, h)
        spatial_dropped = (float(np.max(np.abs(grad_qt)))
                           * hbar ** 2 / (2.0 * m ** 2 * c ** 2))

        dp_t = c * bundle.density_gradient(x)[:, 0]
        jac_pv = central_gradient(on_slice(momentum_flux), q, h)
        temporal_dropped = float(np.max(np.abs(
            dp_t + np.trace(jac_pv, axis1=-2, axis2=-1))))

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
