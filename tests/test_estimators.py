"""Density/velocity estimation, quadrature expectations, energy, action."""

import numpy as np
import pytest

from comovkit.constants import natural_units
from comovkit.diffusion import (
    BinSpec,
    DiffusionConfig,
    PathEnsemble,
    backward_drift_estimate,
    drift_from_fields,
    forward_drift_estimate,
    simulate,
    specular_reverse,
)
from comovkit.errors import ImaginaryAction, QuadratureDivergence
from comovkit.estimators import (
    EnergyReport,
    continuity_residual,
    energy_report,
    estimate_density,
    expectation_u2,
    osmotic_identity_report,
    slice_density,
    stochastic_action,
    velocities_from_drifts,
)
from comovkit.fields import Box
from comovkit.geometry import MetricPatch

SIGMA_RHO = 1.0
NU = 1.0
THETA = NU / (2.0 * SIGMA_RHO**2)
CONSTANTS = natural_units()


def ou_drift(q):
    return -THETA * q


def gauss_density(pts):
    return np.exp(-0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=-1)
                  / SIGMA_RHO**2)


def gauss_grad_log(pts):
    return -np.atleast_2d(pts) / SIGMA_RHO**2


def gauss_bin_average(bins, scale=1.0):
    """Exact bin-averaged standard-normal density (per unit volume)."""
    from math import erf

    def axis_masses(i):
        edges = np.linspace(bins.lo[i], bins.hi[i], bins.shape[i] + 1)
        z = edges / (scale * np.sqrt(2.0))
        cdf = np.array([0.5 * (1.0 + erf(v)) for v in z])
        width = edges[1:] - edges[:-1]
        return (cdf[1:] - cdf[:-1]) / width

    m = [axis_masses(i) for i in range(3)]
    return np.einsum("i,j,k->ijk", m[0], m[1], m[2]).ravel()


@pytest.fixture(scope="module")
def ou_ensemble():
    config = DiffusionConfig(
        dt=2e-3, horizon=4.0, n_paths=20000, master_seed=41, nu=NU,
        initial=("density", lambda q: gauss_density(q),
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        n_snapshots=24, chunk_size=16384, n_threads=2,
    )
    patch = MetricPatch.euclidean()
    return simulate(drift_from_fields(ou_drift, patch, NU), patch, config)


@pytest.fixture(scope="module")
def ou_bins():
    return BinSpec((-2.4, -2.4, -2.4), (2.4, 2.4, 2.4), (6, 6, 6))


# --- density -------------------------------------------------------------------

def test_density_matches_stationary_law(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    est = estimate_density(ou_ensemble, ou_bins, patch)
    # the histogram estimates the bin average, so compare against the
    # exact bin-averaged stationary law (the lattice misses a little
    # tail mass, so allow its renormalization factor)
    target = gauss_bin_average(ou_bins)
    target = target / np.sum(target * est.meta["volume"])
    good = est.count >= 500
    assert np.sum(good) >= 30
    err = np.abs(est.estimate - target)[good]
    assert np.all(err < 4.0 * est.se[good])


def test_density_normalizes_with_invariant_measure(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    est = estimate_density(ou_ensemble, ou_bins, patch)
    _, vol = est.meta["volume"], est.meta["volume"]
    root_sig = np.array([patch.sqrt_det(c) for c in ou_bins.centers()])
    mass = float(np.sum(est.estimate * root_sig * vol))
    assert abs(mass - 1.0) < 1e-9


def test_density_uses_volume_factor():
    # coordinate samples ~ N(0, 1); with sqrt|sigma| = 0.8 the invariant
    # density is the coordinate pdf divided by 0.8
    rng = np.random.default_rng(7)
    states = rng.standard_normal((200000, 1, 3))
    ens = PathEnsemble(times=np.zeros(1), pre=states, post=states,
                       dt=1e-3, nu=1.0)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.0]))
    bins = BinSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (4, 4, 4))
    est = estimate_density(ens, bins, patch)
    root_sig = 0.8
    vol = est.meta["volume"]
    mass = float(np.sum(est.estimate * root_sig * vol))
    assert abs(mass - 1.0) < 1e-9
    coord_target = gauss_bin_average(bins)
    coord_target = coord_target / np.sum(coord_target * vol)
    target = coord_target / root_sig
    good = est.count >= 1000
    err = np.abs(est.estimate - target)[good]
    assert np.all(err < 4.0 * est.se[good])


# --- velocities ------------------------------------------------------------------

def test_velocities_recover_current_and_osmotic(ou_ensemble, ou_bins):
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    bwd = backward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, bwd)
    assert np.sum(vel.valid) >= 30
    cur = np.abs(vel.current)[vel.valid]
    assert np.all(cur < 4.0 * vel.current_se[vel.valid])
    # evaluate the affine target at the per-bin sample mean, where the
    # conditional expectation is exact
    target = -THETA * vel.anchor
    err = np.abs(vel.osmotic - target)[vel.valid]
    assert np.all(err < 4.0 * vel.osmotic_se[vel.valid])


def test_equal_drifts_mean_zero_osmotic(ou_ensemble, ou_bins):
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, fwd)
    assert np.all(vel.osmotic[vel.valid] == 0.0)


def test_specular_ensemble_keeps_zero_current(ou_ensemble, ou_bins):
    rev = specular_reverse(ou_ensemble)
    fwd = forward_drift_estimate(rev, ou_bins, min_count=500)
    bwd = backward_drift_estimate(rev, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, bwd)
    cur = np.abs(vel.current)[vel.valid]
    assert np.all(cur < 4.0 * vel.current_se[vel.valid])


# --- continuity -------------------------------------------------------------------

def test_continuity_zero_velocity_is_exact():
    bins = BinSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (8, 8, 8))
    patch = MetricPatch.euclidean()
    rho = gauss_density(bins.centers())
    vel = np.zeros((bins.n_bins, 3))
    res = continuity_residual(rho, vel, bins, patch)
    assert np.all(res.estimate == 0.0)
    assert res.meta["stationary"]


def test_continuity_matches_closed_form_divergence():
    # rho = exp(-q^2/2), v = a q: div(rho v) = a rho (3 - q^2)
    a = 0.3
    bins = BinSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (16, 16, 16))
    patch = MetricPatch.euclidean()
    centers = bins.centers()
    rho = gauss_density(centers)
    vel = a * centers
    res = continuity_residual(rho, vel, bins, patch)
    expected = a * rho * (3.0 - np.sum(centers**2, axis=-1))
    lattice_err = np.abs(res.estimate - expected).reshape(bins.shape)
    interior = lattice_err[1:-1, 1:-1, 1:-1]
    assert np.max(interior) < 0.05


def test_continuity_residual_consistent_with_zero(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    density = estimate_density(ou_ensemble, ou_bins, patch)
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    bwd = backward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    cur_batch = 0.5 * (fwd.batch_mean + bwd.batch_mean)
    vel = velocities_from_drifts(fwd, bwd)
    res = continuity_residual(
        density.estimate, vel.current, ou_bins, patch,
        rho_batch=density.batch_estimate, velocity_batch=cur_batch,
    )
    finite = np.isfinite(res.se) & (res.count >= 16)
    assert np.sum(finite) >= 20
    z = np.abs(res.estimate[finite]) / res.se[finite]
    assert np.mean(z <= 3.5) >= 0.95


# --- quadrature expectations -------------------------------------------------------

def test_expectation_u2_gaussian_closed_form():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    out = expectation_u2(gauss_density, patch, box, NU,
                         grad_log_density=gauss_grad_log)
    expected = 3.0 * (NU / 2.0) ** 2 / SIGMA_RHO**2
    assert abs(out["value"] - expected) < 1e-8 * expected
    fd = expectation_u2(gauss_density, patch, box, NU)
    assert abs(fd["value"] - expected) < 1e-5 * expected


def test_expectation_u2_fd_log_gradient_is_one_density_call():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    calls = []

    def density(pts):
        calls.append(np.shape(pts))
        return gauss_density(pts)

    out = expectation_u2(density, patch, box, NU, order=8)
    # the quadrature nodes, then the whole 6-point stencil of every node
    assert calls == [(512, 3), (6 * 512, 3)]
    np.testing.assert_allclose(out["grad"], gauss_grad_log(out["points"]),
                               rtol=0, atol=1e-8)


def test_expectation_u2_constant_density_is_zero():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    out = expectation_u2(lambda pts: np.ones(len(np.atleast_2d(pts))),
                         patch, box, NU)
    assert out["value"] == 0.0
    assert out["tail_fraction"] == 0.0


def test_expectation_u2_scale_invariance():
    patch = MetricPatch.euclidean()
    s = 2.0
    box = Box((-14.0, -14.0, -14.0), (14.0, 14.0, 14.0))

    def wide(pts):
        return np.exp(-0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=-1)
                      / s**2)

    out = expectation_u2(wide, patch, box, NU,
                         grad_log_density=lambda p: -np.atleast_2d(p) / s**2)
    narrow = expectation_u2(
        gauss_density,
        patch, Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0)), NU,
        grad_log_density=gauss_grad_log,
    )
    assert abs(out["value"] - narrow["value"] / s**2) < 1e-8


def test_expectation_u2_truncated_tails_raise():
    patch = MetricPatch.euclidean()
    box = Box((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    with pytest.raises(QuadratureDivergence):
        expectation_u2(gauss_density, patch, box, NU,
                       grad_log_density=gauss_grad_log)


def test_expectation_u2_density_floor_raises():
    patch = MetricPatch.euclidean()
    box = Box((-3.0, -3.0, -3.0), (3.0, 3.0, 3.0))

    def half_dead(pts):
        pts = np.atleast_2d(pts)
        return gauss_density(pts) * (pts[:, 0] > 0.0)

    with pytest.raises(QuadratureDivergence):
        expectation_u2(half_dead, patch, box, NU)


# --- energy -----------------------------------------------------------------------

def test_energy_two_routes_agree_for_gaussian():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    rep = energy_report(gauss_density, patch, CONSTANTS, box,
                        grad_log_density=gauss_grad_log)
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct - rep.mu_identity) < 1e-6 * scale
    expected_u2 = 3.0 * (NU / 2.0) ** 2 / SIGMA_RHO**2
    assert abs(rep.e_u2 - expected_u2) < 1e-8
    assert rep.mu_identity == -0.5 * scale + 0.5 * CONSTANTS.mass * rep.e_u2
    assert abs(rep.gamma_tilde - 1.0 / np.sqrt(1.0 + expected_u2)) < 1e-9


def test_energy_constant_density_is_rest_value():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    rep = energy_report(
        lambda pts: np.ones(len(np.atleast_2d(pts))), patch, CONSTANTS, box,
    )
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct + 0.5 * scale) < 1e-13 * scale
    assert rep.gamma_tilde == 1.0
    assert rep.e_u2 == 0.0


def test_energy_report_rejects_bad_gamma():
    with pytest.raises(ValueError):
        EnergyReport(mu_direct=0.0, mu_identity=0.0, e_u2=0.0,
                     gamma_tilde=1.5, ratio=0.0, delta=1.0, order=8,
                     normalization=1.0)


def test_energy_on_plane_wave_slice(boost_chart):
    # constant unit density on every leaf: the rest energy comes out
    # exactly, through the full chart -> slice-density route
    density = slice_density(boost_chart.bundle, boost_chart)
    patch = MetricPatch.from_chart(boost_chart)
    box = Box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    rep = energy_report(density, patch, CONSTANTS, box, order=4,
                        time_order=4)
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct + 0.5 * scale) < 1e-10 * scale
    assert abs(rep.mu_direct - rep.mu_identity) < 1e-10 * scale


# --- action -----------------------------------------------------------------------

def test_action_rest_case_exact():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    val = stochastic_action(
        lambda pts: np.ones(len(np.atleast_2d(pts))), patch, (0.0, 1.0),
        CONSTANTS, box,
    )
    assert abs(val + CONSTANTS.mass * CONSTANTS.c**2) < 1e-13


def test_action_gaussian_closed_form():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    e_u2 = 3.0 * (NU / 2.0) ** 2 / SIGMA_RHO**2
    expected = -CONSTANTS.mass * CONSTANTS.c**2 * 2.5 * np.sqrt(
        1.0 + e_u2 / CONSTANTS.c**2
    )
    val = stochastic_action(gauss_density, patch, (0.5, 3.0), CONSTANTS,
                            box, grad_log_density=gauss_grad_log)
    assert abs(val - expected) < 1e-9
    # time-independent integrand: equal-length intervals agree exactly
    shifted = stochastic_action(gauss_density, patch, (10.0, 12.5),
                                CONSTANTS, box,
                                grad_log_density=gauss_grad_log)
    assert val == shifted


def test_action_imaginary_raises():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    with pytest.raises(ImaginaryAction):
        stochastic_action(
            gauss_density, patch, (0.0, 1.0), CONSTANTS, box,
            grad_log_density=gauss_grad_log,
            current_sq=lambda pts: np.full(len(np.atleast_2d(pts)), 3.0),
        )


# --- osmotic identity ----------------------------------------------------------------

def test_osmotic_identity_closed_form_target(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    rep = osmotic_identity_report(
        ou_ensemble, ou_bins, patch, NU, min_count=500,
        grad_log_density=gauss_grad_log,
    )
    assert rep["n_bins"] >= 30
    assert rep["fraction"] >= 0.95
    # the drift estimates it conditions on come back for reuse
    for key, estimate in (("forward", forward_drift_estimate),
                          ("backward", backward_drift_estimate)):
        alone = estimate(ou_ensemble, ou_bins, min_count=500)
        assert rep[key].direction == alone.direction
        np.testing.assert_array_equal(rep[key].mean, alone.mean)
        np.testing.assert_array_equal(rep[key].batch_mean, alone.batch_mean)


def test_osmotic_identity_estimated_target(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    rep = osmotic_identity_report(ou_ensemble, ou_bins, patch, NU,
                                  min_count=500)
    assert rep["n_bins"] >= 30
    assert rep["fraction"] >= 0.90
