"""Density/velocity estimation, quadrature expectations, energy, action."""

import numpy as np
import pytest

from comovkit import fields
from comovkit.constants import natural_units
from comovkit.diffusion import (
    BinSpec,
    DiffusionConfig,
    PathEnsemble,
    backward_drift_estimate,
    combine_drift_estimates,
    drift_from_fields,
    forward_drift_estimate,
    leaf_drift,
    simulate,
    specular_reverse,
)
from comovkit.errors import ImaginaryAction, QuadratureDivergence
from comovkit.estimators import (
    EnergyReport,
    _gl_axes,
    energy_report,
    estimate_density,
    expectation_u2,
    gaussian_density,
    osmotic_identity_report,
    slice_density,
    stochastic_action,
    velocities_from_drifts,
)
from comovkit.fields import ROW_BLOCK, Box, _lattice
from comovkit.geometry import MetricPatch, chart_spatial_patch, polar_flat_patch
from conftest import family_checks, traced_peak

SIGMA_RHO = 1.0
NU = 1.0
THETA = NU / (2.0 * SIGMA_RHO**2)
CONSTANTS = natural_units()
OU_SEED = 41
OU_BINS = BinSpec((-2.4, -2.4, -2.4), (2.4, 2.4, 2.4), (6, 6, 6))
# standard errors come from 32 path batches, so each per-bin t has 31 dof
BATCH_DOF = 31

# Power controls: a known bias that each family check must reject on its
# own fixture. Each is about twice the bias the check detects on nine
# seeds in ten, simulated from the fixture's standard errors.
DENSITY_WIDTH_BIAS = 0.015  # stationary gaussian width scaled by 1 + delta
CURRENT_BIAS = 0.5  # current target shifted by delta times u
OSMOTIC_BIAS = 0.15  # osmotic target u scaled by 1 + delta


def ou_drift(q):
    return -THETA * q


def gauss_density(pts):
    return np.exp(-0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=-1)
                  / SIGMA_RHO**2)


def gauss_grad_log(pts):
    return -np.atleast_2d(pts) / SIGMA_RHO**2


def constant_density(pts):
    return np.ones(len(np.atleast_2d(pts)))


def zero_grad_log(pts):
    return np.zeros_like(np.atleast_2d(pts), dtype=float)


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


def simulate_ou(seed):
    """Stationary OU ensemble of the gaussian fixture: 20 000 paths."""
    config = DiffusionConfig(
        dt=2e-3, horizon=4.0, n_paths=20000, master_seed=seed, nu=NU,
        initial=("density", lambda q: gauss_density(q),
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        n_snapshots=24, chunk_size=16384, n_threads=2,
    )
    patch = MetricPatch.euclidean()
    return simulate(drift_from_fields(ou_drift, patch, NU), patch, config)


@pytest.fixture(scope="module")
def ou_ensemble():
    return simulate_ou(OU_SEED)


def density_t(est, bins, width=1.0, min_count=500, root_sig=1.0):
    """Per-bin t of a density estimate against the exact bin-averaged law
    of a centred gaussian of the given width, divided by the constant
    volume factor ``root_sig``, over bins holding at least ``min_count``
    samples.

    The histogram estimates the bin average, and the lattice misses a
    little tail mass, so the target is renormalized over the lattice as
    the estimate is.
    """
    target = gauss_bin_average(bins, scale=width)
    target = target / np.sum(target * est.meta["volume"]) / root_sig
    good = est.count >= min_count
    return ((est.estimate - target) / est.se)[good]


def current_t(vel, delta=0.0):
    """Per-bin, per-axis t of the current velocity against delta * u.

    u is the osmotic velocity -theta q at the per-bin sample mean, where
    the conditional expectation of the affine target is exact.
    """
    target = delta * -THETA * vel.anchor
    return ((vel.current - target) / vel.current_se)[vel.valid]


def osmotic_t(vel, delta=0.0):
    """Per-bin, per-axis t of the osmotic velocity against (1 + delta) u."""
    target = (1.0 + delta) * -THETA * vel.anchor
    return ((vel.osmotic - target) / vel.osmotic_se)[vel.valid]


@pytest.fixture(scope="module")
def ou_bins():
    return OU_BINS


# --- density -------------------------------------------------------------------

def test_density_matches_stationary_law(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    est = estimate_density(ou_ensemble, ou_bins, patch)
    # family: per-bin t, 31 dof, over the bins with >= 500 samples (about
    # 158 of 216), at FALSE_ALARM per seed
    t = density_t(est, ou_bins)
    assert t.size >= 30
    # power control: the law of a gaussian 1.5 % wider is rejected
    truth, wide = family_checks(
        t, density_t(est, ou_bins, 1.0 + DENSITY_WIDTH_BIAS), BATCH_DOF)
    assert not truth["reject"], truth
    assert wide["reject"], wide


def test_density_normalizes_with_invariant_measure(ou_ensemble, ou_bins):
    patch = MetricPatch.euclidean()
    est = estimate_density(ou_ensemble, ou_bins, patch)
    _, vol = est.meta["volume"], est.meta["volume"]
    root_sig = np.array([patch.sqrt_det(c) for c in ou_bins.centers()])
    mass = float(np.sum(est.estimate * root_sig * vol))
    assert abs(mass - 1.0) < 1e-9


def volume_factor_estimate(seed):
    """Density estimate of 200 000 independent N(0, 1) coordinate samples
    under sqrt|sigma| = 0.8, with its bins; the invariant density is the
    coordinate pdf divided by 0.8."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((200000, 1, 3))
    ens = PathEnsemble(times=np.zeros(1), pre=states, post=states,
                       dt=1e-3, nu=1.0)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.0]))
    bins = BinSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (4, 4, 4))
    return estimate_density(ens, bins, patch), bins


def test_density_uses_volume_factor():
    est, bins = volume_factor_estimate(7)
    root_sig = 0.8
    vol = est.meta["volume"]
    mass = float(np.sum(est.estimate * root_sig * vol))
    assert abs(mass - 1.0) < 1e-9
    # family: per-bin t, 31 dof (32 path batches), over the bins with
    # >= 1000 samples (56 of 64), at FALSE_ALARM per seed; the samples come
    # from their own generator, not from the simulator's streams
    # power control: the coordinate pdf, without the volume factor (a
    # 25 % bias, far above the 1.2 % this family detects)
    truth, bare = family_checks(
        density_t(est, bins, min_count=1000, root_sig=root_sig),
        density_t(est, bins, min_count=1000), BATCH_DOF)
    assert not truth["reject"], truth
    assert bare["reject"], bare


def test_density_se_skips_a_path_batch_without_states_inside():
    # 64 paths make 32 path batches of two; the first batch stays outside
    # the bin box, so it has no density estimate, and every bin's SE comes
    # from the other 31 batches instead of turning NaN
    rng = np.random.default_rng(5)
    states = rng.uniform(-1.0, 1.0, size=(64, 4, 3))
    states[:2] = 5.0
    ens = PathEnsemble(times=np.arange(4.0), pre=states, post=states,
                       dt=1e-3, nu=1.0)
    bins = BinSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (2, 2, 2))
    est = estimate_density(ens, bins, MetricPatch.euclidean())
    assert np.all(est.count >= 2)
    assert np.all(np.isnan(est.batch_estimate[0]))
    rest = est.batch_estimate[1:]
    np.testing.assert_array_equal(
        est.se, rest.std(axis=0, ddof=1) / np.sqrt(len(rest)))


# --- velocities ------------------------------------------------------------------

def test_velocities_recover_current_and_osmotic(ou_ensemble, ou_bins):
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    bwd = backward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, bwd)
    assert np.sum(vel.valid) >= 30
    # two families, each per-bin, per-axis t with 31 dof over 3 x the
    # valid bins (about 474), each at FALSE_ALARM per seed
    for name, t_of, bias in (("current", current_t, CURRENT_BIAS),
                             ("osmotic", osmotic_t, OSMOTIC_BIAS)):
        # power control: the target moved by the known bias is rejected
        truth, biased = family_checks(t_of(vel), t_of(vel, bias), BATCH_DOF)
        assert not truth["reject"], (name, truth)
        assert biased["reject"], (name, biased)


def test_equal_drifts_mean_zero_osmotic(ou_ensemble, ou_bins):
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, fwd)
    assert np.all(vel.osmotic[vel.valid] == 0.0)


def test_specular_ensemble_keeps_zero_current(ou_ensemble, ou_bins):
    # reversal swaps the forward and backward drift estimates bin by bin
    # and flips their sign, so the reversed ensemble's current is minus the
    # forward one, up to the rounding of the two half sums; that the
    # forward current vanishes is the family check of
    # test_velocities_recover_current_and_osmotic
    fwd = forward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    bwd = backward_drift_estimate(ou_ensemble, ou_bins, min_count=500)
    vel = velocities_from_drifts(fwd, bwd)
    rev = specular_reverse(ou_ensemble)
    rev_vel = velocities_from_drifts(
        forward_drift_estimate(rev, ou_bins, min_count=500),
        backward_drift_estimate(rev, ou_bins, min_count=500))
    np.testing.assert_array_equal(rev_vel.valid, vel.valid)
    assert np.sum(vel.valid) >= 30
    drift_scale = max(np.max(np.abs(fwd.mean[fwd.valid])),
                      np.max(np.abs(bwd.mean[bwd.valid])))
    np.testing.assert_allclose(
        rev_vel.current[vel.valid], -vel.current[vel.valid], rtol=0.0,
        atol=4.0 * np.finfo(float).eps * drift_scale)


# --- quadrature expectations -------------------------------------------------------

def test_expectation_u2_gaussian_closed_form():
    patch = MetricPatch.euclidean()
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    out = expectation_u2(gauss_density, patch, box, NU,
                         grad_log_density=gauss_grad_log)
    expected = 3.0 * (NU / 2.0) ** 2 / SIGMA_RHO**2
    assert abs(out["value"] - expected) < 1e-8 * expected


def test_expectation_u2_constant_density_is_zero():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    out = expectation_u2(constant_density, patch, box, NU,
                         grad_log_density=zero_grad_log)
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
        expectation_u2(half_dead, patch, box, NU,
                       grad_log_density=gauss_grad_log)


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
    # the slab's time factor multiplies the numerator and the normalization
    # alike, so a shorter slab on fewer time nodes moves mu_direct only by
    # the rounding of those two products and the quotient (4 eps)
    short = energy_report(gauss_density, patch, CONSTANTS, box, delta=0.3,
                          time_order=4, grad_log_density=gauss_grad_log)
    assert short.normalization == pytest.approx(0.3 * rep.normalization,
                                                rel=1e-14)
    assert abs(short.mu_direct - rep.mu_direct) \
        <= 4.0 * np.finfo(float).eps * abs(rep.mu_direct)


def test_energy_constant_density_is_rest_value():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    rep = energy_report(constant_density, patch, CONSTANTS, box,
                        grad_log_density=zero_grad_log)
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct + 0.5 * scale) < 1e-13 * scale
    assert rep.gamma_tilde == 1.0
    assert rep.e_u2 == 0.0


def test_energy_report_rejects_bad_gamma():
    with pytest.raises(ValueError):
        EnergyReport(mu_direct=0.0, mu_identity=0.0, e_u2=0.0,
                     gamma_tilde=1.5, order=8, normalization=1.0)


def test_energy_on_plane_wave_slice(boost_chart):
    # constant unit density on every leaf: the rest energy comes out
    # exactly, through the full chart -> slice-density route
    density, grad_log_density = slice_density(boost_chart.bundle, boost_chart)
    patch = chart_spatial_patch(boost_chart)
    box = Box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
    rep = energy_report(density, patch, CONSTANTS, box, order=4,
                        time_order=4, grad_log_density=grad_log_density)
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct + 0.5 * scale) < 1e-10 * scale
    assert abs(rep.mu_direct - rep.mu_identity) < 1e-10 * scale


def _wavy_patch():
    """A pointwise, non-constant metric: the quadrature builds its tables
    row by row, as for any patch without ``is_constant``."""
    return MetricPatch(
        lambda q: np.diag([1.0, 1.0 + 0.5 * np.sin(q[0]) ** 2, 1.0]),
        name="wavy")


def _wavy_energy(order):
    return energy_report(gauss_density, _wavy_patch(), CONSTANTS,
                         Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0)),
                         order=order, grad_log_density=gauss_grad_log)


# Held per node at the quadrature's peak: the weights (normalized in
# place), sqrt|sigma|, the quadratic form, u.sigma.u, the integrand and one
# temporary (six float64 columns, 48 B), and the shell flags (1 B); the
# nodes, the density, the log gradient and the metric tables live one
# block of ROW_BLOCK nodes at a time, under 1 kB a node.
QUADRATURE_COLUMN_BYTES = 6 * 8 + 1


def test_energy_report_holds_columns_and_one_block():
    # order 40: 64 000 nodes. Node and gradient columns held for the whole
    # quadrature add 48 B a node; whole-batch (n, 3, 3) metric tables peak
    # at about 353 B a node.
    order = 40
    rep, peak = traced_peak(lambda: _wavy_energy(order))
    scale = CONSTANTS.mass * CONSTANTS.c**2
    assert abs(rep.mu_direct - rep.mu_identity) < 1e-12 * scale
    assert peak <= QUADRATURE_COLUMN_BYTES * order**3 + 1024 * ROW_BLOCK


@pytest.mark.parametrize("block", [7, 1 << 20])
def test_log_gradient_does_not_depend_on_the_row_block(block, monkeypatch):
    # order 8: 512 nodes, 73 blocks of 7 and a lone node in a block of its
    # own. The density and its closed-form log gradient each take every
    # block's nodes once, in order, and the node columns are those of one
    # block holding all nodes, bit for bit, on a metric that varies
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    pts = _lattice(_gl_axes(box, 8)[0])
    want = expectation_u2(gauss_density, _wavy_patch(), box, NU, order=8,
                          grad_log_density=gauss_grad_log)
    seen = {gauss_density: [], gauss_grad_log: []}

    def recorded(func):
        def call(p):
            seen[func].append(p)
            return func(p)
        return call

    monkeypatch.setattr(fields, "ROW_BLOCK", block)
    got = expectation_u2(recorded(gauss_density), _wavy_patch(), box, NU,
                         order=8, grad_log_density=recorded(gauss_grad_log))
    for calls in seen.values():
        assert [len(p) for p in calls] \
            == ([7] * 73 + [1] if block == 7 else [512])
        assert np.concatenate(calls).tobytes() == pts.tobytes()
    for column in ("weights", "sqrt_det", "quad_form", "u_sigma_u"):
        assert got[column].tobytes() == want[column].tobytes()
    assert got["value"] == want["value"]


@pytest.mark.parametrize("block", [7, 1 << 20])
def test_energy_report_does_not_depend_on_the_row_block(block, monkeypatch):
    # order 9: 729 nodes, a block and a part at the default size; every
    # sum runs over whole columns, so the split cannot move a value
    want = _wavy_energy(9)
    monkeypatch.setattr(fields, "ROW_BLOCK", block)
    assert _wavy_energy(9) == want


# --- action -----------------------------------------------------------------------

def test_action_rest_case_exact():
    patch = MetricPatch.euclidean()
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    val = stochastic_action(constant_density, patch, (0.0, 1.0), CONSTANTS,
                            box, grad_log_density=zero_grad_log)
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


def test_action_current_term_holds_columns_and_one_block():
    # order 32: 32 768 nodes. The current term takes its nodes block by
    # block, as the osmotic term does, into one column: the peak stays
    # within the quadrature's. The whole (n, 3) node array with its index
    # arrays peaks at about 112 B a node. The value is that of one
    # current_sq call on all nodes, bit for bit.
    order = 32
    box = Box((-7.0, -7.0, -7.0), (7.0, 7.0, 7.0))
    patch = MetricPatch.euclidean()

    def current_sq(pts):
        return 0.01 * (pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2)

    val, peak = traced_peak(lambda: stochastic_action(
        gauss_density, patch, (0.0, 1.0), CONSTANTS, box, order=order,
        grad_log_density=gauss_grad_log, current_sq=current_sq))
    assert peak <= QUADRATURE_COLUMN_BYTES * order**3 + 1024 * ROW_BLOCK
    u2 = expectation_u2(gauss_density, patch, box, NU, order=order,
                        grad_log_density=gauss_grad_log)
    pts = _lattice(_gl_axes(box, order)[0])
    e_b2 = float(np.sum(u2["weights"] * current_sq(pts))) / u2["normalization"]
    assert val == -CONSTANTS.mass * CONSTANTS.c**2 * float(
        np.sqrt(1.0 - (e_b2 - u2["value"]) / CONSTANTS.c**2))


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
    # literal: the report's own gate (each axis |t| <= 3 in 95 % of the
    # bins). A bin fails with probability 1 - (1 - P(|t_31| > 3))^3 =
    # 0.016, so a correct estimator reads below 0.95 over 158 bins with
    # probability 3.8e-3 per seed (binomial); the tighter family check of
    # the same osmotic velocity is test_velocities_recover_current_and_osmotic
    assert rep["fraction"] >= 0.95
    # the drift estimates it conditions on come back for reuse
    for key, estimate in (("forward", forward_drift_estimate),
                          ("backward", backward_drift_estimate)):
        alone = estimate(ou_ensemble, ou_bins, min_count=500)
        assert rep[key].direction == alone.direction
        np.testing.assert_array_equal(rep[key].mean, alone.mean)
        np.testing.assert_array_equal(rep[key].batch_mean, alone.batch_mean)


def test_osmotic_identity_on_a_curved_patch_is_the_former_expression():
    # the unit gaussian in polar coordinates (r, theta, z), whose log
    # gradient is (-r, 0, -z), started from rho sqrt|sigma| = r rho and
    # simulated with its leaf drift: the report's diff u_mean - beta is the
    # former u_mean - (nu/2) sigma^-1 g + (nu/2) sigma^jk Gamma_jk up to
    # rounding, at most 4 ulp of the three terms' magnitudes (0.34 of that
    # seen), and the fraction (7 of 8 bins) and usable bins are the same
    patch = polar_flat_patch()

    def grad_log(q):
        q = np.atleast_2d(q)
        return np.stack([-q[:, 0], np.zeros(len(q)), -q[:, 2]], axis=-1)

    def weight(q):  # r exp(-(r^2 + z^2) / 2), largest at r = 1
        return q[:, 0] * np.exp(-0.5 * (q[:, 0] ** 2 + q[:, 2] ** 2))

    config = DiffusionConfig(
        dt=0.01, horizon=1.0, n_paths=1024, master_seed=5, nu=NU,
        initial=("density", weight, Box((0.05, -np.pi, -4.0),
                                        (4.0, np.pi, 4.0)), np.exp(-0.5)),
        burn_in_fraction=0.5, n_snapshots=50, chunk_size=512)
    ensemble = simulate(leaf_drift(grad_log, patch, NU), patch, config)
    bins = BinSpec((0.5, -1.0, -1.0), (2.5, 1.0, 1.0), (2, 2, 2))
    rep = osmotic_identity_report(ensemble, bins, patch, NU, min_count=100,
                                  grad_log_density=grad_log)

    fwd, bwd = rep["forward"], rep["backward"]
    anchor = 0.5 * (fwd.eval_points() + bwd.eval_points())
    u_mean, diff_se, _ = combine_drift_estimates(fwd, bwd, 0.5, -0.5)
    u = 0.5 * NU * (patch.inverse(anchor) @ grad_log(anchor)[..., None])[..., 0]
    correction = 0.5 * NU * patch.christoffel_contraction(anchor)
    former = u_mean - u + correction
    usable = rep["usable"]
    assert rep["n_bins"] == int(np.sum(usable)) == 8
    assert np.all(np.abs(rep["diff"] - former)[usable] <= 4.0 * np.finfo(
        float).eps * (np.abs(u_mean) + np.abs(u) + np.abs(correction))[usable])
    hits = np.all(np.abs(former) <= 3.0 * diff_se, axis=-1) & usable
    assert rep["fraction"] == float(np.sum(hits) / np.sum(usable))
    assert np.all(np.abs(correction[:, 0]) > 0.1)
