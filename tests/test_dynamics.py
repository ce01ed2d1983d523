"""Wave-equation residuals, current classification, and the limit audit."""

import numpy as np
import pytest
from scipy.optimize import brentq

from comovkit.constants import PhysicalConstants
from comovkit.dynamics import (
    BoostMatrix,
    CurrentSample,
    boost_equivalence_check,
    comoving_current,
    comoving_kg_residual,
    covariant_residuals,
    current_divergence,
    four_current,
    kg_residual,
    motion_residual,
    nonrel_limit_study,
    nonrel_packet_family,
    reconstruct_kinematics,
    wave_operator,
)
from comovkit.errors import ZeroJ0
from comovkit.fields import four_velocity_contravariant, make_plane_wave
from comovkit.geometry import MetricPatch, chart_spatial_patch


def sample_events(rng, n, half=2.0):
    return rng.uniform(-half, half, size=(n, 4))


# ---------------------------------------------------------------------------
# flat wave-equation residual


def test_kg_residual_plane_wave_is_roundoff(boost_wave):
    rng = np.random.default_rng(11)
    for x in sample_events(rng, 20):
        assert kg_residual(boost_wave, x) < 1e-12


def test_kg_residual_packet_is_roundoff(packet9):
    # superpositions of on-shell modes satisfy the equation exactly, so the
    # analytic-derivative residual is pure arithmetic noise
    rng = np.random.default_rng(12)
    for x in sample_events(rng, 100):
        assert kg_residual(packet9, x) < 1e-10


def test_kg_residual_fd_mode_within_step_budget(packet9):
    fd = packet9.with_fd_derivatives(1e-3)
    rng = np.random.default_rng(13)
    for x in sample_events(rng, 5):
        assert kg_residual(fd, x) < 1e-4


def test_kg_residual_flags_wrong_frequency(constants):
    # off-shell rest mode at omega = 1.2 omega_c: the normalized residual is
    # exactly (omega^2 - omega_c^2) / (c^2 kc^2) = 0.44
    wrong = make_plane_wave([0.0, 0.0, 0.0], constants, frequency=1.2)
    res = kg_residual(wrong, np.array([0.3, -0.2, 0.1, 0.7]))
    assert np.isclose(res, 0.44, rtol=1e-10)


def test_wave_operator_matches_amplitude(packet9):
    x = np.array([0.4, -0.3, 0.8, 0.2])
    phi, dphi, _ = wave_operator(packet9, x)
    assert np.isclose(phi, packet9.amplitude(x), rtol=1e-12)
    assert np.allclose(dphi, packet9.amplitude_gradient(x), rtol=1e-10)


# ---------------------------------------------------------------------------
# curved wave-equation residual in chart coordinates


def test_comoving_kg_residual_rest_chart(constants, rest_chart):
    # pulled-back rest wave is exp(-i kc xi0); the only error is the h^2
    # stencil floor, about h^2 kc^2 / 12 after normalization
    bundle = rest_chart.bundle
    for xi in ([0.0, 0.0, 0.0, 0.0], [0.4, 0.5, -0.2, 0.3]):
        assert comoving_kg_residual(bundle, rest_chart, xi) < 5e-5


def test_comoving_kg_residual_boost_chart(boost_wave, boost_chart):
    for xi in ([0.0, 0.1, -0.2, 0.3], [0.5, -0.4, 0.2, 0.1]):
        assert comoving_kg_residual(boost_wave, boost_chart, xi) < 1e-4


def test_comoving_matches_inertial_for_packet(packet9, packet9_chart):
    # coordinate invariance: the inertial residual is roundoff, so the
    # comoving residual must sit inside its own stencil budget
    rng = np.random.default_rng(14)
    for x in rng.uniform(-0.8, 0.8, size=(6, 4)):
        xi = packet9_chart.forward_map(x)
        res_in = kg_residual(packet9, x)
        res_com = comoving_kg_residual(packet9, packet9_chart, xi)
        assert res_in < 1e-10
        assert abs(res_com - res_in) < 2e-4


# ---------------------------------------------------------------------------
# stationary osmotic balance


def test_motion_residual_zero_velocity(constants):
    patch = MetricPatch.euclidean()
    res = motion_residual(lambda q: np.zeros(np.shape(q)), patch,
                          [0.3, -0.2, 0.5], constants)
    assert np.all(res == 0.0)


def test_motion_residual_log_linear_density(constants):
    # sqrt(rho) ~ exp(a . q) gives a constant osmotic covector; both terms
    # of the balance vanish identically
    a = np.array([0.4, -0.3, 0.2])
    u_const = constants.nu * a

    res = motion_residual(lambda q: np.broadcast_to(u_const, np.shape(q)),
                          MetricPatch.euclidean(), [0.1, 0.7, -0.4],
                          constants)
    assert np.max(np.abs(res)) < 1e-12


def test_motion_residual_scale_factor_independence(constants):
    # m -> gamma m with u -> u / gamma rescales both terms by 1 / gamma^2,
    # so the residual test cannot depend on the time-dilation factor
    def u(q):
        return 0.1 * np.stack([np.sin(q[..., 0]), q[..., 1] ** 2, q[..., 2]],
                              axis=-1)

    patch = MetricPatch.euclidean()
    q = np.array([0.5, -0.3, 0.8])
    gamma = 0.7
    scaled = PhysicalConstants(constants.hbar, gamma * constants.mass,
                               constants.c)
    res = motion_residual(u, patch, q, constants)
    res_scaled = motion_residual(lambda p: u(p) / gamma, patch, q, scaled)
    assert np.allclose(res_scaled, res / gamma ** 2, rtol=1e-10, atol=1e-14)


def test_covariant_residuals_plane_wave_exact(boost_wave, boost_chart):
    # unit density pulls back to unit density: every difference in the
    # stencils is exactly zero
    motion, continuity = covariant_residuals(
        boost_wave, boost_chart, [0.3, 0.2, -0.1, 0.4]
    )
    assert np.all(motion == 0.0)
    assert continuity == 0.0


def test_covariant_residuals_packet_stationary(packet9, packet9_chart):
    motion, continuity = covariant_residuals(
        packet9, packet9_chart, [0.2, 0.3, -0.2, 0.1]
    )
    # the pulled-back density is time independent (current conservation),
    # so the continuity stencil sees only chart solver noise
    assert abs(continuity) < 1e-5
    assert np.max(np.abs(motion)) < 1e-3


# ---------------------------------------------------------------------------
# four-current and classification


def test_four_current_rest_wave_oracle(constants):
    rest = make_plane_wave([0.0, 0.0, 0.0], constants)
    sample = four_current(rest, [0.7, 0.1, -0.5, 0.2])
    assert np.allclose(sample.j, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.isclose(sample.invariant, -1.0, rtol=1e-14)
    assert sample.classification == "one_particle"
    assert sample.cross_check < 1e-14
    assert sample.modulus_residual < 1e-14


def test_four_current_boosted_oracle(boost_wave):
    # k = 0.75 kc is the 0.6c mode: J^0 = gamma m c = 1.25, J^1 = 0.75
    sample = four_current(boost_wave, [0.0, 0.3, 0.0, 0.0])
    assert np.allclose(sample.j, [1.25, 0.75, 0.0, 0.0], atol=1e-12)
    assert np.isclose(sample.invariant, -1.0, rtol=1e-12)
    assert sample.classification == "one_particle"


def test_phase_conjugation_flips_classification(constants, boost_wave):
    conj = make_plane_wave([-0.75, 0.0, 0.0], constants, frequency=-1.25)
    x = np.array([0.2, -0.4, 0.1, 0.3])
    fwd = four_current(boost_wave, x)
    rev = four_current(conj, x)
    assert fwd.classification == "one_particle"
    assert rev.classification == "specular"
    assert np.allclose(rev.j, -fwd.j, atol=1e-12)
    assert np.isclose(rev.invariant, fwd.invariant, rtol=1e-12)


def test_packet_modulus_residual_closed_form(packet9, constants):
    # J.J + (mcp)^2 = hbar^2 p^2 (box sqrt p) / sqrt p exactly; check the
    # recorded residual against that expression assembled independently.
    # the identity deficit scales with the bandwidth squared (~1.5e-3 for
    # this packet), so the classification budget must sit above it
    rng = np.random.default_rng(15)
    for x in sample_events(rng, 10):
        sample = four_current(packet9, x, budget=2e-4)
        p = packet9.density(x)
        dp = packet9.density_gradient(x)
        hp = packet9.density_hessian(x)
        amp = np.sqrt(p)
        box_amp = (
            (-hp[0, 0] + hp[1, 1] + hp[2, 2] + hp[3, 3]) / (2.0 * amp)
            - (-dp[0] ** 2 + dp[1:] @ dp[1:]) / (4.0 * amp ** 3)
        )
        expected = (
            constants.hbar ** 2 * abs(box_amp) / (constants.mass ** 2
                                                   * constants.c ** 2 * amp)
        )
        assert np.isclose(sample.modulus_residual, expected, rtol=1e-8,
                          atol=1e-15)
        assert sample.classification == "one_particle"
        assert sample.invariant < 0.0
        assert sample.cross_check < 1e-12


def test_current_conservation_packet(packet9):
    rng = np.random.default_rng(16)
    for x in sample_events(rng, 5):
        assert abs(current_divergence(packet9, x)) < 1e-8


def test_current_divergence_takes_batches(packet9):
    events = sample_events(np.random.default_rng(17), 6).reshape(2, 3, 4)
    div = current_divergence(packet9, events)
    assert div.shape == (2, 3)
    assert isinstance(current_divergence(packet9, events[0, 0]), float)
    np.testing.assert_allclose(
        div.ravel(), [current_divergence(packet9, x)
                      for x in events.reshape(-1, 4)], rtol=0, atol=1e-12)
    assert np.max(np.abs(div)) < 1e-8


def test_comoving_kg_residual_one_inverse_map(packet9, packet9_chart):
    calls = []

    class Counted:
        time_convention = packet9_chart.time_convention

        def inverse_map(self, xi):
            calls.append(np.shape(xi))
            return packet9_chart.inverse_map(xi)

    xi = np.array([0.1, 0.2, -0.3, 0.4])
    patch = chart_spatial_patch(packet9_chart)
    res = comoving_kg_residual(packet9, Counted(), xi, patch=patch)
    assert calls == [(33, 4)]
    assert res == comoving_kg_residual(packet9, packet9_chart, xi)


def test_wave_operator_and_current_take_batches(packet9):
    events = sample_events(np.random.default_rng(19), 6).reshape(2, 3, 4)
    rows = events.reshape(-1, 4)
    phi, dphi, box_phi = wave_operator(packet9, events)
    assert phi.shape == box_phi.shape == (2, 3) and dphi.shape == (2, 3, 4)
    one = [wave_operator(packet9, x) for x in rows]
    for got, k in ((phi, 0), (dphi, 1), (box_phi, 2)):
        np.testing.assert_allclose(
            got.reshape((6,) + got.shape[2:]), np.stack([o[k] for o in one]),
            rtol=1e-13, atol=0)
    np.testing.assert_allclose(
        kg_residual(packet9, events).ravel(),
        [kg_residual(packet9, x) for x in rows], rtol=0, atol=1e-15)

    batch = four_current(packet9, events, budget=2e-4)
    singles = [four_current(packet9, x, budget=2e-4) for x in rows]
    assert isinstance(singles[0].classification, str)
    assert isinstance(singles[0].modulus_residual, float)
    assert batch.classification.shape == (2, 3)
    assert batch.classification.ravel().tolist() == [
        s.classification for s in singles]
    # each field to the round-off of its largest entry
    for name in ("j", "j_cov", "invariant", "density", "modulus_residual",
                 "cross_check"):
        want = np.reshape([getattr(s, name) for s in singles], (6, -1))
        np.testing.assert_allclose(
            np.reshape(getattr(batch, name), (6, -1)), want, rtol=0,
            atol=1e-14 * np.max(np.abs(want)) + 1e-15)


def test_current_sample_checks_every_event():
    j = np.zeros((2, 4))
    with pytest.raises(ValueError, match="classification"):
        CurrentSample(np.zeros((2, 4)), j, j, np.zeros(2), np.ones(2),
                      np.array(["one_particle", "bogus"]), np.zeros(2),
                      np.zeros(2), 1e-9)
    with pytest.raises(ValueError, match="causal"):
        CurrentSample(np.zeros((2, 4)), j, j, np.array([-1.0, 1.0]),
                      np.ones(2), np.array(["indeterminate", "specular"]),
                      np.zeros(2), np.zeros(2), 1e-9)


def test_comoving_kg_residual_takes_batches(packet9, packet9_chart):
    calls = []
    patch = chart_spatial_patch(packet9_chart)

    class Counted:
        time_convention = packet9_chart.time_convention

        def inverse_map(self, xi):
            calls.append(np.shape(xi))
            return packet9_chart.inverse_map(xi)

    class CountedPatch:
        def __getattr__(self, name):
            if name in ("inverse", "christoffel"):
                calls.append(name)
            return getattr(patch, name)

    xi = np.column_stack([
        np.linspace(-0.4, 0.4, 5), np.linspace(-0.8, 0.8, 5),
        np.linspace(0.6, -0.6, 5), np.linspace(-0.3, 0.9, 5),
    ])
    res = comoving_kg_residual(packet9, Counted(), xi, patch=CountedPatch())
    assert calls == [(5, 33, 4), "inverse", "christoffel"]
    assert res.shape == (5,)
    one = [comoving_kg_residual(packet9, packet9_chart, p, patch=patch)
           for p in xi]
    np.testing.assert_allclose(res, one, rtol=0, atol=1e-9)
    assert np.max(res) < 1e-3


def test_motion_residual_takes_batches(constants):
    def u(q):
        return 0.1 * np.stack([np.sin(q[..., 0]), q[..., 1] ** 2, q[..., 2]],
                              axis=-1)

    patch = MetricPatch.euclidean()
    pts = np.random.default_rng(18).uniform(-1.0, 1.0, size=(4, 3))
    batched = motion_residual(u, patch, pts, constants)
    single = np.stack([motion_residual(u, patch, q, constants) for q in pts])
    np.testing.assert_allclose(batched, single, rtol=1e-13, atol=1e-15)


def test_comoving_current_structure(packet9, packet9_chart):
    # the time-component identity inherits the modulus deficit (half the
    # bandwidth-squared residual, ~7.5e-4 relative for this packet)
    report = comoving_current(packet9, packet9_chart, [0.1, 0.2, -0.3, 0.15])
    assert report["spatial_max"] < 1e-4
    assert np.isclose(report["j_tilde"][0], report["expected_time"], rtol=2e-3)


def test_comoving_current_plane_wave_exact(boost_wave, boost_chart):
    report = comoving_current(boost_wave, boost_chart, [0.2, 0.1, -0.4, 0.3])
    assert report["spatial_max"] < 1e-6
    assert np.isclose(report["j_tilde"][0], report["expected_time"], rtol=1e-6)


def test_reconstruct_kinematics_boosted(boost_wave):
    x = np.array([0.1, 0.4, -0.2, 0.6])
    v, p = reconstruct_kinematics(boost_wave, x)
    assert np.allclose(v, [0.6, 0.0, 0.0], atol=1e-12)
    assert np.isclose(p, 1.0, rtol=1e-14)
    assert np.linalg.norm(v) < boost_wave.constants.c
    # feeding v back through the contravariant four-velocity closes the loop
    vv = four_velocity_contravariant(boost_wave)(x)
    assert np.allclose(boost_wave.constants.c * vv[1:] / vv[0], v, atol=1e-12)


def test_reconstruct_kinematics_zero_j0(near_standing):
    # the nearly opposed superposition has a narrow spike where the local
    # frequency flips sign; bisect to the crossing and confirm the hard
    # failure plus the honest classification there
    def j0(x1):
        return near_standing.phase_gradient([0.0, x1, 0.0, 0.0])[0]

    root = brentq(j0, -1.95, -1.90, xtol=1e-15)
    with pytest.raises(ZeroJ0):
        reconstruct_kinematics(near_standing, [0.0, root, 0.0, 0.0])
    sample = four_current(near_standing, [0.0, root, 0.0, 0.0])
    assert sample.classification == "indeterminate"


# ---------------------------------------------------------------------------
# closed-form boost comparison


def test_boost_matrix_oracle_entries():
    boost = BoostMatrix.from_velocity([0.6, 0.0, 0.0])
    assert np.isclose(boost.matrix[0, 0], 1.25)
    assert np.isclose(boost.matrix[0, 1], -0.75)
    assert np.allclose(boost.matrix @ boost.inverse, np.eye(4), atol=1e-14)


def test_boost_matrix_rejects_superluminal():
    with pytest.raises(ValueError):
        BoostMatrix.from_velocity([1.0, 0.0, 0.0])


def test_boost_matrix_rejects_non_lorentz():
    with pytest.raises(ValueError):
        BoostMatrix(matrix=np.diag([2.0, 1.0, 1.0, 1.0]),
                    inverse=np.diag([0.5, 1.0, 1.0, 1.0]),
                    velocity=np.zeros(3))


def test_boost_equivalence_constant_field(boost_wave, boost_chart):
    report = boost_equivalence_check(boost_wave, boost_chart,
                                     [0.2, 0.5, -0.3, 0.1])
    assert report["max_deviation"] < 1e-5
    assert np.allclose(report["velocity"], [0.6, 0.0, 0.0], atol=1e-12)


def test_boost_equivalence_rest_field(constants, rest_chart):
    report = boost_equivalence_check(rest_chart.bundle, rest_chart,
                                     [0.3, -0.2, 0.4, 0.1])
    assert report["max_deviation"] < 1e-9


def test_boost_equivalence_packet_at_origin(packet9, packet9_chart):
    # away from the origin the frame is not normalized, so the comparison
    # is only meaningful at the chart base point
    report = boost_equivalence_check(packet9, packet9_chart, np.zeros(4))
    assert report["max_deviation"] < 1e-3


# ---------------------------------------------------------------------------
# non-relativistic limit


def test_nonrel_limit_quadratic_rate(constants):
    study = nonrel_limit_study([0.1, 0.05, 0.025, 0.0125], constants,
                               n_per_axis=3)
    assert 1.7 < study["slope"] < 2.3
    rows = study["rows"]
    eps = [r["eps_measured"] for r in rows]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    for key in ("spatial_dropped", "temporal_dropped"):
        vals = [r[key] for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:])), key


def test_nonrel_rest_member_is_static(constants):
    study = nonrel_limit_study([0.0], constants, n_per_axis=2)
    row = study["rows"][0]
    assert row["discrepancy"] == 0.0
    assert row["eps_measured"] < 1e-12


def test_nonrel_family_is_self_similar(constants):
    # the density at x and the eps-rescaled density at x / 2 agree when eps
    # is halved: the family is one shape evaluated at scaled arguments
    b1 = nonrel_packet_family(0.1, constants)
    b2 = nonrel_packet_family(0.05, constants)
    x = np.array([0.0, 1.3, -0.7, 2.1])
    x_scaled = np.concatenate([[0.0], 2.0 * x[1:]])
    assert np.isclose(b1.density(x), b2.density(x_scaled), rtol=1e-12)
