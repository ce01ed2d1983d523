"""Geometry: metric patches, curvature, budgets, Laplace-Beltrami."""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comovkit.chart import ComovingChart
from comovkit.diffusion import (DiffusionConfig, drift_from_fields,
                                simulate)
from comovkit.errors import NotSpacelike
from comovkit.estimators import expectation_u2, slice_density
from comovkit.fields import ROW_BLOCK, Box, central_gradient, make_packet
from conftest import traced_peak
from comovkit.geometry import (
    DEFAULT_H,
    FD_STEP,
    MetricPatch,
    chart_spatial_patch,
    covariant_derivative_covector,
    curvature_budget,
    flatness_report,
    geometry_diagnostics,
    laplace_beltrami,
    metric_compatibility_residual,
    polar_flat_patch,
    pullback_metric,
    ricci_scalar,
    riemann,
    unit_sphere_patch,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_patch_factors_roundtrip():
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.0]))
    q = np.zeros(3)
    inv = patch.inverse(q)
    np.testing.assert_allclose(inv, np.diag([1.5625, 1.0, 1.0]), atol=1e-14)
    g = patch.noise_factor(q)
    np.testing.assert_allclose(g @ g.T, inv, atol=1e-12)
    assert patch.sqrt_det(q) == pytest.approx(0.8, abs=1e-14)


def test_constancy_follows_from_the_constructor():
    # only euclidean() and constant() build constant patches: a varying
    # sigma cannot be declared constant and so lose its drift correction
    assert MetricPatch.euclidean().is_constant
    assert MetricPatch.constant(np.diag([0.64, 1.0, 1.0])).is_constant
    assert not MetricPatch(lambda q: np.eye(3)).is_constant
    assert not polar_flat_patch().is_constant
    with pytest.raises(TypeError):
        MetricPatch(polar_flat_patch().metric, is_constant=True)


def test_patch_rejects_non_spacelike():
    patch = MetricPatch.constant(np.diag([1.0, -0.2, 1.0]))
    with pytest.raises(NotSpacelike):
        patch.inverse(np.zeros(3))


def test_christoffel_constant_metric_is_zero():
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.0]))
    np.testing.assert_allclose(
        patch.christoffel(np.array([0.3, -0.7, 1.1])), 0.0, atol=1e-14
    )


def test_christoffel_polar_closed_forms():
    patch = polar_flat_patch()
    r = 1.4
    gamma = patch.christoffel(np.array([r, 0.4, -0.2]))
    assert gamma[0, 1, 1] == pytest.approx(-r, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(1.0 / r, abs=1e-12)
    # lower-index symmetry
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-14)
    # FD sigma-derivatives agree with the analytic path
    fd_patch = polar_flat_patch(analytic_derivatives=False)
    np.testing.assert_allclose(
        fd_patch.christoffel(np.array([r, 0.4, -0.2])), gamma, atol=1e-7
    )


def test_christoffel_contraction_polar():
    patch = polar_flat_patch()
    r = 0.9
    contr = patch.christoffel_contraction(np.array([r, 1.0, 0.0]))
    np.testing.assert_allclose(contr, [-1.0 / r, 0.0, 0.0], atol=1e-10)


def test_riemann_flat_fixtures():
    q = np.array([1.2, 0.5, -0.3])
    np.testing.assert_allclose(
        riemann(MetricPatch.constant(np.diag([0.64, 1, 1])), q), 0.0,
        atol=1e-12,
    )
    assert np.max(np.abs(riemann(polar_flat_patch(), q))) < 1e-4


def test_unit_sphere_scalar_curvature():
    patch = unit_sphere_patch()
    for theta in (0.7, 1.1, 1.9):
        r = ricci_scalar(patch, np.array([theta, 0.3, 0.0]))
        assert r == pytest.approx(2.0, abs=1e-3)


def test_flatness_gate_and_negative_control():
    pts = np.array([[1.1, 0.4, 0.0], [0.8, -0.9, 0.3]])
    flat = flatness_report(polar_flat_patch(analytic_derivatives=False), pts)
    assert flat["flat"] is True
    sphere_pts = np.array([[1.0, 0.2, 0.0], [1.4, -0.5, 0.1]])
    curved = flatness_report(unit_sphere_patch(), sphere_pts)
    assert curved["flat"] is False
    assert curved["max_riemann"] > 100 * curved["budget"]


def test_curvature_budget_scales_quadratically():
    b1 = curvature_budget(h=2e-2)
    b2 = curvature_budget(h=1e-2)
    assert b1 / b2 == pytest.approx(4.0, rel=0.3)


def test_metric_compatibility():
    q = np.array([1.3, 0.6, -0.2])
    assert metric_compatibility_residual(polar_flat_patch(), q) < 1e-10
    fd_patch = polar_flat_patch(analytic_derivatives=False)
    assert metric_compatibility_residual(fd_patch, q) < 1e-5


def test_metric_compatibility_takes_batches():
    pts = np.random.default_rng(5).uniform([0.5, -1.0, -1.0],
                                           [2.0, 1.0, 1.0], size=(2, 4, 3))
    for patch in (polar_flat_patch(), unit_sphere_patch(),
                  polar_flat_patch(analytic_derivatives=False)):
        batched = metric_compatibility_residual(patch, pts)
        single = [metric_compatibility_residual(patch, q)
                  for q in pts.reshape(-1, 3)]
        assert batched == max(single)


def _counting_polar_patch():
    """polar_flat_patch with a log of the batches its sigma evaluates."""
    base = polar_flat_patch()
    seen = []

    def sigma(q):
        seen.append(q.tolist())
        return base.metric(q)

    return MetricPatch(sigma, sigma_gradient=base.sigma_derivatives), seen


def test_pointwise_callables_are_shape_checked():
    pts = np.array([[0.7, 0.1, 0.0], [1.9, -2.0, 1.0]])
    square = MetricPatch(lambda q: np.eye(2))
    with pytest.raises(ValueError, match=r"sigma must evaluate to a \(3, 3\)"):
        square.metric(pts)
    # one point of a different shape is refused, not broadcast
    ragged = MetricPatch(lambda q: np.eye(3) if q[0] < 1.0 else 1.0)
    with pytest.raises(ValueError, match="sigma must evaluate"):
        ragged.inverse(pts)
    flat_gradient = MetricPatch(lambda q: np.eye(3),
                                sigma_gradient=lambda q: np.eye(3))
    with pytest.raises(ValueError,
                       match=r"sigma_gradient must evaluate to a \(3, 3, 3\)"):
        flat_gradient.christoffel(pts)


def test_factors_memo_follows_buffer_contents():
    patch, seen = _counting_polar_patch()
    q = np.array([[0.7, 0.1, 0.0], [1.9, -2.0, 1.0]])
    first = patch.factors(q)
    assert patch.factors(q) is first
    np.testing.assert_array_equal(patch.noise_factor(q),
                                  np.linalg.cholesky(first[1]))
    assert len(seen) == 2
    # a buffer overwritten in place is a new key
    q[1, 0] = 1.1
    sig, inv, root = patch.factors(q)
    assert len(seen) == 4
    np.testing.assert_array_equal(root, q[:, 0])
    # the same values in another array and another layout hit the memo
    assert patch.factors(np.array(q.tolist()))[1] is inv
    assert patch.factors(np.asfortranarray(q))[1] is inv
    # a different shape over the same bytes does not
    patch.factors(q.reshape(1, 2, 3))
    assert len(seen) == 6


def test_factors_memo_keeps_signed_zeros_apart():
    patch, seen = _counting_polar_patch()
    patch.factors(np.array([1.0, 0.0, 0.0]))
    patch.factors(np.array([1.0, -0.0, 0.0]))
    assert seen == [[1.0, 0.0, 0.0], [1.0, -0.0, 0.0]]
    assert [np.copysign(1.0, row[1]) for row in seen] == [1.0, -1.0]


def test_factors_are_read_only():
    patch = polar_flat_patch()
    pts = np.array([[0.7, 0.1, 0.0], [1.9, -2.0, 1.0]])
    for value in (patch.factors(pts), patch.factors(pts[0])):
        sig, inv, _ = value
        for a in (sig, inv, patch.inverse(pts)):
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0, 0] = 0.0
    root = patch.sqrt_det(pts)
    with pytest.raises(ValueError, match="read-only"):
        root[0] = 0.0
    assert isinstance(patch.sqrt_det(pts[0]), float)
    np.testing.assert_array_equal(patch.inverse(pts)[:, 0, 0], 1.0)


def test_factors_memo_is_per_thread():
    # threads alternate their own point sets on one patch; each must get
    # its own factors back and factorize only once
    patch, seen = _counting_polar_patch()
    n_threads, rounds = 4, 50
    sets = [np.array([[0.5 + t, 0.1 * t, 0.0], [1.0, -float(t), 2.0]])
            for t in range(n_threads)]
    expected = [polar_flat_patch().factors(p) for p in sets]
    turn = threading.Barrier(n_threads, timeout=30)
    wrong, finished = [], []

    def work(t):
        for _ in range(rounds):
            turn.wait()
            sig, inv, root = patch.factors(sets[t])
            if not (np.array_equal(sig, expected[t][0])
                    and np.array_equal(inv, expected[t][1])
                    and np.array_equal(root, expected[t][2])):
                wrong.append(t)
        finished.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(finished) == list(range(n_threads))
    assert wrong == []
    assert len(seen) == 2 * n_threads


def test_not_spacelike_raises_on_every_call():
    calls = []

    def sigma(q):
        calls.append(1)
        return np.diag([1.0, q[0], 1.0])

    patch = MetricPatch(sigma, name="signed")
    pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    for _ in range(3):
        with pytest.raises(NotSpacelike, match=r"\[-0.5, 0.0, 0.0\]"):
            patch.noise_factor(pts)
    assert len(calls) == 6


def test_laplace_beltrami_flat_cases():
    patch = MetricPatch.euclidean()
    q = np.array([0.4, -0.8, 1.2])
    linear = laplace_beltrami(patch, lambda p: 2.0 * p + 1.0, q)
    np.testing.assert_allclose(linear, 0.0, atol=1e-8)
    quadratic = laplace_beltrami(patch, lambda p: p ** 2, q)
    np.testing.assert_allclose(quadratic, [2.0, 2.0, 2.0], atol=1e-7)


def _cartesian_field(x):
    # covariant components of a smooth covector field in Cartesian coords,
    # at points (..., 3)
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([
        x0 ** 2 - x1 * x2,
        np.sin(x0) + x2 ** 2,
        x0 * x1 * x2,
    ], axis=-1)


def test_laplace_beltrami_coordinate_invariance():
    """Evaluate the same covector Laplacian in Cartesian and polar charts."""
    q_pol = np.array([1.3, 0.7, -0.4])  # (r, theta, z)
    r, th, z = q_pol

    def to_cart(p):
        return np.stack([p[..., 0] * np.cos(p[..., 1]),
                         p[..., 0] * np.sin(p[..., 1]), p[..., 2]], axis=-1)

    def jac(p):  # dx^a / dq^i at points (..., 3)
        rr, tt = p[..., 0], p[..., 1]
        zero, one = np.zeros_like(rr), np.ones_like(rr)
        return np.stack([
            np.stack([np.cos(tt), -rr * np.sin(tt), zero], axis=-1),
            np.stack([np.sin(tt), rr * np.cos(tt), zero], axis=-1),
            np.stack([zero, zero, one], axis=-1),
        ], axis=-2)

    def u_polar(p):
        # covariant pullback: u'_i = (dx^a/dq^i) u_a
        return np.einsum("...ai,...a->...i", jac(p),
                         _cartesian_field(to_cart(p)))

    lap_pol = laplace_beltrami(polar_flat_patch(), u_polar, q_pol, h=1e-3)
    lap_cart = laplace_beltrami(
        MetricPatch.euclidean(), _cartesian_field, to_cart(q_pol), h=1e-3
    )
    np.testing.assert_allclose(lap_pol, jac(q_pol).T @ lap_cart, atol=1e-4)


def _polar_covector(p):
    # a smooth covector field in polar coordinates, at points (..., 3)
    return np.stack([np.sin(p[..., 1]) * p[..., 0], p[..., 2] ** 2,
                     p[..., 0] * p[..., 1]], axis=-1)


def test_covariant_helpers_take_batches():
    patch = polar_flat_patch(analytic_derivatives=False)
    pts = np.random.default_rng(31).uniform([0.5, -1.0, -1.0], [2.0, 1.0, 1.0],
                                            size=(2, 3, 3))
    for helper, tail in ((covariant_derivative_covector, (3, 3)),
                         (laplace_beltrami, (3,))):
        batched = helper(patch, _polar_covector, pts, h=1e-3)
        assert batched.shape == (2, 3) + tail
        single = np.stack([helper(patch, _polar_covector, q, h=1e-3)
                           for q in pts.reshape(-1, 3)])
        np.testing.assert_allclose(batched.reshape(single.shape), single,
                                   rtol=1e-13, atol=1e-13)


def test_derivatives_make_one_stencil_call():
    patch = polar_flat_patch(analytic_derivatives=False)
    calls = {"metric": [], "christoffel": []}
    metric, christoffel = patch.metric, patch.christoffel

    def counted_metric(q):
        calls["metric"].append(np.shape(q))
        return metric(q)

    def counted_christoffel(q, h=None):
        calls["christoffel"].append(np.shape(q))
        return christoffel(q, h=h)

    patch.metric = counted_metric
    pts = np.array([[0.7, 0.1, 0.0], [1.9, -2.0, 1.0]])
    patch.sigma_derivatives(pts)
    assert calls["metric"] == [(2, 6, 3)]
    # riemann: seven Christoffel rows per point, the six neighbours and
    # then the centre, whose factorization the memo keeps
    patch.christoffel = counted_christoffel
    riemann(patch, pts)
    assert calls["christoffel"] == [(2, 6, 3), (2, 3)]


def test_pullback_metric_boost_is_isometry(boost_chart):
    for xi in ([0.0, 0.0, 0.0, 0.0], [0.4, -0.6, 0.3, 0.8]):
        g = pullback_metric(boost_chart, np.asarray(xi))
        np.testing.assert_allclose(g, ETA, atol=1e-5)


def test_pullback_metric_packet_block_structure(packet9_chart):
    xis = np.array([[0.0, 0.5, -0.4, 0.2], [0.3, -0.2, 0.6, -0.5]])
    for xi in xis:
        g = pullback_metric(packet9_chart, xi)
        assert np.max(np.abs(g[0, 1:])) < 1e-4
        assert abs(g[0, 0] + 1.0) < 1e-4
    np.testing.assert_allclose(
        pullback_metric(packet9_chart, xis),
        np.stack([pullback_metric(packet9_chart, xi) for xi in xis]),
        rtol=0.0, atol=1e-10)


def test_spatial_metric_boost_graph_value(boost_chart):
    # the 0.6c wave's graph metric over the base coordinates q is
    # diag(0.64, 1, 1); the frame E0 = diag(0.8, 1, 1) makes the chart
    # slice Euclidean
    xi = np.array([0.7, -0.3, 0.2])
    q = boost_chart.base_point(xi)
    np.testing.assert_allclose(boost_chart.surface.metric(q),
                               np.diag([0.64, 1.0, 1.0]), atol=1e-10)
    patch = chart_spatial_patch(boost_chart)
    sigma, inverse, sqrt_det = patch.factors(xi)
    np.testing.assert_allclose(sigma, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(inverse, np.eye(3), atol=1e-10)
    g = patch.noise_factor(xi)
    np.testing.assert_allclose(g @ g.T, inverse, atol=1e-12)
    assert sqrt_det == pytest.approx(1.0, abs=1e-10)


def test_chart_spatial_patch_plane_wave_identity(boost_chart):
    # in chart coordinates the 0.6c wave's slice is Euclidean, while the
    # base-coordinate graph metric is diag(0.64, 1, 1)
    pts = np.random.default_rng(40).uniform(-1.0, 1.0, size=(2, 6, 3))
    patch = chart_spatial_patch(boost_chart)
    np.testing.assert_allclose(patch.metric(pts),
                               np.broadcast_to(np.eye(3), (2, 6, 3, 3)),
                               rtol=0.0, atol=1e-12)
    assert patch.sqrt_det(pts[0, 0]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(boost_chart.surface.metric(
        boost_chart.base_point(pts[0, 0])), np.diag([0.64, 1.0, 1.0]),
        atol=1e-12)


def test_chart_spatial_patch_matches_pointwise_congruence(packet9_chart):
    pts = np.random.default_rng(41).uniform(-1.0, 1.0, size=(7, 3))
    e_inv = packet9_chart.frame_matrix_inv
    surface = packet9_chart.surface
    single = np.stack([
        e_inv.T @ surface.metric(packet9_chart.base_point(q)) @ e_inv
        for q in pts
    ])
    np.testing.assert_allclose(chart_spatial_patch(packet9_chart).metric(pts),
                               single, rtol=0.0, atol=1e-12)


def test_chart_patch_flatness(packet9_chart):
    patch = chart_spatial_patch(packet9_chart)
    pts = np.array([
        [0.0, 0.0, 0.0],
        [0.8, -0.5, 0.3],
        [-0.6, 0.9, -0.7],
    ])
    report = flatness_report(patch, pts, budget=1e-3)
    assert report["flat"] is True
    assert report["max_riemann"] < 1e-3


def test_geometry_diagnostics_packet(packet9_chart):
    diag = geometry_diagnostics(packet9_chart, half_width=0.8, n_per_axis=2)
    assert diag["max_abs_g0i"] < 1e-4
    assert diag["max_abs_g00_deviation"] < 1e-4
    assert diag["flatness"]["max_riemann"] < 1e-3
    eig = np.asarray(diag["sigma_eigenvalues"])
    assert np.all(eig > 0)


# --- batched evaluation -----------------------------------------------------

def _point_batches(lo, hi):
    """(n, 3) arrays with n >= 1 inside the box [lo, hi] per axis."""
    coords = st.tuples(*[
        st.floats(a, b, allow_nan=False, allow_infinity=False)
        for a, b in zip(lo, hi)
    ])
    return st.lists(coords, min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=float))


# name -> (patch factory, coordinate box keeping sigma positive definite)
BATCHED_PATCHES = {
    "polar_flat": (polar_flat_patch, ((0.2, -3.0, -2.0), (3.0, 3.0, 2.0))),
    "unit_sphere": (unit_sphere_patch, ((0.2, -3.0, -2.0), (2.9, 3.0, 2.0))),
    "polar_flat_fd": (lambda: polar_flat_patch(analytic_derivatives=False),
                      ((0.2, -3.0, -2.0), (3.0, 3.0, 2.0))),
}
BATCHED_METHODS = ("metric", "inverse", "sqrt_det", "noise_factor",
                   "sigma_derivatives", "christoffel",
                   "christoffel_contraction")


@pytest.mark.parametrize("name", sorted(BATCHED_PATCHES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_methods_equal_pointwise_stack(name, data):
    factory, (lo, hi) = BATCHED_PATCHES[name]
    patch = factory()
    pts = data.draw(_point_batches(lo, hi))
    for method in BATCHED_METHODS:
        fn = getattr(patch, method)
        batched = np.asarray(fn(pts))
        single = [fn(p) for p in pts]
        assert batched.shape == (len(pts),) + np.shape(single[0])
        np.testing.assert_array_equal(batched, np.stack(single))
        # a leading axis of length one and a 2-d batch keep the layout
        np.testing.assert_array_equal(np.asarray(fn(pts[:1]))[0], single[0])
        grid = np.stack([pts, pts])
        np.testing.assert_array_equal(np.asarray(fn(grid))[1], batched)


@pytest.mark.parametrize("name", sorted(BATCHED_PATCHES))
def test_single_point_shapes(name):
    factory, (lo, hi) = BATCHED_PATCHES[name]
    patch = factory()
    q = 0.5 * (np.asarray(lo) + np.asarray(hi))
    assert patch.metric(q).shape == (3, 3)
    assert patch.inverse(q).shape == (3, 3)
    assert patch.noise_factor(q).shape == (3, 3)
    assert isinstance(patch.sqrt_det(q), float)
    assert patch.sigma_derivatives(q).shape == (3, 3, 3)
    assert patch.christoffel(q).shape == (3, 3, 3)
    assert patch.christoffel_contraction(q).shape == (3,)


def test_factors_match_separate_methods():
    patch = polar_flat_patch()
    pts = np.array([[0.7, 0.1, 0.0], [1.9, -2.0, 1.0]])
    sig, inv, root = patch.factors(pts)
    np.testing.assert_array_equal(sig, patch.metric(pts))
    np.testing.assert_array_equal(inv, patch.inverse(pts))
    np.testing.assert_array_equal(root, patch.sqrt_det(pts))
    np.testing.assert_allclose(root, pts[:, 0], rtol=1e-14)


@settings(max_examples=30, deadline=None)
@given(pts=_point_batches((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
       bad=st.floats(-3.0, -0.01), where=st.integers(0, 11))
def test_batched_not_spacelike_names_point(pts, bad, where):
    # sigma = diag(1, x, 1) fails wherever x <= 0; plant one such point
    patch = MetricPatch(lambda q: np.diag([1.0, q[0], 1.0]), name="signed")
    pts = np.abs(pts) + 0.1
    row = where % len(pts)
    pts[row, 0] = bad
    for method in ("inverse", "sqrt_det", "noise_factor", "christoffel",
                   "christoffel_contraction"):
        with pytest.raises(NotSpacelike) as err:
            getattr(patch, method)(pts)
        assert str(pts[row].tolist()) in str(err.value)


@pytest.mark.parametrize("name", ["polar_flat", "unit_sphere"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_batched_riemann_equals_pointwise_stack(name, data):
    factory, (lo, hi) = BATCHED_PATCHES[name]
    patch = factory()
    pts = data.draw(_point_batches(lo, hi))
    batched = riemann(patch, pts)
    assert batched.shape == (len(pts), 3, 3, 3, 3)
    np.testing.assert_array_equal(
        batched, np.stack([riemann(patch, p) for p in pts]))
    np.testing.assert_array_equal(riemann(patch, np.stack([pts, pts]))[1],
                                  batched)
    np.testing.assert_array_equal(
        ricci_scalar(patch, pts), [ricci_scalar(patch, p) for p in pts])


def test_batched_riemann_chart_patch(packet9_chart):
    patch = chart_spatial_patch(packet9_chart)
    pts = np.array([[0.0, 0.0, 0.0], [0.8, -0.5, 0.3], [-0.6, 0.9, -0.7],
                    [1.0, 1.0, -1.0]])
    batched = riemann(patch, pts)
    assert batched.shape == (4, 3, 3, 3, 3)
    # surface metrics of a batch may differ from single ones in the last
    # bit; the FD stencils amplify that by about 1e5
    np.testing.assert_allclose(
        batched, np.stack([riemann(patch, p) for p in pts]),
        rtol=0.0, atol=1e-12)
    assert np.max(np.abs(batched)) < 1e-3


@pytest.fixture
def height_rows(monkeypatch):
    """The row count of every ``chart.solve_height`` call, in call order."""
    import comovkit.chart as chart_module

    rows = []
    solve = chart_module.solve_height

    def counted(surface, q):
        rows.append(int(np.prod(np.shape(q)[:-1])))
        return solve(surface, q)

    monkeypatch.setattr(chart_module, "solve_height", counted)
    return rows


def test_chart_patch_solves_each_batch_once(packet9_chart, height_rows):
    # sigma and its closed-form derivatives share one height solve: the
    # 750 stencil neighbours and then the 125 centres of a 5^3 lattice
    rows = height_rows
    patch = chart_spatial_patch(packet9_chart)
    ax = np.linspace(-1.0, 1.0, 5)
    q = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    riemann(patch, q.reshape(-1, 3))
    assert rows == [750, 125]
    # the shared solve's sigma is the one ``metric`` gives
    np.testing.assert_array_equal(patch._metric_and_derivatives(q)[0],
                                  patch.metric(q))
    # a drift correction and the noise factor at the same points
    rows.clear()
    patch.christoffel_contraction(q[0])
    patch.noise_factor(q[0])
    assert rows == [25]


def test_geometry_diagnostics_solves_the_lattice_once(packet9_chart,
                                                      height_rows):
    # the pullback Jacobian's 216 rows, the curvature stencil's 162
    # neighbours, then the 27 centres, whose factorization the sigma
    # eigenvalues read back from the memo instead of solving them again
    geometry_diagnostics(packet9_chart)
    assert height_rows == [216, 162, 27]
    assert sum(height_rows) == 405


# --- fixed row blocks ---------------------------------------------------------
#
# Every MetricPatch table is built ROW_BLOCK rows at a time. Each row must
# equal the whole-batch algebra bit for bit wherever the block edges fall,
# and errors must name the same row as a whole-batch evaluation would.

SHEAR = 0.7
EDGE_SIZES = (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
              2 * ROW_BLOCK + 1)
# one block's pointwise rows, cofactors and work arrays stay under 1 kB
# a row
BLOCK_WORK = 1024 * ROW_BLOCK


def _shear_sigma(q):
    # flat space in sheared coordinates, with a z-dependent third axis
    c = SHEAR * np.cos(q[1])
    return np.array([[1.0, c, 0.0], [c, 1.0 + c * c, 0.0],
                     [0.0, 0.0, 1.0 + 0.1 * np.sin(q[2])]])


def _shear_dsigma(q):
    d = np.zeros((3, 3, 3))
    c, dc = SHEAR * np.cos(q[1]), -SHEAR * np.sin(q[1])
    d[1, 0, 1] = d[1, 1, 0] = dc
    d[1, 1, 1] = 2.0 * c * dc
    d[2, 2, 2] = 0.1 * np.cos(q[2])
    return d


BLOCK_PATCHES = {
    "analytic": lambda: MetricPatch(_shear_sigma,
                                    sigma_gradient=_shear_dsigma),
    "fd": lambda: MetricPatch(_shear_sigma),
}


def _stacked_shear_sigma(p):
    rows = [_shear_sigma(r) for r in p.reshape(-1, 3)]
    return np.array(rows).reshape(p.shape[:-1] + (3, 3))


def _closed_form_factors(sig):
    """sigma^-1 (adjugate over det), sqrt|sigma| (det from the LDL^T
    pivots) and the Cholesky factor of sigma^-1 of every row of sig
    (..., 3, 3), as whole-batch arithmetic."""
    a, b, c = sig[..., 0, 0], sig[..., 1, 0], sig[..., 2, 0]
    d, e, f = sig[..., 1, 1], sig[..., 2, 1], sig[..., 2, 2]
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    p2 = d - b * (b / a)
    t = e - c * (b / a)
    det = a * p2 * (f - c * (c / a) - t * (t / p2))
    inv = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1)
    inv = (inv / det[..., None]).reshape(sig.shape)
    g = np.zeros_like(inv)
    g[..., 0, 0] = np.sqrt(inv[..., 0, 0])
    g[..., 1:, 0] = inv[..., 1:, 0] / g[..., :1, 0]
    g[..., 1, 1] = np.sqrt(inv[..., 1, 1] - g[..., 1, 0] ** 2)
    g[..., 2, 1] = ((inv[..., 2, 1] - g[..., 2, 0] * g[..., 1, 0])
                    / g[..., 1, 1])
    g[..., 2, 2] = np.sqrt(inv[..., 2, 2] - g[..., 2, 0] * g[..., 2, 0]
                           - g[..., 2, 1] * g[..., 2, 1])
    return inv, np.sqrt(det), g


def _whole_batch(name, q):
    """Every table of the rows q from whole-batch closed-form algebra."""
    sig = _stacked_shear_sigma(q)
    inv, root, g = _closed_form_factors(sig)
    if name == "analytic":
        d = np.array([_shear_dsigma(r) for r in q])
    else:
        d = central_gradient(_stacked_shear_sigma, q, FD_STEP)
    term = np.swapaxes(d, -3, -2) + np.moveaxis(d, -3, -1) - d
    v = (np.einsum("...jk,...jlk->...l", inv, d)
         - 0.5 * np.einsum("...jk,...ljk->...l", inv, d))
    return {
        "metric": sig,
        "inverse": inv,
        "sqrt_det": root,
        "noise_factor": g,
        "sigma_derivatives": d,
        "christoffel": 0.5 * np.einsum("...il,...ljk->...ijk", inv, term),
        "christoffel_contraction": np.einsum("...il,...l->...i", inv, v),
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(BLOCK_PATCHES))
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_block_edges_match_whole_batch(name, n):
    q = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, 3))
    patch = BLOCK_PATCHES[name]()
    want = _whole_batch(name, q)
    sig, inv, root = patch.factors(q)
    assert _same_bits(sig, want["metric"])
    assert _same_bits(inv, want["inverse"])
    assert _same_bits(root, want["sqrt_det"])
    for method, ref in want.items():
        assert _same_bits(getattr(patch, method)(q), ref), method


def test_not_spacelike_names_the_first_bad_row_of_a_later_block():
    patch = MetricPatch(lambda q: np.diag([1.0, q[0], 1.0]), name="signed")
    pts = np.random.default_rng(9).uniform(0.1, 2.0,
                                           size=(2 * ROW_BLOCK + 1, 3))
    first = ROW_BLOCK + 3
    pts[[first, 2 * ROW_BLOCK], 0] = [-0.5, -0.25]
    for method in ("inverse", "sqrt_det", "noise_factor", "christoffel",
                   "christoffel_contraction"):
        with pytest.raises(NotSpacelike) as err:
            getattr(patch, method)(pts)
        assert str(pts[first].tolist()) in str(err.value)
        # sigma_00, the leading 2 x 2 minor and det
        assert "leading minors [1.0, -0.5, -0.5]" in str(err.value)


def test_wrong_shape_in_a_later_block_is_refused():
    pts = np.zeros((2 * ROW_BLOCK + 1, 3))
    pts[ROW_BLOCK + 5, 0] = 1.0

    def sigma(q):
        return np.eye(3) if q[0] < 0.5 else np.eye(2)

    # one row of another shape inside the second block
    with pytest.raises(ValueError, match="sigma must evaluate"):
        MetricPatch(sigma).metric(pts)
    # the last block, one row, all of another shape
    pts[ROW_BLOCK + 5, 0] = 0.0
    pts[-1, 0] = 1.0
    with pytest.raises(ValueError, match=r"got \(2, 2\)"):
        MetricPatch(sigma).factors(pts)
    gradient = MetricPatch(
        lambda q: np.eye(3),
        sigma_gradient=lambda q: np.zeros((3, 3, 3)) if q[0] < 0.5 else 0.0)
    with pytest.raises(ValueError, match="sigma_gradient must evaluate"):
        gradient.christoffel(pts)


@pytest.mark.parametrize("name", sorted(BLOCK_PATCHES))
def test_empty_batch_gives_empty_tables(name):
    patch = BLOCK_PATCHES[name]()
    q = np.empty((0, 3))
    sig, inv, root = patch.factors(q)
    assert sig.shape == inv.shape == (0, 3, 3)
    assert root.shape == (0,)
    assert patch.noise_factor(q).shape == (0, 3, 3)
    assert patch.sigma_derivatives(q).shape == (0, 3, 3, 3)
    assert patch.christoffel(q).shape == (0, 3, 3, 3)
    assert patch.christoffel_contraction(q).shape == (0, 3)
    assert isinstance(patch.sqrt_det(np.array([0.3, -0.2, 0.1])), float)


def test_factors_hold_their_tables_and_one_block():
    # held per row: sigma and sigma^-1 (72 B each), sqrt|sigma| (8 B) and
    # the memo's key bytes (24 B); everything else is one block's work.
    # A whole-batch factorization peaks at about 313 B a row.
    n = 1 << 16
    q = np.random.default_rng(11).uniform(-2.0, 2.0, size=(n, 3))
    patch = BLOCK_PATCHES["analytic"]()
    (sig, _, _), peak = traced_peak(lambda: patch.factors(q))
    assert sig.shape == (n, 3, 3)
    assert peak <= (72 + 72 + 8 + 24) * n + BLOCK_WORK


# --- closed-form 3 x 3 algebra against LAPACK ---------------------------------
#
# sigma^-1, sqrt|sigma|, the noise factor and the drift contraction are
# closed-form column arithmetic. The LAPACK routines they replace are the
# oracles here: each result agrees with its oracle within KAPPA_C kappa eps
# of the oracle's largest entry, kappa = cond(sigma) up to 1e8.

EPS = np.finfo(float).eps
KAPPA_C = 32
# (seed, log10 kappa, log10 scale) of one random symmetric matrix
_MATRIX = st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 8.0),
                    st.floats(-3.0, 3.0))


def _symmetric(seed, log_kappa, log_scale, signs=(1.0, 1.0, 1.0)):
    """A symmetric matrix in a random frame with eigenvalues signs times
    10^log_scale (1, 10^-log_kappa, a log-uniform value between)."""
    rng = np.random.default_rng(seed)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    logs = np.array([0.0, -log_kappa, rng.uniform(-log_kappa, 0.0)])
    m = (rot * (np.asarray(signs) * 10.0 ** (log_scale + logs))) @ rot.T
    return 0.5 * (m + m.T)


def _table_patch(mats, grads=None):
    """A patch with sigma = mats[i] and D = grads[i] at the point (i, 0,
    0), and those points."""
    patch = MetricPatch(lambda q: mats[int(q[0])], sigma_gradient=(
        None if grads is None else lambda q: grads[int(q[0])]))
    q = np.zeros((len(mats), 3))
    q[:, 0] = np.arange(len(mats))
    return patch, q


def _row_max(x):
    return np.max(np.abs(x), axis=tuple(range(1, x.ndim)))


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_MATRIX, min_size=1, max_size=8))
def test_closed_form_algebra_matches_lapack(specs):
    mats = [_symmetric(*spec) for spec in specs]
    grads = np.array([np.random.default_rng(seed + 1).normal(size=(3, 3, 3))
                      * 10.0 ** log_scale for seed, _, log_scale in specs])
    grads += np.swapaxes(grads, -1, -2)
    patch, q = _table_patch(mats, grads)
    sig, inv, root = patch.factors(q)
    w, v = np.linalg.eigh(sig)
    tol = KAPPA_C * EPS * w[:, -1] / w[:, 0]
    inv_ref = (v / w[:, None, :]) @ np.swapaxes(v, -1, -2)
    assert np.all(_row_max(inv - inv_ref) <= tol * _row_max(inv_ref))
    root_ref = np.sqrt(np.prod(w, axis=-1))
    assert np.all(np.abs(root - root_ref) <= tol * root_ref)
    # the Cholesky factor of the patch's own sigma^-1
    g_ref = np.linalg.cholesky(inv)
    assert np.all(_row_max(patch.noise_factor(q) - g_ref)
                  <= tol * _row_max(g_ref))
    # sigma^{jk} Gamma^i_jk over the Gamma table; its terms are of size
    # |sigma^-1|^2 |D|
    term = np.swapaxes(grads, -3, -2) + np.moveaxis(grads, -3, -1) - grads
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", inv_ref, term)
    contr_ref = np.einsum("...jk,...ijk->...i", inv_ref, gamma)
    assert np.all(_row_max(patch.christoffel_contraction(q) - contr_ref)
                  <= tol * _row_max(inv_ref) ** 2 * _row_max(grads))


_SIGN = st.sampled_from([-1.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                                st.floats(0.0, 6.0), st.floats(-3.0, 3.0),
                                st.tuples(_SIGN, _SIGN, _SIGN)),
                      min_size=1, max_size=8))
def test_sylvester_agrees_with_eigenvalue_signs(specs):
    # every smallest |eigenvalue| is at least 1e-6 of the largest
    mats = [_symmetric(*spec) for spec in specs]
    patch, q = _table_patch(mats)
    definite = [np.linalg.eigvalsh(m)[0] > 0.0 for m in mats]
    if all(definite):
        patch.factors(q)
        return
    with pytest.raises(NotSpacelike) as err:
        patch.factors(q)
    assert f"at {q[definite.index(False)].tolist()}:" in str(err.value)


def test_noise_factor_refuses_a_pivot_that_is_not_positive():
    # sigma is positive definite with det 2^-52, but sigma^-1 rounds to a
    # matrix whose second Cholesky pivot is 0: a typed error, not NaN rows
    # or a LinAlgError
    sigma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 2.0 ** -52, 0.0],
                      [0.0, 0.0, 1.0]])
    patch = MetricPatch(lambda q: sigma)
    q = np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert patch.sqrt_det(q[0]) == 2.0 ** -26
    with pytest.raises(NotSpacelike,
                       match=r"Cholesky factor at \[0.5, 0.0, 0.0\]"):
        patch.noise_factor(q)


def test_curved_step_and_energy_quadrature_call_no_lapack(monkeypatch):
    calls = {"eigh": 0, "cholesky": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    patch = BLOCK_PATCHES["analytic"]()
    config = DiffusionConfig(dt=0.01, horizon=0.1, n_paths=600,
                             master_seed=5, nu=0.5,
                             initial=("point", (0.3, 0.2, 0.1)),
                             burn_in_fraction=0.0, n_snapshots=1)
    simulate(drift_from_fields(lambda q: -q, patch, 0.5), patch, config)
    expectation_u2(lambda q: np.exp(-0.5 * np.sum(q * q, axis=-1)), patch,
                   Box((-6.0,) * 3, (6.0,) * 3), 0.5, order=8,
                   grad_log_density=lambda q: -q)
    assert calls == {"eigh": 0, "cholesky": 0}


# --- closed-form slice derivatives and the Gauss equation ---------------------

# a common wavevector added to every mode: the packet moves at about 0.5c
# and its slice tilts (|grad f| up to 0.35), which brings every term of the
# implicit height Hessian into play; at rest the S_00 f_i f_k term is
# below the stencil error
MOVING = (0.4, -0.3, 0.2)


def _shipped_packet_chart(constants, scale=1.0, carrier=(0.0, 0.0, 0.0)):
    """Chart of the shipped packet_9mode field, wavevectors times scale
    plus carrier.

    Its side modes are not paired at +-k, so the origin leaf is curved;
    the symmetric test packet's leaf through the origin is the flat x0 = 0.
    """
    spec = json.loads((SCENARIOS / "packet_9mode.json").read_text())["field"]
    bundle = make_packet(scale * np.asarray(spec["wavevectors"]) + carrier,
                         spec["weights"],
                         Box(spec["domain"]["lo"], spec["domain"]["hi"]),
                         constants)
    return ComovingChart(bundle, origin=np.zeros(4))


def _richardson_bound(fd, h):
    """Twice the Richardson estimate of the O(h^2) error of a central
    difference at step h: the error is (4/3)(fd(h) - fd(h/2)) up to
    O(h^4), and the factor two covers that remainder."""
    return 2.0 * (4.0 / 3.0) * float(np.max(np.abs(fd(h) - fd(0.5 * h))))


@pytest.mark.parametrize("carrier", [(0.0, 0.0, 0.0), MOVING])
def test_surface_sigma_derivatives_match_central_differences(constants,
                                                             carrier):
    chart = _shipped_packet_chart(constants, carrier=carrier)
    patch = chart_spatial_patch(chart)
    q = np.random.default_rng(50).uniform(-1.0, 1.0, size=(6, 3))
    exact = patch.sigma_derivatives(q)
    assert exact.shape == (6, 3, 3, 3)
    # symmetric in j, k up to the round-off of E^T f_ik E and E^T f
    np.testing.assert_allclose(
        exact, np.swapaxes(exact, -1, -2), rtol=0.0,
        atol=8.0 * np.finfo(float).eps * float(np.max(np.abs(exact))))

    def fd(h):
        return central_gradient(patch.metric, q, h)

    # round-off of the stencil: sigma entries of order one, divided by 2h
    roundoff = 8.0 * np.finfo(float).eps / FD_STEP
    tol = _richardson_bound(fd, FD_STEP) + roundoff
    err = float(np.max(np.abs(exact - fd(FD_STEP))))
    assert err <= tol, (err, tol)
    # the bound is far below the derivatives it checks
    assert tol < 1e-3 * float(np.max(np.abs(exact)))


def test_slice_log_gradient_matches_central_differences(constants):
    # the moving carrier tilts the leaf (|f| up to 0.35), so the d_0 p f
    # term of the closed form carries weight
    chart = _shipped_packet_chart(constants, carrier=MOVING)
    bundle = chart.bundle
    rho, grad_log_rho = slice_density(bundle, chart)
    xi = np.random.default_rng(52).uniform(-1.0, 1.0, size=(16, 3))
    exact = grad_log_rho(xi)

    def fd(h):
        return central_gradient(
            lambda p: np.log(rho(p.reshape(-1, 3))).reshape(p.shape[:-1]),
            xi, h)

    x = chart.surface.embed(chart.base_point(xi))
    p, dp = bundle.density(x), bundle.density_gradient(x)
    # round-off of the stencil: ln rho to 8 eps, and the leaf height,
    # solved to 1e-10 of the phase scale, moves it by up to |d_0 ln p|
    # times that over |S_0|; each difference is divided by 2h
    height = 1e-10 * chart.surface.scale / float(
        np.min(np.abs(bundle.phase_gradient(x)[:, 0])))
    roundoff = (8.0 * np.finfo(float).eps
                + float(np.max(np.abs(dp[:, 0] / p))) * height) / DEFAULT_H
    tol = _richardson_bound(fd, DEFAULT_H) + roundoff
    err = float(np.max(np.abs(exact - fd(DEFAULT_H))))
    assert err <= tol, (err, tol)
    assert tol < 1e-6 * float(np.max(np.abs(exact)))
    # known-failure control: without the d_0 p f term, the gradient of p
    # along the inertial axes alone misses by far more than the bound
    flat = (dp[:, 1:] / p[:, None]) @ chart.frame_matrix_inv
    assert float(np.max(np.abs(flat - fd(DEFAULT_H)))) > 1e3 * tol


def _gauss_riemann(chart, xi, sign=-1.0):
    """R_abcd = sign (K_ac K_bd - K_ad K_bc) of the origin level set at
    spatial chart coordinates xi, in those coordinates.

    The level set is the graph x0 = f(q) with f_i = -S_i / S_0 and, from
    differentiating S(f(q), q) = const twice, f_ik = -(S_ik + S_i0 f_k +
    S_0k f_i + S_00 f_i f_k) / S_0; its second fundamental form over q is
    K_ij = f_ij / sqrt(1 - |f|^2). The Gauss equation of a spacelike
    hypersurface in Minkowski space takes sign = -1 (O'Neill,
    Semi-Riemannian Geometry, 1983, ch. 4). At q = q0 + E0^-1 xi the
    tensor over q carries E0^-1 on each of its four indices to xi.
    """
    x = chart.surface.embed(chart.base_point(xi))
    s1 = chart.bundle.phase_gradient(x)
    s2 = chart.bundle.phase_hessian(x)
    f = -s1[:, 1:] / s1[:, :1]
    fik = -(s2[:, 1:, 1:] + s2[:, 1:, :1] * f[:, None, :]
            + f[:, :, None] * s2[:, :1, 1:]
            + s2[:, :1, :1] * f[:, :, None] * f[:, None, :]) / s1[:, :1, None]
    k = fik / np.sqrt(1.0 - np.sum(f * f, axis=-1))[:, None, None]
    r = sign * (np.einsum("njl,nkm->njklm", k, k)
                - np.einsum("njm,nkl->njklm", k, k))
    e = chart.frame_matrix_inv
    return np.einsum("njklm,ja,kb,lc,md->nabcd", r, e, e, e, e)


@pytest.mark.parametrize("scale, carrier", [(1.0, (0.0, 0.0, 0.0)),
                                            (4.0, (0.0, 0.0, 0.0)),
                                            (1.0, MOVING)])
def test_chart_slice_riemann_obeys_gauss_equation(constants, scale, carrier):
    chart = _shipped_packet_chart(constants, scale, carrier)
    patch = chart_spatial_patch(chart)
    xi = np.random.default_rng(51).uniform(-1.0, 1.0, size=(5, 3))

    def lowered(h):
        return np.einsum("nji,niklm->njklm", patch.metric(xi),
                         riemann(patch, xi, h=h))

    gauss = _gauss_riemann(chart, xi)
    scale_r = float(np.max(np.abs(gauss)))
    tol = _richardson_bound(lowered, DEFAULT_H)
    err = float(np.max(np.abs(lowered(DEFAULT_H) - gauss)))
    assert err <= tol, (err, tol)
    assert tol < 1e-2 * scale_r
    # known-failure control: the Riemannian sign misses by about 2 |R|
    wrong = float(np.max(np.abs(lowered(DEFAULT_H)
                                - _gauss_riemann(chart, xi, sign=1.0))))
    assert wrong > 1.9 * scale_r
    assert wrong > 100.0 * tol
