"""Geometry: metric patches, curvature, budgets, Laplace-Beltrami."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comovkit.errors import NotSpacelike
from comovkit.geometry import (
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
    spatial_metric,
    unit_sphere_patch,
)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_patch_factors_roundtrip():
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.0]))
    q = np.zeros(3)
    inv = patch.inverse(q)
    np.testing.assert_allclose(inv, np.diag([1.5625, 1.0, 1.0]), atol=1e-14)
    g = patch.noise_factor(q)
    np.testing.assert_allclose(g @ g.T, inv, atol=1e-12)
    assert patch.sqrt_det(q) == pytest.approx(0.8, abs=1e-14)


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
    # riemann: seven Christoffel rows per point, the centre and six neighbours
    patch.christoffel = counted_christoffel
    riemann(patch, pts)
    assert calls["christoffel"] == [(2, 3), (2, 6, 3)]


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
    data = spatial_metric(boost_chart, np.array([0.7, -0.3, 0.2]))
    np.testing.assert_allclose(
        data["sigma"], np.diag([0.64, 1.0, 1.0]), atol=1e-10
    )
    g = data["noise_factor"]
    np.testing.assert_allclose(g @ g.T, data["inverse"], atol=1e-12)
    assert data["sqrt_det"] == pytest.approx(0.8, abs=1e-10)


def test_chart_spatial_patch_plane_wave_identity(boost_chart):
    # in chart coordinates the 0.6c wave's slice is Euclidean, while the
    # base-coordinate graph metric is diag(0.64, 1, 1)
    pts = np.random.default_rng(40).uniform(-1.0, 1.0, size=(2, 6, 3))
    patch = chart_spatial_patch(boost_chart)
    np.testing.assert_allclose(patch.metric(pts),
                               np.broadcast_to(np.eye(3), (2, 6, 3, 3)),
                               rtol=0.0, atol=1e-12)
    assert patch.sqrt_det(pts[0, 0]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(MetricPatch.from_chart(boost_chart).metric(
        pts[0, 0]), np.diag([0.64, 1.0, 1.0]), atol=1e-12)


def test_chart_spatial_patch_matches_pointwise_congruence(packet9_chart):
    pts = np.random.default_rng(41).uniform(-1.0, 1.0, size=(7, 3))
    e_inv = packet9_chart.frame_matrix_inv
    surface = packet9_chart.surface
    single = np.stack([
        e_inv.T @ surface.metric(packet9_chart.base_origin + e_inv @ q) @ e_inv
        for q in pts
    ])
    np.testing.assert_allclose(chart_spatial_patch(packet9_chart).metric(pts),
                               single, rtol=0.0, atol=1e-12)


def test_chart_patch_flatness(packet9_chart):
    patch = MetricPatch.from_chart(packet9_chart)
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
    patch = MetricPatch.from_chart(packet9_chart)
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
