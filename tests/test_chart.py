"""Chart construction: curves, level surfaces, maps, boost equivalence."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from comovkit.chart import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    FLOW_STEPS,
    ComovingChart,
    FlowStats,
    ReferenceSurface,
    TimeConvention,
    _arc_rhs,
    _integrate,
    _phase_flow,
    boost_to_rest_frame,
    bracketed_roots,
    chart_diagnostics,
    flow_to_level,
    solve_height,
)
from comovkit.constants import PhysicalConstants
from comovkit.errors import (
    HypothesesFailed,
    LeftDomain,
    NoBracket,
    OutOfDomain,
    RootFailure,
    StepFailure,
    ZeroSlope,
)
from comovkit.fields import (
    Box,
    FieldBundle,
    SpacetimePoint,
    four_velocity_contravariant,
    make_packet,
    make_plane_wave,
)


def test_arc_flow_boost_line(boost_wave):
    # straight line with slope v/c = 0.6 and unit arc rate
    arcs = np.array([-1.5, -0.3, 0.7, 2.0])
    pts = _integrate(_arc_rhs(boost_wave), np.zeros((4, 4)), arcs,
                     boost_wave.domain, DEFAULT_RTOL, DEFAULT_ATOL, None)
    np.testing.assert_allclose(pts, arcs[:, None] * [1.25, 0.75, 0.0, 0.0],
                               atol=1e-8)
    assert np.all(pts[:, 1] / pts[:, 0] == pytest.approx(0.6, abs=1e-9))
    # the Minkowski length of each chord is its arc
    np.testing.assert_allclose(np.sqrt(pts[:, 0] ** 2 - pts[:, 1] ** 2),
                               np.abs(arcs), atol=1e-8)
    # the phase flow's arc state advances at the same unit rate
    level = boost_wave.phase(pts)
    ends = _phase_flow(boost_wave, np.zeros((4, 4)), level, DEFAULT_RTOL,
                       DEFAULT_ATOL, None)
    np.testing.assert_allclose(ends[:, :4], pts, atol=1e-8)
    np.testing.assert_allclose(ends[:, 4], arcs, atol=1e-8)


def test_arc_flow_packet_residual(packet9):
    # re-evaluation oracle: the flowed curve satisfies dx/dlambda = V/|V|
    h = 1e-5
    arcs = np.linspace(0.1, 1.9, 7)
    spans = np.concatenate([arcs + h, arcs - h, arcs])
    pts = _integrate(_arc_rhs(packet9), np.zeros((len(spans), 4)), spans,
                     packet9.domain, DEFAULT_RTOL, DEFAULT_ATOL, None)
    plus, minus, mid = np.split(pts, 3)
    v = four_velocity_contravariant(packet9)(mid)
    unit = v / np.sqrt(v[:, :1] ** 2 - np.sum(v[:, 1:] ** 2, axis=1,
                                             keepdims=True))
    np.testing.assert_allclose((plus - minus) / (2 * h), unit, atol=1e-6)
    # the phase falls strictly along the curve
    assert np.all(np.diff(packet9.phase(mid)) < 0)


def test_solve_height_rest_and_boost(rest_chart, boost_chart):
    rng = np.random.default_rng(21)
    for q in rng.uniform(-2, 2, size=(5, 3)):
        assert rest_chart.surface.height(q) == pytest.approx(0.0, abs=1e-10)
        # level sets of the boosted wave are tilted planes x0 = 0.6 q1
        assert boost_chart.surface.height(q) == pytest.approx(
            0.6 * q[0], abs=1e-10
        )


def test_solve_height_packet_residual(packet9_chart):
    surface = packet9_chart.surface
    rng = np.random.default_rng(22)
    for q in rng.uniform(-2, 2, size=(8, 3)):
        x = surface.embed(q)
        resid = abs(float(packet9_chart.bundle.phase(x)) - surface.level)
        assert resid < 1e-10 * surface.scale


def test_surface_orthogonality(packet9_chart, boost_chart):
    rng = np.random.default_rng(23)
    for q in rng.uniform(-1.5, 1.5, size=(6, 3)):
        assert boost_chart.surface.orthogonality_residual(q) < 1e-9
        assert packet9_chart.surface.orthogonality_residual(q) < 1e-9


def test_boost_surface_metric(boost_chart):
    sigma = boost_chart.surface.metric(np.zeros(3))
    np.testing.assert_allclose(sigma, np.diag([0.64, 1.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(
        boost_chart.frame_matrix, np.diag([0.8, 1.0, 1.0]), atol=1e-10
    )


class _FlatPhaseBundle(FieldBundle):
    """Pathological field with no time dependence: S = hbar k x1."""

    def __init__(self, constants, domain):
        super().__init__(constants, domain)

    def _density(self, x):
        return np.ones(np.asarray(x).shape[:-1])

    def _density_gradient(self, x):
        return np.zeros(np.asarray(x).shape)

    def _phase(self, x):
        return np.asarray(x)[..., 1].copy()

    def _phase_gradient(self, x):
        g = np.zeros(np.asarray(x).shape)
        g[..., 1] = 1.0
        return g

    def _phase_hessian(self, x):
        return np.zeros(np.asarray(x).shape + (4,))


def test_solve_height_zero_slope():
    bundle = _FlatPhaseBundle(PhysicalConstants(), Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    with pytest.raises(ZeroSlope):
        solve_height(surface, np.array([0.5, 0.0, 0.0]))


def test_solve_height_no_bracket():
    # level unreachable inside the bounded x0 range
    bundle = make_plane_wave([0.0, 0.0, 0.0],
                             domain=Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    surface.level = 5.0  # S = -x0 only spans [-1, 1] in the domain
    with pytest.raises(NoBracket):
        solve_height(surface, np.zeros(3))


def _base_batches(half):
    """(n, 3) base points with n >= 1 inside [-half, half]^3."""
    coord = st.floats(-half, half, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(coord, coord, coord), min_size=1,
                    max_size=10).map(lambda rows: np.array(rows, dtype=float))


@settings(max_examples=25, deadline=None)
@given(qs=_base_batches(2.0))
def test_batched_surface_equals_pointwise(packet9_chart, boost_chart, qs):
    # a batched phase or gradient row may differ from a single one in the
    # last bit (other BLAS kernels), far below the solver's 1e-10 tolerance
    atol = 1e-12
    for chart in (boost_chart, packet9_chart):
        surface = chart.surface
        heights = solve_height(surface, qs)
        single = np.array([solve_height(surface, q) for q in qs])
        assert heights.shape == (len(qs),)
        assert isinstance(solve_height(surface, qs[0]), float)
        np.testing.assert_allclose(heights, single, rtol=0.0, atol=atol)
        metric = surface.metric(qs)
        assert metric.shape == (len(qs), 3, 3)
        np.testing.assert_allclose(
            metric, np.stack([surface.metric(q) for q in qs]),
            rtol=0.0, atol=atol)
        # a 2-d batch keeps its layout
        grid = np.stack([qs, qs[::-1]])
        np.testing.assert_allclose(surface.height(grid),
                                   np.stack([heights, heights[::-1]]),
                                   rtol=0.0, atol=atol)
        assert surface.embed(grid).shape == (2, len(qs), 4)
        assert surface.orthogonality_residual(grid).shape == (2, len(qs))


def test_batched_solve_height_zero_slope_names_point():
    bundle = _FlatPhaseBundle(PhysicalConstants(), Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    qs = np.array([[0.5, 0.0, 0.0], [0.1, -0.2, 0.3]])
    with pytest.raises(ZeroSlope, match=r"\[0\.5, 0\.0, 0\.0\]"):
        solve_height(surface, qs)


def test_batched_solve_height_no_bracket_names_point():
    # level sets of the boosted wave are x0 = 0.6 q1: only q1 = 1.9 puts
    # the root outside the domain's x0 range [-1, 1]
    bundle = make_plane_wave([0.75, 0.0, 0.0],
                             domain=Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    qs = np.array([[0.1, 0.0, 0.0], [1.9, 0.0, 0.0], [-0.3, 0.2, 0.0]])
    with pytest.raises(NoBracket, match=r"\[1\.9, 0\.0, 0\.0\]"):
        solve_height(surface, qs)
    np.testing.assert_allclose(solve_height(surface, qs[[0, 2]]),
                               [0.06, -0.18], atol=1e-12)


def _row_family(func, params):
    """func(x, p) over a batch, one parameter per row."""
    return lambda x, rows: func(x, params[rows])


@pytest.mark.parametrize("case", ["cubic", "exp", "arctan"])
def test_bracketed_roots_match_brentq(case):
    # scipy's brentq is an independent oracle; the old callers used
    # xtol = 1e-14 (1 + |x0|) and 1e-13 (1 + |lam|)
    rng = np.random.default_rng(41)
    func, params, lo, hi, exact = {
        "cubic": (lambda x, c: x ** 3 - c, rng.uniform(-8.0, 8.0, 40),
                  -3.0, 3.0, np.cbrt),
        "exp": (lambda x, c: np.exp(x) - c, rng.uniform(0.1, 10.0, 40),
                -5.0, 5.0, np.log),
        "arctan": (lambda x, c: np.arctan(x) - c, rng.uniform(-1.2, 1.2, 40),
                   -30.0, 30.0, np.tan),
    }[case]
    xtol = 1e-13
    roots = bracketed_roots(_row_family(func, params),
                            np.full(params.shape, lo), hi, xtol)
    oracle = np.array([brentq(lambda x, c=c: func(x, c), lo, hi, xtol=xtol)
                       for c in params])
    np.testing.assert_allclose(roots, oracle, rtol=0.0, atol=xtol)
    np.testing.assert_allclose(roots, exact(params), rtol=0.0, atol=xtol)


def test_bracketed_roots_endpoints_and_failures():
    # roots on the lower end, on the upper end, inside, and in a bracket
    # given high end first
    c = np.array([-1.0, 2.0, 0.25, 0.5])
    lo = np.array([-1.0, -1.0, -1.0, 2.0])
    hi = np.array([2.0, 2.0, 2.0, -1.0])
    roots = bracketed_roots(lambda x, rows: x - c[rows], lo, hi, 1e-14)
    assert roots[0] == -1.0 and roots[1] == 2.0
    np.testing.assert_allclose(roots[2:], [0.25, 0.5], rtol=0.0, atol=1e-14)
    with pytest.raises(RootFailure, match="3 iterations"):
        bracketed_roots(lambda x, rows: np.exp(x) - 2.0, [0.0, -1.0], 1.0,
                        1e-14, max_iter=3)
    with pytest.raises(NoBracket, match="no sign change"):
        bracketed_roots(lambda x, rows: x - 5.0, [0.0, 0.0], [6.0, 1.0], 1e-14)


def test_custom_nonlinear_time_gauge(packet9):
    # lambda = sinh(xi0), so g00 = -cosh^2 and xi0 = arcsinh(lambda)
    tc = TimeConvention(name="sinh",
                        metric_time_time=lambda t: -np.cosh(t) ** 2,
                        arc_primitive=np.sinh)
    lams = np.linspace(-3.0, 40.0, 12).reshape(3, 4)
    times = tc.time_from_lambda(lams)
    assert times.shape == (3, 4)
    np.testing.assert_array_equal(
        times, np.reshape([tc.time_from_lambda(v) for v in lams.ravel()],
                          (3, 4)))
    assert isinstance(tc.time_from_lambda(0.5), float)
    np.testing.assert_allclose(times, np.arcsinh(lams), rtol=0.0,
                               atol=1e-13 * (1.0 + np.abs(lams)).max())
    assert tc.time_from_lambda(0.0) == 0.0
    chart = ComovingChart(packet9, origin=np.zeros(4), time_convention=tc)
    default = ComovingChart(packet9, origin=np.zeros(4))
    x = np.random.default_rng(42).uniform(-1.5, 1.5, size=(6, 4))
    xi = chart.forward_map(x)
    xi_d = default.forward_map(x)
    np.testing.assert_allclose(xi[:, 0], np.arcsinh(xi_d[:, 0]), atol=1e-12)
    np.testing.assert_allclose(xi[:, 1:], xi_d[:, 1:], atol=1e-12)
    np.testing.assert_allclose(chart.inverse_map(xi), x, atol=1e-7)


def test_solve_height_bracket_fallback_batch(monkeypatch):
    # from a guess of 1e12 the trust-capped Newton only halves its distance
    # per iteration, so every point falls back to the batched bracket
    import comovkit.chart as chart_module

    bundle = make_plane_wave([0.75, 0.0, 0.0],
                             domain=Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    batches = []
    fallback = chart_module._bracket_heights

    def spy(surface, q, *args):
        batches.append(len(q))
        return fallback(surface, q, *args)

    monkeypatch.setattr(chart_module, "_bracket_heights", spy)
    qs = np.random.default_rng(43).uniform(-1.0, 1.0, size=(7, 3))
    heights = solve_height(surface, qs, guess=1e12)
    assert batches == [7]
    np.testing.assert_allclose(heights, 0.6 * qs[:, 0], rtol=0.0, atol=1e-12)
    single = [solve_height(surface, q, guess=1e12) for q in qs]
    np.testing.assert_allclose(heights, single, rtol=0.0, atol=1e-14)
    bad = np.vstack([qs[:3], [[1.9, 0.0, 0.0]], qs[3:]])
    with pytest.raises(NoBracket, match=r"\[1\.9, 0\.0, 0\.0\]"):
        solve_height(surface, bad, guess=1e12)


def test_inverse_map_threads_match_serial(packet9):
    # two threads start together on one fresh chart, forwards and backwards
    # in time; the chart keeps no mutable state, so both match serial calls
    xis = np.random.default_rng(30).uniform(-0.5, 0.5, size=(6, 4))
    xis[:, 0] = [0.4, -0.4, 1.5, -1.5, 2.6, -2.6]
    serial = ComovingChart(packet9, origin=np.zeros(4)).inverse_map(xis)

    def work(chart, barrier, k, results, errors):
        try:
            barrier.wait()
            results[k] = chart.inverse_map(xis)
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # a lost update needs an unlucky interleaving: try a few fresh charts
        for _ in range(3):
            shared = ComovingChart(packet9, origin=np.zeros(4))
            barrier = threading.Barrier(2, timeout=60)
            results, errors = [None, None], []
            threads = [
                threading.Thread(target=work,
                                 args=(shared, barrier, k, results, errors))
                for k in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            for result in results:
                np.testing.assert_array_equal(result, serial)
    finally:
        sys.setswitchinterval(old)


def test_forward_map_is_identity_for_rest_field(rest_chart):
    rng = np.random.default_rng(24)
    pts = rng.uniform(-2, 2, size=(20, 4))
    mapped = rest_chart.forward_map(pts)
    np.testing.assert_allclose(mapped, pts, atol=1e-8)


def test_forward_map_matches_lorentz_boost(boost_chart):
    lam = boost_to_rest_frame([0.6, 0.0, 0.0])
    np.testing.assert_allclose(
        lam[:2, :2], [[1.25, -0.75], [-0.75, 1.25]], atol=1e-14
    )
    rng = np.random.default_rng(25)
    pts = rng.uniform(-2, 2, size=(25, 4))
    mapped = boost_chart.forward_map(pts)
    np.testing.assert_allclose(mapped, pts @ lam.T, atol=1e-6)


def test_forward_map_sends_origin_to_zero(boost_chart, packet9_chart):
    np.testing.assert_allclose(
        boost_chart.forward_map(np.zeros(4)), np.zeros(4), atol=1e-10
    )
    np.testing.assert_allclose(
        packet9_chart.forward_map(np.zeros(4)), np.zeros(4), atol=1e-9
    )


def test_maps_keep_spacetime_point_tags(packet9_chart):
    x = SpacetimePoint((0.4, -0.3, 0.2, 0.5))
    xi = packet9_chart.forward_map(x)
    assert isinstance(xi, SpacetimePoint) and xi.frame == "comoving"
    back = packet9_chart.inverse_map(xi)
    assert isinstance(back, SpacetimePoint) and back.frame == "inertial"
    np.testing.assert_allclose(back.array, x.array, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="comoving"):
        packet9_chart.forward_map(xi)


def test_round_trip_packet(packet9_chart):
    rng = np.random.default_rng(26)
    pts = rng.uniform(-1.5, 1.5, size=(15, 4))
    err = np.abs(packet9_chart.inverse_map(packet9_chart.forward_map(pts)) - pts)
    assert err.max() < 1e-6


def test_inverse_map_matches_inverse_boost(boost_chart):
    lam_inv = np.linalg.inv(boost_to_rest_frame([0.6, 0.0, 0.0]))
    rng = np.random.default_rng(27)
    xis = rng.uniform(-1.5, 1.5, size=(10, 4))
    np.testing.assert_allclose(
        boost_chart.inverse_map(xis), xis @ lam_inv.T, atol=1e-6
    )


def test_jacobian_boost_entries(boost_chart):
    jac = boost_chart.jacobian(np.array([0.2, -0.3, 0.4, 0.1]))
    np.testing.assert_allclose(
        jac, boost_to_rest_frame([0.6, 0.0, 0.0]), atol=1e-5
    )
    assert abs(np.linalg.det(jac)) > 0.5


def test_jacobian_nonsingular_on_packet(packet9_chart):
    rng = np.random.default_rng(28)
    pts = rng.uniform(-1.0, 1.0, size=(5, 4))
    for x in pts:
        assert abs(np.linalg.det(packet9_chart.jacobian(x))) > 0.1
    # one stacked call gives the per-point Jacobians
    np.testing.assert_allclose(
        packet9_chart.jacobian(pts),
        np.stack([packet9_chart.jacobian(x) for x in pts]),
        rtol=0.0, atol=1e-10)
    assert packet9_chart.inverse_jacobian(pts.reshape(5, 1, 4)).shape == (
        5, 1, 4, 4)


def test_jacobians_make_one_map_call(packet9):
    chart = ComovingChart(packet9, origin=np.zeros(4))
    shapes = {"forward_map": [], "inverse_map": []}
    for name, calls in shapes.items():
        def counted(x, stats=None, _map=getattr(chart, name), _calls=calls):
            _calls.append(np.shape(x))
            return _map(x, stats=stats)
        setattr(chart, name, counted)
    pts = np.random.default_rng(29).uniform(-1.0, 1.0, size=(5, 4))
    jac = chart.jacobian(pts)
    inv = chart.inverse_jacobian(pts)
    chart.pushforward(four_velocity_contravariant(packet9), pts)
    assert shapes == {"forward_map": [(5, 8, 4), (5, 8, 4)],
                      "inverse_map": [(5, 8, 4)]}
    # d xi / d x and d x / d xi are inverse matrices
    back = chart.forward_map(pts)
    np.testing.assert_allclose(chart.inverse_jacobian(back) @ jac,
                               np.broadcast_to(np.eye(4), jac.shape),
                               atol=1e-5)
    assert inv.shape == (5, 4, 4)


def test_time_gauge_g00_takes_arrays():
    tc = TimeConvention(name="sinh",
                        metric_time_time=lambda t: -np.cosh(t) ** 2,
                        arc_primitive=np.sinh)
    times = np.array([0.1, 0.2])
    np.testing.assert_array_equal(tc.g00(times),
                                  [tc.g00(0.1), tc.g00(0.2)])
    assert isinstance(tc.g00(0.1), float)
    assert tc.g00(np.zeros((2, 3))).shape == (2, 3)
    proper = TimeConvention()
    assert proper.g00(0.3) == -1.0
    np.testing.assert_array_equal(proper.g00(times), [-1.0, -1.0])
    # the sign is checked on every value, not only the first
    flips = TimeConvention(name="flips",
                           metric_time_time=lambda t: np.where(t > 0.15, 1.0,
                                                               -1.0),
                           arc_primitive=lambda t: t)
    assert flips.g00(0.1) == -1.0
    with pytest.raises(ValueError):
        flips.g00(times)


def test_pushforward_kills_spatial_components(boost_chart, packet9_chart):
    v = four_velocity_contravariant(boost_chart.bundle)
    out = boost_chart.pushforward(v, np.array([0.5, 0.2, -0.1, 0.3]))
    assert out[0] == pytest.approx(1.0, abs=1e-5)
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-5)

    vp = four_velocity_contravariant(packet9_chart.bundle)
    rng = np.random.default_rng(29)
    for x in rng.uniform(-1.0, 1.0, size=(4, 4)):
        outp = packet9_chart.pushforward(vp, x)
        assert np.max(np.abs(outp[1:])) / outp[0] < 1e-4


def test_forward_map_rejects_outside_domain(packet9_chart):
    with pytest.raises(OutOfDomain):
        packet9_chart.forward_map(np.array([0.0, 17.0, 0.0, 0.0]))


def test_chart_rejects_failing_hypotheses(near_standing):
    with pytest.raises(HypothesesFailed, match="hypotheses"):
        ComovingChart(near_standing, origin=np.zeros(4))


def test_custom_time_convention_rescales_time(boost_wave):
    # g00 = -4 gauge: xi0 = lambda / 2
    tc = TimeConvention(
        name="stretched",
        metric_time_time=lambda t: -4.0,
        arc_primitive=lambda t: 2.0 * t,
    )
    chart = ComovingChart(boost_wave, origin=np.zeros(4), time_convention=tc)
    default = ComovingChart(boost_wave, origin=np.zeros(4))
    x = np.array([0.7, 0.4, -0.2, 0.9])
    xi_c = chart.forward_map(x)
    xi_d = default.forward_map(x)
    assert xi_c[0] == pytest.approx(0.5 * xi_d[0], abs=1e-9)
    np.testing.assert_allclose(xi_c[1:], xi_d[1:], atol=1e-9)
    np.testing.assert_allclose(chart.inverse_map(xi_c), x, atol=1e-7)
    assert tc.g00(0.3) == -4.0


def test_flow_to_level_matches_phase(packet9):
    x = np.array([1.2, 0.3, -0.5, 0.8])
    target = float(packet9.phase(np.zeros(4)))
    y = flow_to_level(packet9, x, target)
    assert float(packet9.phase(y)) == pytest.approx(target, abs=1e-8)
    # a batch with one target per row, and a 2-d batch with one target
    pts = np.random.default_rng(32).uniform(-1.5, 1.5, size=(2, 3, 4))
    targets = target + np.array([0.0, 0.7, -1.1])
    ys = flow_to_level(packet9, pts[0], targets)
    np.testing.assert_allclose(packet9.phase(ys), targets, atol=1e-8)
    np.testing.assert_allclose(ys[1], flow_to_level(packet9, pts[0, 1],
                                                    targets[1]),
                               rtol=0.0, atol=1e-12)
    assert flow_to_level(packet9, pts, target).shape == (2, 3, 4)


def _moving_packet():
    """Carrier at 0.6c with six side modes at bandwidth 0.2."""
    side = 0.2 * np.vstack([np.eye(3), -np.eye(3)])
    wavevectors = np.vstack([[0.75, 0.0, 0.0], [0.75, 0.0, 0.0] + side])
    weights = np.array([2.0] + [0.25] * 6)
    return make_packet(wavevectors, weights, Box((-5.0,) * 4, (5.0,) * 4))


def test_flow_refines_rows_above_tolerance():
    bundle = _moving_packet()
    pts = np.random.default_rng(31).uniform(-2.0, 2.0, size=(20, 4))
    level = float(bundle.phase(np.zeros(4)))
    coarse, fine = FlowStats(), FlowStats()
    y0 = flow_to_level(bundle, pts, level, stats=coarse)
    y1 = flow_to_level(bundle, pts, level, rtol=1e-14, atol=0.0, stats=fine)
    # the default tolerance accepts the first attempt of every row
    assert coarse.steps == FLOW_STEPS * len(pts)
    assert coarse.rhs_evaluations == (4 * FLOW_STEPS + 1) * len(pts)
    assert fine.steps > coarse.steps
    assert fine.max_error_estimate <= 1e-14 * np.max(np.abs(y1))
    np.testing.assert_allclose(bundle.phase(y1), level, rtol=0.0, atol=1e-14)
    # the third-order estimate bounds the classical step's actual error
    assert np.max(np.abs(y0 - y1)) <= coarse.max_error_estimate


def test_flow_step_failure_names_point(packet9):
    # a zero tolerance rejects every nonzero estimate up to the step cap
    chart = ComovingChart(packet9, origin=np.zeros(4), rtol=0.0, atol=0.0,
                          validate=False)
    with pytest.raises(StepFailure, match=r"\[0\.5, 0\.25, -0\.5, 1\.0\]"):
        chart.forward_map(np.array([0.5, 0.25, -0.5, 1.0]))


def test_flow_left_domain_names_point():
    # level sets of the 0.6c wave on the unit box are x0 = 0.6 x1 + const;
    # the event's curve crosses x0 = 1 before it reaches the origin level
    bundle = make_plane_wave([0.75, 0.0, 0.0],
                             domain=Box((-1.0,) * 4, (1.0,) * 4))
    chart = ComovingChart(bundle, origin=np.zeros(4))
    with pytest.raises(LeftDomain, match=r"\[-0\.9, 0\.95, 0\.0, 0\.0\]"):
        chart.forward_map(np.array([[0.1, 0.2, 0.0, 0.0],
                                    [-0.9, 0.95, 0.0, 0.0]]))


def test_flow_rejects_spacelike_gradient_names_point():
    # S = x1 has a spacelike gradient, against the chart hypotheses
    bundle = _FlatPhaseBundle(PhysicalConstants(), Box((-1.0,) * 4, (1.0,) * 4))
    with pytest.raises(HypothesesFailed,
                       match=r"not timelike at \[0\.1, 0\.2, 0\.0, 0\.0\]"):
        flow_to_level(bundle, np.array([[0.1, 0.2, 0.0, 0.0]]), 0.5)


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
def test_plane_wave_maps_equal_boost(constants, beta):
    # the flow field is constant, so RK4 is exact and both maps are the
    # closed-form boost to round-off
    gamma = 1.0 / np.sqrt(1.0 - beta ** 2)
    k = gamma * constants.mass * beta * constants.c / constants.hbar
    chart = ComovingChart(make_plane_wave([k, 0.0, 0.0], constants),
                          origin=np.zeros(4))
    lam = boost_to_rest_frame([beta * constants.c, 0.0, 0.0], c=constants.c)
    pts = np.random.default_rng(101).uniform(-2.0, 2.0, size=(100, 4))
    np.testing.assert_allclose(chart.forward_map(pts), pts @ lam.T,
                               rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(chart.inverse_map(pts @ lam.T), pts,
                               rtol=0.0, atol=1e-10)


@st.composite
def _dominant_packets(draw):
    """A carrier at rest (weight 2) and 2-8 side modes with |k| <= 0.05,
    side weights summing to at most 1.5, on [-4, 4]^4; with 3 events."""
    n_side = draw(st.integers(2, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    ks = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=n_side,
                                max_size=n_side)))
    ks *= 0.05 / np.maximum(np.linalg.norm(ks, axis=1, keepdims=True), 1.0)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_side,
                               max_size=n_side)))
    w *= min(1.0, 1.5 / w.sum())
    bundle = make_packet(np.vstack([np.zeros(3), ks]),
                         np.concatenate([[2.0], w]),
                         Box((-4.0,) * 4, (4.0,) * 4))
    coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    pts = np.array(draw(st.lists(st.tuples(coord, coord, coord, coord),
                                 min_size=3, max_size=3)))
    return bundle, pts


@settings(max_examples=15, deadline=None)
@given(case=_dominant_packets())
def test_packet_chart_invariants(case):
    bundle, pts = case
    chart = ComovingChart(bundle, origin=np.zeros(4))
    xi = chart.forward_map(pts)
    back = chart.inverse_map(xi)
    np.testing.assert_allclose(back, pts, rtol=0.0, atol=1e-6)
    # Phi^-1 of (xi0, 0, 0, 0) lies on the leaf of x
    leaf = chart.inverse_map(np.column_stack([xi[:, 0], np.zeros((3, 3))]))
    np.testing.assert_allclose(bundle.phase(leaf), bundle.phase(pts),
                               rtol=0.0, atol=1e-7)
    # batched maps agree with per-row calls
    np.testing.assert_allclose(xi, np.stack([chart.forward_map(x)
                                             for x in pts]),
                               rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(back, np.stack([chart.inverse_map(v)
                                               for v in xi]),
                               rtol=0.0, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(case=_dominant_packets(), fd=st.booleans())
def test_conjugation_is_an_involution_on_packets(case, fd):
    # conjugation negates the phase and keeps the density, exactly, in
    # either derivative mode; conjugating twice gives the bundle back
    bundle, pts = case
    if fd:
        bundle = bundle.with_fd_derivatives(1e-3)
    conj = bundle.conjugate()
    assert conj.conjugate() is bundle
    assert conj.derivative_mode == bundle.derivative_mode
    for name in ("phase", "phase_gradient", "phase_hessian"):
        np.testing.assert_array_equal(getattr(conj, name)(pts),
                                      -getattr(bundle, name)(pts))
    for name in ("density", "density_gradient", "density_hessian"):
        np.testing.assert_array_equal(getattr(conj, name)(pts),
                                      getattr(bundle, name)(pts))
    assert conj.phase_hessian(pts).shape == (len(pts), 4, 4)


def test_chart_diagnostics_report(boost_chart):
    report = chart_diagnostics(boost_chart, n_samples=10, seed=3)
    # rows of one accepted attempt each: 10 events and 10 origin copies
    # forward, 10 arcs and 10 lifts back, and 80 shifted events and 80
    # origin copies for the Jacobians
    assert report["flow_steps"] == FLOW_STEPS * 200
    assert report["flow_rhs_evaluations"] == (4 * FLOW_STEPS + 1) * 200
    assert report["max_step_error_estimate"] == 0.0
    assert report["round_trip_max"] < 1e-7
    assert report["pushforward_spatial_max"] < 1e-5
    assert report["orthogonality_max"] < 1e-9
    assert report["hypothesis_report"]["passed"] is True
