"""Chart construction: curves, level surfaces, maps, boost equivalence."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from comovkit import fields
from comovkit.chart import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    FLOW_STEPS,
    ComovingChart,
    FlowStats,
    ReferenceSurface,
    _arc_rhs,
    _integrate,
    _phase_flow,
    _phase_rhs,
    _rk4,
    boost_to_rest_frame,
    chart_diagnostics,
    flow_to_level,
    solve_height,
)
from comovkit.constants import PhysicalConstants, raise_index
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
    HYPOTHESIS_SHAPE,
    ROW_BLOCK,
    Box,
    FieldBundle,
    check_theorem_hypotheses,
    dominance_certificate,
    four_velocity,
    make_packet,
    make_plane_wave,
)
from comovkit.geometry import chart_spatial_patch
from conftest import FiniteDifferenceView, traced_peak


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
    v = raise_index(four_velocity(packet9, mid))
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


class _ParabolicPhaseBundle(FieldBundle):
    """S = x1^2 / 2 - x0, whose gradient is timelike only where |x1| < 1."""

    def _phase(self, x):
        x = np.asarray(x)
        return 0.5 * x[..., 1] ** 2 - x[..., 0]

    def _phase_gradient(self, x):
        g = np.zeros(np.asarray(x).shape)
        g[..., 0] = -1.0
        g[..., 1] = np.asarray(x)[..., 1]
        return g


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


@pytest.fixture
def fallback_batches(monkeypatch):
    """The batch sizes of solve_height's calls to its bisection fallback."""
    import comovkit.chart as chart_module

    batches = []
    fallback = chart_module._bisect_heights

    def spy(surface, q, *args):
        batches.append(len(q))
        return fallback(surface, q, *args)

    monkeypatch.setattr(chart_module, "_bisect_heights", spy)
    return batches


def test_solve_height_bracket_fallback_batch(fallback_batches):
    # Newton starts at the origin's height; moved to 1e12 after the level
    # is fixed, the trust-capped Newton only halves its distance per
    # iteration, so every point falls back to the batched bisection
    bundle = make_plane_wave([0.75, 0.0, 0.0],
                             domain=Box((-1.0,) * 4, (1.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    surface.origin[0] = 1e12
    qs = np.random.default_rng(43).uniform(-1.0, 1.0, size=(7, 3))
    heights = solve_height(surface, qs)
    assert fallback_batches == [7]
    np.testing.assert_allclose(heights, 0.6 * qs[:, 0], rtol=0.0, atol=1e-12)
    single = [solve_height(surface, q) for q in qs]
    np.testing.assert_allclose(heights, single, rtol=0.0, atol=1e-14)
    bad = np.vstack([qs[:3], [[1.9, 0.0, 0.0]], qs[3:]])
    with pytest.raises(NoBracket, match=r"\[1\.9, 0\.0, 0\.0\]"):
        solve_height(surface, bad)


class _CubicPhaseBundle(FieldBundle):
    """S = -(x0 + a x0^3) + k . q: monotone but not linear in x0."""

    a, k = 0.3, np.array([0.4, -0.2, 0.1])

    def _phase(self, x):
        x = np.asarray(x)
        return -(x[..., 0] + self.a * x[..., 0] ** 3) + x[..., 1:] @ self.k

    def _phase_gradient(self, x):
        x = np.asarray(x)
        g = np.empty(x.shape)
        g[..., 0] = -(1.0 + 3.0 * self.a * x[..., 0] ** 2)
        g[..., 1:] = self.k
        return g


def test_solve_height_fallback_matches_brentq(fallback_batches):
    # from 1e12 Newton on the cubic only takes a third of its distance per
    # iteration, so every point falls back to the bisection; scipy's brentq
    # on the same range is an independent oracle
    bundle = _CubicPhaseBundle(PhysicalConstants(),
                               Box((-2.0,) * 4, (2.0,) * 4))
    surface = ReferenceSurface(bundle, np.zeros(4))
    surface.origin[0] = 1e12
    qs = np.random.default_rng(44).uniform(-1.0, 1.0, size=(9, 3))
    heights = solve_height(surface, qs)
    assert fallback_batches == [9]
    oracle = [brentq(lambda t, q=q: float(bundle.phase(np.r_[t, q]))
                     - surface.level,
                     -2.0, 2.0, xtol=1e-15) for q in qs]
    np.testing.assert_allclose(heights, oracle, rtol=0.0, atol=1e-13)


def test_singular_jacobian_names_event():
    # a forward map that drops xi3 where x1 > 0 has a singular Jacobian
    # there and only there
    chart = ComovingChart(make_plane_wave([0.75, 0.0, 0.0]),
                          origin=np.zeros(4))
    chart.forward_map = lambda p, stats=None: np.where(
        p[..., 1:2] > 0.0, p * [1.0, 1.0, 1.0, 0.0], p)
    events = np.array([[0.0, -0.5, 0.0, 0.0], [0.1, 0.5, 0.2, 0.3]])
    assert chart.jacobian(events[0]) == pytest.approx(np.eye(4))
    with pytest.raises(RootFailure, match=r"\[0\.1, 0\.5, 0\.2, 0\.3\]"):
        chart.jacobian(events)


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


def test_one_event_round_trip(packet9_chart):
    x = np.array([0.4, -0.3, 0.2, 0.5])
    xi = packet9_chart.forward_map(x)
    assert xi.shape == (4,)
    back = packet9_chart.inverse_map(xi)
    assert back.shape == (4,)
    np.testing.assert_allclose(back, x, rtol=0.0, atol=1e-12)


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
    chart.pushforward(raise_index(four_velocity(packet9, pts)), pts)
    assert shapes == {"forward_map": [(5, 8, 4), (5, 8, 4)],
                      "inverse_map": [(5, 8, 4)]}
    # d xi / d x and d x / d xi are inverse matrices
    back = chart.forward_map(pts)
    np.testing.assert_allclose(chart.inverse_jacobian(back) @ jac,
                               np.broadcast_to(np.eye(4), jac.shape),
                               atol=1e-5)
    assert inv.shape == (5, 4, 4)


def test_pushforward_kills_spatial_components(boost_chart, packet9_chart):
    x = np.array([0.5, 0.2, -0.1, 0.3])
    out = boost_chart.pushforward(
        raise_index(four_velocity(boost_chart.bundle, x)), x)
    assert out[0] == pytest.approx(1.0, abs=1e-5)
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-5)

    packet = packet9_chart.bundle
    rng = np.random.default_rng(29)
    for x in rng.uniform(-1.0, 1.0, size=(4, 4)):
        outp = packet9_chart.pushforward(raise_index(four_velocity(packet, x)),
                                         x)
        assert np.max(np.abs(outp[1:])) / outp[0] < 1e-4


def test_pushforward_takes_any_batch_shape(packet9_chart):
    # one event (4,), a (5, 4) batch and a (2, 3, 4) batch give the rows of
    # one (6, 4) call bit for bit
    pts = np.random.default_rng(30).uniform(-1.0, 1.0, size=(6, 4))
    vec = raise_index(four_velocity(packet9_chart.bundle, pts))
    rows = packet9_chart.pushforward(vec, pts)
    one = np.stack([packet9_chart.pushforward(v, x) for v, x in zip(vec, pts)])
    assert one.shape == (6, 4)
    np.testing.assert_array_equal(one, rows)
    np.testing.assert_array_equal(
        packet9_chart.pushforward(vec[:5], pts[:5]), rows[:5])
    np.testing.assert_array_equal(
        packet9_chart.pushforward(vec.reshape(2, 3, 4), pts.reshape(2, 3, 4)),
        rows.reshape(2, 3, 4))


def test_forward_map_rejects_outside_domain(packet9_chart):
    with pytest.raises(OutOfDomain):
        packet9_chart.forward_map(np.array([0.0, 17.0, 0.0, 0.0]))


def test_chart_rejects_failing_hypotheses(near_standing):
    with pytest.raises(HypothesesFailed, match="hypotheses"):
        ComovingChart(near_standing, origin=np.zeros(4))


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


def _moving_packet(hi=(5.0,) * 4):
    """Carrier at 0.6c with six side modes at bandwidth 0.2, on [-5, hi]."""
    side = 0.2 * np.vstack([np.eye(3), -np.eye(3)])
    wavevectors = np.vstack([[0.75, 0.0, 0.0], [0.75, 0.0, 0.0] + side])
    weights = np.array([2.0] + [0.25] * 6)
    return make_packet(wavevectors, weights, Box((-5.0,) * 4, hi))


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


def test_flow_counters_count_rejected_rows(packet9_chart):
    # the default tolerance takes every packet row at its first step; a
    # tight one rejects rows and reruns them with more steps
    report = chart_diagnostics(packet9_chart, n_samples=10, seed=3)
    assert report["flow_rejected_rows"] == 0
    assert report["flow_attempts"] == 4  # forward, arcs, lifts, Jacobian
    assert report["flow_rhs_evaluations"] == \
        (4 * FLOW_STEPS + 1) * report["flow_steps"] // FLOW_STEPS
    tight = ComovingChart(_moving_packet(), origin=np.zeros(4), rtol=1e-14,
                          atol=0.0, validate=False)
    report = chart_diagnostics(tight, n_samples=10, seed=3)
    assert report["flow_rejected_rows"] > 0
    assert report["flow_attempts"] > 4


def test_chart_diag_flow_counters_at_the_default_samples(packet9_chart):
    # the 40 default samples fit one row block in every map call, Jacobian
    # stencil included (320 events): rows of one accepted attempt each,
    # 40 + 40 forward, 40 arcs and 40 lifts back and 320 + 320 for the
    # Jacobians, over one attempt per map call
    report = chart_diagnostics(packet9_chart)
    assert {k: report[k] for k in ("flow_attempts", "flow_rejected_rows",
                                   "flow_steps", "flow_rhs_evaluations")} \
        == {"flow_attempts": 4, "flow_rejected_rows": 0,
            "flow_steps": FLOW_STEPS * 800,
            "flow_rhs_evaluations": (4 * FLOW_STEPS + 1) * 800}


def test_flow_reruns_rows_that_overshoot_the_domain():
    # this curve ends 1e-9 below the box's time edge; its one-step end,
    # whose estimate meets the tolerance, overshoots by 2.7e-9 and lies
    # past the edge, so the row is rerun rather than failed. With the edge
    # 1e-9 below the curve's end it does fail.
    start = np.array([[-4.5, -1.0, 2.0, -1.0, 0.0]])
    span = np.array([-7.0])
    rhs = _phase_rhs(_moving_packet())
    ref = _rk4(rhs, start, span, 512, _moving_packet().domain)[0]
    near = _moving_packet(hi=(ref[0, 0] + 1e-9, 5.0, 5.0, 5.0))
    assert _rk4(rhs, start, span, 1, near.domain)[2][0]
    stats = FlowStats()
    level = near.phase(start[:, :4]) + span
    end = flow_to_level(near, start[:, :4], level, stats=stats)
    assert stats.rejected_rows == 1
    assert near.domain.contains(end[0])
    np.testing.assert_allclose(end, ref[:, :4], rtol=0.0, atol=1e-9)
    past = _moving_packet(hi=(ref[0, 0] - 1e-9, 5.0, 5.0, 5.0))
    with pytest.raises(LeftDomain, match=r"\[-4\.5, -1\.0, 2\.0, -1\.0\]"):
        flow_to_level(past, start[:, :4], level)


def test_flow_reruns_rows_with_a_spacelike_stage():
    # along S = x1^2 / 2 - x0 the curve from x1 = 0.5 decays toward x1 = 0
    # as S rises, keeping x1^2 / 2 - ln x1 - S fixed; one RK4 step over a
    # span of 2 puts stages where |x1| > 1 and the gradient is spacelike,
    # so the row is rerun rather than failed. As S falls the curve turns
    # null at x1 = 1, a span of 3/8 - ln 2 = -0.318 away.
    bundle = _ParabolicPhaseBundle(PhysicalConstants(),
                                   Box((-5.0,) * 4, (5.0,) * 4))
    start = np.array([[0.0, 0.5, 0.0, 0.0]])
    states = np.concatenate([start, np.zeros((1, 1))], axis=1)
    assert np.isnan(_rk4(_phase_rhs(bundle), states, np.array([2.0]), 1,
                         bundle.domain)[1][0])
    stats = FlowStats()
    level = bundle.phase(start) + 2.0
    end = flow_to_level(bundle, start, level, stats=stats)
    assert stats.rejected_rows > 0
    np.testing.assert_allclose(bundle.phase(end), level, rtol=0.0, atol=1e-9)
    x1 = end[0, 1]
    assert x1 ** 2 / 2 - np.log(x1) - level[0] == pytest.approx(
        0.125 + np.log(2.0) - bundle.phase(start)[0], abs=1e-8)
    with pytest.raises(HypothesesFailed, match=r"along the congruence curve "
                       r"from \[0\.0, 0\.5, 0\.0, 0\.0\]"):
        flow_to_level(bundle, start, bundle.phase(start) - 0.4)


def test_flow_step_failure_names_point(packet9):
    # a zero tolerance rejects every nonzero estimate up to the step cap.
    # The event's summed RK4 estimate is exactly 0 from 512 steps on (its
    # flow field moves by less than an ulp within a step), so that row is
    # accepted; the origin copy flowing out to the event's leaf keeps a
    # nonzero estimate (1.1e-31 at 1 024 steps) and is the start event the
    # failure names
    chart = ComovingChart(packet9, origin=np.zeros(4), rtol=0.0, atol=0.0,
                          validate=False)
    with pytest.raises(StepFailure,
                       match=r"flow from \[0\.0, 0\.0, 0\.0, 0\.0\] misses"):
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


# Properties over _dominant_packets shrink a failure but skip the explain
# phase: its 1 700 or so reruns of the shrunk example (up to 0.5 s each, as
# every event goes through the chart maps one by one) took 4.5 of the 5
# minutes a failure needed to report, where a passing run takes 1 s.
_PACKET_PROPERTY = settings(
    deadline=None, phases=[p for p in Phase if p is not Phase.explain])


@st.composite
def _dominant_packets(draw, k_max=0.05, n_events=3, carrier_max=0.0):
    """A carrier (weight 2) and 2-8 side modes whose wave vectors lie within
    k_max of the carrier's, side weights summing to at most 1.5, on
    [-4, 4]^4; with ``n_events`` events in [-1.5, 1.5]^4. The carrier is at
    rest, or with ``carrier_max`` has |k| up to it: with k_max 1 the
    draws hold both certified and uncertified packets
    (``dominance_certificate``)."""
    n_side = draw(st.integers(2, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    carrier = np.zeros(3)
    if carrier_max:
        carrier = np.array(draw(st.tuples(unit, unit, unit)))
        carrier *= carrier_max / max(np.linalg.norm(carrier), 1.0)
    ks = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=n_side,
                                max_size=n_side)))
    ks *= k_max / np.maximum(np.linalg.norm(ks, axis=1, keepdims=True), 1.0)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_side,
                               max_size=n_side)))
    w *= min(1.0, 1.5 / w.sum())
    bundle = make_packet(np.vstack([carrier, carrier + ks]),
                         np.concatenate([[2.0], w]),
                         Box((-4.0,) * 4, (4.0,) * 4))
    coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    pts = np.array(draw(st.lists(st.tuples(coord, coord, coord, coord),
                                 min_size=n_events, max_size=n_events)))
    return bundle, pts


@settings(_PACKET_PROPERTY, max_examples=15)
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


def _as_parts(values):
    """A result, or each part of a tuple of results, as arrays."""
    return [np.asarray(v) for v in
            (values if isinstance(values, tuple) else (values,))]


@settings(_PACKET_PROPERTY, max_examples=25)
@given(case=_dominant_packets(n_events=5), data=st.data())
def test_a_row_does_not_depend_on_its_batch(case, data):
    # a subset of a batch in any order, and each event alone as (4,) and
    # as (1, 4), gives its rows of the whole batch bit for bit: through
    # every bundle accessor, both chart maps and the slice metric
    bundle, pts = case
    chart = ComovingChart(bundle, origin=np.zeros(4))
    patch = chart_spatial_patch(chart)
    xi = chart.forward_map(pts)
    funcs = {name: (getattr(bundle, name), pts) for name in (
        "density", "density_gradient", "density_hessian", "phase",
        "phase_gradient", "phase_hessian", "density_and_phase_derivatives")}
    funcs.update(forward_map=(chart.forward_map, pts),
                 inverse_map=(chart.inverse_map, xi))
    funcs.update({name: (getattr(patch, name), xi[:, 1:]) for name in (
        "metric", "sigma_derivatives", "christoffel")})
    order = data.draw(st.permutations(range(len(pts))))
    subset = order[:data.draw(st.integers(1, len(pts)))]
    differ = {}
    for name, (func, batch) in funcs.items():
        whole = _as_parts(func(batch))
        calls = [(subset, batch[subset])]
        calls += [(i, batch[i]) for i in range(len(batch))]
        calls += [([i], batch[i][None]) for i in range(len(batch))]
        for rows, part in calls:
            for got, want in zip(_as_parts(func(part)), whole):
                if not np.array_equal(got, want[rows]):
                    differ.setdefault(name, (rows, np.max(np.abs(
                        got - want[rows]))))
    assert not differ, "rows differ from their batch rows: " + ", ".join(
        f"{name} (rows {rows}, by {gap:.3g})"
        for name, (rows, gap) in differ.items())


@settings(_PACKET_PROPERTY, max_examples=20)
@given(case=st.one_of(_dominant_packets(), _dominant_packets(k_max=0.2)))
def test_accepted_flows_meet_tolerance(case):
    # every row the phase flow accepts (events to the origin leaf and the
    # origin out to theirs) lies within its tolerance of a 512-step flow
    bundle, pts = case
    s_x, level = bundle.phase(pts), float(bundle.phase(np.zeros(4)))
    start = np.concatenate([pts, np.zeros((3, 4))])
    span = np.concatenate([level - s_x, s_x - level])
    y = _phase_flow(bundle, start, span, DEFAULT_RTOL, DEFAULT_ATOL, None)
    ref = _rk4(_phase_rhs(bundle),
               np.concatenate([start, np.zeros((6, 1))], axis=1), span, 512,
               bundle.domain)[0]
    tol = DEFAULT_ATOL + DEFAULT_RTOL * np.max(np.abs(y), axis=1)
    assert np.all(np.max(np.abs(y - ref), axis=1) <= tol)


@settings(_PACKET_PROPERTY, max_examples=60)
@given(case=st.one_of(_dominant_packets(k_max=1.0),
                      _dominant_packets(k_max=1.0, carrier_max=0.5)))
def test_certificate_bounds_every_lattice_gradient(case):
    # |d_mu S / hbar - kappa_j0,mu| <= D_mu and the spatial deviation's norm
    # <= D_sp, up to the certificate's round-off allowance, on the default
    # scan lattice of the whole box and the drawn events; and a certified
    # packet passes the scan
    bundle, pts = case
    cert = dominance_certificate(bundle)
    x = np.concatenate([bundle.domain.grid(HYPOTHESIS_SHAPE), pts])
    dev = bundle.phase_gradient(x) / bundle.constants.hbar - bundle.kappas[0]
    carrier = np.abs(bundle.kappas[0])
    w, m = bundle.weights, bundle.dominance_margin
    rel = 16.0 * (w.size + 2) * np.finfo(float).eps
    grow = (w.sum() / m) ** 2
    bound = np.asarray(cert["D"])
    assert np.all(np.abs(dev) <= bound + rel * (grow * bound + carrier))
    k_sp = np.linalg.norm(carrier[1:])
    assert np.all(np.linalg.norm(dev[:, 1:], axis=1) <= cert["D_spatial"]
                  + rel * (grow * cert["D_spatial"] + k_sp))
    if cert["certified"]:
        assert check_theorem_hypotheses(bundle).passed


def test_certified_chart_skips_the_scan(packet9, monkeypatch):
    from comovkit import chart as chart_module

    scanned = []

    def counting(bundle, *args, **kwargs):
        scanned.append(bundle)
        return check_theorem_hypotheses(bundle, *args, **kwargs)

    monkeypatch.setattr(chart_module, "check_theorem_hypotheses", counting)
    # certified: accepted on the certificate, no scan and no report
    chart = ComovingChart(packet9, origin=np.zeros(4))
    assert scanned == [] and chart.hypothesis_report is None
    # |R| can fall to 0.2 off this small box, so the certificate fails,
    # while the scan of the box passes: one scan, and its report is kept
    weak = make_packet([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [1.0, 0.8],
                       Box((-1.0,) * 4, (1.0,) * 4))
    assert not dominance_certificate(weak)["certified"]
    chart = ComovingChart(weak, origin=np.zeros(4))
    assert scanned == [weak] and chart.hypothesis_report.passed
    # a report handed over is used as it is
    report = check_theorem_hypotheses(weak, shape=(3, 3, 3, 3))
    scanned.clear()
    assert ComovingChart(weak, origin=np.zeros(4),
                         hypothesis_report=report).hypothesis_report is report
    assert scanned == []


@settings(_PACKET_PROPERTY, max_examples=15)
@given(case=_dominant_packets(), fd=st.booleans())
def test_conjugation_is_an_involution_on_packets(case, fd):
    # conjugation negates the phase and keeps the density, exactly, with
    # analytic or finite-difference derivatives (negation is exact in the
    # stencil); conjugating twice gives the bundle's values back
    bundle, pts = case
    conj, twice = bundle.conjugate(), bundle.conjugate().conjugate()
    if fd:
        bundle, conj, twice = (FiniteDifferenceView(b, 1e-3)
                               for b in (bundle, conj, twice))
    for name in ("phase", "phase_gradient", "phase_hessian"):
        np.testing.assert_array_equal(getattr(conj, name)(pts),
                                      -getattr(bundle, name)(pts))
        np.testing.assert_array_equal(getattr(twice, name)(pts),
                                      getattr(bundle, name)(pts))
    for name in ("density", "density_gradient", "density_hessian"):
        np.testing.assert_array_equal(getattr(conj, name)(pts),
                                      getattr(bundle, name)(pts))
        np.testing.assert_array_equal(getattr(twice, name)(pts),
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


# --- row blocks -------------------------------------------------------------
#
# Batched field accessors, both maps and the height solve run ROW_BLOCK rows
# at a time. One block's work stays under 1.5 kB a row of the block
# (measured on packet9: 0.31 kB for ``phase``, up to 1.28 kB for
# ``forward_map``), whatever the batch; an unblocked call takes 0.26-1.36 kB
# per event of the whole batch.
MAP_BLOCK_WORK = 1536 * ROW_BLOCK


def _map_calls(chart, pts):
    """Every call that evaluates its batch in row blocks, with its rows."""
    bundle = chart.bundle
    xi = chart.forward_map(pts)
    calls = {name: (getattr(bundle, name), pts) for name in (
        "density", "density_gradient", "density_hessian", "phase",
        "phase_gradient", "phase_hessian", "density_and_phase_derivatives")}
    calls.update(forward_map=(chart.forward_map, pts),
                 inverse_map=(chart.inverse_map, xi),
                 height=(chart.surface.height, pts[:, 1:]))
    return calls


@pytest.mark.parametrize("n", [2 ** 12, 2 ** 14])
@pytest.mark.parametrize("name", ["phase", "phase_gradient",
                                  "density_and_phase_derivatives",
                                  "forward_map", "inverse_map"])
def test_batched_work_memory_is_one_block(packet9_chart, name, n):
    pts = np.random.default_rng(5).uniform(-1.4, 1.4, size=(n, 4))
    func, rows = _map_calls(packet9_chart, pts)[name]
    out, peak = traced_peak(lambda: func(rows))
    outputs = sum(np.asarray(v).nbytes for v in _as_parts(out))
    assert peak - outputs <= MAP_BLOCK_WORK


def test_blocked_batch_equals_its_blocks_and_one_call(packet9_chart,
                                                      monkeypatch):
    # three full blocks and a one-row last block: each result equals, bit
    # for bit, its blocks evaluated one at a time and the whole batch in
    # one unblocked call
    n = 3 * ROW_BLOCK + 1
    pts = np.random.default_rng(6).uniform(-1.4, 1.4, size=(n, 4))
    calls = _map_calls(packet9_chart, pts)
    blocked = {name: _as_parts(func(rows))
               for name, (func, rows) in calls.items()}
    cuts = range(0, n, ROW_BLOCK)
    monkeypatch.setattr(fields, "ROW_BLOCK", n)
    for name, (func, rows) in calls.items():
        parts = [_as_parts(func(rows[lo:lo + ROW_BLOCK])) for lo in cuts]
        whole = _as_parts(func(rows))
        for k, got in enumerate(blocked[name]):
            assert got.shape[0] == n
            assert np.array_equal(got, np.concatenate([p[k] for p in parts])
                                  ), name
            assert np.array_equal(got, whole[k]), name
