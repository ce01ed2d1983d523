"""Field bundles: dispersion, derivatives, phase branches, hypotheses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comovkit
from comovkit.constants import PhysicalConstants
from comovkit.errors import (
    BranchUnavailable,
    DensityZero,
    NodeInDomain,
)
from comovkit.fields import (
    Box,
    PacketBundle,
    SpacetimePoint,
    central_gradient,
    central_hessian,
    check_theorem_hypotheses,
    congruence_speed,
    four_velocity,
    make_packet,
    make_plane_wave,
    osmotic_four_velocity,
)


def random_points(rng, n, half=2.0):
    return rng.uniform(-half, half, size=(n, 4))


def test_plane_wave_dispersion(boost_wave):
    assert boost_wave.omega == pytest.approx(1.25, abs=1e-15)
    np.testing.assert_allclose(boost_wave.velocity, [0.6, 0.0, 0.0], atol=1e-15)


def test_plane_wave_phase_gradient_constant(boost_wave):
    rng = np.random.default_rng(11)
    pts = random_points(rng, 50)
    grad = boost_wave.phase_gradient(pts)
    np.testing.assert_allclose(
        grad, np.broadcast_to([-1.25, 0.75, 0.0, 0.0], grad.shape), atol=1e-15
    )
    np.testing.assert_allclose(boost_wave.density(pts), 1.0, atol=0.0)
    np.testing.assert_allclose(boost_wave.phase_hessian(pts), 0.0, atol=0.0)


def test_four_velocity_norm_is_minus_c_squared(boost_wave):
    rng = np.random.default_rng(12)
    pts = random_points(rng, 20)
    v = four_velocity(boost_wave)
    np.testing.assert_allclose(v.minkowski_norm_squared(pts), -1.0, atol=1e-14)
    vcon = v.with_flipped_index()(pts)
    np.testing.assert_allclose(vcon[:, 0], 1.25, atol=1e-15)
    np.testing.assert_allclose(vcon[:, 1], 0.75, atol=1e-15)
    np.testing.assert_allclose(congruence_speed(boost_wave, pts), 1.0, atol=1e-14)


def test_detuned_plane_wave_is_off_shell():
    # frequency override breaks the dispersion relation: the congruence
    # speed moves off c, which downstream classification must notice
    bundle = make_plane_wave([0.75, 0.0, 0.0], frequency=1.5)
    speed2 = congruence_speed(bundle, np.zeros(4)) ** 2
    assert speed2 == pytest.approx(1.5 ** 2 - 0.75 ** 2, rel=1e-14)
    assert abs(speed2 - 1.0) > 0.5


def test_single_mode_packet_matches_plane_wave(constants):
    box = Box((-3.0,) * 4, (3.0,) * 4)
    packet = make_packet([[0.75, 0.0, 0.0]], [1.0], box, constants)
    wave = make_plane_wave([0.75, 0.0, 0.0], constants)
    rng = np.random.default_rng(13)
    pts = random_points(rng, 100)
    np.testing.assert_allclose(packet.phase(pts), wave.phase(pts), atol=1e-12)
    np.testing.assert_allclose(
        packet.phase_gradient(pts), wave.phase_gradient(pts), atol=1e-12
    )
    np.testing.assert_allclose(packet.density(pts), 1.0, atol=1e-12)
    np.testing.assert_allclose(packet.density_gradient(pts), 0.0, atol=1e-12)


def test_packet_weights_must_be_positive(constants):
    box = Box((-1.0,) * 4, (1.0,) * 4)
    with pytest.raises(ValueError):
        make_packet([[0.1, 0, 0], [0.2, 0, 0]], [1.0, -0.5], box, constants)


def test_packet_requires_box(constants):
    with pytest.raises(ValueError):
        make_packet([[0.1, 0, 0]], [1.0], None, constants)


def test_standing_wave_rejected(constants):
    # equal-weight opposed modes produce modulus 2|cos(0.75 x1)| with a
    # zero at x1 = pi/1.5 inside the box
    box = Box((-1.0, -3.0, -1.0, -1.0), (1.0, 3.0, 1.0, 1.0))
    with pytest.raises(NodeInDomain):
        make_packet(
            [[0.75, 0, 0], [-0.75, 0, 0]], [1.0, 1.0], box, constants
        )


def test_density_zero_raised_at_node(constants):
    box = Box((-1.0, -3.0, -1.0, -1.0), (1.0, 3.0, 1.0, 1.0))
    bundle = PacketBundle(
        [[0.75, 0, 0], [-0.75, 0, 0]], [1.0, 1.0], constants, box,
        _skip_node_check=True,
    )
    node = np.array([0.0, np.pi / 1.5, 0.0, 0.0])
    assert bundle.density(node) < 1e-12
    with pytest.raises(DensityZero):
        osmotic_four_velocity(bundle)(node)


def test_packet_density_against_direct_mode_sum(packet9, constants):
    """Density must equal |sum_j w_j exp(i theta_j)|^2 computed longhand."""
    rng = np.random.default_rng(14)
    pts = random_points(rng, 40, half=3.5)
    kc = constants.compton_wavenumber
    total = np.zeros(len(pts), dtype=complex)
    for k, w in zip(packet9.wavevectors, packet9.weights):
        omega = np.sqrt(k @ k + kc ** 2)
        theta = pts[:, 1:] @ k - omega * pts[:, 0]
        total += w * np.exp(1j * theta)
    np.testing.assert_allclose(
        packet9.density(pts), np.abs(total) ** 2, rtol=1e-12
    )


def test_packet_phase_branch_continuity(packet9):
    # reference branch: dense 1-d unwrap along a segment from the domain
    # corner; the cached lattice branch must agree along the whole path
    start = packet9.domain.lo_array + 1e-9
    end = np.array([3.5, 2.8, -3.1, 1.7])
    ts = np.linspace(0.0, 1.0, 6000)
    seg = start + ts[:, None] * (end - start)
    ref = np.unwrap(np.angle(packet9._amp(seg)))
    impl = packet9.phase(seg) / packet9.constants.hbar
    # anchored at the corner on branch zero
    assert impl[0] == pytest.approx(ref[0], abs=1e-9)
    np.testing.assert_allclose(impl, ref, atol=1e-9)
    # the path wraps through several branches, so the test is non-trivial
    assert np.ptp(ref) > 2.0 * np.pi


def _lattice_branch_phase(bundle, pts):
    """Phase values with the branch read off an unwrapped lattice.

    The oracle for the closed form: the principal argument at every event
    plus the whole turns that bring it nearest to the argument unwrapped
    corner-outward, one axis at a time, at the nearest node of a lattice
    (clipped for events just outside it). The spacing pi / (4 rate), with
    rate a bound on |grad arg phi| through the dominance margin, keeps that
    node within pi/4 of the true argument, so the turn count is exact.
    """
    w, kap = bundle.weights, bundle.kappas
    j0 = int(np.argmax(w))
    margin = w[j0] - (w.sum() - w[j0])
    rate = (np.linalg.norm(kap[j0])
            + w @ np.linalg.norm(kap - kap[j0], axis=1) / margin)
    dom = bundle.domain
    shape = np.maximum((dom.extent / (np.pi / (4.0 * rate))).astype(int) + 2, 2)
    nodes, _ = dom.grid(shape)
    raw = np.angle(bundle._amp(nodes)).reshape(tuple(shape))
    raw[:, 0, 0, 0] = np.unwrap(raw[:, 0, 0, 0])
    raw[:, :, 0, 0] = np.unwrap(raw[:, :, 0, 0], axis=1)
    raw[:, :, :, 0] = np.unwrap(raw[:, :, :, 0], axis=2)
    raw = np.unwrap(raw, axis=3)
    step = dom.extent / (shape - 1)
    idx = np.clip(np.rint((pts - dom.lo_array) / step).astype(np.intp), 0,
                  shape - 1)
    local = np.angle(bundle._amp(pts))
    turns = np.round((raw[tuple(idx.T)] - local) / (2.0 * np.pi))
    return bundle.constants.hbar * (local + 2.0 * np.pi * turns)


def _face_events(rng, domain, n_per_face, offset):
    """Events placed ``offset`` outside each of the box's eight faces."""
    lo, hi = domain.lo_array, domain.hi_array
    out = []
    for axis in range(4):
        for side, sign in ((lo, -1.0), (hi, 1.0)):
            pts = rng.uniform(lo, hi, size=(n_per_face, 4))
            pts[:, axis] = side[axis] + sign * offset
            out.append(pts)
    return np.concatenate(out)


def test_closed_form_branch_matches_lattice_oracle(packet9, constants):
    # a moving carrier, so the branch depends on every coordinate
    wide = make_packet(
        [[0.6, 0.3, -0.4], [0.9, -0.1, 0.2], [0.2, 0.5, -0.1]],
        [1.0, 0.3, 0.25], Box((-3.0,) * 4, (3.0,) * 4), constants,
    )
    rng = np.random.default_rng(31)
    for bundle in (packet9, wide):
        dom = bundle.domain
        inside = rng.uniform(dom.lo_array, dom.hi_array, size=(20000, 4))
        outside = _face_events(rng, dom, 250, 3e-3)
        for pts in (inside, outside):
            want = _lattice_branch_phase(bundle, pts)
            # the values wrap through several branches
            assert np.ptp(want) > 2.0 * np.pi
            np.testing.assert_allclose(bundle.phase(pts), want,
                                       rtol=0, atol=1e-14)
        # single events take the same path
        assert bundle.phase(inside[0]) == pytest.approx(
            _lattice_branch_phase(bundle, inside[:1])[0], rel=0, abs=1e-14)


def test_branch_without_dominant_mode_is_typed(constants):
    # two equal weights: node-free on this small box, but no branch
    # certificate for phase values
    bundle = make_packet([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], [1.0, 1.0],
                         Box((-0.5,) * 4, (0.5,) * 4), constants)
    with pytest.raises(BranchUnavailable, match="dominant mode"):
        bundle.phase(np.zeros(4))


def test_huge_box_phase_differences_match_gradient(constants):
    # a box no branch lattice could cover: values need no lattice, and
    # their central differences are the analytic gradient
    bundle = make_packet([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]], [2.0, 0.2],
                         Box((-1e3,) * 4, (1e3,) * 4), constants)
    pts = np.random.default_rng(32).uniform(-1e3, 1e3, size=(200, 4))
    assert np.max(np.abs(bundle.phase(pts))) > 100.0
    np.testing.assert_allclose(
        central_gradient(bundle.phase, pts, 1e-3),
        bundle.phase_gradient(pts), rtol=0, atol=1e-8)
    lo = bundle.domain.lo_array
    assert bundle.phase(lo) == pytest.approx(
        np.angle(bundle.amplitude(lo) / np.sqrt(bundle.density(lo))),
        rel=0, abs=1e-12)


@st.composite
def _random_dominant_packets(draw):
    """A carrier with |k| <= 1 and weight 1, plus 1-5 side modes within 0.5
    of it whose weights sum to at most 0.8, on a box of half-width 0.5-5
    about a centre within 3 of the origin; with 4 events in the box."""
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    vec = st.tuples(unit, unit, unit)
    n_side = draw(st.integers(1, 5))
    carrier = np.array(draw(vec))
    carrier /= max(1.0, float(np.linalg.norm(carrier)))
    side = np.array(draw(st.lists(vec, min_size=n_side, max_size=n_side)))
    side *= 0.5 / np.maximum(np.linalg.norm(side, axis=1, keepdims=True), 1.0)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_side,
                               max_size=n_side)))
    w *= min(1.0, 0.8 / w.sum())
    centre = 3.0 * np.array(draw(st.tuples(unit, unit, unit, unit)))
    half = draw(st.floats(0.5, 5.0))
    bundle = make_packet(np.vstack([carrier, carrier + side]),
                         np.concatenate([[1.0], w]),
                         Box(centre - half, centre + half))
    frac = st.floats(0.0, 1.0)
    pts = centre - half + 2.0 * half * np.array(draw(st.lists(
        st.tuples(frac, frac, frac, frac), min_size=4, max_size=4)))
    return bundle, pts


@settings(max_examples=40, deadline=None)
@given(case=_random_dominant_packets())
def test_closed_form_phase_properties(case):
    bundle, pts = case
    hbar = bundle.constants.hbar
    principal = np.angle(bundle.amplitude(pts) / np.sqrt(bundle.density(pts)))
    turns = (bundle.phase(pts) - hbar * principal) / (2.0 * np.pi * hbar)
    np.testing.assert_allclose(turns, np.round(turns), rtol=0, atol=1e-12)
    # the anchor: S(lo) is the principal argument there
    lo = bundle.domain.lo_array
    assert bundle.phase(lo) == pytest.approx(
        hbar * np.angle(bundle._amp(lo)), rel=0, abs=1e-12)
    # one-exponential Hessians against differences of the gradients
    for grad, hess in ((bundle.phase_gradient, bundle.phase_hessian),
                       (bundle.density_gradient, bundle.density_hessian)):
        want = central_gradient(grad, pts, 1e-4)
        got = hess(pts)
        np.testing.assert_allclose(got, np.swapaxes(got, -1, -2),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-6 * (1.0 + np.max(np.abs(want))))


def test_first_phase_call_allocates_little():
    # the phase needs no lattice: a fresh packet_9mode bundle's first
    # value stays under 1 MB of allocations
    import tracemalloc

    spec = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "packet_9mode.json").read_text())["field"]
    bundle = make_packet(spec["wavevectors"], spec["weights"],
                         Box(spec["domain"]["lo"], spec["domain"]["hi"]))
    tracemalloc.start()
    try:
        bundle.phase(np.array([0.3, -0.2, 0.1, 0.4]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_import_does_not_load_the_interpolator(tmp_path):
    # scipy is not a runtime dependency: neither the import nor a full
    # packet_9mode run may load any part of it
    src = Path(comovkit.__file__).resolve().parents[1]
    scenario = src.parent / "scenarios" / "packet_9mode.json"
    code = (
        "import json, sys, comovkit, comovkit.cli\n"
        "print('scipy' in sys.modules)\n"
        f"s = json.load(open({str(scenario)!r}))\n"
        "assert s['analyses'] == ['hypotheses', 'chart_diag', "
        "'geometry_diag', 'classify']\n"
        "r = comovkit.cli.run(comovkit.cli.validate(s), "
        f"out_dir={str(tmp_path)!r})\n"
        "assert r['error'] is None and 'scipy' not in r['versions']\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split("\n")[:2] == ["False", "[]"]


def test_packet_phase_gradient_consistent_with_values(packet9):
    rng = np.random.default_rng(16)
    pts = random_points(rng, 15, half=3.0)
    h = 1e-4
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        fd = (packet9.phase(pts + e) - packet9.phase(pts - e)) / (2 * h)
        np.testing.assert_allclose(
            fd, packet9.phase_gradient(pts)[:, mu], atol=5e-7
        )


def test_packet_phase_hessian_symmetric(packet9):
    rng = np.random.default_rng(17)
    pts = random_points(rng, 30, half=3.5)
    hess = packet9.phase_hessian(pts)
    np.testing.assert_allclose(hess, np.swapaxes(hess, -1, -2), atol=1e-13)


def test_fd_derivatives_converge_at_second_order(packet9):
    pt = np.array([0.3, -0.7, 0.4, 1.1])
    exact = packet9.density_gradient(pt)
    errs = []
    for h in (0.08, 0.04, 0.02):
        view = packet9.with_fd_derivatives(h)
        assert view.derivative_mode == "fd"
        errs.append(np.max(np.abs(view.density_gradient(pt) - exact)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert rate[0] == pytest.approx(2.0, abs=0.2)
    assert rate[1] == pytest.approx(2.0, abs=0.2)


def test_osmotic_velocity_matches_richardson_fd(packet9):
    """(hbar/2m) grad ln p against Richardson-extrapolated differences."""
    pt = np.array([0.2, 0.5, -0.3, 0.9])
    u = osmotic_four_velocity(packet9)(pt)

    def logp(x):
        return np.log(packet9.density(x))

    h = 0.02
    ref = np.empty(4)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        d1 = (logp(pt + h * e) - logp(pt - h * e)) / (2 * h)
        d2 = (logp(pt + 0.5 * h * e) - logp(pt - 0.5 * h * e)) / h
        ref[mu] = (4.0 * d2 - d1) / 3.0
    np.testing.assert_allclose(u, 0.5 * ref, atol=1e-8)


# ---------------------------------------------------------------------------
# the central-difference stencil

QUAD_A = np.array([
    [2.0, 0.3, -0.5, 0.1],
    [0.3, -1.0, 0.7, 0.2],
    [-0.5, 0.7, 0.4, -0.6],
    [0.1, 0.2, -0.6, 1.5],
])
QUAD_B = np.array([0.4, -1.2, 0.9, 0.3])


def _quadratic(x):
    # values (..., 2): a quadratic and a second, rescaled one
    f = 1.5 + x @ QUAD_B + 0.5 * np.einsum("...i,ij,...j->...", x, QUAD_A, x)
    return np.stack([f, -3.0 * f], axis=-1)


def _wavy(x):
    # an elementwise field, so batched and per-row calls agree to the bit
    f = (np.sin(x[..., 0] * x[..., 1])
         + np.exp(0.3 * x[..., 2]) * x[..., 3] ** 3)
    return np.stack([f, np.cos(x[..., 3] - x[..., 1])], axis=-1)


def test_stencil_is_exact_on_quadratics():
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (7, 4))
    grad = QUAD_B + x @ QUAD_A
    want_g = np.stack([grad, -3.0 * grad], axis=-1)
    want_h = np.broadcast_to(np.stack([QUAD_A, -3.0 * QUAD_A], axis=-1),
                             (7, 4, 4, 2))
    for h in (0.5, 1e-2):
        # round-off of a difference quotient: a few ulps of f over h^order
        ulps = 64.0 * np.finfo(float).eps * np.max(np.abs(_quadratic(x)))
        g = central_gradient(_quadratic, x, h)
        assert g.shape == (7, 4, 2)
        np.testing.assert_allclose(g, want_g, rtol=0, atol=ulps / h)
        f0, g2, hess = central_hessian(_quadratic, x, h)
        assert hess.shape == (7, 4, 4, 2)
        np.testing.assert_array_equal(f0, _quadratic(x))
        np.testing.assert_array_equal(g2, g)
        np.testing.assert_allclose(hess, want_h, rtol=0, atol=ulps / h ** 2)


@pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 3, 4)])
def test_stencil_batches_equal_per_row_calls(shape):
    x = np.random.default_rng(6).uniform(-1.0, 1.0, shape)
    rows = x.reshape(-1, 4)
    grad = central_gradient(_wavy, x, 1e-3)
    f0, g2, hess = central_hessian(_wavy, x, 1e-3)
    assert grad.shape == shape[:-1] + (4, 2)
    assert hess.shape == shape[:-1] + (4, 4, 2)
    one = [central_hessian(_wavy, r, 1e-3) for r in rows]
    np.testing.assert_array_equal(
        grad, np.stack([central_gradient(_wavy, r, 1e-3) for r in rows])
        .reshape(grad.shape))
    for got, k in ((f0, 0), (g2, 1), (hess, 2)):
        np.testing.assert_array_equal(
            got, np.stack([o[k] for o in one]).reshape(got.shape))
    np.testing.assert_array_equal(g2, grad)
    np.testing.assert_array_equal(hess, np.swapaxes(hess, -2, -3))


def test_stencil_scalar_values_and_other_dimensions():
    # scalar-valued functions of 1-d and 3-d points
    assert central_gradient(lambda p: p[..., 0] ** 2, np.array([3.0]),
                            0.5) == pytest.approx([6.0], abs=1e-12)
    q = np.array([0.2, -0.4, 0.9])
    _, g, hess = central_hessian(lambda p: p[..., 0] * p[..., 1] * p[..., 2],
                                 q, 1e-2)
    np.testing.assert_allclose(g, [q[1] * q[2], q[0] * q[2], q[0] * q[1]],
                               atol=1e-12)
    np.testing.assert_allclose(
        hess, [[0.0, q[2], q[1]], [q[2], 0.0, q[0]], [q[1], q[0], 0.0]],
        atol=1e-10)


class _Counting:
    """Wraps a function of points, recording the shape of each call."""

    def __init__(self, func):
        self.func = func
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return self.func(x)


@pytest.mark.parametrize("method,rows", [
    ("density_gradient", 8), ("density_hessian", 33),
    ("phase_gradient", 8), ("phase_hessian", 33),
])
def test_fd_view_makes_one_call_per_derivative(packet9, method, rows):
    view = packet9.with_fd_derivatives(1e-3)
    name = "_density" if method.startswith("density") else "_phase"
    counter = _Counting(getattr(view, name))
    setattr(view, name, counter)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (6, 4))
    out = getattr(view, method)(pts)
    assert counter.shapes == [(6, rows, 4)]
    np.testing.assert_allclose(out, getattr(packet9, method)(pts), atol=1e-5)


def test_frame_mismatch_rejected(boost_wave):
    pt = SpacetimePoint((0.0, 0.1, 0.2, 0.3), frame="comoving")
    with pytest.raises(ValueError):
        boost_wave.phase(pt)
    ok = SpacetimePoint((0.0, 0.1, 0.2, 0.3))
    assert boost_wave.phase(ok) == pytest.approx(
        boost_wave.phase(np.array([0.0, 0.1, 0.2, 0.3]))
    )


def test_hypotheses_pass_for_plane_wave(boost_wave):
    report = check_theorem_hypotheses(boost_wave, shape=(5, 5, 5, 5))
    assert report.passed
    assert report.violated == []
    assert report.min_abs_v0 == pytest.approx(1.25, abs=1e-14)
    assert report.max_closedness == 0.0
    assert report.timelike_fraction == 1.0
    assert not report.v0_sign_change


def test_hypotheses_pass_for_dominant_packet(packet9):
    box = Box((-2.0,) * 4, (2.0,) * 4)
    report = check_theorem_hypotheses(packet9, box=box, shape=(6, 6, 6, 6))
    assert report.passed
    assert report.min_abs_v0 > 0.5
    assert report.timelike_fraction == 1.0


def test_hypotheses_detect_vanishing_v0(near_standing, constants):
    """The nearly opposed pair has a genuine zero of V_0 between phase
    alignment and phase opposition; the checker must flag condition (i)."""
    m = constants.mass
    aligned = np.array([0.0, 0.0, 0.0, 0.0])
    opposed = np.array([0.0, -np.pi / 1.65, 0.0, 0.0])
    v0_a = near_standing.phase_gradient(aligned)[0] / m
    v0_o = near_standing.phase_gradient(opposed)[0] / m
    # independent closed forms: -(w0 w0^0 + w1 w1^0)/(w0 + w1) aligned,
    # +(w1 w1^0 - w0 w0^0)/(w0 - w1) opposed, with mode frequencies
    w0, w1 = 1.0, 0.98
    om0, om1 = 1.25, np.sqrt(0.81 + 1.0)
    assert v0_a == pytest.approx(-(w0 * om0 + w1 * om1) / (w0 + w1), rel=1e-12)
    assert v0_o == pytest.approx((w1 * om1 - w0 * om0) / (w0 - w1), rel=1e-12)
    assert v0_a < 0 < v0_o

    box = Box((-0.2, -2.2, -0.1, -0.1), (0.2, 0.2, 0.1, 0.1))
    report = check_theorem_hypotheses(near_standing, box=box, shape=(5, 41, 3, 3))
    assert "(i)" in report.violated
    assert report.v0_sign_change
    assert not report.passed


def test_hypotheses_closedness_zero_in_fd_mode(boost_wave):
    # central differences of a linear phase are symmetric by construction
    view = boost_wave.with_fd_derivatives(1e-3)
    report = check_theorem_hypotheses(view, shape=(4, 4, 4, 4))
    assert report.max_closedness < report.closedness_tol


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)
    nat = PhysicalConstants()
    assert nat.nu == pytest.approx(1.0)
    assert nat.compton_wavenumber == pytest.approx(1.0)


def test_conjugate_flips_phase_keeps_density(packet9):
    conj = packet9.conjugate()
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, size=(20, 4))
    for x in pts:
        assert conj.density(x) == packet9.density(x)
        assert conj.phase(x) == -packet9.phase(x)
        np.testing.assert_array_equal(
            conj.phase_gradient(x), -packet9.phase_gradient(x)
        )
        np.testing.assert_array_equal(
            conj.density_gradient(x), packet9.density_gradient(x)
        )
        assert conj.amplitude(x) == pytest.approx(
            np.conj(packet9.amplitude(x)), rel=1e-14
        )


def test_conjugate_is_involution(boost_wave):
    assert boost_wave.conjugate().conjugate() is boost_wave
