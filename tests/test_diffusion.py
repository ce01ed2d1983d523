"""Simulator, reproducibility, drift estimators, specular reversal."""

import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comovkit import diffusion
from comovkit.diffusion import (
    BinSpec,
    DiffusionConfig,
    backward_drift_estimate,
    batch_mean_se,
    batch_of_path,
    combine_drift_estimates,
    drift_from_fields,
    forward_drift_estimate,
    recompute_noise,
    simulate,
    specular_reverse,
    variance_report,
)
from comovkit.errors import (
    ConfigInvalid,
    Explosion,
    InsufficientSamples,
    SamplerStalled,
)
from comovkit.estimators import estimate_density
from comovkit.fields import Box
from comovkit.geometry import MetricPatch, polar_flat_patch

SIGMA_RHO = 1.0
NU = 1.0
THETA = NU / (2.0 * SIGMA_RHO**2)


def ou_drift(q):
    return -THETA * q


def gauss_weight(q):
    return np.exp(-0.5 * np.sum(q**2, axis=-1) / SIGMA_RHO**2)


@pytest.fixture(scope="module")
def ou_ensemble():
    """Stationary ensemble for the Gaussian density fixture."""
    config = DiffusionConfig(
        dt=2e-3, horizon=4.0, n_paths=20000, master_seed=20260816, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        n_snapshots=24, chunk_size=16384, n_threads=2,
    )
    patch = MetricPatch.euclidean()
    return simulate(drift_from_fields(ou_drift, patch, NU), patch, config)


# --- configuration ----------------------------------------------------------

def test_config_rejects_bad_values():
    good = dict(dt=1e-2, horizon=1.0, n_paths=10, master_seed=0)
    DiffusionConfig(**good)
    with pytest.raises(ConfigInvalid):
        DiffusionConfig(**{**good, "dt": -1e-2})
    with pytest.raises(ConfigInvalid):
        DiffusionConfig(**{**good, "dt": 0.2})  # fewer than 10 steps
    with pytest.raises(ConfigInvalid):
        DiffusionConfig(**{**good, "n_paths": 0})
    with pytest.raises(ConfigInvalid):
        DiffusionConfig(**{**good, "nu": 0.0})
    with pytest.raises(ConfigInvalid):
        DiffusionConfig(**{**good, "burn_in_fraction": 1.0})


def test_snapshot_schedule_covers_tail():
    config = DiffusionConfig(dt=1e-2, horizon=10.0, n_paths=1, master_seed=0,
                             burn_in_fraction=0.2, n_snapshots=12)
    ks = config.snapshot_steps()
    assert ks[-1] == config.n_steps - 1
    assert all(k >= int(0.2 * config.n_steps) for k in ks)
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert len(ks) <= 12


def test_snapshot_schedule_dense_when_requested():
    config = DiffusionConfig(dt=0.1, horizon=1.0, n_paths=1, master_seed=0,
                             burn_in_fraction=0.0, n_snapshots=100)
    assert config.snapshot_steps() == list(range(10))


# --- exactness of the update rule -------------------------------------------

def _manual_replay(config, q0, steps, g=np.eye(3), drift=ou_drift):
    """Mirror the simulator's arithmetic draw for draw."""
    seq = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(0, 0))
    rng = np.random.Generator(np.random.Philox(seq))
    root = np.sqrt(config.nu * config.dt)
    q = np.tile(np.asarray(q0, dtype=float), (config.n_paths, 1))
    draws, pres, posts = [], [], []
    for _ in range(steps):
        z = rng.standard_normal((config.n_paths, 3))
        beta = np.asarray(drift(q), dtype=float)
        step = beta * config.dt + root * z @ g.T
        qn = q + step
        draws.append(z)
        pres.append(q)
        posts.append(qn)
        q = qn
    return draws, pres, posts


def test_single_steps_bit_exact():
    q0 = (1.0, 0.0, 0.0)
    config = DiffusionConfig(
        dt=0.05, horizon=0.5, n_paths=8, master_seed=77, nu=0.25,
        initial=("point", q0), burn_in_fraction=0.0, n_snapshots=100,
    )
    patch = MetricPatch.euclidean()
    ens = simulate(drift_from_fields(ou_drift, patch, config.nu),
                   patch, config)
    _, pres, posts = _manual_replay(config, q0, config.n_steps)
    assert ens.n_snapshots == config.n_steps
    for m in range(ens.n_snapshots):
        assert np.array_equal(ens.pre[:, m], pres[m])
        assert np.array_equal(ens.post[:, m], posts[m])


def test_constant_metric_steps_bit_exact():
    # a non-identity constant noise factor keeps the matrix product
    q0 = (1.0, 0.0, 0.0)
    config = DiffusionConfig(
        dt=0.05, horizon=0.5, n_paths=8, master_seed=78, nu=0.25,
        initial=("point", q0), burn_in_fraction=0.0, n_snapshots=100,
    )
    patch = MetricPatch.constant([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1],
                                  [0.0, 0.1, 0.5]])
    ens = simulate(drift_from_fields(ou_drift, patch, config.nu),
                   patch, config)
    _, pres, posts = _manual_replay(config, q0, config.n_steps,
                                    g=patch.noise_factor(np.zeros(3)))
    for m in range(ens.n_snapshots):
        assert np.array_equal(ens.pre[:, m], pres[m])
        assert np.array_equal(ens.post[:, m], posts[m])


def test_noise_draw_is_pure_function_of_seed_path_step():
    q0 = (1.0, 0.0, 0.0)
    config = DiffusionConfig(
        dt=0.05, horizon=0.5, n_paths=8, master_seed=77, nu=0.25,
        initial=("point", q0), burn_in_fraction=0.0, n_snapshots=100,
    )
    draws, _, _ = _manual_replay(config, q0, config.n_steps)
    for path, step in [(0, 0), (3, 0), (5, 3), (7, 9)]:
        assert np.array_equal(recompute_noise(config, path, step),
                              draws[step][path])


def test_same_seed_bitwise_identical():
    config = DiffusionConfig(dt=0.01, horizon=0.2, n_paths=64, master_seed=5,
                             burn_in_fraction=0.0, n_snapshots=4)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, config.nu)
    a = simulate(drift, patch, config)
    b = simulate(drift, patch, config)
    assert a.pre.tobytes() == b.pre.tobytes()
    assert a.post.tobytes() == b.post.tobytes()


def test_thread_count_does_not_change_results():
    base = dict(dt=0.01, horizon=0.2, n_paths=256, master_seed=9,
                burn_in_fraction=0.0, n_snapshots=4, chunk_size=64)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, 1.0)
    serial = simulate(drift, patch, DiffusionConfig(**base, n_threads=1))
    threaded = simulate(drift, patch, DiffusionConfig(**base, n_threads=4))
    assert serial.pre.tobytes() == threaded.pre.tobytes()
    assert serial.post.tobytes() == threaded.post.tobytes()


@settings(max_examples=20, deadline=None)
@given(chunk_size=st.integers(8, 40), full_chunks=st.integers(2, 3),
       short=st.integers(1, 39), seed=st.integers(0, 2**32 - 1))
def test_threads_fill_shared_ensemble_identically(chunk_size, full_chunks,
                                                  short, seed):
    # every chunk writes its own rows of one preallocated ensemble: a short
    # last chunk and clip flags set from worker threads must land exactly
    # where the serial run puts them
    short = 1 + (short - 1) % (chunk_size - 1)  # 1 .. chunk_size - 1
    box = Box((-0.6, -0.6, -0.6), (0.6, 0.6, 0.6))
    base = dict(dt=0.01, horizon=0.15, master_seed=seed,
                n_paths=full_chunks * chunk_size + short,
                initial=("density", lambda q: np.ones(len(q)), box, 1.0),
                burn_in_fraction=0.0, n_snapshots=5, chunk_size=chunk_size,
                clip_box=box)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' writes finely
    try:
        runs = [simulate(drift, patch, DiffusionConfig(**base, n_threads=n))
                for n in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    serial = runs[0]
    assert serial.clipped.any()
    for threaded in runs[1:]:
        assert serial.pre.tobytes() == threaded.pre.tobytes()
        assert serial.post.tobytes() == threaded.post.tobytes()
        assert serial.clipped.tobytes() == threaded.clipped.tobytes()


def test_curved_metric_threads_do_not_change_results():
    # two chunks of the per-row metric path: noise factor and Christoffel
    # correction evaluated stacked over each chunk
    base = dict(dt=0.01, horizon=0.2, n_paths=96, master_seed=31,
                initial=("point", (1.5, 0.2, -0.1)), burn_in_fraction=0.0,
                n_snapshots=6, chunk_size=48)
    patch = polar_flat_patch()
    drift = drift_from_fields(lambda q: np.zeros_like(q), patch, 1.0)
    serial = simulate(drift, patch, DiffusionConfig(**base, n_threads=1))
    threaded = simulate(drift, patch, DiffusionConfig(**base, n_threads=2))
    assert serial.pre.tobytes() == threaded.pre.tobytes()
    assert serial.post.tobytes() == threaded.post.tobytes()
    assert not np.array_equal(serial.pre[:48], serial.pre[48:])


def test_curved_metric_step_matches_pointwise_replay():
    # one Euler-Maruyama step rebuilt from pointwise metric calls
    config = DiffusionConfig(dt=0.01, horizon=0.1, n_paths=5, master_seed=3,
                             nu=0.5, initial=("point", (1.2, 0.4, 0.3)),
                             burn_in_fraction=0.0, n_snapshots=100)
    patch = polar_flat_patch()
    drift = drift_from_fields(lambda q: np.zeros_like(q), patch, 0.5)
    ens = simulate(drift, patch, config)
    q = ens.pre[:, 3]
    z = np.stack([recompute_noise(config, n, 3) for n in range(5)])
    expected = np.stack([
        p - 0.25 * patch.christoffel_contraction(p) * config.dt
        + np.sqrt(0.5 * config.dt) * patch.noise_factor(p) @ zn
        for p, zn in zip(q, z)
    ])
    np.testing.assert_allclose(ens.post[:, 3], expected, rtol=0, atol=1e-14)


def test_curved_step_evaluates_metric_once_per_row():
    # the drift correction and the noise factor of a step share one
    # evaluation of sigma and one of its gradient per path
    polar = polar_flat_patch()
    calls = {"sigma": 0, "sigma_gradient": 0}

    def counted(name, func):
        def wrapped(q):
            calls[name] += 1
            return func(q)
        return wrapped

    patch = MetricPatch(counted("sigma", polar.metric),
                        sigma_gradient=counted("sigma_gradient",
                                               polar.sigma_derivatives))
    config = DiffusionConfig(dt=0.01, horizon=0.2, n_paths=24, master_seed=7,
                             initial=("point", (1.5, 0.2, -0.1)),
                             burn_in_fraction=0.0, n_snapshots=5,
                             chunk_size=8)
    drift = drift_from_fields(lambda q: np.zeros_like(q), patch, 1.0)
    ens = simulate(drift, patch, config)
    assert calls == {"sigma": 24 * 20, "sigma_gradient": 24 * 20}
    reference = simulate(drift_from_fields(lambda q: np.zeros_like(q), polar,
                                           1.0), polar, config)
    assert ens.post.tobytes() == reference.post.tobytes()


def test_density_initialization_stalls_with_typed_error():
    # a box where the gaussian weight underflows: no proposal is accepted
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=16, master_seed=4, nu=NU,
        initial=("density", gauss_weight,
                 Box((20.0, 20.0, 20.0), (24.0, 24.0, 24.0)), 1.0),
    )
    patch = MetricPatch.euclidean()
    start = time.perf_counter()
    with pytest.raises(SamplerStalled) as err:
        simulate(ou_drift, patch, config)
    assert time.perf_counter() - start < 20.0
    message = str(err.value)
    assert "accepted 0 of" in message
    assert "[20.0, 20.0, 20.0]" in message and "[24.0, 24.0, 24.0]" in message


def _reference_sample_initial(config, rng, count):
    """The whole-batch rejection sampler: weight over every proposal."""
    _, weight, box, sup = config.initial
    out = np.empty((count, 3))
    have = 0
    while have < count:
        m = max(4 * (count - have), 1024)
        prop = rng.uniform(box.lo_array, box.hi_array, size=(m, 3))
        took = prop[rng.uniform(0.0, sup, size=m) < weight(prop)]
        take = min(len(took), count - have)
        out[have:have + take] = took[:take]
        have += take
    return out


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("sup", [1.0, 2.0])
def test_blocked_sampler_matches_whole_batch(monkeypatch, block, sup):
    # sup 1 accepts about 3 % of the gaussian proposals, so batches shrink
    # over many rounds; a flat weight under sup 2 accepts half, so the
    # sampler fills up inside the first proposal batch and stops there
    if block is not None:
        monkeypatch.setattr(diffusion, "BLOCK_SAMPLES", block)
    weight = gauss_weight if sup == 1.0 else (
        lambda q: np.ones(len(q)))
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=5000, master_seed=3, nu=NU,
        initial=("density", weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), sup),
    )
    assert 4 * config.n_paths > diffusion.BLOCK_SAMPLES
    got = diffusion._sample_initial(
        config, diffusion._init_stream(config.master_seed, 0), 5000)
    want = _reference_sample_initial(
        config, diffusion._init_stream(config.master_seed, 0), 5000)
    assert np.array_equal(got, want)


def test_density_initialization_matches_target():
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=40000, master_seed=13, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        burn_in_fraction=0.0, n_snapshots=100,
    )
    patch = MetricPatch.euclidean()
    ens = simulate(drift_from_fields(ou_drift, patch, NU), patch, config)
    init = ens.pre[:, 0]
    assert np.all(np.abs(init.mean(axis=0)) < 0.02)
    assert np.all(np.abs(init.var(axis=0) - SIGMA_RHO**2) < 0.03)


# --- guard rails -------------------------------------------------------------

def test_explosion_raises():
    config = DiffusionConfig(dt=0.05, horizon=0.5, n_paths=4, master_seed=1,
                             initial=("point", (1.0, 0.0, 0.0)),
                             explosion_radius=10.0)
    patch = MetricPatch.euclidean()
    with pytest.raises(Explosion):
        simulate(lambda q: 50.0 * q, patch, config)


def test_explosion_step_matches_exact_norm():
    # from |q| = 7 < 10 the cheap max-abs screen (3 * 49 > 100) trips on
    # every step, but only the exact norm decides when Explosion is raised
    q0 = (7.0, 0.0, 0.0)
    config = DiffusionConfig(dt=0.05, horizon=1.0, n_paths=4, master_seed=5,
                             nu=0.25, initial=("point", q0),
                             explosion_radius=10.0)
    _, _, posts = _manual_replay(config, q0, config.n_steps,
                                 drift=lambda q: q)
    norms = [np.max(np.linalg.norm(p, axis=1)) for p in posts]
    first = next(k for k, n in enumerate(norms) if n > 10.0)
    assert first > 0
    with pytest.raises(Explosion, match=f"at step {first}$"):
        simulate(lambda q: q, MetricPatch.euclidean(), config)


def test_clip_box_freezes_and_flags():
    box = Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    config = DiffusionConfig(dt=0.05, horizon=1.0, n_paths=32, master_seed=2,
                             initial=("point", (1.0, 0.0, 0.0)),
                             burn_in_fraction=0.0, n_snapshots=4,
                             clip_box=box)
    patch = MetricPatch.euclidean()
    ens = simulate(lambda q: 5.0 * q, patch, config)
    assert np.all(ens.clipped)
    assert np.all(box.contains(ens.final_states()))


# --- drift assembly ----------------------------------------------------------

def test_drift_correction_vanishes_on_constant_metric():
    patch = MetricPatch.euclidean()
    assert drift_from_fields(ou_drift, patch, 0.7) is ou_drift


def test_drift_correction_polar_closed_form():
    # sigma = diag(1, r^2, 1): sigma^jk Gamma^r_jk = -1/r, so the
    # correction term adds +nu/(2r) to the radial drift
    patch = polar_flat_patch(analytic_derivatives=True)
    nu = 0.8
    beta = drift_from_fields(lambda q: np.zeros_like(q), patch, nu)
    q = np.array([[2.0, 0.3, 0.0], [0.5, 1.0, -1.0]])
    expected = np.stack([
        np.array([nu / (2.0 * r), 0.0, 0.0]) for r in q[:, 0]
    ])
    assert np.allclose(beta(q), expected, atol=1e-8)


# --- stationary statistics ----------------------------------------------------

def test_stationary_variance_matches_density(ou_ensemble):
    report = variance_report(ou_ensemble)
    var_last = report["variance"][-1]
    se_last = report["se"][-1]
    assert np.all(np.abs(var_last - SIGMA_RHO**2) < 3.5 * se_last)
    # two-sample stationarity: halfway snapshot vs final
    mid = np.argmin(np.abs(report["times"] - 0.5 * report["times"][-1]))
    pooled = np.hypot(report["se"][mid], se_last)
    assert np.all(
        np.abs(report["variance"][mid] - var_last) < 3.5 * pooled
    )


def test_forward_drift_matches_osmotic_velocity(ou_ensemble):
    bins = BinSpec((-2, -4, -4), (2, 4, 4), (5, 1, 1))
    est = forward_drift_estimate(ou_ensemble, bins, min_count=2000)
    assert np.sum(est.valid) >= 4
    target = -THETA * est.centers
    err = np.abs(est.mean - target)[est.valid]
    assert np.all(err < 4.0 * est.se[est.valid])


def test_backward_drift_is_minus_forward(ou_ensemble):
    bins = BinSpec((-2, -4, -4), (2, 4, 4), (5, 1, 1))
    fwd = forward_drift_estimate(ou_ensemble, bins, min_count=2000)
    bwd = backward_drift_estimate(ou_ensemble, bins, min_count=2000)
    both = fwd.valid & bwd.valid
    assert np.sum(both) >= 4
    target = THETA * bwd.centers
    err_direct = np.abs(bwd.mean - target)[both]
    assert np.all(err_direct < 4.0 * bwd.se[both])
    # paired combination: the two estimates share increments, so the sum
    # must be formed batchwise for an honest error bar
    mean, se, valid = combine_drift_estimates(fwd, bwd, 1.0, 1.0)
    assert np.sum(valid) >= 4
    assert np.all(np.abs(mean[valid]) < 4.0 * se[valid])


def test_insufficient_samples_raises(ou_ensemble):
    bins = BinSpec((10.0, 10.0, 10.0), (12.0, 12.0, 12.0), (2, 2, 2))
    with pytest.raises(InsufficientSamples):
        forward_drift_estimate(ou_ensemble, bins)


# --- specular reversal --------------------------------------------------------

def test_specular_reverse_is_exact_involution(ou_ensemble):
    rev = specular_reverse(ou_ensemble)
    assert rev.direction == "specular"
    assert np.all(rev.times <= 0.0)
    assert np.all(rev.times >= -ou_ensemble.meta["horizon"])
    back = specular_reverse(rev)
    assert back.direction == "forward"
    assert np.array_equal(back.times, ou_ensemble.times)
    assert np.array_equal(back.pre, ou_ensemble.pre)
    assert np.array_equal(back.post, ou_ensemble.post)


def test_specular_reverse_is_a_read_only_view(ou_ensemble):
    rev = specular_reverse(ou_ensemble)
    assert np.shares_memory(rev.pre, ou_ensemble.post)
    assert np.shares_memory(rev.post, ou_ensemble.pre)
    for array in (rev.pre, rev.post, rev.clipped):
        with pytest.raises(ValueError):
            array[0] = 1.0
    back = specular_reverse(rev)
    assert np.array_equal(back.pre, ou_ensemble.pre)
    assert np.array_equal(back.post, ou_ensemble.post)
    # the source stays writable
    assert ou_ensemble.pre.flags.writeable


def test_specular_forward_drift_equals_osmotic_velocity(ou_ensemble):
    # reversing the stationary ensemble flips the current contribution
    # (zero here) and keeps the osmotic part: forward drift of the
    # reversed paths is u itself
    rev = specular_reverse(ou_ensemble)
    bins = BinSpec((-2, -4, -4), (2, 4, 4), (5, 1, 1))
    est = forward_drift_estimate(rev, bins, min_count=2000)
    target = -THETA * est.centers
    err = np.abs(est.mean - target)[est.valid]
    assert np.all(err < 4.0 * est.se[est.valid])


# --- weak order ----------------------------------------------------------------

def _discrete_point_variance(theta, nu, dt, steps):
    # exact per-axis variance of the Euler chain started at the origin
    a2 = (1.0 - theta * dt) ** 2
    return nu * dt * (1.0 - a2**steps) / (1.0 - a2)


def test_monte_carlo_matches_discrete_theory():
    dt = 4e-3
    config = DiffusionConfig(
        dt=dt, horizon=2.0, n_paths=20000, master_seed=31, nu=NU,
        initial=("point", (0.0, 0.0, 0.0)), burn_in_fraction=0.0,
        n_snapshots=1,
    )
    patch = MetricPatch.euclidean()
    ens = simulate(drift_from_fields(ou_drift, patch, NU), patch, config)
    final = ens.final_states()
    expected = _discrete_point_variance(THETA, NU, dt, config.n_steps)
    sample = final.var(axis=0, ddof=1)
    se = expected * np.sqrt(2.0 / (config.n_paths - 1))
    assert np.all(np.abs(sample - expected) < 4.0 * se)


def test_scheme_weak_error_slope_is_one():
    # bias of the Euler chain against the continuous-time second moment
    horizon = 2.0
    continuous = (NU / (2 * THETA)) * (1.0 - np.exp(-2 * THETA * horizon))
    dts = np.array([4e-3, 2e-3, 1e-3])
    errs = [
        abs(_discrete_point_variance(THETA, NU, dt, int(round(horizon / dt)))
            - continuous)
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.7 < slope < 1.3


# --- binning -------------------------------------------------------------------

def test_bin_spec_indexing_and_centers():
    bins = BinSpec((0.0, 0.0, 0.0), (2.0, 2.0, 2.0), (2, 2, 2))
    assert bins.n_bins == 8
    centers = bins.centers()
    assert centers.shape == (8, 3)
    assert np.allclose(centers[0], [0.5, 0.5, 0.5])
    idx = bins.flat_index(np.array([
        [0.5, 0.5, 0.5],
        [1.5, 0.5, 0.5],
        [0.5, 1.5, 1.5],
        [3.0, 0.5, 0.5],
    ]))
    assert idx.tolist() == [0, 4, 3, -1]


def test_flat_index_edges_and_batched_shape():
    bins = BinSpec((-1.0, 0.0, 2.0), (1.0, 3.0, 5.0), (2, 3, 4))
    lo, hi = np.array(bins.lo), np.array(bins.hi)
    shape = np.array(bins.shape)
    # the box is half open: lo is bin 0, hi on any one axis is outside and
    # a point just below it is in that axis' last bin
    assert bins.flat_index(lo) == 0
    for i in range(3):
        point = lo.copy()
        point[i] = hi[i]
        assert bins.flat_index(point) == -1
        point[i] = hi[i] - 1e-9
        last = np.ravel_multi_index(tuple(np.where(np.arange(3) == i,
                                                   shape - 1, 0)), bins.shape)
        assert bins.flat_index(point) == last
    rng = np.random.default_rng(11)
    points = rng.uniform(-2.0, 6.0, size=(7, 5, 3))
    batched = bins.flat_index(points)
    assert batched.shape == (7, 5)
    assert np.array_equal(batched.reshape(-1),
                          bins.flat_index(points.reshape(-1, 3)))
    assert np.array_equal(batched.reshape(-1),
                          _reference_flat_index(bins, points.reshape(-1, 3)))


def test_bin_spec_rejects_bad_box():
    with pytest.raises(ConfigInvalid):
        BinSpec((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (2, 2, 2))


def test_batch_of_path_layout():
    np.testing.assert_array_equal(batch_of_path(10, 4),
                                  [0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    # fewer paths than batches: one path per batch, the rest stay empty
    np.testing.assert_array_equal(batch_of_path(3, 32), [0, 1, 2])
    np.testing.assert_array_equal(batch_of_path(7, 1), np.zeros(7))


def test_batch_mean_se_skips_missing_batches():
    nan, inf = np.nan, np.inf
    # (batches, bins): bins 0 and 1 have three batches each (an inf counts
    # as missing, like a NaN), bin 2 only one
    values = np.array([[1.0, 2.0, nan],
                       [2.0, inf, 5.0],
                       [4.0, 4.0, nan],
                       [nan, 7.0, nan]])
    mean, se, n_eff = batch_mean_se(values)
    np.testing.assert_array_equal(n_eff, [3, 3, 1])
    np.testing.assert_allclose(mean, [7.0 / 3.0, 13.0 / 3.0, 5.0])
    np.testing.assert_allclose(
        se[:2], [np.std([1.0, 2.0, 4.0], ddof=1) / np.sqrt(3.0),
                 np.std([2.0, 4.0, 7.0], ddof=1) / np.sqrt(3.0)])
    assert se[2] == inf
    # vector values: a batch counts when its first component is finite
    vec = np.stack([values, 2.0 * values], axis=-1)
    vmean, vse, vn = batch_mean_se(vec)
    np.testing.assert_array_equal(vn, n_eff)
    np.testing.assert_array_equal(vmean[:, 0], mean)
    np.testing.assert_array_equal(vse[:, 0], se)
    np.testing.assert_allclose(vse[:2, 1], 2.0 * se[:2])


# --- binning exactness and memory ---------------------------------------------
#
# The estimators bin with an overflow slot instead of masking and copying
# the in-box samples. The references below are the keep-and-copy versions
# they replaced; every output must agree bit for bit.


def _reference_flat_index(bins, points):
    points = np.asarray(points, dtype=float)
    lo = np.asarray(bins.lo)
    hi = np.asarray(bins.hi)
    shape = np.asarray(bins.shape)
    frac = (points - lo) / (hi - lo)
    inside = np.all((frac >= 0.0) & (frac < 1.0), axis=-1)
    idx3 = np.clip((frac * shape).astype(int), 0, shape - 1)
    flat = np.ravel_multi_index(
        tuple(idx3[..., i] for i in range(3)), bins.shape
    )
    return np.where(inside, flat, -1)


def _reference_binned_drift(ensemble, bins, condition_on, n_batches):
    values = (ensemble.post - ensemble.pre) / ensemble.dt
    anchor = ensemble.pre if condition_on == "pre" else ensemble.post
    k = bins.n_bins
    flat_vals = values.reshape(-1, 3)
    flat_bins = _reference_flat_index(bins, anchor.reshape(-1, 3))
    flat_batch = np.repeat(batch_of_path(ensemble.n_paths, n_batches),
                           ensemble.n_snapshots)
    keep = flat_bins >= 0
    fb = flat_bins[keep]
    fv = flat_vals[keep]
    fg = flat_batch[keep]
    fa = anchor.reshape(-1, 3)[keep]
    count = np.bincount(fb, minlength=k).astype(int)
    sums = np.stack([
        np.bincount(fb, weights=fv[:, d], minlength=k) for d in range(3)
    ], axis=-1)
    overall = np.divide(
        sums, count[:, None], out=np.zeros((k, 3)), where=count[:, None] > 0
    )
    anchor_sums = np.stack([
        np.bincount(fb, weights=fa[:, d], minlength=k) for d in range(3)
    ], axis=-1)
    anchor_mean = np.divide(
        anchor_sums, count[:, None],
        out=np.full((k, 3), np.nan), where=count[:, None] > 0,
    )
    cell = fg * k + fb
    bcount = np.bincount(cell, minlength=n_batches * k).reshape(n_batches, k)
    bsums = np.stack([
        np.bincount(cell, weights=fv[:, d], minlength=n_batches * k)
        for d in range(3)
    ], axis=-1).reshape(n_batches, k, 3)
    bmeans = np.divide(
        bsums, bcount[..., None],
        out=np.full((n_batches, k, 3), np.nan), where=bcount[..., None] > 0,
    )
    _, se, _ = batch_mean_se(bmeans)
    return {"count": count, "mean": overall, "anchor_mean": anchor_mean,
            "batch_mean": bmeans, "batch_count": bcount, "se": se}


def _reference_density(ensemble, bins, patch, n_batches):
    flat = _reference_flat_index(bins, ensemble.pre.reshape(-1, 3))
    keep = flat >= 0
    fb = flat[keep]
    k = bins.n_bins
    vol = float(np.prod((np.asarray(bins.hi) - np.asarray(bins.lo))
                        / np.asarray(bins.shape)))
    root_sig = patch.sqrt_det(bins.centers())
    count = np.bincount(fb, minlength=k).astype(int)
    total = int(count.sum())
    est = count / (total * vol * root_sig)
    batch = np.repeat(
        batch_of_path(ensemble.n_paths, n_batches), ensemble.n_snapshots
    )[keep]
    bcount = np.bincount(batch * k + fb, minlength=n_batches * k).reshape(
        n_batches, k
    )
    btot = bcount.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        best = bcount / (btot * vol * root_sig)
    n_eff = np.sum(btot[:, 0] > 0)
    se = best.std(axis=0, ddof=1) / np.sqrt(n_eff)
    se = np.where(count >= 2, se, np.inf)
    return {"estimate": est, "se": se, "count": count, "batch_estimate": best}


# a 1.8-sigma cube leaves about a fifth of the stationary samples outside
EXACT_BINS = BinSpec((-1.8, -1.8, -1.8), (1.8, 1.8, 1.8), (4, 4, 4))


@pytest.fixture(scope="module")
def exact_ensemble():
    config = DiffusionConfig(
        dt=0.01, horizon=0.2, n_paths=3000, master_seed=4242, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        burn_in_fraction=0.0, n_snapshots=12, chunk_size=1024,
    )
    patch = MetricPatch.euclidean()
    return simulate(drift_from_fields(ou_drift, patch, NU), patch, config)


def test_overflow_binning_matches_keep_and_copy(exact_ensemble):
    outside = np.mean(EXACT_BINS.flat_index(exact_ensemble.pre) < 0)
    assert 0.15 < outside < 0.25
    rev = specular_reverse(exact_ensemble)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.5]))
    for ens in (exact_ensemble, rev):
        for condition_on, estimate in (("pre", forward_drift_estimate),
                                       ("post", backward_drift_estimate)):
            got = estimate(ens, EXACT_BINS, min_count=50, n_batches=7)
            want = _reference_binned_drift(ens, EXACT_BINS, condition_on, 7)
            for name, value in want.items():
                assert np.array_equal(getattr(got, name), value,
                                      equal_nan=True), (condition_on, name)
        got = estimate_density(ens, EXACT_BINS, patch, n_batches=7)
        want = _reference_density(ens, EXACT_BINS, patch, 7)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value,
                                  equal_nan=True), name


def _traced_peak(call):
    """(result, peak traced bytes during the call); numpy reports its
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def traced_simulation():
    # 8 192 paths x 24 snapshots in four chunks on two threads; the
    # ceilings below are multiples of one pair array's size
    config = DiffusionConfig(
        dt=2e-3, horizon=0.2, n_paths=8192, master_seed=5, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        burn_in_fraction=0.0, n_snapshots=24, chunk_size=2048, n_threads=2,
    )
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, NU)
    ensemble, peak = _traced_peak(lambda: simulate(drift, patch, config))
    return ensemble, peak / ensemble.pre.nbytes


def test_simulate_allocates_the_ensemble_once(traced_simulation):
    # pre and post (2.0) plus the chunks' work buffers, no concatenated copy
    ensemble, ratio = traced_simulation
    assert ensemble.pre.shape == (8192, 24, 3)
    assert ratio <= 2.5


# the binned estimators hold a block's index, cell and component columns,
# never an (n_samples, 3) copy
ALLOC_BINS = BinSpec((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), (4, 4, 4))


def test_drift_estimate_allocates_columns_not_copies(traced_simulation):
    ensemble, _ = traced_simulation
    est, peak = _traced_peak(
        lambda: forward_drift_estimate(ensemble, ALLOC_BINS, min_count=10))
    assert np.any(est.valid)
    assert peak / ensemble.pre.nbytes <= 2.0


def test_density_estimate_allocates_columns_not_copies(traced_simulation):
    ensemble, _ = traced_simulation
    density, peak = _traced_peak(lambda: estimate_density(
        ensemble, ALLOC_BINS, MetricPatch.euclidean()))
    assert density.meta["total_inside"] > 0
    assert peak / ensemble.pre.nbytes <= 2.0


def test_specular_reverse_allocates_no_ensemble(traced_simulation):
    ensemble, _ = traced_simulation
    rev, peak = _traced_peak(lambda: specular_reverse(ensemble))
    assert rev.n_paths == ensemble.n_paths
    assert peak / ensemble.pre.nbytes <= 0.01


# --- fixed path blocks ------------------------------------------------------
#
# Every pass over an ensemble walks it in blocks of about BLOCK_SAMPLES
# samples and sums in sample order, so results must not depend on where
# the block boundaries fall, and the work memory must not grow with
# n_paths.


def _synthetic_ensemble(n_paths, n_snapshots, seed):
    """Unit gaussian states and small increments; a 1.8-sigma cube leaves
    about a fifth of them outside EXACT_BINS. A power-of-two dt keeps the
    twice-reversed time stamps exact."""
    rng = np.random.default_rng(seed)
    pre = rng.normal(size=(n_paths, n_snapshots, 3))
    post = pre + 0.1 * rng.normal(size=pre.shape)
    dt = 2.0 ** -6
    return diffusion.PathEnsemble(
        times=dt * np.arange(n_snapshots), pre=pre, post=post, dt=dt,
        nu=NU, clipped=np.zeros(n_paths, dtype=bool))


def _reference_variance(ensemble, n_batches):
    states = ensemble.pre
    batch = batch_of_path(ensemble.n_paths, n_batches)
    bvars = np.stack([
        states[batch == b].var(axis=0, ddof=1) for b in range(n_batches)
        if np.sum(batch == b) > 1
    ])
    return {"variance": states.var(axis=0, ddof=1),
            "se": bvars.std(axis=0, ddof=1) / np.sqrt(len(bvars))}


@pytest.mark.parametrize("block", [None, 120])
def test_block_boundaries_leave_passes_exact(monkeypatch, block):
    # the shipped block size over three full blocks and a ragged one, and
    # ten-path blocks that path batches straddle
    if block is not None:
        monkeypatch.setattr(diffusion, "BLOCK_SAMPLES", block)
    n_snapshots, n_paths = 12, 4501
    per_block = diffusion._block_paths(n_snapshots)
    assert n_paths // per_block >= 3 and n_paths % per_block
    ensemble = _synthetic_ensemble(n_paths, n_snapshots, seed=17)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.5]))
    for ens in (ensemble, specular_reverse(ensemble)):
        for condition_on, estimate in (("pre", forward_drift_estimate),
                                       ("post", backward_drift_estimate)):
            got = estimate(ens, EXACT_BINS, min_count=50, n_batches=7)
            want = _reference_binned_drift(ens, EXACT_BINS, condition_on, 7)
            for name, value in want.items():
                assert np.array_equal(getattr(got, name), value,
                                      equal_nan=True), (condition_on, name)
        got = estimate_density(ens, EXACT_BINS, patch, n_batches=7)
        want = _reference_density(ens, EXACT_BINS, patch, 7)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value,
                                  equal_nan=True), name
        report = variance_report(ens, n_batches=7)
        for name, value in _reference_variance(ens, 7).items():
            assert np.array_equal(report[name], value), name


def test_variance_report_needs_two_filled_batches():
    # 20 paths in 32 batches: every batch holds at most one path
    with pytest.raises(InsufficientSamples, match="two or more paths"):
        variance_report(_synthetic_ensemble(20, 3, seed=1))
    # 40 paths: twenty batches of two
    report = variance_report(_synthetic_ensemble(40, 3, seed=1))
    assert np.all(np.isfinite(report["se"]))


def test_same_pairs_finds_any_difference():
    n_snapshots = 12
    n_paths = 2 * diffusion._block_paths(n_snapshots) + 5
    ensemble = _synthetic_ensemble(n_paths, n_snapshots, seed=2)
    double = specular_reverse(specular_reverse(ensemble))
    assert double.same_pairs(ensemble)
    for name, index in (("pre", (n_paths - 1, 11, 2)), ("post", (0, 0, 0)),
                        ("times", (3,))):
        changed = _synthetic_ensemble(n_paths, n_snapshots, seed=2)
        getattr(changed, name)[index] += 1e-12
        assert not changed.same_pairs(ensemble), name
    assert not _synthetic_ensemble(n_paths - 1, n_snapshots, seed=2) \
        .same_pairs(ensemble)


# one float column of a block, the unit of the work-memory bounds below
BLOCK_COLUMN = 8 * diffusion.BLOCK_SAMPLES
N_BLOCK_PATHS = 8192


@pytest.fixture(scope="module")
def block_ensembles():
    """N and 4N paths of 24 snapshots: pre.nbytes is 36 and 144 columns."""
    return [_synthetic_ensemble(n, 24, seed=n)
            for n in (N_BLOCK_PATHS, 4 * N_BLOCK_PATHS)]


def _work_peaks(ensembles, call):
    return [_traced_peak(lambda: call(ens))[1] for ens in ensembles]


def _assert_block_bounded(peaks, columns):
    small, large = peaks
    assert max(peaks) <= columns * BLOCK_COLUMN, [p / BLOCK_COLUMN
                                                   for p in peaks]
    # four times the paths: the same blocks, only more of them
    assert large - small <= BLOCK_COLUMN / 4, (small, large)


def test_variance_report_memory_is_one_block(block_ensembles):
    # a block of pre (three columns) plus per-batch accumulators
    _assert_block_bounded(
        _work_peaks(block_ensembles, variance_report), 5)


def test_drift_estimate_memory_is_one_block(block_ensembles):
    # flat_index work, the bin, cell, increment and anchor columns
    _assert_block_bounded(_work_peaks(
        block_ensembles,
        lambda ens: forward_drift_estimate(ens, ALLOC_BINS, min_count=10)), 8)


def test_density_estimate_memory_is_one_block(block_ensembles):
    _assert_block_bounded(_work_peaks(
        block_ensembles,
        lambda ens: estimate_density(ens, ALLOC_BINS,
                                     MetricPatch.euclidean())), 8)


def test_involution_check_memory_is_one_block(block_ensembles):
    # a block's boolean comparison: three eighths of a column
    _assert_block_bounded(_work_peaks(
        block_ensembles,
        lambda ens: specular_reverse(specular_reverse(ens)).same_pairs(ens)),
        1)
