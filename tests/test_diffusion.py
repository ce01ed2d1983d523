"""Simulator, reproducibility, drift estimators, specular reversal."""

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from comovkit import diffusion
from comovkit.diffusion import (
    BinSpec,
    DiffusionConfig,
    backward_drift_estimate,
    batch_mean_se,
    combine_drift_estimates,
    drift_from_fields,
    forward_drift_estimate,
    leaf_drift,
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
from comovkit.estimators import estimate_density, gaussian_density
from comovkit.fields import Box
from comovkit.geometry import MetricPatch, polar_flat_patch
from conftest import family_checks, traced_peak

SIGMA_RHO = 1.0
NU = 1.0
THETA = NU / (2.0 * SIGMA_RHO**2)
OU_SEED = 20260816
# standard errors come from 32 path batches, so each t has 31 dof
BATCH_DOF = 31
# drift families bin the ensemble in five slabs along the first axis
SLABS = BinSpec((-2, -4, -4), (2, 4, 4), (5, 1, 1))

# Power controls: a known bias that each family check must reject on its
# own fixture. Each is about twice the bias the check detects on nine
# seeds in ten, simulated from the fixture's standard errors.
VARIANCE_BIAS = 0.06  # stationary variance target scaled by 1 + delta
STATIONARITY_BIAS = 0.08  # halfway variance scaled by 1 + delta
DRIFT_BIAS = 1.0  # drift target scaled by 1 + delta
ANTISYMMETRY_BIAS = 1.6  # forward + backward target shifted by delta u
DISCRETE_VARIANCE_BIAS = 0.06  # Euler-chain variance scaled by 1 + delta
INITIAL_VARIANCE_BIAS = 0.04  # truncated-gaussian variance scaled likewise


def ou_drift(q):
    return -THETA * q


def gauss_weight(q):
    return np.exp(-0.5 * np.sum(q**2, axis=-1) / SIGMA_RHO**2)


def simulate_ou(seed):
    """Stationary ensemble for the Gaussian density fixture."""
    config = DiffusionConfig(
        dt=2e-3, horizon=4.0, n_paths=20000, master_seed=seed, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        n_snapshots=24, chunk_size=16384, n_threads=2,
    )
    patch = MetricPatch.euclidean()
    return simulate(drift_from_fields(ou_drift, patch, NU), patch, config)


@pytest.fixture(scope="module")
def ou_ensemble():
    return simulate_ou(OU_SEED)


def variance_t(report, delta=0.0):
    """Per-axis t of the final snapshot's variance against (1 + delta)
    times the stationary variance."""
    target = (1.0 + delta) * SIGMA_RHO**2
    return (report["variance"][-1] - target) / report["se"][-1]


def stationarity_t(report, delta=0.0):
    """Per-axis two-sample t of the halfway snapshot's variance, scaled by
    1 + delta, against the final one's.

    The two snapshots share their paths; their positive correlation makes
    the independent-sample SE (``hypot``) conservative.
    """
    mid = np.argmin(np.abs(report["times"] - 0.5 * report["times"][-1]))
    pooled = np.hypot(report["se"][mid], report["se"][-1])
    return ((1.0 + delta) * report["variance"][mid]
            - report["variance"][-1]) / pooled


def drift_t(est, slope, delta=0.0):
    """Per-bin, per-axis t of a drift estimate against (1 + delta) slope q,
    at the per-bin sample mean, where the affine target is exact."""
    target = (1.0 + delta) * slope * est.eval_points()
    return ((est.mean - target) / est.se)[est.valid]


def antisymmetry_t(fwd, bwd, delta=0.0):
    """Per-bin, per-axis t of forward plus backward drift, formed per path
    batch, against delta times the osmotic velocity u = -theta q."""
    mean, se, valid = combine_drift_estimates(fwd, bwd, 1.0, 1.0)
    anchor = 0.5 * (fwd.eval_points() + bwd.eval_points())
    return ((mean - delta * -THETA * anchor) / se)[valid]


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
    rng = diffusion._noise_stream(config.master_seed, 0)
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


def test_noise_and_initial_streams_are_pinned():
    # the first draws of chunk 3's two streams under master seed 77: a
    # change of generator, seeding or spawn keys changes every data file
    # and fails here. The values are those of numpy 2.4's SFC64,
    # SeedSequence and ziggurat normals; another numpy version may draw
    # differently and then needs them recorded again.
    noise = diffusion._noise_stream(77, 3).standard_normal(4)
    assert noise.tolist() == [0.9121397853648763, 0.573796735791029,
                              0.5004125856910072, -1.6683127572930503]
    initial = diffusion._init_stream(77, 3).uniform(0.0, 1.0, size=4)
    assert initial.tolist() == [0.08337591253006105, 0.7927563164994044,
                                0.5508258482762339, 0.6936550007400976]


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


def _sampler_runs(config, count):
    """(states, proposed, stream state) of the blocked sampler, then
    (states, stream state) of the whole-batch reference, each drawing from
    a fresh chunk-0 initial stream."""
    rng = diffusion._init_stream(config.master_seed, 0)
    got, proposed, _ = diffusion._sample_initial(config, rng, count)
    ref = diffusion._init_stream(config.master_seed, 0)
    want = _reference_sample_initial(config, ref, count)
    return (got, proposed, _stream_state(rng)), (want, _stream_state(ref))


def _stream_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["state"].tolist(), state["has_uint32"],
            state["uinteger"])


def _flat_weight(q):
    return np.ones(len(q))


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("sup", [1.0, 2.0])
def test_blocked_sampler_matches_whole_batch(monkeypatch, block, sup):
    # sup 1 accepts about 3 % of the gaussian proposals, so batches shrink
    # over many rounds; a flat weight under sup 2 accepts half, so the
    # sampler fills up inside the first proposal batch and stops there
    if block is not None:
        monkeypatch.setattr(diffusion, "BLOCK_SAMPLES", block)
    weight = gauss_weight if sup == 1.0 else _flat_weight
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=5000, master_seed=3, nu=NU,
        initial=("density", weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), sup),
    )
    assert 4 * config.n_paths > diffusion.BLOCK_SAMPLES
    (got, _, got_stream), (want, want_stream) = _sampler_runs(config, 5000)
    assert np.array_equal(got, want)
    assert got_stream == want_stream


# (weight, sup, count) of each way a sampler batch can end
SAMPLER_CASES = {
    # every proposal accepted: the first batch's one block fills the states
    "one_batch": (_flat_weight, 1.0, 300),
    # half accepted: 20 000 proposals, filled inside the first of two blocks
    "break_mid_batch": (_flat_weight, 2.0, 5000),
    # about 3 % accepted: batches shrink over many rounds
    "several_batches": (gauss_weight, 1.0, 1000),
}


@pytest.mark.parametrize("case, block", [
    ("one_batch", None), ("one_batch", 7), ("break_mid_batch", 7),
    ("several_batches", 7)])
def test_blocked_sampler_keeps_states_and_stream(monkeypatch, case, block):
    # the blocked sampler against the whole-batch reference, beyond the
    # cases above: the same states, and the stream left where the whole
    # batch leaves it, however the batch ends and with seven-row blocks
    if block is not None:
        monkeypatch.setattr(diffusion, "BLOCK_SAMPLES", block)
    weight, sup, count = SAMPLER_CASES[case]
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=count, master_seed=11, nu=NU,
        initial=("density", weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), sup))
    (got, proposed, got_stream), (want, want_stream) = _sampler_runs(
        config, count)
    assert np.array_equal(got, want)
    assert got_stream == want_stream
    if case == "several_batches":
        assert proposed > 4 * count
    elif block == 7:
        # the batch's blocks left undrawn are not counted as proposed
        assert proposed < 4 * count


def test_sampler_counts_proposals_and_acceptances():
    box = Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0))
    point = DiffusionConfig(dt=0.01, horizon=0.1, n_paths=4, master_seed=1)
    assert diffusion._sample_initial(point, None, 4)[1:] == (0, 0)
    # a flat weight under sup 1 accepts every proposal of the one block
    flat = DiffusionConfig(dt=0.01, horizon=0.1, n_paths=300, master_seed=1,
                           initial=("density", _flat_weight, box, 1.0))
    _, proposed, accepted = diffusion._sample_initial(
        flat, diffusion._init_stream(1, 0), 300)
    assert proposed == accepted == 1200


def test_initial_acceptance_does_not_depend_on_threads():
    # four chunks, each with its own sampler counts, summed in chunk order
    base = dict(dt=0.01, horizon=0.1, n_paths=1000, master_seed=21,
                initial=("density", gauss_weight,
                         Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
                burn_in_fraction=0.0, n_snapshots=2, chunk_size=250)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, NU)
    counts = [simulate(drift, patch, DiffusionConfig(**base, n_threads=n))
              .meta["initial_acceptance"] for n in (1, 2, 3)]
    assert counts[0] == counts[1] == counts[2]
    chunks = [diffusion._sample_initial(
        DiffusionConfig(**base), diffusion._init_stream(21, ci), 250)[1:]
        for ci in range(4)]
    assert counts[0] == {"proposed": sum(c[0] for c in chunks),
                         "accepted": sum(c[1] for c in chunks)}
    assert 0 < counts[0]["accepted"] < counts[0]["proposed"]


def _reference_simulate(drift, patch, config):
    """Serial Euler-Maruyama with a step buffer: step = beta dt, plus the
    noise term, then qn = q + step; returns (pre, post, clipped)."""
    snaps = config.snapshot_steps()
    pre = np.empty((config.n_paths, len(snaps), 3))
    post = np.empty_like(pre)
    clipped = np.zeros(config.n_paths, dtype=bool)
    root = np.sqrt(config.nu * config.dt)
    constant = patch.is_constant
    g = patch.noise_factor(np.zeros(3)) if constant else None
    ranges = diffusion._chunk_ranges(config.n_paths, config.chunk_size)
    for ci, (lo, hi) in enumerate(ranges):
        rng = diffusion._noise_stream(config.master_seed, ci)
        if config.initial[0] == "point":
            q = np.tile(np.asarray(config.initial[1], dtype=float),
                        (hi - lo, 1))
        else:
            q = _reference_sample_initial(
                config, diffusion._init_stream(config.master_seed, ci),
                hi - lo)
        for k in range(config.n_steps):
            z = rng.standard_normal((hi - lo, 3))
            step = np.asarray(drift(q), dtype=float) * config.dt
            if not constant:
                step += root * np.einsum("nij,nj->ni",
                                         patch.noise_factor(q), z)
            elif np.array_equal(g, np.eye(3)):
                step += z * root
            else:
                step += (z * root) @ g.T
            qn = q + step
            if config.clip_box is not None:
                outside = ~config.clip_box.contains(qn)
                qn[outside] = q[outside]
                clipped[lo:hi] |= outside
            if np.max(np.einsum("ni,ni->n", qn, qn)) \
                    > diffusion.EXPLOSION_RADIUS ** 2:
                raise Explosion(f"path norm exceeded "
                                f"{diffusion.EXPLOSION_RADIUS:g} at step {k}")
            if k in snaps:
                pre[lo:hi, snaps.index(k)] = q
                post[lo:hi, snaps.index(k)] = qn
            q = qn
    return pre, post, clipped


def _sheared_constant_patch():
    return MetricPatch.constant([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1],
                                 [0.0, 0.1, 0.5]])


# (patch, drift field, initial, clip box, explosion radius) per update path
STEP_CASES = {
    "unit_noise": (MetricPatch.euclidean, ou_drift, "density", None, 1e6),
    "constant_metric": (_sheared_constant_patch, ou_drift, "density", None,
                        1e6),
    "curved_patch": (polar_flat_patch, np.zeros_like,
                     ("point", (1.5, 0.2, -0.1)), None, 1e6),
    "clip_box": (MetricPatch.euclidean, lambda q: 5.0 * q,
                 ("point", (1.0, 0.0, 0.0)),
                 Box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)), 1e6),
    "explosion": (MetricPatch.euclidean, lambda q: q,
                  ("point", (7.0, 0.0, 0.0)), None, 10.0),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_matches_step_buffer_reference(monkeypatch, case):
    # the in-place step against the step-buffer loop, over three chunks on
    # two threads: the same ensemble bit for bit, or the same Explosion
    make_patch, field, initial, clip, radius = STEP_CASES[case]
    monkeypatch.setattr(diffusion, "EXPLOSION_RADIUS", radius)
    patch = make_patch()
    if initial == "density":
        initial = ("density", gauss_weight,
                   Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0)
    config = DiffusionConfig(
        dt=0.05, horizon=1.0, n_paths=150, master_seed=8, nu=0.5,
        initial=initial, burn_in_fraction=0.0, n_snapshots=7, chunk_size=64,
        n_threads=2, clip_box=clip)
    drift = drift_from_fields(field, patch, config.nu)
    try:
        want = _reference_simulate(drift, patch, config)
    except Explosion as err:
        assert case == "explosion"
        with pytest.raises(Explosion, match=f"^{err}$"):
            simulate(drift, patch, config)
        return
    got = simulate(drift, patch, config)
    assert case != "explosion"
    assert got.pre.tobytes() == want[0].tobytes()
    assert got.post.tobytes() == want[1].tobytes()
    assert got.clipped.tobytes() == want[2].tobytes()
    assert want[2].any() == (case == "clip_box")


def initial_t(init, delta=0.0):
    """Per-axis z of an initial sample's mean against 0 and of its variance
    against (1 + delta) times that of the sampled law.

    The sampler draws independent states from the unit gaussian truncated
    to the box [-4, 4]^3, whose axes are independent truncated normals;
    the SEs are the independent-sample ones.
    """
    law = stats.truncnorm(-4.0, 4.0)
    n = len(init)
    mean_z = init.mean(axis=0) / np.sqrt(law.var() / n)
    var_se = np.sqrt((law.moment(4) - law.var() ** 2) / n)
    var_z = (init.var(axis=0, ddof=1) - (1.0 + delta) * law.var()) / var_se
    return np.concatenate([mean_z, var_z])


def initial_states(seed):
    """Initial states of 40 000 paths from the density sampler."""
    config = DiffusionConfig(
        dt=0.01, horizon=0.1, n_paths=40000, master_seed=seed, nu=NU,
        initial=("density", gauss_weight,
                 Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)), 1.0),
        burn_in_fraction=0.0, n_snapshots=100,
    )
    patch = MetricPatch.euclidean()
    ens = simulate(drift_from_fields(ou_drift, patch, NU), patch, config)
    return ens.pre[:, 0]


def test_density_initialization_matches_target():
    init = initial_states(13)
    # family: per-axis z of the mean and of the variance (6 members; 39 999
    # dof, taken as normal) at FALSE_ALARM per seed
    # power control: the variance target scaled by the known bias
    truth, biased = family_checks(
        initial_t(init), initial_t(init, INITIAL_VARIANCE_BIAS), np.inf)
    assert not truth["reject"], truth
    assert biased["reject"], biased


# --- guard rails -------------------------------------------------------------

def test_explosion_raises(monkeypatch):
    monkeypatch.setattr(diffusion, "EXPLOSION_RADIUS", 10.0)
    config = DiffusionConfig(dt=0.05, horizon=0.5, n_paths=4, master_seed=1,
                             initial=("point", (1.0, 0.0, 0.0)))
    patch = MetricPatch.euclidean()
    with pytest.raises(Explosion):
        simulate(lambda q: 50.0 * q, patch, config)


def test_explosion_step_matches_exact_norm(monkeypatch):
    # from |q| = 7 < 10 the cheap max-abs screen (3 * 49 > 100) trips on
    # every step, but only the exact norm decides when Explosion is raised
    monkeypatch.setattr(diffusion, "EXPLOSION_RADIUS", 10.0)
    q0 = (7.0, 0.0, 0.0)
    config = DiffusionConfig(dt=0.05, horizon=1.0, n_paths=4, master_seed=5,
                             nu=0.25, initial=("point", q0))
    _, _, posts = _manual_replay(config, q0, config.n_steps,
                                 drift=lambda q: q)
    norms = [np.max(np.linalg.norm(p, axis=1)) for p in posts]
    first = next(k for k, n in enumerate(norms) if n > 10.0)
    assert first > 0
    with pytest.raises(Explosion, match=f"at step {first}$"):
        simulate(lambda q: q, MetricPatch.euclidean(), config)


def test_explosion_catches_a_nan_path():
    # a drift that turns one row NaN fails both norm tests (NaN compares
    # false), so it must raise rather than write NaN into the snapshots
    config = DiffusionConfig(dt=0.01, horizon=0.2, n_paths=8, master_seed=3,
                             initial=("point", (1.0, 0.0, 0.0)))

    def drift(q):
        beta = -q
        beta[5] = np.nan
        return beta

    with pytest.raises(Explosion, match="at step 0$"):
        simulate(drift, MetricPatch.euclidean(), config)


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


# --- the leaf drift -----------------------------------------------------------

EPS = np.finfo(float).eps
# leaf points of the drift tests, with r = q[0] in [0.5, 3] for polar_flat_patch
LEAF_POINTS = np.random.default_rng(37).uniform(
    (0.5, -3.0, -3.0), (3.0, 3.0, 3.0), size=(64, 3))


def _no_inverse(patch):
    """Make patch refuse every later ``inverse`` call."""
    def refuse(q):
        raise AssertionError("the drift evaluated sigma^-1 per call")
    patch.inverse = refuse


def test_leaf_drift_on_the_identity_metric_scales_the_log_gradient():
    nu = 0.7
    _, grad_log = gaussian_density(1.07)
    patch = MetricPatch.euclidean()
    beta = leaf_drift(grad_log, patch, nu)
    _no_inverse(patch)
    want = 0.5 * nu * grad_log(LEAF_POINTS)
    assert beta(LEAF_POINTS).tobytes() == want.tobytes()


def test_leaf_drift_on_a_constant_metric_raises_the_log_gradient():
    # A = R diag(1, 10, 100) R^T, condition number 100; sigma^-1 from the
    # closed-form factorization, once. Against LAPACK's solve the error
    # stays below kappa eps (nu/2) |A^-1| |g| per row (0.065 of it seen
    # over 4 096 rows)
    rng = np.random.default_rng(11)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = rot @ np.diag([1.0, 10.0, 100.0]) @ rot.T
    a = 0.5 * (a + a.T)
    kappa = np.linalg.cond(a)
    assert 99.0 < kappa < 101.0
    nu = 0.7
    _, grad_log = gaussian_density(1.07)
    patch = MetricPatch.constant(a)
    beta = leaf_drift(grad_log, patch, nu)
    _no_inverse(patch)
    g = grad_log(LEAF_POINTS)
    want = 0.5 * nu * np.linalg.solve(a, g.T).T
    bound = kappa * EPS * 0.5 * nu * np.linalg.norm(np.linalg.inv(a), 2) \
        * np.linalg.norm(g, axis=-1, keepdims=True)
    assert np.all(np.abs(beta(LEAF_POINTS) - want) <= bound)


def test_leaf_drift_on_a_curved_metric_subtracts_the_christoffel_term():
    # polar sigma = diag(1, r^2, 1): u = (nu/2) (g_r, g_theta / r^2, g_z)
    # in closed form; the two evaluations of sigma^-1 differ by rounding
    nu = 0.8
    patch = polar_flat_patch()
    _, grad_log = gaussian_density(1.07)
    q = LEAF_POINTS
    g = grad_log(q)
    u = 0.5 * nu * g / np.stack([np.ones(len(q)), q[:, 0] ** 2,
                                 np.ones(len(q))], axis=-1)
    correction = 0.5 * nu * patch.christoffel_contraction(q)
    got = leaf_drift(grad_log, patch, nu)(q)
    assert np.all(np.abs(got - (u - correction))
                  <= 4.0 * EPS * (np.abs(u) + np.abs(correction)))
    assert np.all(correction[:, 0] != 0.0)


# --- stationary statistics ----------------------------------------------------

def test_stationary_variance_matches_density(ou_ensemble):
    report = variance_report(ou_ensemble)
    # two families of per-axis t, 3 members and 31 dof each, each at
    # FALSE_ALARM per seed: the final variance against the stationary
    # law, and two-sample stationarity (halfway snapshot vs final)
    for name, t_of, bias in (("variance", variance_t, VARIANCE_BIAS),
                             ("stationarity", stationarity_t,
                              STATIONARITY_BIAS)):
        # power control: the known scaling of the variance is rejected
        truth, biased = family_checks(t_of(report), t_of(report, bias),
                                      BATCH_DOF)
        assert not truth["reject"], (name, truth)
        assert biased["reject"], (name, biased)


def test_forward_drift_matches_osmotic_velocity(ou_ensemble):
    est = forward_drift_estimate(ou_ensemble, SLABS, min_count=2000)
    assert np.sum(est.valid) >= 4
    # family: per-bin, per-axis t, 31 dof, over 3 x the valid slabs (15),
    # at FALSE_ALARM per seed; power control: a drift of twice the osmotic
    # velocity is rejected
    truth, biased = family_checks(drift_t(est, -THETA),
                                  drift_t(est, -THETA, DRIFT_BIAS), BATCH_DOF)
    assert not truth["reject"], truth
    assert biased["reject"], biased


def test_backward_drift_is_minus_forward(ou_ensemble):
    fwd = forward_drift_estimate(ou_ensemble, SLABS, min_count=2000)
    bwd = backward_drift_estimate(ou_ensemble, SLABS, min_count=2000)
    assert np.sum(fwd.valid & bwd.valid) >= 4
    # two families of per-bin, per-axis t, 31 dof, over 3 x the valid
    # slabs (15), each at FALSE_ALARM per seed: the backward drift against
    # +theta q, and the paired sum (the two estimates share increments, so
    # the sum is formed batchwise for an honest error bar) against zero
    families = (
        ("backward", lambda delta: drift_t(bwd, THETA, delta), DRIFT_BIAS),
        ("antisymmetry", lambda delta: antisymmetry_t(fwd, bwd, delta),
         ANTISYMMETRY_BIAS),
    )
    for name, t_of, bias in families:
        t = t_of(0.0)
        assert t.size >= 12, name
        # power control: the target moved by the known bias is rejected
        truth, biased = family_checks(t, t_of(bias), BATCH_DOF)
        assert not truth["reject"], (name, truth)
        assert biased["reject"], (name, biased)


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
    est = forward_drift_estimate(rev, SLABS, min_count=2000)
    # family: per-bin, per-axis t, 31 dof, over 3 x the valid slabs (15),
    # at FALSE_ALARM per seed; power control: a drift of twice the osmotic
    # velocity is rejected
    truth, biased = family_checks(drift_t(est, -THETA),
                                  drift_t(est, -THETA, DRIFT_BIAS), BATCH_DOF)
    assert not truth["reject"], truth
    assert biased["reject"], biased


# --- weak order ----------------------------------------------------------------

def _discrete_point_variance(theta, nu, dt, steps):
    # exact per-axis variance of the Euler chain started at the origin
    a2 = (1.0 - theta * dt) ** 2
    return nu * dt * (1.0 - a2**steps) / (1.0 - a2)


def simulate_from_origin(seed):
    """Final states of 20 000 Euler chains of the OU drift from the origin,
    with their step size and step count."""
    config = DiffusionConfig(
        dt=4e-3, horizon=2.0, n_paths=20000, master_seed=seed, nu=NU,
        initial=("point", (0.0, 0.0, 0.0)), burn_in_fraction=0.0,
        n_snapshots=1,
    )
    patch = MetricPatch.euclidean()
    ens = simulate(drift_from_fields(ou_drift, patch, NU), patch, config)
    return ens.final_states(), config.dt, config.n_steps


def discrete_variance_t(final, dt, steps, delta=0.0):
    """Per-axis z of the sample variance of independent final states
    against (1 + delta) times the Euler chain's exact variance.

    The states are independent gaussians, so the SE is the exact
    sqrt(2 / (n - 1)) times the chain's variance.
    """
    expected = _discrete_point_variance(THETA, NU, dt, steps)
    se = expected * np.sqrt(2.0 / (len(final) - 1))
    return (final.var(axis=0, ddof=1) - (1.0 + delta) * expected) / se


def test_monte_carlo_matches_discrete_theory():
    final, dt, steps = simulate_from_origin(31)
    # family: per-axis z (3 members; n - 1 = 19 999 dof, taken as normal)
    # at FALSE_ALARM per seed
    # power control: the chain's variance scaled by the known bias
    truth, biased = family_checks(
        discrete_variance_t(final, dt, steps),
        discrete_variance_t(final, dt, steps, DISCRETE_VARIANCE_BIAS), np.inf)
    assert not truth["reject"], truth
    assert biased["reject"], biased


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
    # contiguous batches of ceil(n / n_batches) paths, the last one ragged
    edges = diffusion._batch_edges(10, 4)
    np.testing.assert_array_equal(edges, [0, 3, 6, 9, 10])
    np.testing.assert_array_equal(diffusion._batches_in(edges, 0, 10),
                                  [0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    np.testing.assert_array_equal(diffusion._batches_in(edges, 4, 8),
                                  [1, 1, 2, 2])
    # fewer paths than batches: one path per batch, the rest stay empty
    np.testing.assert_array_equal(diffusion._batch_edges(3, 32),
                                  [0, 1, 2] + [3] * 30)
    np.testing.assert_array_equal(diffusion._batch_edges(7, 1), [0, 7])


def _batch_of_path(n_paths):
    """Path-batch index per path, in the estimators' batch layout."""
    edges = diffusion._batch_edges(n_paths, diffusion.DEFAULT_BATCHES)
    return np.repeat(np.arange(diffusion.DEFAULT_BATCHES), np.diff(edges))


def _ragged_batches(n_paths, size):
    """Path-batch edges of ``n_paths``, asserted to be batches of ``size``
    paths with a shorter last one."""
    edges = diffusion._batch_edges(n_paths, diffusion.DEFAULT_BATCHES)
    sizes = np.diff(edges)
    assert np.all(sizes[:-1] == size) and 0 < sizes[-1] < size
    return edges


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


def _reference_binned_drift(ensemble, bins, condition_on):
    n_batches = diffusion.DEFAULT_BATCHES
    values = (ensemble.post - ensemble.pre) / ensemble.dt
    anchor = ensemble.pre if condition_on == "pre" else ensemble.post
    k = bins.n_bins
    flat_vals = values.reshape(-1, 3)
    flat_bins = _reference_flat_index(bins, anchor.reshape(-1, 3))
    flat_batch = np.repeat(_batch_of_path(ensemble.n_paths),
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
            "batch_mean": bmeans, "se": se}


def _reference_density(ensemble, bins, patch):
    n_batches = diffusion.DEFAULT_BATCHES
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
        _batch_of_path(ensemble.n_paths), ensemble.n_snapshots
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
    _ragged_batches(exact_ensemble.n_paths, 94)
    rev = specular_reverse(exact_ensemble)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.5]))
    for ens in (exact_ensemble, rev):
        for condition_on, estimate in (("pre", forward_drift_estimate),
                                       ("post", backward_drift_estimate)):
            got = estimate(ens, EXACT_BINS, min_count=50)
            want = _reference_binned_drift(ens, EXACT_BINS, condition_on)
            for name, value in want.items():
                assert np.array_equal(getattr(got, name), value,
                                      equal_nan=True), (condition_on, name)
        got = estimate_density(ens, EXACT_BINS, patch)
        want = _reference_density(ens, EXACT_BINS, patch)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value,
                                  equal_nan=True), name


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
    ensemble, peak = traced_peak(lambda: simulate(drift, patch, config))
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
    est, peak = traced_peak(
        lambda: forward_drift_estimate(ensemble, ALLOC_BINS, min_count=10))
    assert np.any(est.valid)
    assert peak / ensemble.pre.nbytes <= 2.0


def test_density_estimate_allocates_columns_not_copies(traced_simulation):
    ensemble, _ = traced_simulation
    density, peak = traced_peak(lambda: estimate_density(
        ensemble, ALLOC_BINS, MetricPatch.euclidean()))
    assert density.meta["total_inside"] > 0
    assert peak / ensemble.pre.nbytes <= 2.0


def test_specular_reverse_allocates_no_ensemble(traced_simulation):
    ensemble, _ = traced_simulation
    rev, peak = traced_peak(lambda: specular_reverse(ensemble))
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


def _reference_variance(ensemble):
    states = ensemble.pre
    batch = _batch_of_path(ensemble.n_paths)
    bvars = np.stack([
        states[batch == b].var(axis=0, ddof=1)
        for b in range(diffusion.DEFAULT_BATCHES)
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
    edges = _ragged_batches(n_paths, 141)
    if block is not None:
        assert per_block == 10 and np.any(edges[1:-1] % per_block)
    ensemble = _synthetic_ensemble(n_paths, n_snapshots, seed=17)
    patch = MetricPatch.constant(np.diag([0.64, 1.0, 1.5]))
    for ens in (ensemble, specular_reverse(ensemble)):
        for condition_on, estimate in (("pre", forward_drift_estimate),
                                       ("post", backward_drift_estimate)):
            got = estimate(ens, EXACT_BINS, min_count=50)
            want = _reference_binned_drift(ens, EXACT_BINS, condition_on)
            for name, value in want.items():
                assert np.array_equal(getattr(got, name), value,
                                      equal_nan=True), (condition_on, name)
        got = estimate_density(ens, EXACT_BINS, patch)
        want = _reference_density(ens, EXACT_BINS, patch)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value,
                                  equal_nan=True), name
        report = variance_report(ens)
        for name, value in _reference_variance(ens).items():
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
    return [traced_peak(lambda: call(ens))[1] for ens in ensembles]


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


# the rejection sampler's work beyond its output, in block columns: a
# block's proposals (three columns) and levels (one), and while the
# gaussian weight runs, its squares (three) and row sums (one); then the
# accepted rows (at most three) and the boolean mask
SAMPLER_COLUMNS = 9


def test_sampler_memory_is_one_block():
    # 4 096 states take one block of proposals, 65 536 some 140 blocks
    box = Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0))
    peaks = []
    for count in (4096, 65536):
        config = DiffusionConfig(dt=0.01, horizon=0.1, n_paths=count,
                                 master_seed=3, nu=NU,
                                 initial=("density", gauss_weight, box, 1.0))
        rng = diffusion._init_stream(3, 0)
        (out, _, _), peak = traced_peak(
            lambda: diffusion._sample_initial(config, rng, count))
        peaks.append(peak - out.nbytes)
    _assert_block_bounded(peaks, SAMPLER_COLUMNS)


@pytest.mark.parametrize("kind", ["point", "density"])
def test_simulate_work_is_the_step_or_one_sampler_block(kind):
    # one thread, two chunks of 8 192 paths. Beyond pre, post and the clip
    # flags, the step loop holds four chunk arrays (the state, the noise,
    # the next state and the drift's result) and a density sampler before
    # it its output (one) plus one block's work; a quarter chunk array of
    # slack. A step buffer, or a drift result kept across the next drift
    # call, adds a chunk array each; a whole-batch sampler holds 16 / 3
    # chunk arrays of proposals and levels
    chunk = 8192
    box = Box((-4.0, -4.0, -4.0), (4.0, 4.0, 4.0))
    initial = ("point", (0.0, 0.0, 0.0)) if kind == "point" \
        else ("density", gauss_weight, box, 1.0)
    config = DiffusionConfig(
        dt=2e-3, horizon=0.2, n_paths=2 * chunk, master_seed=5, nu=NU,
        initial=initial, burn_in_fraction=0.0, n_snapshots=24,
        chunk_size=chunk, n_threads=1)
    patch = MetricPatch.euclidean()
    drift = drift_from_fields(ou_drift, patch, NU)
    ens, peak = traced_peak(lambda: simulate(drift, patch, config))
    work = peak - ens.pre.nbytes - ens.post.nbytes - ens.clipped.nbytes
    chunk_array = 3 * 8 * chunk
    bound = 4 * chunk_array if kind == "point" else max(
        4 * chunk_array, chunk_array + SAMPLER_COLUMNS * BLOCK_COLUMN)
    assert work <= bound + chunk_array / 4, work / chunk_array
