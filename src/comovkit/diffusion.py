"""Stationary Markov kinematics on the spatial slice.

Euler-Maruyama integration of dq^i = beta^i dt + sqrt(nu dt) G^i_k z^k
with G G^T = sigma^{-1}, where beta is the coordinate drift obtained from
the invariant (vector) drift by subtracting the Christoffel contraction.

Reproducibility contract: the noise draw consumed by (path, step) is a
pure function of the master seed, the path's chunk (paths are grouped in
fixed-size chunks set by the config, never by the executor), and the step
index. Chunks evaluate on independent counter-based streams, so any
thread count produces bit-identical ensembles; ``recompute_noise``
rebuilds any single draw from scratch for verification.

Full trajectories at the acceptance scale would need tens of gigabytes,
so ensembles store (state, next state) pairs at a strided set of
post-burn-in steps plus the final step: everything the drift and density
estimators condition on. Peak memory is those two arrays plus O(block)
work per pass: chunks write into one preallocated ensemble, every pass
over a simulated ensemble (rejection sampling, binning, the variance
report, the specular involution check) walks it in fixed blocks of about
``BLOCK_SAMPLES`` samples, and the specular ensemble is a read-only view
of its source. Sums run in sample order from 0.0 whatever the block
boundaries, so results equal whole-array ones bit for bit.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigInvalid,
    Explosion,
    InsufficientSamples,
    SamplerStalled,
)
from .fields import Box

DEFAULT_CHUNK = 16384
DEFAULT_BATCHES = 32
# proposals the rejection sampler may spend without a single acceptance
PROPOSAL_BUDGET = 1 << 20
# samples (3-vectors) per block of a pass over an ensemble or a proposal batch
BLOCK_SAMPLES = 1 << 14


@dataclass
class DiffusionConfig:
    """Simulation parameters; validated on construction."""

    dt: float
    horizon: float
    n_paths: int
    master_seed: int
    nu: float = 1.0
    initial: tuple = ("point", (0.0, 0.0, 0.0))
    burn_in_fraction: float = 0.2
    n_snapshots: int = 24
    chunk_size: int = DEFAULT_CHUNK
    n_threads: int = 1
    clip_box: Box = None
    explosion_radius: float = 1e6

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigInvalid("dt must be positive")
        if self.horizon < 10 * self.dt:
            raise ConfigInvalid("horizon must be at least 10 dt")
        if self.n_paths < 1:
            raise ConfigInvalid("need at least one path")
        if self.nu <= 0:
            raise ConfigInvalid("diffusion coefficient must be positive")
        if self.chunk_size < 1 or self.n_threads < 1:
            raise ConfigInvalid("chunk_size and n_threads must be positive")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ConfigInvalid("burn_in_fraction must lie in [0, 1)")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))

    def snapshot_steps(self):
        """Strided post-burn-in step indices, always including the last."""
        steps = self.n_steps
        burn = int(self.burn_in_fraction * steps)
        last = steps - 1
        if self.n_snapshots <= 1 or burn >= last:
            return [last]
        stride = max(1, (last - burn) // max(self.n_snapshots - 1, 1))
        ks = list(range(burn, last, stride))[: self.n_snapshots - 1]
        if ks and ks[-1] == last:
            ks = ks[:-1]
        return ks + [last]


@dataclass
class PathEnsemble:
    """Pair snapshots of a simulated ensemble.

    ``pre[n, m]`` is the state of path n at ``times[m]`` and ``post[n, m]``
    the state one step later; the estimators condition forward statistics
    on ``pre`` and backward statistics on ``post``.
    """

    times: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    dt: float
    nu: float
    direction: str = "forward"
    clipped: np.ndarray = None
    master_seed: int = None
    chunk_size: int = DEFAULT_CHUNK
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self):
        return self.pre.shape[0]

    @property
    def n_snapshots(self):
        return self.pre.shape[1]

    def final_states(self):
        return self.post[:, -1]

    def same_pairs(self, other):
        """Whether ``times``, ``pre`` and ``post`` equal ``other``'s element
        for element; compared in path blocks, so no ensemble-sized
        temporary forms."""
        if not (np.array_equal(self.times, other.times)
                and self.pre.shape == other.pre.shape
                and self.post.shape == other.post.shape):
            return False
        return all(
            np.array_equal(mine[lo:hi], theirs[lo:hi])
            for lo, hi in _chunk_ranges(self.n_paths,
                                        _block_paths(self.n_snapshots))
            for mine, theirs in ((self.pre, other.pre),
                                 (self.post, other.post))
        )


def _noise_stream(master_seed, chunk_index):
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(chunk_index, 0))
    return np.random.Generator(np.random.Philox(seq))


def _init_stream(master_seed, chunk_index):
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(chunk_index, 1))
    return np.random.Generator(np.random.Philox(seq))


def _chunk_ranges(n_paths, chunk_size):
    return [(lo, min(lo + chunk_size, n_paths))
            for lo in range(0, n_paths, chunk_size)]


def _block_paths(n_snapshots):
    """Paths per block: about BLOCK_SAMPLES samples, at least one path."""
    return max(1, BLOCK_SAMPLES // max(n_snapshots, 1))


def _sample_initial(config, rng, count):
    kind = config.initial[0]
    if kind == "point":
        q0 = np.asarray(config.initial[1], dtype=float)
        return np.tile(q0, (count, 1))
    if kind == "density":
        # rejection sampling proportional to weight(q) inside a box
        _, weight, box, sup = config.initial
        lo = box.lo_array
        hi = box.hi_array
        out = np.empty((count, 3))
        have = 0
        proposed = 0
        while have < count:
            if have == 0 and proposed >= PROPOSAL_BUDGET:
                raise SamplerStalled(
                    f"rejection sampler accepted 0 of {proposed} proposals "
                    f"in the box {lo.tolist()} to {hi.tolist()}; the "
                    "initial density vanishes there"
                )
            m = max(4 * (count - have), 1024)
            prop = rng.uniform(lo, hi, size=(m, 3))
            level = rng.uniform(0.0, sup, size=m)
            # weight is evaluated per row block; acceptances keep their order
            for i in range(0, m, BLOCK_SAMPLES):
                rows = prop[i:i + BLOCK_SAMPLES]
                took = rows[level[i:i + BLOCK_SAMPLES] < weight(rows)]
                take = min(len(took), count - have)
                out[have:have + take] = took[:take]
                have += take
                if have == count:
                    break
            proposed += m
        return out
    raise ConfigInvalid(f"unknown initial sampler '{kind}'")


def drift_from_fields(u, patch, nu):
    """Coordinate drift beta^i = u^i - (nu/2) sigma^{jk} Gamma^i_{jk}.

    ``u`` maps (n, 3) points to (n, 3) contravariant components. For
    constant metrics the correction vanishes identically and the drift is
    u itself.
    """
    if getattr(patch, "is_constant", False):
        return u

    def beta(q):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        return u(q) - 0.5 * nu * patch.christoffel_contraction(q)

    return beta


def simulate(drift, patch, config):
    """Euler-Maruyama ensemble of the forward diffusion.

    ``drift`` maps (n, 3) states to (n, 3) coordinate drifts (already
    including any Christoffel correction; see ``drift_from_fields``).
    Raises Explosion when any path norm exceeds the configured radius;
    paths leaving ``clip_box`` freeze in place and are flagged.
    """
    steps = config.n_steps
    snap_steps = config.snapshot_steps()
    snap_index = {k: m for m, k in enumerate(snap_steps)}
    n_snaps = len(snap_steps)
    root_nudt = np.sqrt(config.nu * config.dt)
    constant_metric = getattr(patch, "is_constant", False)
    g_const = patch.noise_factor(np.zeros(3)) if constant_metric else None
    unit_noise = constant_metric and np.array_equal(g_const, np.eye(3))
    radius2 = config.explosion_radius ** 2
    # every chunk writes its own [lo:hi] rows of one preallocated ensemble
    pre = np.empty((config.n_paths, n_snaps, 3))
    post = np.empty((config.n_paths, n_snaps, 3))
    clipped = np.zeros(config.n_paths, dtype=bool)

    def run_chunk(chunk_index, lo, hi):
        count = hi - lo
        rng = _noise_stream(config.master_seed, chunk_index)
        q = _sample_initial(
            config, _init_stream(config.master_seed, chunk_index), count
        )
        pre_rows, post_rows, flags = pre[lo:hi], post[lo:hi], clipped[lo:hi]
        z, step, qn = (np.empty((count, 3)) for _ in range(3))
        for k in range(steps):
            rng.standard_normal(out=z)
            beta = np.asarray(drift(q), dtype=float)
            np.multiply(beta, config.dt, out=step)
            if constant_metric:
                z *= root_nudt
                step += z if unit_noise else z @ g_const.T
            else:
                step += root_nudt * np.einsum(
                    "nij,nj->ni", patch.noise_factor(q), z
                )
            np.add(q, step, out=qn)
            if config.clip_box is not None:
                outside = ~config.clip_box.contains(qn)
                if np.any(outside):
                    qn[outside] = q[outside]
                    flags |= outside
            # |q|^2 <= 3 max|q_i|^2 screens out the exact norm on most steps
            if 3.0 * max(qn.max(), -qn.min()) ** 2 > radius2 and float(
                    np.max(np.einsum("ni,ni->n", qn, qn))) > radius2:
                raise Explosion(
                    f"path norm exceeded {config.explosion_radius:g} at "
                    f"step {k}"
                )
            m = snap_index.get(k)
            if m is not None:
                pre_rows[:, m] = q
                post_rows[:, m] = qn
            q, qn = qn, q

    ranges = _chunk_ranges(config.n_paths, config.chunk_size)
    if config.n_threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
            futures = [
                pool.submit(run_chunk, ci, lo, hi)
                for ci, (lo, hi) in enumerate(ranges)
            ]
            for fut in futures:
                fut.result()
    else:
        for ci, (lo, hi) in enumerate(ranges):
            run_chunk(ci, lo, hi)

    times = np.asarray(snap_steps, dtype=float) * config.dt
    return PathEnsemble(
        times=times, pre=pre, post=post, dt=config.dt, nu=config.nu,
        direction="forward", clipped=clipped,
        master_seed=config.master_seed, chunk_size=config.chunk_size,
        meta={"n_steps": steps, "horizon": config.horizon},
    )


def recompute_noise(config, path, step):
    """Rebuild the exact standard-normal 3-vector consumed by (path, step).

    Regenerates the path's chunk stream from the master seed; used to
    assert that draws are pure functions of (seed, path, step).
    """
    chunk_index = path // config.chunk_size
    lo, hi = _chunk_ranges(config.n_paths, config.chunk_size)[chunk_index]
    row = path - lo
    rng = _noise_stream(config.master_seed, chunk_index)
    z = None
    for _ in range(step + 1):
        z = rng.standard_normal((hi - lo, 3))
    return z[row]


def _read_only(view):
    view.flags.writeable = False
    return view


def specular_reverse(ensemble):
    """Time-reversed ensemble: q'(t') = q(-t'), pairs swapped and reordered.

    An exact involution on the stored arrays; the reversed time stamps lie
    in [-horizon, 0]. ``pre``, ``post`` and ``clipped`` are read-only views
    sharing memory with the source ensemble; only ``times`` is a new array.
    """
    direction = "specular" if ensemble.direction == "forward" else "forward"
    clipped = ensemble.clipped
    return PathEnsemble(
        times=(-(ensemble.times + ensemble.dt))[::-1].copy(),
        pre=_read_only(ensemble.post[:, ::-1]),
        post=_read_only(ensemble.pre[:, ::-1]),
        dt=ensemble.dt,
        nu=ensemble.nu,
        direction=direction,
        clipped=None if clipped is None else _read_only(clipped[:]),
        master_seed=ensemble.master_seed,
        chunk_size=ensemble.chunk_size,
        meta=dict(ensemble.meta),
    )


# ---------------------------------------------------------------------------
# binned drift estimators


@dataclass
class BinSpec:
    """Uniform rectangular bins over a 3-d box."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        shape = np.asarray(self.shape, dtype=int)
        if not (np.all(hi > lo) and np.all(shape >= 1)):
            raise ConfigInvalid("bad bin specification")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))
        object.__setattr__(self, "shape", tuple(int(s) for s in shape))

    @property
    def n_bins(self):
        return int(np.prod(self.shape))

    def centers(self):
        axes = [
            np.linspace(self.lo[i], self.hi[i], self.shape[i] + 1)
            for i in range(3)
        ]
        mids = [0.5 * (a[1:] + a[:-1]) for a in axes]
        mesh = np.meshgrid(*mids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def flat_index(self, points):
        """Flat (C-order) bin index per point of a (..., 3) array; -1 for
        points outside the half-open box [lo, hi).

        The index is built one axis at a time, so no (..., 3) temporary
        exists.
        """
        points = np.asarray(points, dtype=float)
        flat = np.zeros(points.shape[:-1], dtype=np.intp)
        inside = np.ones(points.shape[:-1], dtype=bool)
        for i, n in enumerate(self.shape):
            frac = points[..., i] - self.lo[i]
            frac /= self.hi[i] - self.lo[i]
            inside &= frac >= 0.0
            inside &= frac < 1.0
            frac *= n
            idx = frac.astype(np.intp)
            del frac
            flat *= n
            flat += np.clip(idx, 0, n - 1)
            del idx
        flat[~inside] = -1
        return flat


@dataclass
class DriftEstimate:
    """Per-bin conditional drift with path-batch standard errors.

    ``batch_mean[b, j]`` is the bin-j mean over path batch b (NaN when the
    batch has no samples in the bin); linear combinations of forward and
    backward estimates must be formed batchwise, because both condition on
    the same sample pairs and their errors are strongly correlated.
    """

    centers: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    count: np.ndarray
    valid: np.ndarray
    direction: str
    min_count: int
    batch_mean: np.ndarray = None
    batch_count: np.ndarray = None
    anchor_mean: np.ndarray = None

    def eval_points(self):
        """Sample-mean anchor per bin, falling back to the bin center.

        Conditional targets should be evaluated here: the estimate in a
        bin is conditioned on the empirical anchor distribution, not on
        the geometric center, and for affine targets the anchor mean is
        exact while the center carries the full binning bias.
        """
        out = self.centers.copy()
        ok = np.isfinite(self.anchor_mean[:, 0])
        out[ok] = self.anchor_mean[ok]
        return out


def _batch_edges(n_paths, n_batches):
    """First path of each path batch, then n_paths: contiguous batches of
    ceil(n / n_batches) paths, the last one also taking any remainder."""
    size = max(1, int(np.ceil(n_paths / n_batches)))
    edges = np.minimum(np.arange(n_batches + 1) * size, n_paths)
    edges[-1] = n_paths
    return edges


def _batches_in(edges, lo, hi):
    """Path-batch index of each path lo..hi-1."""
    per_batch = np.diff(np.clip(edges, lo, hi))
    return np.repeat(np.arange(len(per_batch)), per_batch)


def batch_of_path(n_paths, n_batches):
    """Path-batch index per path (see ``_batch_edges`` for the layout)."""
    return _batches_in(_batch_edges(n_paths, n_batches), 0, n_paths)


def batch_mean_se(values):
    """Mean over path batches and its standard error, per bin.

    ``values`` is (n_batches, k) or (n_batches, k, d); a batch counts in a
    bin when its (first) component there is finite. Returns (mean, se,
    n_eff): the NaN-mean over counting batches, nanstd(ddof=1) /
    sqrt(n_eff), infinite where fewer than two batches count, and n_eff.
    """
    finite = np.isfinite(values if values.ndim == 2 else values[..., 0])
    n_eff = finite.sum(axis=0)
    extra = (1,) * (values.ndim - 2)
    masked = np.where(finite.reshape(finite.shape + extra), values, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(masked, axis=0)
        spread = np.nanstd(masked, axis=0, ddof=1)
    n = n_eff.reshape(n_eff.shape + extra)
    se = np.where(n >= 2, spread / np.sqrt(np.maximum(n, 1)), np.inf)
    return mean, se, n_eff


def _bin_totals(bins, anchor, n_batches, ensemble=None):
    """Counts, and with ``ensemble`` sums, per bin and per (batch, bin) cell.

    Walks ``anchor`` (n_paths, n_snapshots, 3) in path blocks. Out-of-box
    samples go to an overflow bin k = ``bins.n_bins`` and cells have k + 1
    slots per path batch; the overflow slots are dropped at the end.
    Returns (count (k,), cell count (n_batches, k)); with ``ensemble`` also
    the sums of the increments (post - pre)/dt per bin (k, 3) and per cell
    (n_batches, k, 3) and of the anchor per bin (k, 3). ``np.add.at`` adds
    the weights in sample order starting from 0.0, as one ``np.bincount``
    over the whole ensemble does, so no sum depends on the block size.
    """
    k = bins.n_bins
    n_cells = n_batches * (k + 1)
    edges = _batch_edges(anchor.shape[0], n_batches)
    count = np.zeros(k + 1, dtype=np.intp)
    cell_count = np.zeros(n_cells, dtype=np.intp)
    sums = np.zeros((3, k + 1))
    cell_sums = np.zeros((3, n_cells))
    anchor_sums = np.zeros((3, k + 1))
    for lo, hi in _chunk_ranges(anchor.shape[0],
                                _block_paths(anchor.shape[1])):
        flat = bins.flat_index(anchor[lo:hi])
        flat[flat < 0] = k
        batch = _batches_in(edges, lo, hi)
        cell = (flat + (k + 1) * batch[:, None]).reshape(-1)
        flat = flat.reshape(-1)
        count += np.bincount(flat, minlength=k + 1)
        cell_count += np.bincount(cell, minlength=n_cells)
        if ensemble is None:
            continue
        for d in range(3):
            rate = ensemble.post[lo:hi, :, d] - ensemble.pre[lo:hi, :, d]
            rate /= ensemble.dt
            rate = rate.reshape(-1)
            np.add.at(sums[d], flat, rate)
            np.add.at(cell_sums[d], cell, rate)
            np.add.at(anchor_sums[d], flat, anchor[lo:hi, :, d].reshape(-1))
    counts = count[:k], cell_count.reshape(n_batches, k + 1)[:, :k]
    if ensemble is None:
        return counts
    return counts + (
        sums[:, :k].T,
        cell_sums.reshape(3, n_batches, k + 1)[:, :, :k].transpose(1, 2, 0),
        anchor_sums[:, :k].T,
    )


def _binned_drift(ensemble, bins, condition_on, min_count, n_batches):
    """Bin (post - pre)/dt by either the pre or the post state.

    Standard errors come from the spread of per-path-batch means, which is
    insensitive to correlation between snapshots of the same path.
    """
    anchor = ensemble.pre if condition_on == "pre" else ensemble.post
    k = bins.n_bins
    count, bcount, sums, bsums, anchor_sums = _bin_totals(
        bins, anchor, n_batches, ensemble)
    overall = np.divide(
        sums, count[:, None], out=np.zeros((k, 3)), where=count[:, None] > 0
    )
    anchor_mean = np.divide(
        anchor_sums, count[:, None],
        out=np.full((k, 3), np.nan), where=count[:, None] > 0,
    )
    bmeans = np.divide(
        bsums, bcount[..., None],
        out=np.full((n_batches, k, 3), np.nan), where=bcount[..., None] > 0,
    )
    _, se, nb_eff = batch_mean_se(bmeans)

    valid = (count >= min_count) & (nb_eff >= 2)
    if not np.any(valid):
        raise InsufficientSamples(
            f"no bin reached the minimum occupancy {min_count}"
        )
    return DriftEstimate(
        centers=bins.centers(), mean=overall, se=se, count=count,
        valid=valid, direction=condition_on, min_count=min_count,
        batch_mean=bmeans, batch_count=bcount, anchor_mean=anchor_mean,
    )


def combine_drift_estimates(first, second, coeff_first, coeff_second):
    """Batchwise linear combination of two estimates on the same ensemble.

    Returns (mean, se, valid). Errors of the two inputs are correlated
    (they see the same increments), so the combination is formed per path
    batch and its spread across batches gives the standard error.
    """
    combo = coeff_first * first.batch_mean + coeff_second * second.batch_mean
    mean, se, n_eff = batch_mean_se(combo)
    valid = first.valid & second.valid & (n_eff >= 2)
    return mean, se, valid


def forward_drift_estimate(ensemble, bins, min_count=200,
                           n_batches=DEFAULT_BATCHES):
    """beta_plus(q) ~= E[q(t+dt) - q(t) | q(t) = q] / dt."""
    return _binned_drift(ensemble, bins, "pre", min_count, n_batches)


def backward_drift_estimate(ensemble, bins, min_count=200,
                            n_batches=DEFAULT_BATCHES):
    """beta_minus(q) ~= E[q(t) - q(t-dt) | q(t) = q] / dt."""
    return _binned_drift(ensemble, bins, "post", min_count, n_batches)


def variance_report(ensemble, n_batches=DEFAULT_BATCHES):
    """Per-snapshot, per-axis ensemble variance with path-batch SEs.

    Reads ``pre`` in path blocks that never straddle a path batch. Row sums
    and then squared deviations are added block after block in path order,
    each block as one sum over a buffer whose first row carries the running
    total, which is the order ``var(axis=0, ddof=1)`` adds them in: the
    values equal the whole-array ones bit for bit. Raises
    InsufficientSamples unless at least two path batches hold two or more
    paths, the least a batch standard error needs.
    """
    states = ensemble.pre
    edges = _batch_edges(ensemble.n_paths, n_batches)
    size = np.diff(edges)
    if np.count_nonzero(size > 1) < 2:
        raise InsufficientSamples(
            f"{ensemble.n_paths} paths give fewer than two of {n_batches} "
            "path batches two or more paths; the variance standard error "
            "needs two"
        )
    step = _block_paths(ensemble.n_snapshots)
    blocks = [(b, lo, min(lo + step, edges[b + 1]))
              for b in range(n_batches)
              for lo in range(edges[b], edges[b + 1], step)]
    # slot b sums batch b; slot n_batches sums every path
    count = np.append(size, ensemble.n_paths)[:, None, None]
    buf = np.empty((step + 1,) + states.shape[1:])

    def slot_sums(center=None):
        """Per slot: sum of rows, or of squared deviations from center."""
        total = np.zeros((n_batches + 1,) + states.shape[1:])
        for b, lo, hi in blocks:
            rows = buf[1:hi - lo + 1]
            if center is None:
                rows[...] = states[lo:hi]
            for slot in (b, n_batches):
                if center is not None:
                    np.subtract(states[lo:hi], center[slot], out=rows)
                    rows *= rows
                buf[0] = total[slot]
                total[slot] = buf[:hi - lo + 1].sum(axis=0)
        return total

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = slot_sums() / count
        var = slot_sums(mean) / (count - 1)
    bvars = var[:n_batches][size > 1]
    return {
        "times": ensemble.times.copy(),
        "variance": var[n_batches],
        "se": bvars.std(axis=0, ddof=1) / np.sqrt(len(bvars)),
    }
