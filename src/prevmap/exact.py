"""The exact collapsed engine behind ``prevmap.bym.exact_fit``.

With eps integrated out (the Fay-Herriot form of the model in
``prevmap.bym``), z = b0 + S given both variances is Gaussian with precision
P = Q/sig2_sp + W, W = diag(1/(V_i + sig2_eps)) over the usable regions, and
p(sig2 | Y) has a closed form. The engine evaluates that density on a
lattice of (log sig2_eps, log sig2_sp) laid along the Hessian's eigen-axes
at the mode, draws the variances from the lattice, then b0, z and eps from
their exact conditionals, so every draw is independent (the grid strategy of
INLA, Rue, Martino & Chopin 2009, without its approximations). P is factored
as a banded Cholesky after a reverse Cuthill-McKee ordering.

This module is imported on the engine's first use: it brings in
``scipy.linalg``, which nothing else in prevmap needs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .bym import BymModelSpec, BymPosterior, McmcConfig, posterior_from_draws
from .errors import ModelError
from .graph import IcarPrecision

# The variance grid is a lattice along the Hessian's eigen-axes at the mode
# of log p(log sig2 | Y), grown breadth-first from the mode until the log
# density, and the log density plus each log variance (the integrand of that
# variance's posterior mean), fall GRID_LOG_DROP below their maxima, at a
# spacing that puts about GRID_POINTS points above that level of the density.
# A Gaussian's outer points then hold about 1e-5 of its mass;
# bym.GRID_EDGE_MASS_THRESHOLD flags a grid that missed part of the posterior
# or of a variance's mean.
GRID_POINTS = 600
GRID_LOG_DROP = 10.0
_GRID_MAX_POINTS = 20 * GRID_POINTS
_NEWTON_STEPS = 100
_NEWTON_MAX_STEP = 1.0  # log units
_FD_STEP = 1e-3
_MIN_CURVATURE = 1e-2  # an axis spans at most 10 log units per lattice unit


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS loaded in this process.

    Found through /proc/self/maps; empty where that or the function
    (OpenBLAS 0.3.27 and later) is missing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (AttributeError, OSError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread in the calling thread, then restore.

    The engine's banded factors and solves are small: on two threads
    OpenBLAS's blocked Cholesky of a 2000-node band of width 41 took 5-20 ms
    against 0.9 ms on one, and a thread count could change its rounding. The
    setting is OpenBLAS's thread-local one, so other threads keep theirs;
    with another BLAS this does nothing.
    """
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def _rcm_components(prec: IcarPrecision) -> list[np.ndarray]:
    """Each connected component's nodes in reverse Cuthill-McKee order.

    A breadth-first search from the component's first node of lowest degree
    takes each level's new nodes parent by parent and, under one parent, by
    increasing degree; reversing the visit order keeps Q in a narrow band.
    """
    n = prec.dimension
    src = np.concatenate([prec.edge_i, prec.edge_j])
    dst = np.concatenate([prec.edge_j, prec.edge_i])
    degree = np.bincount(src, minlength=n)
    by = np.lexsort((dst, degree[dst], src))
    dst = dst[by]
    start = np.searchsorted(src[by], np.arange(n + 1))
    seen = np.zeros(n, dtype=bool)
    out = []
    for comp in prec.component_index:
        front = comp[np.argmin(degree[comp])][None]
        seen[front] = True
        levels = [front]
        while True:
            count = start[front + 1] - start[front]
            slots = np.repeat(start[front] - np.cumsum(count) + count, count) + np.arange(count.sum())
            new = dst[slots]
            new = new[~seen[new]]
            if not len(new):
                break
            _, first = np.unique(new, return_index=True)
            front = new[np.sort(first)]
            seen[front] = True
            levels.append(front)
        out.append(np.concatenate(levels)[::-1])
    return out


def _band_layout(prec: IcarPrecision, nodes: np.ndarray) -> tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Band width, upper-band slots and weights of Q's off-diagonal entries over ``nodes``.

    Rows and columns follow ``nodes``, a union of whole components, so an
    edge has both ends in it or neither.
    """
    pos = np.full(prec.dimension, -1)
    pos[nodes] = np.arange(len(nodes))
    inside = pos[prec.edge_i] >= 0
    a, b = pos[prec.edge_i[inside]], pos[prec.edge_j[inside]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    width = int((hi - lo).max(initial=0))
    return width, (width + lo - hi, hi), prec.edge_w[inside]


def _band(layout, diag: np.ndarray, scale: float) -> np.ndarray:
    """Upper band storage of diag(diag) + (Q - diag(Q)) / scale in a ``_band_layout``."""
    width, slots, weight = layout
    ab = np.zeros((width + 1, len(diag)))
    ab[width] = diag
    ab[slots] = -weight / scale
    return ab


def _levels(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each component's block of rows of the 2-d ``x``."""
    return np.add.reduceat(x, starts, axis=0) / sizes[:, None]


@dataclass(frozen=True)
class _Conditional:
    """z over the live nodes given both variances, before its levels are tied to b0."""

    factor: np.ndarray  # upper band Cholesky factor U of P = U'U
    mean: np.ndarray  # m = P^-1 W Y
    level_gain: np.ndarray  # P^-1 a, a = each component's averaging vector
    level_var: np.ndarray  # a' P^-1 a, one per live component
    b0_mean: float
    b0_prec: float


class _Collapsed:
    """The model with eps integrated out, on banded Cholesky factors.

    Components holding a usable region ("live") share one banded precision
    P = Q/sig2_sp + W. Each live component's level (its mean of z) is tied
    to b0 by conditioning on it (Rue & Held 2005, 2.3.3); b0, under its flat
    prior, is integrated out of p(sig2 | Y) in closed form. A component with
    no usable region adds nothing to p(sig2 | Y) once its S is integrated
    out, so it is left out of P and of the rank term, and its S is drawn
    from the sum-to-zero prior: a draw with one node held at unit precision,
    recentred, has exactly that distribution.
    """

    def __init__(self, spec: BymModelSpec) -> None:
        prec = spec.precision
        # per region: usable, then Y and V (placeholders where not usable)
        self.usable = np.array([e.likelihood_usable for e in spec.estimates], dtype=bool)
        self.y = np.array([e.logit_y if e.likelihood_usable else 0.0 for e in spec.estimates])
        self.v = np.array([e.var_logit if e.likelihood_usable else 1.0 for e in spec.estimates])
        live, dead = [], []
        for comp in _rcm_components(prec):
            (live if self.usable[comp].any() else dead).append(comp)
        self.live = np.concatenate(live)
        self.live_sizes = np.array([len(c) for c in live])
        self.live_starts = np.cumsum(self.live_sizes) - self.live_sizes
        self.rank = len(self.live) - len(live)
        self.layout = _band_layout(prec, self.live)
        self.degree = prec.degree[self.live]
        self.use = self.usable[self.live]
        self.y_live, self.v_live = self.y[self.live], self.v[self.live]
        self.average = np.repeat(1.0 / self.live_sizes, self.live_sizes)
        self.isolated = self.live_starts[self.live_sizes == 1]
        self.dead = np.concatenate(dead) if dead else np.zeros(0, dtype=np.intp)
        self.dead_sizes = np.array([len(c) for c in dead], dtype=np.intp)
        self.dead_starts = np.cumsum(self.dead_sizes) - self.dead_sizes
        if dead:
            pinned = prec.degree[self.dead].copy()
            pinned[self.dead_starts] += 1.0
            self.dead_factor = cholesky_banded(_band(_band_layout(prec, self.dead), pinned, 1.0))

    def conditional(self, sig2_eps: float, sig2_sp: float) -> tuple[float, _Conditional]:
        """log p(Y | variances), up to a constant, and z's conditional given them."""
        w = np.where(self.use, 1.0 / (self.v_live + sig2_eps), 0.0)
        factor = cholesky_banded(_band(self.layout, self.degree / sig2_sp + w, sig2_sp))
        rhs = np.empty((len(w), 2))
        wy = np.multiply(w, self.y_live, out=rhs[:, 0])
        rhs[:, 1] = self.average
        sol = cho_solve_banded((factor, False), rhs)
        mean, gain = sol[:, 0], sol[:, 1]
        level, level_var = _levels(sol, self.live_starts, self.live_sizes).T
        tau = 1.0 / level_var
        b0_prec = float(tau.sum())
        b0_mean = float(np.dot(tau, level)) / b0_prec
        log_marginal = 0.5 * (
            float(np.log(w[self.use]).sum())
            - 2.0 * float(np.log(factor[-1]).sum())
            - (float(np.dot(wy, self.y_live)) - float(np.dot(wy, mean)))
            - self.rank * math.log(sig2_sp)
            # the live levels agree, at b0, with b0 integrated out
            - float(np.log(level_var).sum())
            - math.log(b0_prec)
            - float(np.dot(tau, (level - b0_mean) ** 2))
        )
        return log_marginal, _Conditional(factor, mean, gain, level_var, b0_mean, b0_prec)

    def draw_live(self, cond: _Conditional, noise: np.ndarray, b0: np.ndarray) -> np.ndarray:
        """z over the live nodes, (live nodes, k), given k draws of b0 and standard normals.

        ``noise`` is (live nodes, k): one banded triangular solve draws
        x ~ N(m, P^-1) for all k columns, then each component's level is
        moved to its draw of b0 by kriging.
        """
        x, _ = dtbtrs(cond.factor, noise)
        x += cond.mean[:, None]
        shift = (_levels(x, self.live_starts, self.live_sizes) - b0) / cond.level_var[:, None]
        x -= cond.level_gain[:, None] * np.repeat(shift, self.live_sizes, axis=0)
        x[self.isolated] = b0  # exactly: an isolated node has S = 0
        return x

    def draw_dead(self, noise: np.ndarray) -> np.ndarray:
        """Unit-scale sum-to-zero ICAR draws over the dead nodes, (dead nodes, k)."""
        x, _ = dtbtrs(self.dead_factor, noise)
        return x - np.repeat(_levels(x, self.dead_starts, self.dead_sizes), self.dead_sizes, axis=0)


def _derivatives(f, t: np.ndarray, ft: float) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference gradient and Hessian of ``f`` at ``t``."""
    d = len(t)
    e = np.eye(d) * _FD_STEP
    up = [f(t + e[i]) for i in range(d)]
    down = [f(t - e[i]) for i in range(d)]
    grad = np.array([(u - dn) / (2 * _FD_STEP) for u, dn in zip(up, down)])
    hess = np.diag([(u - 2 * ft + dn) / _FD_STEP**2 for u, dn in zip(up, down)])
    for i in range(d):
        for j in range(i):
            cross = f(t + e[i] + e[j]) - f(t + e[i] - e[j]) - f(t - e[i] + e[j]) + f(t - e[i] - e[j])
            hess[i, j] = hess[j, i] = cross / (4 * _FD_STEP**2)
    return grad, hess


def _mode(f, t: np.ndarray) -> np.ndarray:
    """Newton ascent on ``f`` with finite differences, bounded and backtracking steps."""
    ft = f(t)
    for _ in range(_NEWTON_STEPS):
        grad, hess = _derivatives(f, t, ft)
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            break
        curv, axes = np.linalg.eigh(-hess)
        # Newton's step where f curves down; uphill along the gradient where it does not
        step = axes @ ((axes.T @ grad) / np.maximum(np.abs(curv), _MIN_CURVATURE))
        step *= min(1.0, _NEWTON_MAX_STEP / max(float(np.linalg.norm(step)), 1e-300))
        for _ in range(40):
            f_new = f(t + step)
            if f_new > ft:
                break
            step /= 2
        else:
            break
        t, gain, ft = t + step, f_new - ft, f_new
        if np.abs(step).max() < 1e-7 or gain < 1e-10:
            break
    return t


def _edge_mass(points: np.ndarray, logp: np.ndarray, edge: np.ndarray) -> float:
    """Largest share of the posterior mass, or of a variance's mean, on the grid's edge.

    The integrand of E[sig2] on axis j is the density times exp(t_j), so
    its log weight adds the point's log variance to the log density.
    """
    levels = logp[:, None] + np.column_stack([np.zeros(len(points)), points])
    weight = np.exp(levels - levels.max(axis=0))
    return float((weight[edge].sum(axis=0) / weight.sum(axis=0)).max())


def _flood(f, center: np.ndarray, basis: np.ndarray, spacing: float):
    """Lattice points center + basis @ (spacing * k), grown breadth-first.

    ``f`` returns a point's log density and what else the caller keeps of
    it. A point is expanded to its 2d axis neighbours while its log density,
    or its log density plus one of its log variances (as in ``_edge_mass``),
    is within GRID_LOG_DROP of the largest such value seen, so the grid holds
    the tails of the variances' means as well as the posterior mass.
    Returns the points, their log densities, the kept values, and which
    points were not expanded (the grid's edge).
    """
    d = len(center)
    origin = (0,) * d
    value, extra = f(center)
    keys, points, values, kept = [origin], [center], [value], [extra]
    index = {origin}
    levels = [value + np.append(0.0, center)]
    best = levels[0].copy()
    expanded = []
    i = 0
    while i < len(keys) and len(keys) < _GRID_MAX_POINTS:
        if (levels[i] >= best - GRID_LOG_DROP).any():
            expanded.append(i)
            k = keys[i]
            for axis in range(d):
                for sign in (1, -1):
                    nb = k[:axis] + (k[axis] + sign,) + k[axis + 1 :]
                    if nb not in index:
                        index.add(nb)
                        keys.append(nb)
                        points.append(center + basis @ (spacing * np.array(nb)))
                        value, extra = f(points[-1])
                        values.append(value)
                        kept.append(extra)
                        levels.append(value + np.append(0.0, points[-1]))
                        np.maximum(best, levels[-1], out=best)
        i += 1
    edge = np.ones(len(keys), dtype=bool)
    edge[expanded] = False
    return np.array(points), np.array(values), kept, edge


def _variance_grid(f, start: np.ndarray):
    """Grid over the log variances: points (k, d), log densities (k,), kept values, edge mask (k,).

    ``f`` returns a point's log density and a value to keep for each grid point.
    """
    density = lambda t: f(t)[0]  # noqa: E731
    center = _mode(density, start) if len(start) else start
    f_center, kept = f(center)
    if not math.isfinite(f_center):
        raise ModelError("the variance posterior is not finite at any tried point; "
                         "check the direct estimates' logit_y and var_logit")
    if not len(start):
        return center[None], np.array([f_center]), [kept], np.zeros(1, dtype=bool)
    _, hess = _derivatives(density, center, f_center)
    if not np.isfinite(hess).all():
        hess = -np.eye(len(start))  # a unit lattice in log units
    curv, axes = np.linalg.eigh(-hess)
    basis = axes / np.sqrt(np.maximum(curv, _MIN_CURVATURE))
    _, coarse, _, _ = _flood(f, center, basis, 1.0)
    above = np.count_nonzero(coarse >= coarse.max() - GRID_LOG_DROP)
    spacing = min(1.0, (above / GRID_POINTS) ** (1.0 / len(start)))
    return _flood(f, center, basis, spacing)


@dataclass(frozen=True)
class _Grid:
    """The variance grid: each point's variances, log density and b0 given them."""

    variances: np.ndarray  # (k, 2) sig2_eps, sig2_sp; 1.0 where sig2_sp meets no data
    logp: np.ndarray  # log p(log sig2 | Y) over the gridded axes, up to a constant
    b0_mean: np.ndarray
    b0_prec: np.ndarray
    edge_mass: float


def _grid(spec: BymModelSpec, kernel: _Collapsed) -> _Grid:
    """The grid over each variance that is neither fixed nor without data.

    With neither left it is one point. sig2_sp meets no data when no live
    component has an edge (rank 0).
    """
    pri = spec.priors
    fixed = (spec.fixed_sigma2_eps, spec.fixed_sigma2_sp)
    gridded = (fixed[0] is None, fixed[1] is None and kernel.rank > 0)
    priors = [(a, b) for (a, b), g in zip(((pri.a_eps, pri.b_eps), (pri.a_sp, pri.b_sp)), gridded) if g]

    def variances(t: np.ndarray) -> list[float]:
        it = iter(t.tolist())
        return [math.exp(next(it)) if g else (v if v is not None else 1.0) for g, v in zip(gridded, fixed)]

    def log_density(t: np.ndarray) -> tuple[float, tuple[float, float]]:
        """log p(log sig2 | Y) over the gridded axes, up to a constant, and b0's mean and precision."""
        if not np.all(np.abs(t) < 100.0):
            return -math.inf, (math.nan, math.nan)
        try:
            value, cond = kernel.conditional(*variances(t))
        except np.linalg.LinAlgError:
            return -math.inf, (math.nan, math.nan)
        for x, (a, b) in zip(t.tolist(), priors):
            value -= a * x + b * math.exp(-x)
        return (value if math.isfinite(value) else -math.inf), (cond.b0_mean, cond.b0_prec)

    y_use = kernel.y[kernel.usable]
    start = np.full(len(priors), math.log(max(float(np.var(y_use)), 1e-4) / 2))
    points, logp, b0_given, edge = _variance_grid(log_density, start)
    b0_mean, b0_prec = np.array(b0_given).T
    return _Grid(np.array([variances(t) for t in points]), logp, b0_mean, b0_prec,
                 _edge_mass(points, logp, edge))


@_one_blas_thread()
def fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    """Independent draws from the posterior, with eps integrated out.

    The variances come from a grid over p(log sig2_eps, log sig2_sp | Y); a
    fixed variance leaves its axis out, and sig2_sp is drawn from its prior
    when no component with a usable region has an edge (it then meets no
    data). Each chain is a stream from ``SeedSequence(seed).spawn(chains)``
    with ``retained_per_chain()`` draws; draws that fall in one grid cell
    share one factorization of P. Reruns are bit-identical. Per-region
    R-hat is nan and ESS the draw count, as the draws are independent; the
    hyperparameter diagnostics and the grid's edge mass decide convergence.
    """
    spec.validate()
    config.validate()

    prec = spec.precision
    n = prec.dimension
    pri = spec.priors
    kernel = _Collapsed(spec)
    sp_from_prior = spec.fixed_sigma2_sp is None and kernel.rank == 0
    grid = _grid(spec, kernel)
    cdf = np.cumsum(np.exp(grid.logp - grid.logp.max()))

    # The hyperparameters first, per chain in stream order: grid cells, b0's
    # standard normals, and sig2_sp from its prior when it meets no data.
    chains, kept = config.chains, config.retained_per_chain()
    rngs = [np.random.Generator(np.random.PCG64(stream))
            for stream in np.random.SeedSequence(config.seed).spawn(chains)]
    cells = np.empty((chains, kept), dtype=np.intp)
    beta0_draws = np.empty((chains, kept))
    sig2s_draws = np.empty((chains, kept))
    for c, rng in enumerate(rngs):
        cells[c] = np.searchsorted(cdf, rng.random(kept) * cdf[-1], side="right")
        rng.standard_normal(out=beta0_draws[c])
        if sp_from_prior:
            sig2s_draws[c] = pri.b_sp / np.maximum(rng.standard_gamma(pri.a_sp, kept), 1e-300)
    np.minimum(cells, len(cdf) - 1, out=cells)
    beta0_draws /= np.sqrt(grid.b0_prec[cells])
    beta0_draws += grid.b0_mean[cells]
    sig2e_draws = grid.variances[cells, 0]
    if not sp_from_prior:
        sig2s_draws = grid.variances[cells, 1]

    # Then z and eps: each chain's standard normals for them go straight
    # into the arrays that will hold its draws of theta and S.
    theta_draws = np.empty((chains, kept, n))
    s_draws = np.empty((chains, kept, n))
    for c, rng in enumerate(rngs):
        rng.standard_normal(out=theta_draws[c])
        rng.standard_normal(out=s_draws[c])
    theta_flat = theta_draws.reshape(-1, n)
    s_flat = s_draws.reshape(-1, n)
    beta0_flat = beta0_draws.reshape(-1)
    cells_flat = cells.reshape(-1)
    if len(kernel.dead):
        s_dead = kernel.draw_dead(theta_flat[:, kernel.dead].T)
        s_dead *= np.sqrt(sig2s_draws.reshape(-1))
    usable, y, v = kernel.usable, kernel.y, kernel.v
    by_cell = np.argsort(cells_flat, kind="stable")
    for rows in np.split(by_cell, np.flatnonzero(np.diff(cells_flat[by_cell])) + 1):
        sig2_eps, sig2_sp = grid.variances[cells_flat[rows[0]]]
        cond = kernel.conditional(sig2_eps, sig2_sp)[1]
        b0 = beta0_flat[rows]
        z = np.empty((len(rows), n))
        z[:, kernel.live] = kernel.draw_live(cond, theta_flat[np.ix_(rows, kernel.live)].T, b0).T
        if len(kernel.dead):
            z[:, kernel.dead] = b0[:, None] + s_dead[:, rows].T
        # eps | z: shrunk residual where a region is usable, the prior elsewhere
        shrink = np.where(usable, sig2_eps / (sig2_eps + v), 0.0)
        sd = np.where(usable, np.sqrt(shrink * v), math.sqrt(sig2_eps))
        theta_flat[rows] = z + shrink * (y - z) + sd * s_flat[rows]
        s_flat[rows] = z - b0[:, None]

    return posterior_from_draws(
        spec, config, theta_draws, s_draws, beta0_draws, sig2e_draws, sig2s_draws,
        region_diagnostics=False,
        grid_edge_mass=grid.edge_mass,
        extra_meta={"grid_points": str(len(cdf)), "grid_edge_mass": f"{grid.edge_mass:.3e}"},
    )
