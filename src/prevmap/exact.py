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

The band routines are LAPACK's, called directly through
``scipy.linalg.lapack`` (dpbtrf to factor, dpbtrs and dtbtrs to solve):
``scipy.linalg``'s banded Cholesky factor and solve functions call the
same routines, so the results are the same bits, but wrap each of the
grid's thousands of calls in layers (batching, array conversion, a
finiteness check that the engine's inputs make redundant) that took over a
third of each density evaluation on the demo's 45 regions. A right-hand
side stays C-ordered where a column of it feeds ``np.dot``: a contiguous
column takes another BLAS kernel, whose rounding differs in the last bits.

``icar_draws`` is prevmap's one sampler of the ICAR prior: the engine draws
the spatial effect of a component without usable regions with it, and
``prevmap.synthetic`` the simulated truth surface. This module is imported
on first use of either: it brings in ``scipy.linalg``, which nothing else in
prevmap needs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .bym import BymModelSpec, BymPosterior, McmcConfig, exact_fit, posterior_from_draws
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


def rcm_components(prec: IcarPrecision) -> list[np.ndarray]:
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
    """Upper band storage of diag(diag) + (Q - diag(Q)) / scale in a ``_band_layout``.

    Fortran-ordered, as LAPACK takes it, so ``_cholesky`` factors it in place.
    """
    width, slots, weight = layout
    ab = np.zeros((width + 1, len(diag)), order="F")
    ab[width] = diag
    ab[slots] = -weight / scale
    return ab


def _cholesky(ab: np.ndarray) -> np.ndarray:
    """Upper band Cholesky factor U of ``ab``, laid out by ``_band`` and overwritten, by dpbtrf.

    Raises ``np.linalg.LinAlgError`` where the matrix is not positive
    definite in floating point.
    """
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return factor


def _levels(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each component's block of rows of the 2-d ``x``."""
    return np.add.reduceat(x, starts, axis=0) / sizes[:, None]


@_one_blas_thread()
def icar_draws(prec: IcarPrecision, components: Sequence[np.ndarray], noise: np.ndarray) -> np.ndarray:
    """Unit-scale sum-to-zero ICAR draws over whole components, (nodes, k).

    ``components`` hold node indices in band order (as ``rcm_components``
    gives them); the rows of ``noise``, k columns of standard normals, and
    of the draws follow their concatenation. Q with the first node of each
    component held at unit precision is one banded factor U'U; x = U^-1 noise,
    recentred per component, has exactly the sum-to-zero distribution
    (Rue & Held 2005, 2.3.3), so an isolated node draws exactly 0.
    """
    nodes = np.concatenate(components)
    sizes = np.array([len(c) for c in components])
    starts = np.cumsum(sizes) - sizes
    pinned = prec.degree[nodes].copy()
    pinned[starts] += 1.0
    x, _ = dtbtrs(_cholesky(_band(_band_layout(prec, nodes), pinned, 1.0)), noise)
    return x - np.repeat(_levels(x, starts, sizes), sizes, axis=0)


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
    from the sum-to-zero prior by ``icar_draws``.
    """

    def __init__(self, spec: BymModelSpec) -> None:
        prec = spec.precision
        # per region: usable, then Y and V (placeholders where not usable)
        self.usable = np.array([e.likelihood_usable for e in spec.estimates], dtype=bool)
        self.y = np.array([e.logit_y if e.likelihood_usable else 0.0 for e in spec.estimates])
        self.v = np.array([e.var_logit if e.likelihood_usable else 1.0 for e in spec.estimates])
        live, dead = [], []
        for comp in rcm_components(prec):
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
        self.dead = dead

    def conditional(self, sig2_eps: float, sig2_sp: float) -> tuple[float, _Conditional]:
        """log p(Y | variances), up to a constant, and z's conditional given them.

        Nothing here checks for inf or nan: ``BymModelSpec.validate`` rejects
        non-finite usable estimates, and the variances come from log
        variances under 100 in size, so P and W Y are finite.
        """
        w = np.where(self.use, 1.0 / (self.v_live + sig2_eps), 0.0)
        factor = _cholesky(_band(self.layout, self.degree / sig2_sp + w, sig2_sp))
        # C-ordered, so that wy below is a strided view: np.dot runs another
        # BLAS kernel on a contiguous one, which moves the last bits
        rhs = np.empty((len(w), 2))
        wy = np.multiply(w, self.y_live, out=rhs[:, 0])
        rhs[:, 1] = self.average
        sol, _ = dpbtrs(factor, rhs)
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

        ``noise`` is (live nodes, k), and is overwritten when Fortran-ordered:
        one banded triangular solve draws x ~ N(m, P^-1) for all k columns,
        then each component's level is moved to its draw of b0 by kriging.
        """
        x, _ = dtbtrs(cond.factor, noise, overwrite_b=1)
        x += cond.mean[:, None]
        shift = (_levels(x, self.live_starts, self.live_sizes) - b0) / cond.level_var[:, None]
        x -= cond.level_gain[:, None] * np.repeat(shift, self.live_sizes, axis=0)
        x[self.isolated] = b0  # exactly: an isolated node has S = 0
        return x


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

    ``f`` returns a point's log density. A point is expanded to its 2d axis
    neighbours while its log density, or its log density plus one of its log
    variances (as in ``_edge_mass``), is within GRID_LOG_DROP of the largest
    such value seen, so the grid holds the tails of the variances' means as
    well as the posterior mass. Returns the points, their log densities, and
    which points were not expanded (the grid's edge).
    """
    d = len(center)

    def levels_of(point: np.ndarray, value: float) -> list[float]:
        return [value] + [value + x for x in point.tolist()]

    origin = (0,) * d
    value = f(center)
    keys, points, values = [origin], [center], [value]
    index = {origin}
    levels = [levels_of(center, value)]
    best = list(levels[0])
    expanded = []
    i = 0
    while i < len(keys) and len(keys) < _GRID_MAX_POINTS:
        if any(level >= top - GRID_LOG_DROP for level, top in zip(levels[i], best)):
            expanded.append(i)
            k = keys[i]
            for axis in range(d):
                for sign in (1, -1):
                    nb = k[:axis] + (k[axis] + sign,) + k[axis + 1 :]
                    if nb not in index:
                        index.add(nb)
                        keys.append(nb)
                        points.append(center + basis @ (spacing * np.array(nb)))
                        value = f(points[-1])
                        values.append(value)
                        levels.append(levels_of(points[-1], value))
                        best = [max(top, level) for top, level in zip(best, levels[-1])]
        i += 1
    edge = np.ones(len(keys), dtype=bool)
    edge[expanded] = False
    return np.array(points), np.array(values), edge


def _variance_grid(f, start: np.ndarray):
    """Grid over the log variances of log density ``f``: points (k, d), log densities (k,), edge mask (k,)."""
    center = _mode(f, start) if len(start) else start
    f_center = f(center)
    if not math.isfinite(f_center):
        raise ModelError("the variance posterior is not finite at any tried point; "
                         "check the direct estimates' logit_y and var_logit")
    if not len(start):
        return center[None], np.array([f_center]), np.zeros(1, dtype=bool)
    _, hess = _derivatives(f, center, f_center)
    if not np.isfinite(hess).all():
        hess = -np.eye(len(start))  # a unit lattice in log units
    curv, axes = np.linalg.eigh(-hess)
    basis = axes / np.sqrt(np.maximum(curv, _MIN_CURVATURE))
    _, coarse, _ = _flood(f, center, basis, 1.0)
    above = np.count_nonzero(coarse >= coarse.max() - GRID_LOG_DROP)
    spacing = min(1.0, (above / GRID_POINTS) ** (1.0 / len(start)))
    return _flood(f, center, basis, spacing)


@dataclass(frozen=True)
class _Grid:
    """The variance grid: each point's variances and log density."""

    variances: np.ndarray  # (k, 2) sig2_eps, sig2_sp; 1.0 where sig2_sp meets no data
    logp: np.ndarray  # log p(log sig2 | Y) over the gridded axes, up to a constant
    edge_mass: float
    singular_points: int  # points where P is singular in floating point (logp -inf)


def _grid(spec: BymModelSpec, kernel: _Collapsed) -> _Grid:
    """The grid over each variance that is neither fixed nor without data.

    With neither left it is one point. sig2_sp meets no data when no live
    component has an edge (rank 0). A point where the banded factorization
    of P fails has zero density, and is counted.
    """
    pri = spec.priors
    fixed = (spec.fixed_sigma2_eps, spec.fixed_sigma2_sp)
    gridded = (fixed[0] is None, fixed[1] is None and kernel.rank > 0)
    priors = [(a, b) for (a, b), g in zip(((pri.a_eps, pri.b_eps), (pri.a_sp, pri.b_sp)), gridded) if g]

    def variances(t: list[float]) -> list[float]:
        it = iter(t)
        return [math.exp(next(it)) if g else (v if v is not None else 1.0) for g, v in zip(gridded, fixed)]

    singular = set()  # the bytes of each point where P is singular

    def log_density(point: np.ndarray) -> float:
        """log p(log sig2 | Y) over the gridded axes, up to a constant."""
        t = point.tolist()
        if not all(abs(x) < 100.0 for x in t):
            return -math.inf
        try:
            value = kernel.conditional(*variances(t))[0]
        except np.linalg.LinAlgError:
            singular.add(point.tobytes())
            return -math.inf
        for x, (a, b) in zip(t, priors):
            value -= a * x + b * math.exp(-x)
        return value if math.isfinite(value) else -math.inf

    # a spread too large for float64 gives an infinite start, where the
    # density is -inf and _variance_grid raises its ModelError
    with np.errstate(over="ignore"):
        spread = float(np.var(kernel.y[kernel.usable]))
    start = np.full(len(priors), math.log(max(spread, 1e-4) / 2))
    points, logp, edge = _variance_grid(log_density, start)
    return _Grid(
        np.array([variances(t) for t in points.tolist()]),
        logp,
        _edge_mass(points, logp, edge),
        sum(p.tobytes() in singular for p in points[np.isneginf(logp)]),
    )


@_one_blas_thread()
def fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
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
    # standard normals (scaled in its grid cell below), and sig2_sp from its
    # prior when it meets no data.
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
    if kernel.dead:
        dead = np.concatenate(kernel.dead)
        s_dead = icar_draws(prec, kernel.dead, theta_flat[:, dead].T) * np.sqrt(sig2s_draws.reshape(-1))
    usable, y, v = kernel.usable, kernel.y, kernel.v
    by_cell = np.argsort(cells_flat, kind="stable")
    for rows in np.split(by_cell, np.flatnonzero(np.diff(cells_flat[by_cell])) + 1):
        sig2_eps, sig2_sp = grid.variances[cells_flat[rows[0]]]
        cond = kernel.conditional(sig2_eps, sig2_sp)[1]
        b0 = beta0_flat[rows] / math.sqrt(cond.b0_prec) + cond.b0_mean
        beta0_flat[rows] = b0
        z = np.empty((len(rows), n))
        z[:, kernel.live] = kernel.draw_live(cond, theta_flat[rows[:, None], kernel.live].T, b0).T
        if kernel.dead:
            z[:, dead] = b0[:, None] + s_dead[:, rows].T
        # eps | z: shrunk residual where a region is usable, the prior elsewhere
        shrink = np.where(usable, sig2_eps / (sig2_eps + v), 0.0)
        sd = np.where(usable, np.sqrt(shrink * v), math.sqrt(sig2_eps))
        theta_flat[rows] = z + shrink * (y - z) + sd * s_flat[rows]
        s_flat[rows] = z - b0[:, None]

    meta = {"grid_points": str(len(cdf)), "grid_edge_mass": f"{grid.edge_mass:.3e}"}
    if grid.singular_points:
        meta["grid_singular_points"] = str(grid.singular_points)
    posterior = posterior_from_draws(
        spec, config, theta_draws, s_draws, beta0_draws, sig2e_draws, sig2s_draws,
        region_diagnostics=False,
        grid_edge_mass=grid.edge_mass,
        extra_meta=meta,
    )
    if grid.singular_points:
        posterior.report.notes.append(
            f"variance grid: {grid.singular_points} of {len(cdf)} points have a precision "
            "matrix that is singular in floating point; they count as zero density"
        )
    return posterior


fit.__doc__ = exact_fit.__doc__  # the engine and its entry point share one text
