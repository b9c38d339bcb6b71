"""The exact collapsed engine behind ``prevmap.bym.exact_fit``.

With eps integrated out (the Fay-Herriot form of the model in
``prevmap.bym``), z = b0 + S given both variances is Gaussian with precision
P = Q/sig2_sp + W, W = diag(1/(V_i + sig2_eps)) over the usable regions, and
p(sig2 | Y) has a closed form. The engine evaluates that density on a
lattice of (log sig2_eps, log sig2_sp) laid along the Hessian's eigen-axes
at the mode (the grid strategy of INLA, Rue, Martino & Chopin 2009, without
its approximations). Given the variances, each region's theta is Gaussian,
so its posterior is a finite Gaussian mixture over the grid: the engine
writes each region's summary from that mixture, with no Monte Carlo error,
and draws only the hyperparameters, b0 and the variances, from the grid.
``_Collapsed.draw`` draws (b0, z) jointly given the variances from the same
factor; ``prevmap.bym.gibbs_fit`` sweeps with it, so both engines rest on
one Gaussian kernel.
P is factored as a banded Cholesky after a reverse Cuthill-McKee ordering,
the points of a batch side by side in one call: about one generation of the
grid's flood per call while the grid grows, and a chunk of points per call
for the mixture, with one solve per point. The diagonal of P^-1 comes from
Takahashi's selected inversion of the factor (Takahashi, Fagan & Chen 1973).

The band routines are LAPACK's, called directly (dpbtrf to factor, dpbtrs
and dtbtrs to solve): ``scipy.linalg``'s banded Cholesky factor and solve
functions call the same routines, so the results are the same bits, but
wrap each of the grid's thousands of calls in layers (batching, array
conversion, a finiteness check that the engine's inputs make redundant)
that took over a third of each density evaluation on the demo's 45 regions.
A right-hand side stays C-ordered where a column of it feeds ``np.dot``: a
contiguous column takes another BLAS kernel, whose rounding differs in the
last bits.

Of scipy the engine uses only those three routines and the ufuncs
``expit``, ``logit`` and ``ndtr``. ``scipy_extension`` loads the two
compiled modules that hold them, ``scipy.linalg._flapack`` and
``scipy.special._special_ufuncs``, from their files, without the package
inits above them: with those inits, a fresh ``pipeline`` on the demo peaked
at 74 MB and took a median 0.85 s; without them, 55 MB and 0.50 s (10 runs
each, 2-core VM). They are the objects that ``scipy.linalg.lapack`` and
``scipy.special`` export, so every result keeps its bits, and a later
import of either package reuses them. The two names are private to scipy,
which may move or rename them: where a file is missing or does not load,
the public module is imported instead.

``icar_draws`` is prevmap's one sampler of the ICAR prior:
``prevmap.synthetic`` draws the simulated truth surface with it, and
``_Collapsed.draw`` the S of a component without usable regions, whose
variances ``icar_variances`` gives. This module is imported on first use of
either, or of either engine's fit, and loads the two compiled modules. The
rest of prevmap imports scipy only inside the functions behind ``gibbs_fit``,
which no command calls, so importing the CLI loads no scipy, and ``simulate``,
``smooth`` and ``pipeline`` load only those two modules of it.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bym import (
    BymModelSpec,
    BymPosterior,
    DiagnosticsReport,
    McmcConfig,
    RegionSummary,
    Summary,
    exact_fit,
    posterior_from_summaries,
)
from .errors import ModelError
from .graph import IcarPrecision


def _extension_spec(name: str) -> importlib.machinery.ModuleSpec | None:
    """The spec of scipy's module ``name`` from its file, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    folders = [os.path.join(root, *name.split(".")[1:-1]) for root in scipy.submodule_search_locations]
    return importlib.machinery.PathFinder.find_spec(name, folders)


def scipy_extension(name: str, public: str) -> ModuleType:
    """scipy's compiled module ``name``, or its public module ``public``.

    The one already in ``sys.modules`` is reused. Otherwise ``name`` is
    loaded from its file, without its packages' inits, and registered in
    ``sys.modules``, so that a later import of the package finds it there.
    Where the file is missing or does not load (a scipy that lays its
    modules out otherwise), ``public``, which exports the same functions,
    is imported instead.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = _extension_spec(name)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[name] = module
            return module
    return importlib.import_module(public)


_lapack = scipy_extension("scipy.linalg._flapack", "scipy.linalg.lapack")
_ufuncs = scipy_extension("scipy.special._special_ufuncs", "scipy.special")
dpbtrf, dpbtrs, dtbtrs = _lapack.dpbtrf, _lapack.dpbtrs, _lapack.dtbtrs
expit, logit, ndtr = _ufuncs.expit, _ufuncs.logit, _ufuncs.ndtr

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
# band storage of the grid points factored per LAPACK call: bounds the
# chunk's factor, and each of its temporaries, to 16 MiB whatever the number
# of regions
_CHUNK_BYTES = 1 << 24
# nodes whose factor rows the selected inversion gathers at a time
_INVERSE_NODES = 64
# each (grid points, regions) array of the region summaries: 1 MiB a block
_SUMMARY_BYTES = 1 << 20
# the mixture quantiles' Newton steps stop below this relative size
_QUANTILE_TOL = 1e-12
# and start from the normal quantiles of 0.5, 0.025 and 0.975, the bits of
# scipy.special.ndtri at each (-ndtri(0.025) is not ndtri(0.975))
_NEWTON_START_Z = np.array([[0.0], [-1.9599639845400545], [1.959963984540054]])
# 12 and 48 nodes gave the demo's prevalence means and sds to the same digits
_HERMITE_NODES = 16


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
    n, start = prec.dimension, prec.nbr_start
    degree = np.diff(start)
    # the sort is stable, so neighbours of equal degree keep their row's index order
    dst = prec.nbr[np.lexsort((degree[prec.nbr], np.repeat(np.arange(n), degree)))]
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


def _band_layout(prec: IcarPrecision, nodes: np.ndarray) -> tuple[int, np.ndarray]:
    """Band width, and Q - diag(Q) over ``nodes`` in flat upper band storage, column by column.

    Rows and columns follow ``nodes``, a union of whole components, so an
    edge has both ends in it or neither.
    """
    pos = np.full(prec.dimension, -1)
    pos[nodes] = np.arange(len(nodes))
    inside = pos[prec.edge_i] >= 0
    a, b = pos[prec.edge_i[inside]], pos[prec.edge_j[inside]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    width = int((hi - lo).max(initial=0))
    off_diagonal = np.zeros(len(nodes) * (width + 1))
    # entry (lo, hi) is row width + lo - hi of column hi in the Fortran-ordered band
    off_diagonal[hi * (width + 1) + width + lo - hi] = -prec.edge_w[inside]
    return width, off_diagonal


def _band(layout, diag: np.ndarray, scale) -> np.ndarray:
    """Upper band storage of diag(d) + (Q - diag(Q)) / s in a ``_band_layout``.

    For k rows d of ``diag`` and k scales s, shaped (k, 1) (or one number),
    the k matrices side by side: one block-diagonal band of the same width,
    no entry coupling two blocks. Fortran-ordered, as LAPACK takes it, so
    ``_cholesky`` factors it in place.
    """
    width, off_diagonal = layout
    k, n = diag.shape
    ab = np.empty((k, n * (width + 1)))  # row p is matrix p's band, column by column
    np.divide(off_diagonal, scale, out=ab)
    ab[:, width :: width + 1] = diag
    return ab.reshape(k * n, width + 1).T


class _NotPositiveDefinite(np.linalg.LinAlgError):
    """dpbtrf's failure, with the band column where it stopped."""

    def __init__(self, column: int) -> None:
        super().__init__(f"{column + 1}-th leading minor not positive definite")
        self.column = column


def _cholesky(ab: np.ndarray) -> np.ndarray:
    """Upper band Cholesky factor U of ``ab``, laid out by ``_band`` and overwritten, by dpbtrf.

    Raises ``_NotPositiveDefinite`` where the matrix is not positive
    definite in floating point.
    """
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info > 0:
        raise _NotPositiveDefinite(info - 1)
    return factor


def _pinned_factor(prec: IcarPrecision, components: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Band factor of Q over ``components`` with each one's first node held at unit precision.

    Returns the factor, and each component's start and size in the
    concatenation of ``components``, which the factor's rows follow.
    """
    nodes = np.concatenate(components)
    sizes = np.array([len(c) for c in components])
    starts = np.cumsum(sizes) - sizes
    pinned = prec.degree[nodes].copy()
    pinned[starts] += 1.0
    return _cholesky(_band(_band_layout(prec, nodes), pinned[None], 1.0)), starts, sizes


def _pinned_draws(pinned: tuple[np.ndarray, ...], noise: np.ndarray) -> np.ndarray:
    """``icar_draws`` from ``_pinned_factor``'s output ``pinned``."""
    factor, starts, sizes = pinned
    x, _ = dtbtrs(factor, noise)
    return x - np.repeat(np.add.reduceat(x, starts, axis=0) / sizes[:, None], sizes, axis=0)


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
    return _pinned_draws(_pinned_factor(prec, components), noise)


def icar_variances(pinned: tuple[np.ndarray, ...]) -> np.ndarray:
    """Diagonal of the unit-scale sum-to-zero ICAR covariance, from ``_pinned_factor``'s output, in its row order.

    With Sigma the inverse of ``icar_draws``'s pinned Q, its draws are
    (I - J/n) x per component of n nodes, x ~ N(0, Sigma), so node i's
    variance is Sigma_ii - 2 (Sigma 1)_i / n + 1'Sigma 1 / n^2.
    """
    factor, starts, sizes = pinned
    row_sums, _ = dpbtrs(factor, np.ones(factor.shape[1]))
    total = np.add.reduceat(row_sums, starts) / sizes**2
    return (_selected_inverse(factor, 1)[0] - 2 * row_sums / np.repeat(sizes, sizes)
            + np.repeat(total, sizes))


def _selected_inverse(factor: np.ndarray, k: int) -> np.ndarray:
    """diag(P^-1), (k, n), for k band factors U of P = U'U side by side in ``factor``.

    Takahashi's recursion (Takahashi, Fagan & Chen 1973) runs from the last
    node back: Sigma_ij = (delta_ij / U_ii - sum_{l>i} U_il Sigma_lj) / U_ii
    for j = i..i+width reads Sigma only inside the band. So it carries a
    window of width + 1 rows and columns of Sigma, node j in slot j mod
    (width + 1), and each step rewrites one row and one column of it, for
    all k factors at once.
    """
    width = factor.shape[0] - 1
    slots = width + 1
    n = factor.shape[1] // k
    band = factor.T.reshape(k, n, slots)  # band[p, j, width - t] = U_p[j - t, j]
    inv_pivot = 1.0 / band[:, :, width]
    window = np.zeros((k, slots, slots))
    out = np.empty((k, n))
    for stop in range(n, 0, -_INVERSE_NODES):
        start = max(stop - _INVERSE_NODES, 0)
        # rows[p, i - start, s] = U_p[i, j] for the node j > i in slot s, 0 in
        # i's own slot and past the last node
        i = np.arange(start, stop)[:, None]
        t = (np.arange(slots) - i) % slots
        rows = band[:, np.minimum(i + t, n - 1), width - t]
        rows[:, (t == 0) | (i + t >= n)] = 0.0
        for i in range(stop - 1, start - 1, -1):
            u, inv_d, s = rows[:, i - start], inv_pivot[:, i], i % slots
            row = np.matmul(window, u[:, :, None])[:, :, 0]
            row *= -inv_d[:, None]
            row[:, s] = out[:, i] = inv_d * (inv_d - np.einsum("ps,ps->p", u, row))
            window[:, s] = row
            window[:, :, s] = row
    return out


class _Solved(NamedTuple):
    """z over the live nodes at k variance pairs, before its levels are tied to b0.

    Every array has one row per pair.
    """

    factor: np.ndarray  # the k upper band Cholesky factors U of P = U'U, side by side
    w: np.ndarray  # W's diagonal
    wy: np.ndarray  # W Y
    mean: np.ndarray  # m = P^-1 W Y
    gain: np.ndarray  # P^-1 a, a = each component's averaging vector
    level: np.ndarray  # a' m, one per live component
    level_var: np.ndarray  # a' P^-1 a, one per live component
    tau: np.ndarray  # 1 / level_var
    b0_mean: np.ndarray  # b0 | variances, Y, one per pair
    b0_prec: np.ndarray


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``.

    np.matmul on a stack of (1, n) by (n, 1) products makes the BLAS dot
    call that np.dot makes on one row, so each row has the bits it has alone.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _Collapsed:
    """The model with eps integrated out, on banded Cholesky factors.

    Components holding a usable region ("live") share one banded precision
    P = Q/sig2_sp + W. Each live component's level (its mean of z) is tied
    to b0 by conditioning on it (Rue & Held 2005, 2.3.3); b0, under its flat
    prior, is integrated out of p(sig2 | Y) in closed form. A component with
    no usable region adds nothing to p(sig2 | Y) once its S is integrated
    out, so it is left out of P and of the rank term, and its S has the
    sum-to-zero prior's variances (``icar_variances``) and draws
    (``icar_draws``).
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
        # V is inf where not usable, so that W = 1 / (V + sig2_eps) is 0 there
        self.y_live, self.v_live = self.y[self.live], np.where(self.use, self.v[self.live], np.inf)
        self.average = np.repeat(1.0 / self.live_sizes, self.live_sizes)
        self.isolated = self.live_starts[self.live_sizes == 1]
        # each region's S variance at unit sig2_sp: 0 where live (P holds
        # it), the sum-to-zero prior's where dead
        self.prior_var = np.zeros(len(self.y))
        self.dead = np.concatenate(dead) if dead else np.zeros(0, dtype=np.intp)
        if dead:
            self.pinned = _pinned_factor(prec, dead)
            self.prior_var[self.dead] = icar_variances(self.pinned)

    def solve(self, variances: np.ndarray) -> _Solved:
        """z's conditional at each row (sig2_eps, sig2_sp) of ``variances``, (k, 2).

        One dpbtrf call factors the k precisions, laid side by side by
        ``_band``, and one dpbtrs call per pair solves on that pair's columns
        of the factor. Each pair's results have the bits it has alone: a
        slice of the stacked factor is the pair's own factor, bit for bit,
        while one dpbtrs over the stack would run its dot products over the
        zeros between two pairs, which moves the last bits. Raises
        ``_NotPositiveDefinite`` where one is singular in floating point.
        Nothing here checks for inf or nan: ``BymModelSpec.validate`` rejects
        non-finite usable estimates, and the grid's variances come from log
        variances under 100 in size, so P and W Y are finite there;
        ``gibbs_fit`` checks each sweep's draws.
        """
        k, n = len(variances), len(self.live)
        sig2_eps, sig2_sp = variances[:, :1], variances[:, 1:]
        w = 1.0 / (self.v_live + sig2_eps)
        factor = _cholesky(_band(self.layout, self.degree / sig2_sp + w, sig2_sp))
        # C-ordered, so that each row of wy, and of level below, is a strided
        # view: np.dot runs another BLAS kernel on a contiguous one, which
        # moves the last bits
        rhs = np.empty((k, n, 2))
        wy = np.multiply(w, self.y_live, out=rhs[:, :, 0])
        rhs[:, :, 1] = self.average
        # sol[p].T is pair p's right-hand side Fortran-ordered, which dpbtrs
        # overwrites with the solution in place
        sol = rhs.transpose(0, 2, 1).copy()
        for p in range(k):
            dpbtrs(factor[:, p * n : (p + 1) * n], sol[p].T, overwrite_b=1)
        levels = np.empty((k, len(self.live_sizes), 2))
        np.divide(np.add.reduceat(sol, self.live_starts, axis=2), self.live_sizes, out=levels.transpose(0, 2, 1))
        level, level_var = levels[:, :, 0], levels[:, :, 1]
        tau = 1.0 / level_var
        b0_prec = np.add.reduce(tau, axis=1)
        b0_mean = _row_dots(tau, level) / b0_prec
        return _Solved(factor, w, wy, sol[:, 0], sol[:, 1], level, level_var, tau, b0_mean, b0_prec)

    def draw(self, variances: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint draws of b0, (k,), and z = b0 + S, (k, regions), at each row (sig2_eps, sig2_sp) of ``variances``.

        ``noise`` holds k rows of 1 + regions standard normals: b0's, the
        live nodes' in band order, then the dead nodes'. b0 is N(b0_mean,
        1/b0_prec); x = m + U^-1 xi is N(m, P^-1), and each live component's
        level a'x is kriged to b0 (Rue & Held 2005, 2.3.3), z = x - g (a'x -
        b0) / lv; an isolated node's z is b0. A dead component's z is b0 plus
        sqrt(sig2_sp) times an ``icar_draws`` draw. Each pair's draw has the
        bits it has alone. Raises ``_NotPositiveDefinite`` as ``solve`` does.
        """
        s = self.solve(variances)
        k, n = len(variances), len(self.live)
        b0 = s.b0_mean + noise[:, 0] / np.sqrt(s.b0_prec)
        x = noise[:, 1 : 1 + n].copy()
        for p in range(k):
            dtbtrs(s.factor[:, p * n : (p + 1) * n], x[p], overwrite_b=1)
        x += s.mean
        level = np.add.reduceat(x, self.live_starts, axis=1) / self.live_sizes
        x -= s.gain * np.repeat((level - b0[:, None]) / s.level_var, self.live_sizes, axis=1)
        x[:, self.isolated] = b0[:, None]
        z = np.empty((k, len(self.y)))
        z[:, self.live] = x
        if len(self.dead):
            spatial = np.sqrt(variances[:, 1:]) * _pinned_draws(self.pinned, noise[:, 1 + n :].T).T
            z[:, self.dead] = b0[:, None] + spatial
        return b0, z

    def log_marginals(self, variances: np.ndarray) -> np.ndarray:
        """log p(Y | variances), up to a constant, at each row of ``variances``, (k, 2).

        Raises ``_NotPositiveDefinite`` as ``solve`` does. Each row's value
        has the bits it has alone: the sums run over C-ordered rows, the dot
        products are ``_row_dots``'s, and the logs of the variances and of
        b0's precision are ``math.log``'s.
        """
        s = self.solve(variances)
        k = len(variances)
        log_sp = np.array([math.log(x) for x in variances[:, 1].tolist()])
        log_b0_prec = np.array([math.log(x) for x in s.b0_prec.tolist()])
        return 0.5 * (
            np.log(np.ascontiguousarray(s.w[:, self.use])).sum(axis=1)
            - 2.0 * np.log(s.factor[-1]).reshape(k, -1).sum(axis=1)
            - (_row_dots(s.wy, np.broadcast_to(self.y_live, s.wy.shape)) - _row_dots(s.wy, s.mean))
            - self.rank * log_sp
            # the live levels agree, at b0, with b0 integrated out
            - np.log(s.level_var).sum(axis=1)
            - log_b0_prec
            - _row_dots(s.tau, (s.level - s.b0_mean[:, None]) ** 2)
        )

    def by_chunks(self, f, variances: np.ndarray) -> Iterator[tuple[np.ndarray, object]]:
        """``f`` of each chunk of rows of ``variances``, as (rows, f(variances[rows])) pairs.

        Rows go ``_CHUNK_BYTES`` of band storage at a time, one dpbtrf call
        per chunk. Where a chunk fails at a row, it is split around that
        row, which is tried alone; the rows beside it keep their bits, since
        each row's factor is the same stacked or alone. A row that fails
        alone, P being singular there in floating point, comes with None.
        """
        n = len(self.live)
        step = max(1, _CHUNK_BYTES // (8 * (self.layout[0] + 1) * n))
        todo = [np.arange(lo, min(lo + step, len(variances))) for lo in range(0, len(variances), step)]
        while todo:
            rows = todo.pop()
            try:
                out = f(variances[rows])
            except _NotPositiveDefinite as exc:
                if len(rows) == 1:
                    yield rows, None
                    continue
                bad = exc.column // n
                todo += [part for part in (rows[:bad], rows[bad : bad + 1], rows[bad + 1 :]) if len(part)]
                continue
            yield rows, out

    def moments(self, variances: np.ndarray) -> tuple[np.ndarray, ...]:
        """b0's mean and precision, (k,), and theta's mean and variance, (k, regions), at each variance pair.

        Pairs go through ``by_chunks``. Each one is a grid point that
        factored alone, so none is singular here.
        """
        b0_mean, b0_prec = np.empty(len(variances)), np.empty(len(variances))
        theta_mean, theta_var = np.empty((2, len(variances), len(self.y)))
        for rows, out in self.by_chunks(self._chunk, variances):
            if out is None:
                raise np.linalg.LinAlgError(f"the precision at variance pair {rows[0]} is not positive definite")
            b0_mean[rows], b0_prec[rows], theta_mean[rows], theta_var[rows] = out
        return b0_mean, b0_prec, theta_mean, theta_var

    def _chunk(self, variances: np.ndarray) -> tuple[np.ndarray, ...]:
        """``moments`` of one chunk of variance pairs, from one ``solve``.

        Given the variances, b0 is N(b0_mean, 1/b0_prec), and z over a live
        component is x ~ N(m, P^-1) with its level a'x kriged to b0, so
        integrating b0 out gives z_i mean m_i - g_i (a'm - b0_mean) / lv and
        variance diag(P^-1)_i - g_i^2 / lv + (g_i / lv)^2 / b0_prec (g = P^-1 a,
        lv = a'P^-1 a); an isolated node has z = b0. A dead component's z is
        b0 plus S from its prior. Then theta = z + shrink (Y - z) + eps with
        eps | z ~ N(0, shrink V) where the region is usable, N(0, sig2_eps)
        elsewhere.
        """
        s = self.solve(variances)
        lv = np.repeat(s.level_var, self.live_sizes, axis=1)
        shift = np.repeat((s.level - s.b0_mean[:, None]) / s.level_var, self.live_sizes, axis=1)
        live_mean = s.mean - s.gain * shift
        live_var = _selected_inverse(s.factor, len(variances)) - s.gain**2 / lv
        live_var += (s.gain / lv) ** 2 / s.b0_prec[:, None]
        live_mean[:, self.isolated] = s.b0_mean[:, None]
        live_var[:, self.isolated] = 1.0 / s.b0_prec[:, None]
        z_mean = np.repeat(s.b0_mean[:, None], len(self.y), axis=1)
        z_var = variances[:, 1:] * self.prior_var + 1.0 / s.b0_prec[:, None]
        z_mean[:, self.live], z_var[:, self.live] = live_mean, live_var
        sig2_eps = variances[:, :1]
        shrink = np.where(self.usable, sig2_eps / (sig2_eps + self.v), 0.0)
        theta_mean = z_mean + shrink * (self.y - z_mean)
        theta_var = (1.0 - shrink) ** 2 * z_var + np.where(self.usable, shrink * self.v, sig2_eps)
        return s.b0_mean, s.b0_prec, theta_mean, theta_var


def _derivatives(f, t: np.ndarray, ft: float) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference gradient and Hessian of ``f`` at ``t``, from one call of ``f`` on the stencil."""
    d = len(t)
    e = np.eye(d) * _FD_STEP
    pairs = [(i, j) for i in range(d) for j in range(i)]
    stencil = [t + e[i] for i in range(d)] + [t - e[i] for i in range(d)]
    for i, j in pairs:
        stencil += [t + e[i] + e[j], t + e[i] - e[j], t - e[i] + e[j], t - e[i] - e[j]]
    values = f(np.array(stencil)).tolist()
    up, down = values[:d], values[d : 2 * d]
    grad = np.array([(u - dn) / (2 * _FD_STEP) for u, dn in zip(up, down)])
    hess = np.diag([(u - 2 * ft + dn) / _FD_STEP**2 for u, dn in zip(up, down)])
    for k, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = values[2 * d + 4 * k : 2 * d + 4 * k + 4]
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * _FD_STEP**2)
    return grad, hess


def _mode(f, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton ascent on ``f`` with finite differences, bounded and backtracking steps: the mode and ``f`` there."""
    ft = float(f(t[None])[0])
    for _ in range(_NEWTON_STEPS):
        grad, hess = _derivatives(f, t, ft)
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            break
        curv, axes = np.linalg.eigh(-hess)
        # Newton's step where f curves down; uphill along the gradient where it does not
        step = axes @ ((axes.T @ grad) / np.maximum(np.abs(curv), _MIN_CURVATURE))
        step *= min(1.0, _NEWTON_MAX_STEP / max(float(np.linalg.norm(step)), 1e-300))
        for _ in range(40):
            f_new = float(f((t + step)[None])[0])
            if f_new > ft:
                break
            step /= 2
        else:
            break
        t, gain, ft = t + step, f_new - ft, f_new
        if np.abs(step).max() < 1e-7 or gain < 1e-10:
            break
    return t, ft


def _edge_mass(points: np.ndarray, logp: np.ndarray, edge: np.ndarray) -> float:
    """Largest share of the posterior mass, or of a variance's mean, on the grid's edge.

    The integrand of E[sig2] on axis j is the density times exp(t_j), so
    its log weight adds the point's log variance to the log density.
    """
    levels = logp[:, None] + np.column_stack([np.zeros(len(points)), points])
    weight = np.exp(levels - levels.max(axis=0))
    return float((weight[edge].sum(axis=0) / weight.sum(axis=0)).max())


def _flood(f, center: np.ndarray, value: float, basis: np.ndarray, spacing: float):
    """Lattice points center + basis @ (spacing * k), grown breadth-first from ``center``, where ``f`` is ``value``.

    ``f`` returns the log densities of a stack of points. A point is
    expanded to its 2d axis neighbours while its log density, or its log
    density plus one of its log variances (as in ``_edge_mass``), is within
    GRID_LOG_DROP of the largest such value seen, so the grid holds the
    tails of the variances' means as well as the posterior mass. Returns
    the points, their log densities, and which points were not expanded
    (the grid's edge).

    The points are visited one at a time, in that order, but their
    densities come a batch at a time. When a visit needs a density not yet
    known, one call of ``f`` takes the unvisited neighbours of every queued
    point that would expand under the largest values seen so far: about one
    generation of the flood. The largest values only grow, so a queued
    point that would not expand now never expands later, and the batch
    holds every density that the visits of the queued points need. The
    grid is the same, bit for bit, as with one call of ``f`` per point; a
    batch may hold points that never enter it, once the largest values have
    grown or the grid has reached _GRID_MAX_POINTS.
    """
    d = len(center)

    def levels_of(point: np.ndarray, value: float) -> list[float]:
        return [value] + [value + x for x in point.tolist()]

    def expands(i: int) -> bool:
        return any(map(operator.ge, levels[i], floor))

    moves = [(axis, sign) for axis in range(d) for sign in (1, -1)]

    def neighbours(k: tuple) -> list[tuple]:
        return [k[:axis] + (k[axis] + sign,) + k[axis + 1 :] for axis, sign in moves]

    origin = (0,) * d
    keys, points, values = [origin], [center], [value]
    index = {origin}
    levels = [levels_of(center, value)]
    best = list(levels[0])
    floor = [top - GRID_LOG_DROP for top in best]  # a point expands while a level is at or above its floor
    expanded = []
    known = {}  # key -> (point, log density) of points not yet in the grid
    i = 0
    while i < len(keys) and len(keys) < _GRID_MAX_POINTS:
        if expands(i):
            expanded.append(i)
            for nb in neighbours(keys[i]):
                if nb not in index:
                    if nb not in known:
                        batch = list(dict.fromkeys(
                            k for j in range(i, len(keys)) if expands(j)
                            for k in neighbours(keys[j]) if k not in index and k not in known))
                        # np.matmul on a stack of vectors runs one
                        # matrix-vector product per point, with the bits of
                        # basis @ (spacing * k) alone
                        scaled = spacing * np.array(batch, dtype=float)
                        stack = center + np.matmul(basis, scaled[:, :, None])[:, :, 0]
                        known.update(zip(batch, zip(stack, f(stack).tolist())))
                    point, value = known.pop(nb)
                    index.add(nb)
                    keys.append(nb)
                    points.append(point)
                    values.append(value)
                    levels.append(levels_of(point, value))
                    if any(map(operator.gt, levels[-1], best)):
                        best = list(map(max, best, levels[-1]))
                        floor = [top - GRID_LOG_DROP for top in best]
        i += 1
    edge = np.ones(len(keys), dtype=bool)
    edge[expanded] = False
    return np.array(points), np.array(values), edge


def _variance_grid(f, start: np.ndarray):
    """Grid over the log variances of log density ``f``: points (k, d), log densities (k,), edge mask (k,).

    ``f`` returns the log densities of a stack of points.
    """
    center, f_center = _mode(f, start) if len(start) else (start, float(f(start[None])[0]))
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
    _, coarse, _ = _flood(f, center, f_center, basis, 1.0)
    above = np.count_nonzero(coarse >= coarse.max() - GRID_LOG_DROP)
    spacing = min(1.0, (above / GRID_POINTS) ** (1.0 / len(start)))
    return _flood(f, center, f_center, basis, spacing)


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

    fill = np.array([v if v is not None else 1.0 for v in fixed])
    axes = [j for j, g in enumerate(gridded) if g]

    def variances(ts: list[list[float]]) -> np.ndarray:
        """(sig2_eps, sig2_sp) at each point's log variances over the gridded axes, (k, 2)."""
        out = np.tile(fill, (len(ts), 1))
        out[:, axes] = np.array([[math.exp(x) for x in t] for t in ts]).reshape(len(ts), len(axes))
        return out

    singular = set()  # the bytes of each point where P is singular

    def log_density(points: np.ndarray) -> np.ndarray:
        """log p(log sig2 | Y) over the gridded axes, up to a constant, at each row of ``points``."""
        out = np.full(len(points), -math.inf)
        ts = points.tolist()
        inside = np.flatnonzero([all(abs(x) < 100.0 for x in t) for t in ts])
        for rows, marginal in kernel.by_chunks(kernel.log_marginals, variances([ts[i] for i in inside])):
            if marginal is None:
                singular.add(points[inside[rows[0]]].tobytes())
                continue
            for i, value in zip(inside[rows].tolist(), marginal.tolist()):
                for x, (a, b) in zip(ts[i], priors):
                    value -= a * x + b * math.exp(-x)
                out[i] = value if math.isfinite(value) else -math.inf
        return out

    # a spread too large for float64 gives an infinite start, where the
    # density is -inf and _variance_grid raises its ModelError
    with np.errstate(over="ignore"):
        spread = float(np.var(kernel.y[kernel.usable]))
    start = np.full(len(priors), math.log(max(spread, 1e-4) / 2))
    points, logp, edge = _variance_grid(log_density, start)
    return _Grid(
        variances(points.tolist()),
        logp,
        _edge_mass(points, logp, edge),
        sum(p.tobytes() in singular for p in points[np.isneginf(logp)]),
    )


def _hyper_draws(config: McmcConfig, grid: _Grid, b0_mean: np.ndarray, b0_prec: np.ndarray,
                 sp_prior: tuple[float, float] | None) -> tuple[np.ndarray, ...]:
    """Each draw's grid cell, then its b0, sig2_eps and sig2_sp, (chains, kept).

    Per chain in stream order: grid cells, b0's standard normals (scaled in
    its grid cell below), and sig2_sp from its inverse-gamma prior
    ``sp_prior`` (a, b) when it meets no data.
    """
    cdf = np.cumsum(np.exp(grid.logp - grid.logp.max()))
    chains, kept = config.chains, config.retained_per_chain()
    rngs = [np.random.Generator(np.random.PCG64(stream))
            for stream in np.random.SeedSequence(config.seed).spawn(chains)]
    cells = np.empty((chains, kept), dtype=np.intp)
    beta0_draws = np.empty((chains, kept))
    sig2s_draws = np.empty((chains, kept))
    for c, rng in enumerate(rngs):
        cells[c] = np.searchsorted(cdf, rng.random(kept) * cdf[-1], side="right")
        rng.standard_normal(out=beta0_draws[c])
        if sp_prior is not None:
            a, b = sp_prior
            sig2s_draws[c] = b / np.maximum(rng.standard_gamma(a, kept), 1e-300)
    np.minimum(cells, len(cdf) - 1, out=cells)
    beta0_draws /= np.sqrt(b0_prec[cells])
    beta0_draws += b0_mean[cells]
    if sp_prior is None:
        sig2s_draws = grid.variances[cells, 1]
    return cells, beta0_draws, grid.variances[cells, 0], sig2s_draws


def _mixture_summaries(weight: np.ndarray, mean: np.ndarray, var: np.ndarray) -> list[tuple[Summary, ...]]:
    """Theta's and the prevalence's summaries of each column's Gaussian mixture.

    Column r's theta is N(mean[k, r], var[k, r]) with probability weight[k]
    (the weights sum to 1). Its mean and sd are sums over the components.
    Its median and 2.5/97.5% quantiles solve F(x) = q by Newton's method on
    the mixture CDF, inside a bracket that a step leaving it bisects. The
    prevalence's quantiles are expit of theta's, expit being monotone; its
    mean and sd come from Gauss-Hermite quadrature of each component, one
    node at a time.
    """
    sd = np.sqrt(var)
    theta_mean = weight @ mean
    theta_sd = np.sqrt(weight @ (var + (mean - theta_mean) ** 2))
    q = np.array([[0.5], [0.025], [0.975]])
    x = theta_mean + theta_sd * _NEWTON_START_Z
    # Phi(-40) underflows to 0, so F is 0 at lo and 1 at hi
    lo = np.broadcast_to((mean - 40.0 * sd).min(axis=0), x.shape)
    hi = np.broadcast_to((mean + 40.0 * sd).max(axis=0), x.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            z = (x[:, None, :] - mean) / sd
            gap = weight @ ndtr(z) - q
            density = weight @ (np.exp(-0.5 * z * z) / sd) / math.sqrt(2.0 * math.pi)
            lo, hi = np.where(gap < 0, x, lo), np.where(gap > 0, x, hi)
            step = x - gap / density
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.abs(step - x) <= _QUANTILE_TOL * (1.0 + np.abs(x))
            x = step
            if done.all():
                break
    nodes, node_weights = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    moment1 = moment2 = 0.0
    for node, h in zip(nodes * math.sqrt(2.0), node_weights / math.sqrt(math.pi)):
        p = expit(mean + node * sd)
        moment1 = moment1 + h * (weight @ p)
        p *= p
        moment2 = moment2 + h * (weight @ p)
    prev_sd = np.sqrt(np.maximum(moment2 - moment1 * moment1, 0.0))
    median, q025, q975 = x.tolist()
    prev_median, prev_q025, prev_q975 = expit(x).tolist()
    theta = zip(theta_mean.tolist(), median, theta_sd.tolist(), q025, q975)
    prev = zip(moment1.tolist(), prev_median, prev_sd.tolist(), prev_q025, prev_q975)
    return [(Summary(*t), Summary(*p)) for t, p in zip(theta, prev)]


def _summaries(weight: np.ndarray, moments, count: int) -> list[tuple[Summary, ...]]:
    """``_mixture_summaries`` of ``count`` regions, _SUMMARY_BYTES of each (points, regions) array at a time.

    ``moments(lo, hi)`` gives regions lo:hi's means and variances.
    """
    step = max(1, _SUMMARY_BYTES // (8 * len(weight)))
    out = []
    for lo in range(0, count, step):
        out += _mixture_summaries(weight, *moments(lo, min(lo + step, count)))
    return out


@_one_blas_thread()
def fit(spec: BymModelSpec, config: McmcConfig) -> BymPosterior:
    spec.validate()
    config.validate()
    kernel = _Collapsed(spec)
    grid = _grid(spec, kernel)
    points = len(grid.logp)
    meta = {"grid_points": str(points), "grid_edge_mass": f"{grid.edge_mass:.3e}"}
    if grid.singular_points:
        meta["grid_singular_points"] = str(grid.singular_points)

    finite = np.flatnonzero(np.isfinite(grid.logp))
    b0_mean, b0_prec = np.full((2, points), np.nan)
    b0_mean[finite], b0_prec[finite], theta_mean, theta_var = kernel.moments(grid.variances[finite])
    pri = spec.priors
    sp_prior = (pri.a_sp, pri.b_sp) if spec.fixed_sigma2_sp is None and kernel.rank == 0 else None
    cells, beta0_draws, sig2e_draws, sig2s_draws = _hyper_draws(config, grid, b0_mean, b0_prec, sp_prior)

    # Far out on the grid, where P is close to singular, rounding can eat a
    # variance: such a point leaves the mixture, as a singular one does
    kept = (theta_var > 0).all(axis=1) & np.isfinite(theta_mean).all(axis=1)
    lost = len(kept) - int(kept.sum())
    if lost:
        theta_mean, theta_var = theta_mean[kept], theta_var[kept]
    weight = np.exp(grid.logp[finite[kept]] - grid.logp.max())
    weight /= weight.sum()
    n = spec.precision.dimension
    mixtures = _summaries(weight, lambda lo, hi: (theta_mean[:, lo:hi], theta_var[:, lo:hi]), n)
    spread = np.flatnonzero(kernel.prior_var > 0)
    if sp_prior is not None and len(spread):
        # sig2_sp drawn from its prior moves only the dead regions with
        # edges: their theta is a mixture over the draws, one component each
        cell = cells.ravel()
        base = sig2e_draws.reshape(-1, 1) + 1.0 / b0_prec[cell][:, None]
        level = b0_mean[cell][:, None]

        def moments(lo, hi):
            var = sig2s_draws.reshape(-1, 1) * kernel.prior_var[spread[lo:hi]] + base
            return np.broadcast_to(level, var.shape), var

        draws = np.full(len(cell), 1.0 / len(cell))
        for r, summary in zip(spread.tolist(), _summaries(draws, moments, len(spread))):
            mixtures[r] = summary
    # no draw of theta feeds a summary: R-hat has nothing to say, and the
    # summaries are as good as that many independent draws, or better
    ess_theta = float(beta0_draws.size)
    summaries = [RegionSummary(rid, theta, prev, math.nan, ess_theta)
                 for rid, (theta, prev) in zip(spec.precision.node_ids, mixtures)]
    notes = []
    if grid.singular_points:
        notes.append(f"variance grid: {grid.singular_points} of {points} points have a precision "
                     "matrix that is singular in floating point; they count as zero density")
    if lost:
        notes.append(f"variance grid: {lost} of {points} points lost a region's variance of theta "
                     "to rounding; they are left out of the region summaries")
    return posterior_from_summaries(
        spec, config, summaries, beta0_draws, sig2e_draws, sig2s_draws,
        DiagnosticsReport({}, notes, grid.edge_mass), extra_meta=meta,
    )


fit.__doc__ = exact_fit.__doc__  # the engine and its entry point share one text
