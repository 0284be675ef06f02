"""Localized Wasserstein distance, flat measures, and alpha numbers.

The core is a linear program for the primal (transport) form of the
distance.  By Kantorovich-Rubinstein duality, the supremum of a signed
integral over 1-Lipschitz potentials that vanish on the sphere equals the
cheapest plan that moves mass between the positive and the negative atoms
at cost |x_i - x_j|, with the sphere as a ground node that takes or gives
any mass at cost b_i = r - |x_i - c| (the boundary-as-reservoir distance
of Figalli and Gigli).  Every atom has one equality row: its pair flows
plus its ground flow equal its mass.

Only positive-to-negative pairs get a flow variable.  Routing through a
third atom never helps, since the pair costs are a metric and b is
1-Lipschitz, so a detour is never cheaper than the direct edge or the
ground.  A pair with |x_i - x_j| >= b_i + b_j is no cheaper than sending
both masses to the sphere, so it is dropped before the LP is built.
Restricted to samples strictly inside the ball both reductions are exact,
and no discretization of the function space is involved beyond the
sampling of the measures themselves.

Each LP is one direct HiGHS solve (`linprog`), with the options that
``scipy.optimize.linprog(method="highs", options={"presolve": False})``
passes: presolve off (it removes nothing from this LP), the dual simplex,
debug level 0 and no log.  The answer and the iteration count are those of
that call, but on the 356 LPs (about 60 rows each) of the
``ursum_sawtooth`` benchmark workload, 1.93 s of linprog held only 0.29 s
of HiGHS solve (cProfile, one BLAS thread, 2-vCPU Xeon VM).  The rest was
per-call Python around the solve: option checks, a per-column loop over
the basis, input cleaning and a COO -> CSR -> CSC copy, none of which the
solve needs.  `linprog` is also the one hook that the benchmark's tracer
and the tests wrap to count and size the LPs.

The LP contract: `linprog` returns the optimum and the simplex iteration
count, and nothing else.  It raises NumericError itself when HiGHS ends
without an optimum (the message names the HiGHS model status) and when
the solution misses linprog's feasibility bound.  `_transport_lp` returns
the optimum of the LP it is given: every atom inside the ball enters it,
and none is dropped for size.  `_ball_support` is the one reduction of a
ball's support to an atom cap.  Every flat (an α start, a Nelder-Mead
vertex, a Whitney cube's separating plane) is priced as
`local_wasserstein` of its flat sample against that support, so a cube's
α and its separating-plane distance see one sample.  `alpha_number`
prices its PCA start without catching anything, so a start whose flat
sample is refused raises; inside Nelder-Mead a refused flat scores +inf,
which no finite start loses to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.optimize._highspy import _core as _highs

from .exceptions import (
    DegenerateInputError,
    InputError,
    NumericError,
    ParameterError,
    ResolutionError,
)
from .geometry import Ball, DiscreteMeasure, _ball_volume, _lattice

__all__ = [
    "FlatMeasure",
    "AlphaResult",
    "flat_sample",
    "local_wasserstein",
    "alpha_number",
]


@dataclass
class FlatMeasure:
    """c times Lebesgue measure on an affine d-plane in R^n."""

    offset: np.ndarray          # (n,) a point on the plane
    basis: np.ndarray           # (d, n) orthonormal rows spanning directions
    c: float

    def __post_init__(self) -> None:
        self.offset = np.asarray(self.offset, dtype=np.float64)
        self.basis = np.asarray(self.basis, dtype=np.float64)
        if not self.c > 0:
            raise ParameterError("flat measure density must be positive")
        # np.allclose(gram, I, atol=1e-10) without its per-call overhead
        eye = np.eye(self.basis.shape[0])
        if not np.all(np.abs(self.basis @ self.basis.T - eye)
                      <= 1e-10 + 1e-5 * eye):
            raise InputError("basis rows must be orthonormal to 1e-10")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.offset + ((x - self.offset) @ self.basis.T) @ self.basis

    def distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        resid = (x - self.offset) - ((x - self.offset) @ self.basis.T) @ self.basis
        return np.linalg.norm(resid, axis=-1)


@dataclass
class AlphaResult:
    value: float
    flat: FlatMeasure
    initial_value: float
    refined_value: float
    nm_iterations: int
    truncated: bool             # ball radius left the resolution window


# -- sampling ---------------------------------------------------------------


def flat_sample(mu: FlatMeasure, ball: Ball, resolution: int) -> DiscreteMeasure:
    """Cell-centered sample of the flat measure on its patch inside the ball.

    Grid step is radius/resolution in plane coordinates; each kept node
    carries weight c*step^d.  A point q + t*basis lies in the ball iff
    |t|^2 <= r^2 - dist(center, plane)^2, which keeps the restriction exact.
    """
    if resolution < 1:
        raise ParameterError("resolution must be at least 1")
    d = mu.dim
    n = mu.offset.shape[0]
    q = mu.project(ball.center)
    gap2 = ball.radius ** 2 - float(np.sum((ball.center - q) ** 2))
    if gap2 <= 0:
        raise InputError("plane misses the ball")
    rho = math.sqrt(gap2)
    step = ball.radius / resolution
    k = int(math.ceil(rho / step)) + 1
    axis = (np.arange(-k, k) + 0.5) * step
    t = _lattice([axis] * d)
    t = t[np.einsum("ij,ij->i", t, t) <= rho ** 2]
    if t.shape[0] == 0:
        raise ResolutionError(
            f"patch radius {rho:g} under-resolved at step {step:g}")
    pts = q + t @ mu.basis
    w = np.full(t.shape[0], mu.c * step ** d)
    return DiscreteMeasure(n, d, pts, w, step,
                           f"flat sample d={d} c={mu.c:g} step={step:g}")


def _resample(pts: np.ndarray, w: np.ndarray, target: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Weight-proportional resampling preserving total mass (multinomial)."""
    total = w.sum()
    counts = rng.multinomial(target, w / total)
    keep = counts > 0
    return pts[keep], counts[keep] * (total / target)


# -- the LP -------------------------------------------------------------------


def _highs_options() -> _highs.HighsOptions:
    opts = _highs.HighsOptions()
    opts.presolve = "off"
    opts.simplex_strategy = 1           # dual simplex
    opts.highs_debug_level = 0
    opts.log_to_console = False
    opts.output_flag = False
    return opts


_OPTIONS = _highs_options()
# the feasibility bound of scipy.optimize.linprog's result check (tol 1e-9)
_FEAS_TOL = 10.0 * math.sqrt(1e-9)


class LPResult(NamedTuple):
    fun: float          # the optimum
    nit: int            # simplex iterations


def linprog(c, *, A_eq, b_eq) -> LPResult:
    """min c.x subject to A_eq x = b_eq and x >= 0, in one HiGHS solve.

    ``A_eq`` is a scipy.sparse CSC array, handed to HiGHS as its arrays.
    A model HiGHS refuses raises NumericError, a solve that ends without
    an optimum raises it naming its HiGHS model status, and so does
    an optimum whose solution misses x >= -tol or |b_eq - A_eq x| <= tol,
    with scipy.optimize.linprog's tol = 10 sqrt(1e-9).
    """
    m, n = A_eq.shape
    highs = _highs._Highs()     # fresh: no basis carries over between LPs
    highs.passOptions(_OPTIONS)
    status = highs.passModel(
        n, m, A_eq.nnz, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, c, np.zeros(n),
        np.full(n, np.inf), b_eq, b_eq, A_eq.indptr, A_eq.indices, A_eq.data,
        np.zeros(n, dtype=np.int32))    # integrality: continuous columns
    if status == _highs.HighsStatus.kError:
        raise NumericError("LP failed: HiGHS refused the model")
    highs.run()
    model_status = highs.getModelStatus()
    if model_status != _highs.HighsModelStatus.kOptimal:
        raise NumericError("LP failed: model_status is "
                           + highs.modelStatusToString(model_status))
    info = highs.getInfo()
    fun = info.objective_function_value
    sol = highs.getSolution()
    x, ax = np.asarray(sol.col_value), np.asarray(sol.row_value)
    # written so that a NaN anywhere fails the check
    if not (np.all(x >= -_FEAS_TOL) and np.all(np.abs(b_eq - ax) <= _FEAS_TOL)
            and not math.isnan(fun)):
        raise NumericError("LP failed: the solution misses the constraints "
                           f"by more than {_FEAS_TOL:.2e}")
    return LPResult(fun, info.simplex_iteration_count)


def _transport_lp(pts_a, w_a, pts_b, w_b, center, radius) -> float:
    """Optimum of the shared transport LP (see the module docstring)."""
    center = np.asarray(center, dtype=np.float64)

    def _inside(pts, w):
        keep = np.linalg.norm(pts - center, axis=1) < radius
        return pts[keep], w[keep]

    pts_a, w_a = _inside(np.asarray(pts_a, float), np.asarray(w_a, float))
    pts_b, w_b = _inside(np.asarray(pts_b, float), np.asarray(w_b, float))

    pts = np.concatenate([pts_a, pts_b], axis=0)
    coeff = np.concatenate([w_a, -w_b])
    if pts.shape[0] == 0:
        return 0.0

    # merge exactly coincident samples so identical inputs cancel exactly
    pts, inv = np.unique(pts, axis=0, return_inverse=True)
    merged = np.zeros(pts.shape[0])
    np.add.at(merged, inv, coeff)
    scale = max(float(np.abs(coeff).max()), 1e-300)
    live = np.abs(merged) > 1e-15 * scale
    pts, coeff = pts[live], merged[live]
    m = pts.shape[0]
    if m == 0:
        return 0.0

    bound = radius - np.linalg.norm(pts - center, axis=1)
    mass = np.abs(coeff)
    pos = np.flatnonzero(coeff > 0)
    neg = np.flatnonzero(coeff < 0)
    if pos.size == 0 or neg.size == 0:
        # one sign (a single atom included): all mass goes to the sphere
        return float(mass @ bound)

    # a pair no cheaper than both atoms' trips to the sphere never carries mass
    cost = np.linalg.norm(pts[pos, None] - pts[None, neg], axis=2)
    pi, pj = np.nonzero(cost < bound[pos, None] + bound[None, neg])
    # columns: k pair flows, each with rows (min, max) of its (pos, neg)
    # atoms, then one ground flow per atom on its own row; one row per atom
    k = pi.size
    ends = np.sort(np.stack([pos[pi], neg[pj]], axis=1), axis=1)
    starts = np.concatenate([np.arange(0, 2 * k, 2), 2 * k + np.arange(m + 1)])
    a_eq = sp.csc_array(
        (np.ones(2 * k + m), np.concatenate([ends.ravel(), np.arange(m)]),
         starts), shape=(m, k + m))
    return float(linprog(np.concatenate([cost[pi, pj], bound]), A_eq=a_eq,
                         b_eq=mass).fun)


def local_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure,
                      ball: Ball) -> float:
    """Normalized ball-localized Wasserstein-1 distance between two clouds.

    The value is r^{-d-1} times the optimum of the transport LP in which
    the sphere is a ground node (see the module docstring); it equals the
    supremum over potentials supported in the closed ball.  It is exact:
    every atom inside the ball enters the LP.
    """
    if mu.intrinsic_dim != nu.intrinsic_dim:
        raise InputError("measures must share the intrinsic dimension")
    d = mu.intrinsic_dim
    opt = _transport_lp(mu.points, mu.weights, nu.points, nu.weights,
                        ball.center, ball.radius)
    return opt / ball.radius ** (d + 1)


def _ball_support(sigma: DiscreteMeasure, ball: Ball, resolution: int,
                  cap: int, seed: int) -> tuple[DiscreteMeasure, int]:
    """(support, m_res): sigma's atoms strictly inside the ball, cut down
    to fit beside a flat sample of resolution m_res within the cap.

    The flat side gets about half the cap: for d >= 2 the resolution is
    cut to sqrt(cap / (2 |B^d|)), at least 3, and the flat budget is
    min(cap // 2, (2 m_res)^d).  A ball holding more than cap - budget
    atoms is resampled to that many by one draw from
    ``default_rng(seed)``; otherwise its atoms come back unresampled, in
    index order.  Fewer than d + 1 atoms is a DegenerateInputError, and a
    cap that leaves fewer than d + 1 atoms beside the budget a
    ParameterError.
    """
    d = sigma.intrinsic_dim
    pts, w = sigma.restrict_to_ball(ball)
    if pts.shape[0] < d + 1:
        raise DegenerateInputError(
            f"need at least {d + 1} support points in the ball, "
            f"found {pts.shape[0]}")
    # budget: flat side gets about half the cap at the chosen resolution
    m_res = resolution
    if d >= 2:
        max_res = max(3, int(math.sqrt(cap / (2.0 * _ball_volume(d)))))
        m_res = min(m_res, max_res)
    flat_budget = min(cap // 2, (2 * m_res) ** d)
    if cap - flat_budget < d + 1:
        raise ParameterError(
            f"cap {cap} leaves {cap - flat_budget} support atoms beside the "
            f"flat sample; a d-plane fit needs at least {d + 1}")
    rng = np.random.default_rng(seed)
    if pts.shape[0] > cap - flat_budget:
        pts, w = _resample(pts, w, cap - flat_budget, rng)
    return DiscreteMeasure(sigma.ambient_dim, d, pts, w, sigma.spacing,
                           "ball support"), m_res


# -- alpha numbers ------------------------------------------------------------


def _sign_fix(rows: np.ndarray) -> np.ndarray:
    """Each row negated where its largest-magnitude entry is negative."""
    top = np.take_along_axis(rows, np.argmax(np.abs(rows), axis=1)[:, None],
                             axis=1)
    return np.where(top < 0, -rows, rows)


def _orthonormalize(w: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(w.T)
    return (q * np.sign(np.diag(r))).T


def _null_space(basis: np.ndarray) -> np.ndarray:
    """Orthonormal complement rows of a (d, n) orthonormal row basis."""
    _, _, vh = np.linalg.svd(basis, full_matrices=True)
    return vh[basis.shape[0]:]


def alpha_number(sigma: DiscreteMeasure, ball: Ball, *,
                 resolution: int = 16, cap: int = 300,
                 refine: bool = True,
                 refine_maxiter: int = 200, xatol: float = 1e-4,
                 seed: int = 0) -> AlphaResult:
    """Best flat-measure approximation error of sigma in a ball.

    Initialization: weighted PCA plane through the barycenter with the
    density matched to the ball mass.  Refinement: Nelder-Mead over tilt,
    offset, and log-density (derivative-free; the LP value is piecewise
    linear in the parameters).  Both the initial and refined values are
    reported; the refined one is never larger, since the simplex holds the
    start.  A start whose flat patch the sample refuses raises, refined or
    not.

    Every flat is priced as `local_wasserstein` of its sample at
    resolution m_res against the ball's support, both from
    `_ball_support(sigma, ball, resolution, cap, seed)`: the seed acts
    only where the ball holds more atoms than the cap leaves beside the
    flat sample.
    """
    d = sigma.intrinsic_dim
    n = sigma.ambient_dim
    codim = n - d
    r = ball.radius
    support, m_res = _ball_support(sigma, ball, resolution, cap, seed)
    pts, w = support.points, support.weights
    floor_r, ceil_r = sigma.window()
    truncated = not floor_r <= r <= ceil_r

    mass = float(w.sum())
    bary = (w @ pts) / mass
    centered = pts - bary
    cov = (centered * w[:, None]).T @ centered / mass
    evals, evecs = np.linalg.eigh(cov)
    u = _sign_fix(evecs[:, ::-1][:, :d].T)         # top-d directions
    v = _sign_fix(evecs[:, ::-1][:, d:].T)         # complement

    gap = float(np.linalg.norm((ball.center - bary) @ v.T))
    rho2 = max(r ** 2 - gap ** 2, (0.05 * r) ** 2)
    c0 = mass / (_ball_volume(d) * rho2 ** (d / 2.0))

    def build(theta: np.ndarray) -> FlatMeasure:
        tilt = theta[: d * codim].reshape(d, codim)
        boff = theta[d * codim: d * codim + codim] * r
        c = math.exp(theta[-1])
        basis = _orthonormalize(u + tilt @ v)
        return FlatMeasure(bary + boff @ v, basis, c * c0)

    def price(flat: FlatMeasure) -> float:
        return local_wasserstein(flat_sample(flat, ball, m_res), support,
                                 ball)

    npar = d * codim + codim + 1
    theta0 = np.zeros(npar)
    flat0 = build(theta0)
    f0 = price(flat0)

    def objective(theta: np.ndarray) -> float:
        if np.array_equal(theta, theta0):
            return f0           # the start is a simplex vertex: priced once
        try:
            return price(build(theta))
        except (InputError, ResolutionError):
            return math.inf     # no patch in the ball: never a best vertex

    # without refinement the PCA init is the result: an upper bound on the inf
    best_flat, best, refined, nit = flat0, f0, f0, 0
    if refine:
        steps = np.full(npar, 0.1)
        steps[-1] = 0.2
        res = minimize(objective, theta0, method="Nelder-Mead",
                       options={"maxiter": refine_maxiter, "xatol": xatol,
                                "fatol": 1e-5, "initial_simplex": np.vstack(
                                    [theta0, theta0 + np.diag(steps)])})
        # the simplex holds the finite start, so its best is never worse
        best_flat, best = build(res.x), float(res.fun)
        refined, nit = best, int(res.nit)
    return AlphaResult(best, best_flat, f0, refined, nit, truncated)
