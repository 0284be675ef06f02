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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, minimize

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
        if self.c <= 0:
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
    n_support: int
    n_flat: int
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


def _transport_lp(pts_a, w_a, pts_b, w_b, center, radius, *,
                  cap=300, seed=0):
    """Shared transport LP; returns (optimum, iterations, n, subsampled)."""
    center = np.asarray(center, dtype=np.float64)

    def _inside(pts, w):
        keep = np.linalg.norm(pts - center, axis=1) < radius
        return pts[keep], w[keep]

    pts_a, w_a = _inside(np.asarray(pts_a, float), np.asarray(w_a, float))
    pts_b, w_b = _inside(np.asarray(pts_b, float), np.asarray(w_b, float))

    subsampled = False
    total = pts_a.shape[0] + pts_b.shape[0]
    if cap is not None and total > cap:
        subsampled = True
        rng = np.random.default_rng(seed)
        ta = max(1, round(cap * pts_a.shape[0] / total))
        tb = max(1, cap - ta)
        if pts_a.shape[0] > ta:
            pts_a, w_a = _resample(pts_a, w_a, ta, rng)
        if pts_b.shape[0] > tb:
            pts_b, w_b = _resample(pts_b, w_b, tb, rng)

    pts = np.concatenate([pts_a, pts_b], axis=0)
    coeff = np.concatenate([w_a, -w_b])
    if pts.shape[0] == 0:
        return 0.0, 0, 0, subsampled

    # merge exactly coincident samples so identical inputs cancel exactly
    pts, inv = np.unique(pts, axis=0, return_inverse=True)
    merged = np.zeros(pts.shape[0])
    np.add.at(merged, inv, coeff)
    scale = max(float(np.abs(coeff).max()), 1e-300)
    live = np.abs(merged) > 1e-15 * scale
    pts, coeff = pts[live], merged[live]
    m = pts.shape[0]
    if m == 0:
        return 0.0, 0, 0, subsampled

    bound = radius - np.linalg.norm(pts - center, axis=1)
    mass = np.abs(coeff)
    pos = np.flatnonzero(coeff > 0)
    neg = np.flatnonzero(coeff < 0)
    if pos.size == 0 or neg.size == 0:
        # one sign (a single atom included): all mass goes to the sphere
        return float(mass @ bound), 0, m, subsampled

    # a pair no cheaper than both atoms' trips to the sphere never carries mass
    cost = np.linalg.norm(pts[pos, None] - pts[None, neg], axis=2)
    pi, pj = np.nonzero(cost < bound[pos, None] + bound[None, neg])
    # columns: k pair flows, then one ground flow per atom; one row per atom
    k = pi.size
    cols = np.arange(k + m)
    a_eq = sp.csr_matrix(
        (np.ones(2 * k + m),
         (np.concatenate([pos[pi], neg[pj], np.arange(m)]),
          np.concatenate([cols[:k], cols]))),
        shape=(m, k + m))
    # HiGHS presolve removes nothing from this LP, so it is pure overhead
    res = linprog(np.concatenate([cost[pi, pj], bound]), A_eq=a_eq,
                  b_eq=mass, method="highs", options={"presolve": False})
    if res.status != 0:
        raise NumericError(f"LP failed with status {res.status}: {res.message}")
    return float(res.fun), int(res.nit), m, subsampled


def local_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, ball: Ball,
                      *, cap: int = 300, seed: int = 0) -> float:
    """Normalized ball-localized Wasserstein-1 distance between two clouds.

    The value is r^{-d-1} times the optimum of the transport LP in which
    the sphere is a ground node (see the module docstring); it equals the
    supremum over potentials supported in the closed ball.
    Weight-proportional subsampling (seeded) keeps the combined sample
    count at or below `cap`.
    """
    if mu.intrinsic_dim != nu.intrinsic_dim:
        raise InputError("measures must share the intrinsic dimension")
    d = mu.intrinsic_dim
    opt, _, _, _ = _transport_lp(mu.points, mu.weights, nu.points,
                                 nu.weights, ball.center, ball.radius,
                                 cap=cap, seed=seed)
    return opt / ball.radius ** (d + 1)


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
    reported; the result keeps the better one.
    """
    d = sigma.intrinsic_dim
    n = sigma.ambient_dim
    codim = n - d
    r = ball.radius
    pts, w = sigma.restrict_to_ball(ball)
    if pts.shape[0] < d + 1:
        raise DegenerateInputError(
            f"need at least {d + 1} support points in the ball, "
            f"found {pts.shape[0]}")
    floor_r, ceil_r = sigma.window()
    truncated = not floor_r <= r <= ceil_r

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

    def objective(theta: np.ndarray) -> float:
        try:
            flat = build(theta)
            samp = flat_sample(flat, ball, m_res)
        except (InputError, ResolutionError):
            return 10.0         # plane left the ball; alpha values are O(1)
        opt, _, _, _ = _transport_lp(samp.points, samp.weights, pts, w,
                                     ball.center, r, cap=None)
        return opt / r ** (d + 1)

    npar = d * codim + codim + 1
    theta0 = np.zeros(npar)
    f0 = objective(theta0)
    # without refinement the PCA init is the result: an upper bound on the inf
    best_theta, best, refined, nit = theta0, f0, f0, 0
    if refine:
        steps = np.full(npar, 0.1)
        steps[-1] = 0.2
        res = minimize(objective, theta0, method="Nelder-Mead",
                       options={"maxiter": refine_maxiter, "xatol": xatol,
                                "fatol": 1e-5, "initial_simplex": np.vstack(
                                    [theta0, theta0 + np.diag(steps)])})
        refined, nit = float(res.fun), int(res.nit)
        if refined <= f0:   # refinement may not beat the init; keep init
            best_theta, best = res.x, refined
    flat = build(best_theta)
    n_flat = len(flat_sample(flat, ball, m_res))
    return AlphaResult(best, flat, f0, refined, pts.shape[0], n_flat,
                       nit, truncated)
