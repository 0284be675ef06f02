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
from .geometry import Ball, DiscreteMeasure

__all__ = [
    "FlatMeasure",
    "WassersteinResult",
    "AlphaResult",
    "EnvelopeResult",
    "ScaleCheck",
    "flat_sample",
    "local_wasserstein",
    "alpha_number",
    "flat_distance",
    "flat_pair_envelope",
    "scale_monotonicity",
]

_ENVELOPE_FACTOR = 32.0         # two-sided slack of the closed-form envelope


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
        gram = self.basis @ self.basis.T
        if not np.allclose(gram, np.eye(self.basis.shape[0]), atol=1e-10):
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
class WassersteinResult:
    value: float                # normalized distance r^{-d-1} * optimum
    optimum: float              # raw LP optimum
    iterations: int
    n_samples: int
    subsampled: bool
    seed: int


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


@dataclass
class EnvelopeResult:
    lower: float
    upper: float
    case: str                   # 'graph' | 'steep' | 'orthogonal'
    tilt: float                 # |a|, largest singular value (graph case)
    shift: float                # |b| at the projected ball center (graph case)


@dataclass
class ScaleCheck:
    numerator: float
    denominator: float
    ratio: float
    exact_equality: bool


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
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    t = np.stack([g.ravel() for g in grids], axis=1)
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
        if pts.shape[0] == 0:
            return pts, w
        dist = np.linalg.norm(pts - center, axis=1)
        keep = dist < radius
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
    res = linprog(np.concatenate([cost[pi, pj], bound]), A_eq=a_eq,
                  b_eq=mass, method="highs")
    if res.status != 0:
        raise NumericError(f"LP failed with status {res.status}: {res.message}")
    return float(res.fun), int(res.nit), m, subsampled


def local_wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, ball: Ball,
                      *, cap: int = 300, seed: int = 0,
                      details: bool = False):
    """Normalized ball-localized Wasserstein-1 distance between two clouds.

    The value is r^{-d-1} times the optimum of the transport LP in which
    the sphere is a ground node (see the module docstring); it equals the
    supremum over potentials supported in the closed ball.
    Weight-proportional subsampling (seeded) keeps the combined sample
    count at or below `cap`.  With details=True the result's `iterations`
    counts the HiGHS iterations of that primal LP (0 when no LP runs).
    """
    if mu.intrinsic_dim != nu.intrinsic_dim:
        raise InputError("measures must share the intrinsic dimension")
    d = mu.intrinsic_dim
    opt, nit, m, sub = _transport_lp(mu.points, mu.weights, nu.points,
                                     nu.weights, ball.center, ball.radius,
                                     cap=cap, seed=seed)
    value = opt / ball.radius ** (d + 1)
    if details:
        return WassersteinResult(value, opt, nit, m, sub, seed)
    return value


# -- alpha numbers ------------------------------------------------------------


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _sign_fix(rows: np.ndarray) -> np.ndarray:
    out = rows.copy()
    for i, row in enumerate(out):
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            out[i] = -row
    return out


def _orthonormalize(w: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(w.T)
    return (q * np.sign(np.diag(r))).T


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
    truncated = not (4.0 * sigma.spacing <= r <= sigma.extent / 4.0)

    # budget: flat side gets about half the cap at the chosen resolution
    m_res = resolution
    if d >= 2:
        max_res = max(3, int(math.sqrt(cap / (2.0 * _unit_ball_volume(d)))))
        m_res = min(m_res, max_res)
    flat_budget = min(cap // 2, (2 * m_res) ** d)
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
    c0 = mass / (_unit_ball_volume(d) * rho2 ** (d / 2.0))

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

    if not refine:              # PCA init only: an upper bound on the inf
        flat = build(theta0)
        n_flat = len(flat_sample(flat, ball, m_res))
        return AlphaResult(f0, flat, f0, f0, pts.shape[0], n_flat,
                           0, truncated)

    simplex = np.zeros((npar + 1, npar))
    steps = np.full(npar, 0.1)
    steps[-1] = 0.2
    for i in range(npar):
        simplex[i + 1] = theta0
        simplex[i + 1, i] += steps[i]
    res = minimize(objective, theta0, method="Nelder-Mead",
                   options={"maxiter": refine_maxiter, "xatol": xatol,
                            "fatol": 1e-5, "initial_simplex": simplex})
    refined = float(res.fun)
    if refined <= f0:
        best_theta, best = res.x, refined
    else:                       # refinement may not beat the init; keep init
        best_theta, best = theta0, f0
    flat = build(best_theta)
    n_flat = len(flat_sample(flat, ball, m_res))
    return AlphaResult(best, flat, f0, refined, pts.shape[0], n_flat,
                       int(res.nit), truncated)


def flat_distance(sigma: DiscreteMeasure, flat: FlatMeasure, ball: Ball, *,
                  resolution: int = 16, cap: int = 300,
                  seed: int = 0) -> float:
    """Normalized transport distance between sigma and one flat measure.

    Same functional alpha_number minimizes, evaluated at a given flat
    measure instead of the best one.  A flat measure that misses the ball
    contributes nothing inside it, so only the sigma side enters the LP.
    """
    d = sigma.intrinsic_dim
    r = ball.radius
    pts, w = sigma.restrict_to_ball(ball)
    try:
        samp = flat_sample(flat, ball, resolution)
        fpts, fw = samp.points, samp.weights
    except InputError:          # plane misses the ball entirely
        fpts = np.zeros((0, sigma.ambient_dim))
        fw = np.zeros(0)
    opt, _, _, _ = _transport_lp(fpts, fw, pts, w, ball.center, r,
                                 cap=cap, seed=seed)
    return opt / r ** (d + 1)


# -- closed-form envelopes ------------------------------------------------


def flat_pair_envelope(mu1: FlatMeasure, mu2: FlatMeasure,
                       ball: Ball) -> EnvelopeResult:
    """Two-sided closed-form envelope for the distance of two flat measures.

    Both planes must meet B(center, r/2).  After normalizing so the denser
    plane is the reference and writing the other as a graph x -> x*a + b
    over it (coordinates anchored at the projected ball center), the
    comparison quantity is

        steep or orthogonal:  c1           (resp. c1 + c2)
        graph, |a| <= 1:      c1*(|a| + |b|/r) + (c1 - c2)

    and the envelope is (X/32, 32*X).  |a| is the largest singular value.
    """
    r = ball.radius
    for mu in (mu1, mu2):
        if float(mu.distance(ball.center)) > r / 2.0 + 1e-12:
            raise InputError("both planes must meet B(center, r/2)")
    if mu1.dim != mu2.dim:
        raise InputError("planes must share the dimension")
    if mu2.c > mu1.c:
        mu1, mu2 = mu2, mu1
    c1, c2 = mu1.c, mu2.c

    u1 = mu1.basis
    v1 = _sign_fix(_null_space(u1))
    origin = mu1.project(ball.center)

    m = mu2.basis @ u1.T                        # d x d
    smin = np.linalg.svd(m, compute_uv=False).min()
    if smin < 1e-8:
        x = c1 + c2
        return EnvelopeResult(x / _ENVELOPE_FACTOR, _ENVELOPE_FACTOR * x,
                              "orthogonal", math.inf, math.nan, )
    a = np.linalg.solve(m, mu2.basis @ v1.T)    # d x (n-d) graph matrix
    tilt = float(np.linalg.norm(a, 2))
    xi0 = (mu2.offset - origin) @ u1.T
    eta0 = (mu2.offset - origin) @ v1.T
    b = eta0 - xi0 @ a
    shift = float(np.linalg.norm(b))
    if tilt >= 1.0:
        x = c1
        return EnvelopeResult(x / _ENVELOPE_FACTOR, _ENVELOPE_FACTOR * x,
                              "steep", tilt, shift)
    x = c1 * (tilt + shift / r) + (c1 - c2)
    return EnvelopeResult(x / _ENVELOPE_FACTOR, _ENVELOPE_FACTOR * x,
                          "graph", tilt, shift)


def _null_space(basis: np.ndarray) -> np.ndarray:
    """Orthonormal complement rows of a (d, n) orthonormal row basis."""
    _, _, vh = np.linalg.svd(basis, full_matrices=True)
    return vh[basis.shape[0]:]


def scale_monotonicity(mu1: FlatMeasure, mu2: FlatMeasure, center, radius,
                       k: int, *, resolution: int = 16, cap: int = 300,
                       seed: int = 0) -> ScaleCheck:
    """Distance ratio between scale 2^k * r and scale r (LP at both scales).

    A pair of flat measures can only look flatter at large scale when it
    looked flat at small scale; the ratio is bounded.  Identical measures
    make the denominator vanish: reported as the exact-equality case.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    values = []
    for rad in (radius, (2.0 ** k) * radius):
        ball = Ball(center, rad)
        s1 = flat_sample(mu1, ball, resolution)
        s2 = flat_sample(mu2, ball, resolution)
        values.append(local_wasserstein(s1, s2, ball, cap=cap, seed=seed))
    small, big = values[0], values[1]
    if small < 1e-12:
        return ScaleCheck(big, small, math.nan, True)
    return ScaleCheck(big, small, big / small, False)
