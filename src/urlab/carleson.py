"""Carleson-measure estimates, non-tangential cones, and boundary cutoffs.

Quantities of the form  integral over a ball of |f|^p dist(X, support)^{d-n}
are priced by Riemann sums on uniform grids.  The weight blows up at the
support and the grid cannot resolve it, so cells closer than twice the grid
step are excluded and the missing shell is estimated separately by a radial
oracle (exact for the ideal unit-density plane, with an inner cutoff at half
the atomic spacing where the continuum model stops applying).  That keeps
every reported number finite while making truncation bias visible instead
of silently absorbed.

The cutoff profile is piecewise linear: only its plateau, support, and
slope bound enter any estimate here, so smoothness would buy nothing.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import distance

from .exceptions import (
    DomainError,
    InputError,
    LabError,
    NumericError,
    ParameterError,
)
from .geometry import (Ball, DiscreteMeasure, _as_points, _ball_volume,
                       _lattice, _sphere_area, support_ball_family)

__all__ = [
    "ConeFamily",
    "CarlesonEstimate",
    "NTMaxResult",
    "EmbeddingResult",
    "cutoff_phi",
    "e_sets_indicator",
    "cutoff_gradient_check",
    "carleson_norm",
    "ntmax",
    "ntmax_family",
    "embedding_check",
    "shell_oracle",
    "write_carleson",
]

_CHUNK = 1 << 19                # grid cells processed per evaluator call
_NT_BUDGET = 1 << 19            # (vertex, point) pairs per cone block


# -- types ----------------------------------------------------------------


@dataclass(frozen=True)
class ConeFamily:
    """Non-tangential access cones over a set of boundary vertices.

    A point X belongs to the cone at vertex x when |X - x| is at most
    `aperture` times dist(X, support); any aperture above 1 gives an
    opening angle, and 2 is the working default.  An optional ball
    truncates every cone to its interior.
    """

    vertices: np.ndarray
    aperture: float = 2.0
    ball: Ball | None = None

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "vertices", v)
        if not self.aperture > 1.0:
            raise ParameterError("cone aperture must exceed 1")

    def __len__(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class NTMaxResult:
    value: float
    n_cells: int                # grid cells inside the cone
    flagged: bool               # cone met no grid cell at this resolution


@dataclass(frozen=True)
class CarlesonEstimate:
    """Per-ball normalized boundary-weight integrals and their supremum.

    `bias` estimates, per ball, what the excluded near-support shell would
    contribute (radial oracle times the near-shell sup of the integrand's
    field factor), NaN where no near-shell cell evaluated; `skipped`
    counts cells whose evaluator failed or returned non-finite values.
    `refinement` re-prices the supremum ball on a half-step grid: (value at
    h, value at h/2).
    """

    values: np.ndarray
    balls: tuple
    supremum: float
    bias: np.ndarray
    skipped: np.ndarray
    n_cells: np.ndarray
    h: float
    squared: bool
    refinement: tuple | None

    def refinement_ratio(self) -> float | None:
        if self.refinement is None or self.refinement[0] == 0.0:
            return None
        return self.refinement[1] / self.refinement[0]

    def max_bias(self) -> float | None:
        """Largest bias over the balls whose bias is known, else None."""
        known = self.bias[~np.isnan(self.bias)]
        return float(known.max()) if known.size else None

    def summary(self) -> dict:
        """Scalar summary: the supremum, grid step, variant, largest known
        bias, total skipped cells and the refinement pair with its ratio."""
        return {
            "supremum": self.supremum,
            "grid_step": self.h,
            "squared": self.squared,
            "max_bias": self.max_bias(),
            "total_skipped_cells": int(self.skipped.sum()),
            "refinement": list(self.refinement) if self.refinement else None,
            "refinement_ratio": self.refinement_ratio(),
        }


@dataclass(frozen=True)
class EmbeddingResult:
    lhs: float                  # grid sum of u * f * dist^{d-n} over the ball
    rhs: float                  # cm1 estimate times the boundary N(u) integral
    ratio: float                # lhs / rhs; NaN when both sides vanish
    cm1: float
    nt_integral: float
    n_vertices: int
    n_empty_cones: int
    n_cells: int
    skipped: int


# -- cutoff profile and support sets ---------------------------------------


def _psi(t: np.ndarray) -> np.ndarray:
    """Piecewise-linear bump: 1 on [-1, 1], 0 outside (-2, 2), |slope| = 1."""
    return np.clip(2.0 - np.abs(t), 0.0, 1.0)


def _ball_gap(points: np.ndarray, ball: Ball) -> np.ndarray:
    """dist(X, B): zero inside the ball, radial excess outside."""
    gap = np.linalg.norm(points - ball.center, axis=1) - ball.radius
    return np.maximum(gap, 0.0)


def _cutoff(sigma: DiscreteMeasure, ball: Ball, eps: float,
            pts: np.ndarray) -> tuple:
    """The cutoff at an (m, n) point batch from one support query:
    (phi, (E1, E2, E3), dist(X,support)).

    phi is the product of bumps in dist(X,B)/(10 dist(X,support)),
    2 dist(X,B)/r and eps/dist(X,support), and 0 on the support itself.
    The E-sets are the transition shells of phi inside the 2-dilate:

      E1:  10 dist(X,support) <= dist(X,B) <= 20 dist(X,support)
      E2:  r/40 <= dist(X,support) <= 2r
      E3:  eps/2 <= dist(X,support) <= eps
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    dist_g = sigma.dist_to_support(pts)
    dist_b = _ball_gap(pts, ball)
    r = ball.radius
    on_support = dist_g <= 0.0
    safe = np.where(on_support, 1.0, dist_g)
    phi = _psi(dist_b / (10.0 * safe)) * _psi(2.0 * dist_b / r) \
        * _psi(eps / safe)
    phi[on_support] = 0.0
    in_2b = np.linalg.norm(pts - ball.center, axis=1) <= 2.0 * r
    e1 = in_2b & (10.0 * dist_g <= dist_b) & (dist_b <= 20.0 * dist_g)
    e2 = in_2b & (r / 40.0 <= dist_g) & (dist_g <= 2.0 * r)
    e3 = in_2b & (eps / 2.0 <= dist_g) & (dist_g <= eps)
    return phi, (e1, e2, e3), dist_g


def cutoff_phi(sigma: DiscreteMeasure, ball: Ball, eps: float,
               points: np.ndarray) -> np.ndarray:
    """Boundary-aware cutoff adapted to a ball (see ``_cutoff``).

    Equals 1 for points inside the ball at least eps from the support;
    vanishes once dist(X,B) exceeds 20 dist(X,support), outside the
    2-dilate, or below distance eps/2.  Points on the support itself get
    0 (the function lives on the complement).  One value per row of the
    (m, n) batch.
    """
    return _cutoff(sigma, ball, eps,
                   _as_points(points, sigma.ambient_dim))[0]


def e_sets_indicator(sigma: DiscreteMeasure, ball: Ball, eps: float,
                     points: np.ndarray) -> tuple:
    """Indicators of the three transition shells E1, E2, E3 of the cutoff
    (see ``_cutoff``), all inside the 2-dilate of the ball.

    The cutoff's gradient is supported on their union, with norm at most
    100/dist(X,support) there.  A tuple of three (m,) bool arrays over the
    (m, n) batch.
    """
    return _cutoff(sigma, ball, eps,
                   _as_points(points, sigma.ambient_dim))[1]


def cutoff_gradient_check(sigma: DiscreteMeasure, ball: Ball, eps: float,
                          points: np.ndarray, *,
                          step: float | None = None) -> dict:
    """Central-difference gradient of the cutoff against its shell bound.

    The bound 100/dist(X,support) holds wherever any of the three shells
    is active; a finite difference straddling a shell edge can see slope
    where the center point sees none, so the shell indicators are OR-ed
    over the whole stencil and the distance takes the stencil minimum.
    Each of the 2n+1 stencil point sets costs one support query.
    """
    pts = _as_points(points, sigma.ambient_dim)
    if step is None:
        step = 1e-3 * min(eps, ball.radius)
    if step <= 0:
        raise ParameterError("step must be positive")
    grad = np.zeros_like(pts)
    _, sets, min_dist = _cutoff(sigma, ball, eps, pts)
    active = np.logical_or.reduce(sets)
    for j, e in enumerate(step * np.eye(pts.shape[1])):
        (phi_hi, sets_hi, d_hi), (phi_lo, sets_lo, d_lo) = (
            _cutoff(sigma, ball, eps, pts + e),
            _cutoff(sigma, ball, eps, pts - e))
        grad[:, j] = (phi_hi - phi_lo) / (2.0 * step)
        active |= np.logical_or.reduce(sets_hi + sets_lo)
        min_dist = np.minimum(min_dist, np.minimum(d_hi, d_lo))
    grad_norm = np.linalg.norm(grad, axis=1)
    with np.errstate(divide="ignore"):
        bound = np.where(active, 100.0 / np.maximum(min_dist - step, 1e-300),
                         0.0)
    ok = grad_norm <= bound + 1e-9
    return {"grad_norm": grad_norm, "bound": bound, "ok": ok,
            "active": active, "step": step}


# -- radial oracle ----------------------------------------------------------


def shell_oracle(d: int, n: int, r: float, s0: float, s1: float) -> float:
    """Exact integral of dist^{d-n} over the shell s0 <= dist <= s1 of a
    ball of radius r centered on an ideal unit-density d-plane in R^n.

    Slicing by the transverse distance t gives the 1-D reduction
    area(S^{n-d-1}) * vol_d * integral of (r^2 - t^2)^{d/2} / t.  The
    integrand behaves like 1/t near the plane, so s0 = 0 diverges; callers
    choose the inner cutoff (half the atomic spacing is where a discrete
    set stops looking like a continuum).

    The integral is elementary: with u = sqrt(1 - t^2/r^2), p = d + 1 and
    q = p mod 2 it is r^d (F(s0) - F(s1)), where F(t) = G_q - sum over
    k = p - 1, p - 3, ..., q + 1 of u^k / k, G_1 = -ln(t/r) and
    G_0 = ln(1 + u) - ln(t/r).
    """
    if not 0 <= d < n:
        raise ParameterError("need 0 <= d < n")
    if s0 <= 0:
        raise ParameterError("inner radius must be positive (log divergence)")
    s1 = min(s1, r)
    if s1 <= s0:
        return 0.0
    p = d + 1

    def anti(t: float) -> float:
        u = math.sqrt(1.0 - (t / r) ** 2)
        g = -math.log(t / r) + (math.log1p(u) if p % 2 == 0 else 0.0)
        return g - sum(u ** k / k for k in range(p - 1, p % 2, -2))

    front = _sphere_area(n - d) * _ball_volume(d)
    return front * r ** d * (anti(s0) - anti(s1))


# -- Carleson norms ----------------------------------------------------------


def _grid_chunks(center: np.ndarray, radius: float, h: float):
    """Centers of the uniform h-grid cells in the ball, in bounded slabs."""
    n = center.shape[0]
    m = int(math.ceil(2.0 * radius / h))
    axis = (np.arange(m) + 0.5 - 0.5 * m) * h
    cross = m ** (n - 1)
    group = max(1, _CHUNK // max(cross, 1))
    for lo in range(0, m, group):
        pts = _lattice([axis[lo: lo + group], *([axis] * (n - 1))]) + center
        rad2 = np.einsum("ij,ij->i", pts - center, pts - center)
        pts = pts[rad2 <= radius * radius]
        if pts.shape[0]:
            yield pts


def _far_cells(sigma: DiscreteMeasure, ball: Ball, h: float):
    """(cells, support distances) of the ball's grid cells at least 2h
    from the support, slab by slab; slabs with no such cell are skipped."""
    for pts in _grid_chunks(ball.center, ball.radius, h):
        dist = sigma.dist_to_support(pts)
        keep = dist >= 2.0 * h
        if np.any(keep):
            yield pts[keep], dist[keep]


# evaluator failures that cost a cell; any other exception is a bug
_CELL_FAILURES = (LabError, ArithmeticError, ValueError)


def _evaluate_field(f, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field values and the per-cell failure mask.

    One vectorized call normally; if the evaluator raises one of
    _CELL_FAILURES, each half is retried on its own down to single cells,
    so a local failure costs its cells, not the whole ball, in a number of
    calls that grows with the failing regions, not the cells.  Non-finite
    outputs fail their cells too; failed cells read 0.
    """
    try:
        vals = np.asarray(f(pts), dtype=np.float64).reshape(pts.shape[0])
    except _CELL_FAILURES:
        if pts.shape[0] <= 1:
            return np.zeros(pts.shape[0]), np.ones(pts.shape[0], dtype=bool)
        halves = [_evaluate_field(f, part) for part in np.array_split(pts, 2)]
        return tuple(np.concatenate(a) for a in zip(*halves))
    bad = ~np.isfinite(vals)
    return np.where(bad, 0.0, vals), bad


def _ball_value(f, sigma: DiscreteMeasure, ball: Ball, h: float,
                p: int) -> tuple[float, float, int, int]:
    """(normalized value, bias, skipped cells, used cells) for one ball;
    the bias is NaN when the shell holds cells but none evaluated."""
    d, n = sigma.intrinsic_dim, sigma.ambient_dim
    mass = sigma.mass_in_ball(ball.center, ball.radius)
    if mass <= 0:
        raise DomainError("ball carries no mass; center it on the support")
    total = 0.0
    skipped = cells = 0
    near_sup = 0.0
    shell_cells = shell_known = 0
    for pts, dist in _far_cells(sigma, ball, h):
        vals, bad = _evaluate_field(f, pts)
        skipped += int(np.count_nonzero(bad))
        cells += pts.shape[0]
        contrib = np.abs(vals) ** p * dist ** (d - n)
        total += float(contrib.sum()) * h ** n
        shell = dist <= 4.0 * h
        known = shell & ~bad
        shell_cells += int(np.count_nonzero(shell))
        shell_known += int(np.count_nonzero(known))
        if np.any(known):
            near_sup = max(near_sup, float(np.max(np.abs(vals[known]) ** p)))
    if shell_cells and not shell_known:
        near_sup = math.nan
    s0 = 0.5 * sigma.spacing
    bias = 0.0
    if near_sup != 0.0 and 2.0 * h > s0:
        bias = near_sup * shell_oracle(d, n, ball.radius, s0, 2.0 * h) / mass
    return total / mass, bias, skipped, cells - skipped


def carleson_norm(f, sigma: DiscreteMeasure, balls, h: float, *,
                  squared: bool = True,
                  refine: bool = True) -> CarlesonEstimate:
    """Supremum over balls of the normalized boundary-weight integral of a
    field: sum over grid cells of |f|^p dist^{d-n} h^n, divided by the
    ball's measure mass, with p = 2 (norm condition) or p = 1 (the weaker
    unsquared variant).

    Cells with centers closer than 2h to the support are excluded; the
    oracle-estimated shell contribution is reported per ball as `bias`
    rather than added.  Evaluator failures and non-finite field values
    skip their cell and are counted.  With `refine`, the supremum ball is
    re-priced at h/2 and the pair is reported for stability reading.
    """
    balls = list(balls)
    if not balls:
        raise ParameterError("need at least one ball")
    if h <= 0:
        raise ParameterError("grid step must be positive")
    for b in balls:
        if h > b.radius / 32.0 + 1e-12 * b.radius:
            raise ParameterError(
                f"grid step {h:g} exceeds radius/32 for a ball of radius "
                f"{b.radius:g}")
    p = 2 if squared else 1
    values = np.zeros(len(balls))
    bias = np.zeros(len(balls))
    skipped = np.zeros(len(balls), dtype=np.int64)
    n_cells = np.zeros(len(balls), dtype=np.int64)
    for i, b in enumerate(balls):
        values[i], bias[i], skipped[i], n_cells[i] = _ball_value(
            f, sigma, b, h, p)
    top = int(np.argmax(values))
    refinement = None
    if refine:
        half, _, _, _ = _ball_value(f, sigma, balls[top], h / 2.0, p)
        refinement = (float(values[top]), float(half))
    return CarlesonEstimate(values, tuple(balls), float(values[top]),
                            bias, skipped, n_cells, float(h), squared,
                            refinement)


# -- non-tangential maximal function ----------------------------------------


def _field_data(u) -> tuple[np.ndarray, np.ndarray]:
    """Points and flat values of a (points, values) pair."""
    pts, vals = u
    pts = np.asarray(pts, dtype=np.float64)
    vals = np.ravel(np.asarray(vals, dtype=np.float64))
    if pts.shape[0] != vals.shape[0]:
        raise InputError("field points and values disagree in length")
    return pts, vals


def ntmax_family(u, sigma: DiscreteMeasure, cones: ConeFamily, *,
                 dists: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Non-tangential maxima of |u| over every cone of a family.

    Returns (values, empty-cone flags); an empty cone contributes 0 and
    is flagged, since at a coarse resolution that is data absence, not a
    zero supremum.

    The field points are walked in blocks of ``_NT_BUDGET`` // (number of
    vertices) points, so a block's (vertex, point) pairs, and its 4 MiB
    matrix of squared distances, stay within one budget.  Each block's
    preprocessing (support distances, unless ``dists`` is given, the
    squared cone reach, |u| and the truncating ball's membership) happens
    inside the loop, so no per-point array of the whole field is built
    beyond the caller's own.  One ``cdist`` call gives a block's squared
    vertex distances, summed axis by axis, and each vertex's block maximum
    is a masked max over its members along one contiguous row.
    """
    pts, vals = _field_data(u)
    if dists is not None:
        dists = np.asarray(dists, dtype=np.float64)
    best = np.full(len(cones), -np.inf)
    size = max(1, _NT_BUDGET // max(1, len(cones)))
    for lo in range(0, pts.shape[0], size):
        b_pts = pts[lo:lo + size]
        b_dists = sigma.dist_to_support(b_pts) if dists is None \
            else dists[lo:lo + size]
        reach2 = (cones.aperture * b_dists) ** 2
        absvals = np.abs(vals[lo:lo + size])
        if cones.ball is not None:
            inside = (np.linalg.norm(b_pts - cones.ball.center, axis=1)
                      <= cones.ball.radius)
            absvals = np.where(inside, absvals, -np.inf)
        member = (distance.cdist(cones.vertices, b_pts, "sqeuclidean")
                  <= reach2)
        np.maximum(best, np.max(np.broadcast_to(absvals, member.shape),
                                axis=1, where=member, initial=-np.inf),
                   out=best)
    empty = ~np.isfinite(best)
    return np.where(empty, 0.0, best), empty


def ntmax(u, sigma: DiscreteMeasure, x: np.ndarray, *,
          aperture: float = 2.0, ball: Ball | None = None,
          dists: np.ndarray | None = None) -> NTMaxResult:
    """Non-tangential maximum of |u| at one boundary vertex.

    The vertex must sit on the support (within one spacing).  The cone
    keeps field points X with |X - x| <= aperture * dist(X, support),
    intersected with the truncating ball when given.
    """
    x = np.asarray(x, dtype=np.float64)
    gap = float(sigma.dist_to_support(x))
    if gap > sigma.spacing * (1.0 + 1e-9) + 1e-12:
        raise DomainError(
            f"cone vertex is {gap:g} from the support "
            f"(more than one spacing {sigma.spacing:g})")
    pts, vals = _field_data(u)
    if dists is None:
        dists = sigma.dist_to_support(pts)
    member = (np.linalg.norm(pts - x, axis=1)
              <= aperture * np.asarray(dists, dtype=np.float64))
    if ball is not None:
        member &= np.linalg.norm(pts - ball.center, axis=1) <= ball.radius
    count = int(np.count_nonzero(member))
    if count == 0:
        warnings.warn("cone contains no field point at this resolution; "
                      "reporting 0", stacklevel=2)
        return NTMaxResult(0.0, 0, True)
    return NTMaxResult(float(np.max(np.abs(vals[member]))), count, False)


# -- Carleson embedding check -------------------------------------------------


def embedding_check(f, u, sigma: DiscreteMeasure, ball: Ball, h: float, *,
                    aperture: float = 2.0, cm1: float | None = None,
                    seed: int = 0) -> EmbeddingResult:
    """Consistency check of the Carleson embedding on one ball: the grid
    sum of u * f * dist^{d-n} against the unsquared Carleson estimate of
    f times the boundary integral of the cone maxima of u.

    Both sides are this module's own estimates, so the check validates
    mutual consistency of the estimators, not an absolute constant.  The
    cone vertices are the support points that can reach the ball (others
    have empty truncated cones and contribute nothing exactly).
    """
    if h <= 0:
        raise ParameterError("grid step must be positive")
    d, n = sigma.intrinsic_dim, sigma.ambient_dim
    empty = (np.zeros((0, n)), np.zeros(0))
    cells, dist = (np.concatenate(a)
                   for a in zip(empty, *_far_cells(sigma, ball, h)))
    fvals, bad_f = _evaluate_field(f, cells)
    if float(fvals.min(initial=0.0)) < -1e-12:
        raise InputError("embedding check requires a nonnegative field f")
    uvals, bad_u = _evaluate_field(u, cells)
    lhs = float(np.sum(uvals * fvals * dist ** (d - n))) * h ** n
    if cm1 is None:
        fam = support_ball_family(sigma, 32, np.random.default_rng(seed))
        cm1 = carleson_norm(f, sigma, fam, min(h, min(
            b.radius for b in fam) / 32.0), squared=False,
            refine=False).supremum
    reach = (aperture + 1.0) * ball.radius + sigma.spacing
    near = sigma.tree.query_ball_point(ball.center, reach)
    vertices = sigma.points[np.asarray(sorted(near), dtype=np.intp)]
    weights = sigma.weights[np.asarray(sorted(near), dtype=np.intp)]
    cones = ConeFamily(vertices, aperture, ball)
    nvals, empty = ntmax_family((cells, uvals), sigma, cones, dists=dist)
    nt_integral = float(np.dot(weights, nvals))
    rhs = cm1 * nt_integral
    if rhs <= 0.0 and lhs > 1e-12:
        raise NumericError(
            "embedding check inconsistent: positive left side against a "
            "zero right side (broken norm or maximal-function estimate)")
    # both sides vanish: the ratio is undefined, not a perfect 0
    ratio = lhs / rhs if rhs > 0.0 else math.nan
    return EmbeddingResult(lhs, rhs, ratio, float(cm1), nt_integral,
                           len(cones), int(np.count_nonzero(empty)),
                           int(cells.shape[0]),
                           int(np.count_nonzero(bad_f | bad_u)))


# -- reporting ---------------------------------------------------------------


def write_carleson(est: CarlesonEstimate, csv_path: str,
                   json_path: str) -> None:
    """Per-ball CSV table plus a JSON summary."""
    n = est.balls[0].center.shape[0]
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["ball", *(f"center{j}" for j in range(n)), "radius",
                     "value", "bias", "skipped_cells", "used_cells"])
        for i, b in enumerate(est.balls):
            wr.writerow([i, *(f"{c:.17g}" for c in b.center),
                         f"{b.radius:.17g}", f"{est.values[i]:.17g}",
                         f"{est.bias[i]:.17g}", int(est.skipped[i]),
                         int(est.n_cells[i])])
    with open(json_path, "w") as fh:
        json.dump(est.summary(), fh, indent=2)
        fh.write("\n")
