"""Carleson-measure estimates and non-tangential cones.

Quantities of the form  integral over a ball of |f|^2 dist(X, support)^{d-n}
are priced by Riemann sums on uniform grids.  The weight blows up at the
support and the grid cannot resolve it, so cells closer than twice the grid
step are excluded and the missing shell is estimated separately by a radial
oracle (exact for the ideal unit-density plane, with an inner cutoff at half
the atomic spacing where the continuum model stops applying).  That keeps
every reported number finite while making truncation bias visible instead
of silently absorbed.

Memory and threads: a ball's grid is swept in fixed slabs of leading-axis
planes, ``_CHUNK`` cells of the ball's bounding cube each.  The slabs run
through ``distances._run_units``, at most ``distances._SLAB_TASKS`` (four)
tasks in flight, each over a contiguous run of slabs, and every slab
returns partial sums that are combined in slab order.  So a ball holds a
few slabs of cells at once, whatever its size and the worker count, and
since the slab edges do not depend on the worker count, no result does.
The field is called from pool threads, on several slabs at once; inside a
slab task the kernel sums of ``distances`` run inline, one task a slab.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import distance

from . import distances
from .exceptions import DomainError, InputError, LabError, ParameterError
from .geometry import (Ball, DiscreteMeasure, _ball_volume, _lattice,
                       _sphere_area)

__all__ = [
    "ConeFamily",
    "CarlesonEstimate",
    "NTMaxResult",
    "carleson_norm",
    "ntmax",
    "ntmax_family",
    "shell_oracle",
    "write_carleson",
]

_CHUNK = 1 << 15                # grid cells per slab: 8 planes of a 64^3 cube
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
    counts cells whose evaluator refused them (a ``LabError``) or
    returned non-finite values.
    `refinement` re-prices the supremum ball on a half-step grid: (value at
    h, value at h/2); `refinement_skipped` counts the cells that pass
    skipped and `refinement_bias_known` says whether its bias is known
    (all three None without refinement).  A half step can fall below the
    evaluator's resolution, so the h/2 value may rest on fewer cells.
    """

    values: np.ndarray
    balls: tuple
    supremum: float
    bias: np.ndarray
    skipped: np.ndarray
    n_cells: np.ndarray
    h: float
    refinement: tuple | None
    refinement_skipped: int | None
    refinement_bias_known: bool | None

    def refinement_ratio(self) -> float | None:
        if self.refinement is None or self.refinement[0] == 0.0:
            return None
        return self.refinement[1] / self.refinement[0]

    def max_bias(self) -> float | None:
        """Largest bias over the balls whose bias is known, else None."""
        known = self.bias[~np.isnan(self.bias)]
        return float(known.max()) if known.size else None

    def summary(self) -> dict:
        """Scalar summary: the supremum, grid step, largest known bias,
        total skipped cells, and the refinement pair with its ratio, the
        cells its h/2 pass skipped and whether that pass's bias is
        known."""
        return {
            "supremum": self.supremum,
            "grid_step": self.h,
            "max_bias": self.max_bias(),
            "total_skipped_cells": int(self.skipped.sum()),
            "refinement": list(self.refinement) if self.refinement else None,
            "refinement_ratio": self.refinement_ratio(),
            "refinement_skipped_cells": self.refinement_skipped,
            "refinement_bias_known": self.refinement_bias_known,
        }


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
    if not s0 > 0:
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


def _grid_slabs(sigma: DiscreteMeasure, ball: Ball, h: float) -> tuple:
    """(number of slabs, ``slab``) of the ball's uniform h-grid.

    ``slab(k)`` gives the cells of leading-axis planes [k g, (k + 1) g)
    that lie in the ball at least 2h from the support, and their support
    distances; g = ``_CHUNK`` // (cells per plane of the ball's bounding
    cube), at least 1.  Every in-ball cell of the slab costs one support
    query.
    """
    c, r = ball.center, ball.radius
    n = c.shape[0]
    m = int(math.ceil(2.0 * r / h))
    axis = (np.arange(m) + 0.5 - 0.5 * m) * h
    group = max(1, _CHUNK // m ** (n - 1))

    def slab(k: int) -> tuple[np.ndarray, np.ndarray]:
        pts = _lattice([axis[k * group:(k + 1) * group],
                        *([axis] * (n - 1))]) + c
        off = pts - c
        pts = pts[np.einsum("ij,ij->i", off, off) <= r * r]
        dist = sigma.dist_to_support(pts)
        keep = dist >= 2.0 * h
        return pts[keep], dist[keep]

    return -(-m // group), slab


def _evaluate_field(f, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field values and the per-cell failure mask.

    One vectorized call normally; if the evaluator refuses with a
    ``LabError``, each half is retried on its own down to single cells,
    so a local failure costs its cells, not the whole ball, in a number of
    calls that grows with the failing regions, not the cells.  Non-finite
    outputs fail their cells too; failed cells read 0.  Any other
    exception, a numpy shape error or a division by zero too, is a bug
    and propagates.
    """
    try:
        vals = np.asarray(f(pts), dtype=np.float64).reshape(pts.shape[0])
    except LabError:
        if pts.shape[0] <= 1:
            return np.zeros(pts.shape[0]), np.ones(pts.shape[0], dtype=bool)
        halves = [_evaluate_field(f, part) for part in np.array_split(pts, 2)]
        return tuple(np.concatenate(a) for a in zip(*halves))
    bad = ~np.isfinite(vals)
    return np.where(bad, 0.0, vals), bad


def _ball_value(f, sigma: DiscreteMeasure, ball: Ball,
                h: float) -> tuple[float, float, int, int]:
    """(normalized value, bias, skipped cells, used cells) for one ball;
    the bias is NaN when the shell holds cells but none evaluated.  The
    slabs' partial sums are added in slab order."""
    d, n = sigma.intrinsic_dim, sigma.ambient_dim
    mass = sigma.mass_in_ball(ball.center, ball.radius)
    if mass <= 0:
        raise DomainError("ball carries no mass; center it on the support")
    n_slabs, slab = _grid_slabs(sigma, ball, h)

    def partials(k: int) -> tuple:
        """Slab k's sum of |f|^2 dist^{d-n} h^n, skipped cells, cells,
        near-shell cells, evaluated near-shell cells and their largest
        |f|^2."""
        pts, dist = slab(k)
        if not pts.shape[0]:
            return 0.0, 0, 0, 0, 0, 0.0
        vals, bad = _evaluate_field(f, pts)
        shell = dist <= 4.0 * h
        known = shell & ~bad
        return (float((np.abs(vals) ** 2 * dist ** (d - n)).sum()) * h ** n,
                int(np.count_nonzero(bad)), pts.shape[0],
                int(np.count_nonzero(shell)), int(np.count_nonzero(known)),
                float(np.max(np.abs(vals[known]) ** 2, initial=0.0)))

    sums, skipped, cells, shell, known, sup = zip(
        *distances._run_units(n_slabs, partials, distances._SLAB_TASKS))
    near_sup = math.nan if sum(shell) and not sum(known) else max(sup)
    s0 = 0.5 * sigma.spacing
    bias = 0.0
    if near_sup != 0.0 and 2.0 * h > s0:
        bias = near_sup * shell_oracle(d, n, ball.radius, s0, 2.0 * h) / mass
    return sum(sums) / mass, bias, sum(skipped), sum(cells) - sum(skipped)


def carleson_norm(f, sigma: DiscreteMeasure, balls, h: float, *,
                  refine: bool = True) -> CarlesonEstimate:
    """Supremum over balls of the normalized boundary-weight integral of a
    squared field: sum over grid cells of |f|^2 dist^{d-n} h^n, divided by
    the ball's measure mass.

    Cells with centers closer than 2h to the support are excluded; the
    oracle-estimated shell contribution is reported per ball as `bias`
    rather than added.  Evaluator refusals (a ``LabError``) and non-finite
    field values skip their cell and are counted; any other exception of
    the evaluator is a bug and propagates.  With `refine`, the supremum
    ball is re-priced at h/2 and the pair is reported for stability
    reading, with the cells the h/2 pass skipped and whether its bias is
    known.

    Memory: each ball's grid is swept in slabs of ``_CHUNK`` cells, at
    most ``distances._SLAB_TASKS`` (four) tasks in flight, so a ball costs
    a few slabs of cells, not its whole grid, at any size and worker
    count.  Threads:
    the slabs run on the ``distances`` pool, so ``f`` is called from
    pool threads on several slabs at once and must be safe to call
    concurrently, as the ``distances`` evaluators are.  The slab edges do
    not depend on the worker count, so neither does any result.
    """
    balls = list(balls)
    if not balls:
        raise ParameterError("need at least one ball")
    if not h > 0:
        raise ParameterError("grid step must be positive")
    for b in balls:
        if h > b.radius / 32.0 + 1e-12 * b.radius:
            raise ParameterError(
                f"grid step {h:g} exceeds radius/32 for a ball of radius "
                f"{b.radius:g}")
    values = np.zeros(len(balls))
    bias = np.zeros(len(balls))
    skipped = np.zeros(len(balls), dtype=np.int64)
    n_cells = np.zeros(len(balls), dtype=np.int64)
    for i, b in enumerate(balls):
        values[i], bias[i], skipped[i], n_cells[i] = _ball_value(
            f, sigma, b, h)
    top = int(np.argmax(values))
    refinement = half_skipped = half_bias_known = None
    if refine:
        half, half_bias, half_skipped, _ = _ball_value(
            f, sigma, balls[top], h / 2.0)
        refinement = (float(values[top]), float(half))
        half_bias_known = not math.isnan(half_bias)
    return CarlesonEstimate(values, tuple(balls), float(values[top]),
                            bias, skipped, n_cells, float(h), refinement,
                            half_skipped, half_bias_known)


# -- non-tangential maximal function ----------------------------------------


def _field_data(u) -> tuple[np.ndarray, np.ndarray]:
    """Points and flat values of a (points, values) pair."""
    pts, vals = u
    pts = np.asarray(pts, dtype=np.float64)
    vals = np.ravel(np.asarray(vals, dtype=np.float64))
    if pts.shape[0] != vals.shape[0]:
        raise InputError("field points and values disagree in length")
    return pts, vals


def _outer_gap(sigma: DiscreteMeasure, cones: ConeFamily) -> float:
    """Distance from the centre of the cones' ball to the nearest atom
    outside that closed ball, inf when there is none, if the vertices are
    the atoms inside it in atom order (the family of
    ``elliptic.sn_check``); -inf for any other family."""
    if cones.ball is None:
        return -math.inf
    gap = np.linalg.norm(sigma.points - cones.ball.center, axis=1)
    inside = gap <= cones.ball.radius
    if not np.array_equal(sigma.points[inside], cones.vertices):
        return -math.inf
    return float(gap[~inside].min(initial=math.inf))


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

    When the vertices are the atoms of the closed truncating ball B(c, R)
    (``_outer_gap``), the support distances come from that matrix: an
    atom a outside B has |y - a| >= |a - c| - |y - c|, so wherever the
    nearest vertex is nearer than that bound for the nearest such atom,
    by a relative margin of 1e-12 against rounding, it is the nearest
    atom, and the root of its squared distance is the kd-tree's distance
    bit for bit (both add the squared coordinate differences in axis
    order).  Only the other points of B go through
    ``DiscreteMeasure.dist_to_support``; a point outside B is in no cone.
    """
    pts, vals = _field_data(u)
    if dists is not None:
        dists = np.asarray(dists, dtype=np.float64)
    outer = _outer_gap(sigma, cones) if dists is None else -math.inf
    best = np.full(len(cones), -np.inf)
    size = max(1, _NT_BUDGET // max(1, len(cones)))
    for lo in range(0, pts.shape[0], size):
        b_pts = pts[lo:lo + size]
        sq = distance.cdist(cones.vertices, b_pts, "sqeuclidean")
        absvals = np.abs(vals[lo:lo + size])
        if cones.ball is not None:
            gap = np.linalg.norm(b_pts - cones.ball.center, axis=1)
            inside = gap <= cones.ball.radius
            absvals = np.where(inside, absvals, -np.inf)
        if dists is not None:
            b_dists = dists[lo:lo + size]
        elif outer == -math.inf:
            b_dists = sigma.dist_to_support(b_pts)
        else:
            b_dists = np.sqrt(sq.min(axis=0))
            todo = inside & (b_dists + gap > outer * (1.0 - 1e-12))
            if todo.any():
                b_dists[todo] = sigma.dist_to_support(b_pts[todo])
        member = sq <= (cones.aperture * b_dists) ** 2
        del sq                  # not held through the masked max
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
