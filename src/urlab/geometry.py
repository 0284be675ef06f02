"""Discrete Ahlfors-regular test sets and ball statistics.

A set is carried as a weighted point cloud standing in for a d-dimensional
measure in R^n.  Generators produce planes, Lipschitz graphs, and the
four-corner Cantor set; the inspection side estimates the regularity
constant, finds corkscrew points, and serializes clouds to a columnar text
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .exceptions import InputError, ParameterError, ResolutionError

__all__ = [
    "DiscreteMeasure",
    "Ball",
    "AhlforsReport",
    "CorkscrewResult",
    "make_plane_set",
    "make_lipschitz_graph",
    "make_cantor_set",
    "ahlfors_constant",
    "corkscrew_point",
    "save_measure",
    "load_measure",
    "support_ball_family",
    "sawtooth_profile",
    "sine_profile",
]


@dataclass
class DiscreteMeasure:
    """Weighted point cloud representing a d-dimensional measure in R^n.

    Treated as immutable after construction.  `spacing` is the typical
    inter-point gap of the generator and drives every resolution guard.
    """

    ambient_dim: int
    intrinsic_dim: int
    points: np.ndarray          # (N, n) float64
    weights: np.ndarray         # (N,) float64, positive
    spacing: float
    descriptor: str = ""

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        n = self.ambient_dim
        if self.points.ndim != 2 or self.points.shape[1] != n:
            raise InputError(f"points must be (N, {n}), got {self.points.shape}")
        if self.weights.shape != (self.points.shape[0],):
            raise InputError("weights must match points")
        if not (0 < self.intrinsic_dim < n):
            raise ParameterError("need 0 < d < n")
        if not 0 < self.spacing < math.inf:
            raise ParameterError("spacing must be positive and finite")
        if self.points.shape[0] == 0:
            raise InputError("empty support")
        if not np.all(np.isfinite(self.points)):
            raise InputError("points must be finite")
        # written so that a NaN weight fails the check
        if not np.all((self.weights > 0) & (self.weights < math.inf)):
            raise InputError("weights must be positive and finite")

    # -- derived geometry ------------------------------------------------

    @cached_property
    def tree(self) -> cKDTree:
        return cKDTree(self.points)

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def extent(self) -> float:
        """Half the largest bounding-box side; resolution ceiling extent/4.

        Points stand in for cells of width `spacing`, so the box grows by a
        half cell on each side; a generated plane set reports its extent
        parameter exactly.
        """
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return (float(span.max()) + self.spacing) / 2.0

    def window(self) -> tuple[float, float]:
        """Resolution window of ball radii: (4*spacing, extent/4)."""
        return 4.0 * self.spacing, self.extent / 4.0

    def __len__(self) -> int:
        return self.points.shape[0]

    def dist_to_support(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from probe point(s) to the support."""
        d, _ = self.tree.query(np.asarray(x, dtype=np.float64), workers=-1)
        return d

    def mass_in_ball(self, center: np.ndarray, radius: float) -> float:
        """sigma(B(center, radius)).

        Membership uses a half-cell linear ramp of width `spacing` (the 1-D
        exact cell-overlap rule), so the estimate has O((spacing/r)^2)
        relative error instead of the O(spacing/r) of a hard indicator.
        """
        center = np.asarray(center, dtype=np.float64)
        idx = self.tree.query_ball_point(center, radius + 0.5 * self.spacing)
        if not idx:
            return 0.0
        idx = np.asarray(idx)
        dist = np.linalg.norm(self.points[idx] - center, axis=1)
        frac = np.clip((radius + 0.5 * self.spacing - dist) / self.spacing,
                       0.0, 1.0)
        return float(np.dot(self.weights[idx], frac))

    def restrict_to_ball(self, ball: "Ball") -> tuple[np.ndarray, np.ndarray]:
        """Points and weights strictly inside the ball."""
        idx = self.tree.query_ball_point(ball.center, ball.radius)
        idx = np.asarray(sorted(idx), dtype=np.intp)
        if idx.size:
            dist = np.linalg.norm(self.points[idx] - ball.center, axis=1)
            idx = idx[dist < ball.radius]
        return self.points[idx], self.weights[idx]


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center",
                           _finite_point(self.center, None, "ball center"))
        if not self.radius > 0:
            raise ParameterError("ball radius must be positive")


@dataclass
class AhlforsReport:
    """Result of the two-sided regularity scan over a ball family."""

    constant: float             # max(max ratio, 1/min ratio)
    ratios: np.ndarray          # sigma(B)/r^d for each admissible ball
    balls: list[Ball]
    excluded: list[tuple[Ball, str]]    # out-of-window balls with reason
    dimension: int


@dataclass
class CorkscrewResult:
    point: np.ndarray
    dist: float                 # distance from the point to the support
    offset: float               # |point - ball center|
    constant: float             # radius / dist, the two-sided constant


def _as_points(points, n: int) -> np.ndarray:
    """The (m, n) float64 point batch every point evaluator takes; any
    other shape, a single 1-D point included, is a ParameterError."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ParameterError(
            f"points must have shape (m, {n}), got {pts.shape}")
    return pts


def _finite_point(x, n: int | None, name: str) -> np.ndarray:
    """x as a float64 (n,) point, of any length when n is None; anything
    else, or a non-finite coordinate, is an InputError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or n not in (None, x.shape[0]) \
            or not np.all(np.isfinite(x)):
        raise InputError(f"{name} must be a finite point of R^{n or 'n'}")
    return x


def _as_box(box, n: int) -> tuple[np.ndarray, float]:
    """The (center, side) of an axis cube in R^n: a finite (n,) center and
    a positive finite side; anything else is refused."""
    try:
        center, side = box
    except (TypeError, ValueError):
        raise InputError("box must be a (center, side) pair") from None
    center = np.asarray(center, dtype=np.float64)
    side = float(side)
    if center.shape != (n,):
        raise InputError(f"box center must have dimension {n}")
    if not np.all(np.isfinite(center)):
        raise InputError("box center must be finite")
    if not 0 < side < math.inf:
        raise ParameterError("box side must be positive and finite")
    return center, side


def _sphere_area(k: int) -> float:
    """Surface measure of the unit (k-1)-sphere in R^k."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


# -- generators -----------------------------------------------------------


def _lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Product grid of 1-D axes, one point per row, in C order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _snapped_axis(extent: float, spacing: float) -> tuple[np.ndarray, float]:
    """Cell centers tiling [-extent, extent] with step snapped to divide it."""
    m = max(1, round(2.0 * extent / spacing))
    h = 2.0 * extent / m
    return -extent + (np.arange(m) + 0.5) * h, h


def _base_grid(n: int, d: int, extent: float,
               spacing: float) -> tuple[np.ndarray, float]:
    if not (0 < d < n):
        raise ParameterError("need 0 < d < n")
    if not spacing > 0:
        raise ParameterError("spacing must be positive")
    if extent < 16 * spacing:
        raise ParameterError("extent must be at least 16*spacing")
    axis, h = _snapped_axis(extent, spacing)
    return _lattice([axis] * d), h


def make_plane_set(n: int, d: int, extent: float, spacing: float) -> DiscreteMeasure:
    """Uniform grid on the first-d coordinate plane of R^n.

    The step is snapped so that cells tile [-extent, extent]^d exactly; each
    point carries weight step^d, so the total mass equals (2*extent)^d to
    rounding.
    """
    base, h = _base_grid(n, d, extent, spacing)
    pts = np.zeros((base.shape[0], n))
    pts[:, :d] = base
    w = np.full(base.shape[0], h ** d)
    return DiscreteMeasure(n, d, pts, w, h,
                           f"plane n={n} d={d} extent={extent:g} spacing={h:g}")


def make_lipschitz_graph(n: int, d: int, fn: Callable[[np.ndarray], np.ndarray],
                         lam: float, extent: float, spacing: float) -> DiscreteMeasure:
    """Graph {(t, fn(t))} over the plane-set base grid.

    fn maps (M, d) -> (M, n-d).  The declared Lipschitz constant `lam` is
    spot-checked on all axis-adjacent grid pairs; a violation is an error.
    Weights are base-cell masses step^d (graph-metric factor absorbed into
    constants downstream).  lam=0 reproduces the plane set translated by
    fn(0).
    """
    if not lam >= 0:
        raise ParameterError("lam must be nonnegative")
    base, h = _base_grid(n, d, extent, spacing)
    vals = np.asarray(fn(base), dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != base.shape[0] or vals.shape[1] > n - d:
        raise InputError(f"fn must return shape {(base.shape[0], n - d)}")
    if vals.shape[1] < n - d:        # scalar profiles: pad trailing zeros
        vals = np.concatenate(
            [vals, np.zeros((base.shape[0], n - d - vals.shape[1]))], axis=1)

    # spot-check: adjacent grid pairs along each base axis
    m = round((2.0 * extent) / h)
    v = vals.reshape((m,) * d + (n - d,))
    tol = 1e-9 * max(lam, 1.0) * h + 1e-12
    for ax in range(d):
        jump = np.linalg.norm(np.diff(v, axis=ax), axis=-1)
        worst = float(jump.max()) if jump.size else 0.0
        if worst > lam * h + tol:
            raise InputError(
                f"fn is not {lam:g}-Lipschitz: jump {worst:g} over step {h:g}")

    pts = np.concatenate([base, vals], axis=1)
    w = np.full(base.shape[0], h ** d)
    return DiscreteMeasure(n, d, pts, w, h,
                           f"graph n={n} d={d} lam={lam:g} extent={extent:g} "
                           f"spacing={h:g}")


def make_cantor_set(m: int) -> DiscreteMeasure:
    """Level-m four-corner Cantor set (contraction 1/4) in the plane x3=0.

    4^m points at the centers of the level-m squares of [0,1]^2, each of
    weight 4^-m; total mass exactly 1.  Nominal dimension d=1; the set is
    the standard non-rectifiable contrast case.
    """
    if not (1 <= m <= 10):
        raise ParameterError("need 1 <= m <= 10")
    corners = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    pts = np.array([[0.0, 0.0]])
    for _ in range(m):
        pts = (pts[:, None, :] / 4.0 + corners[None, :, :]).reshape(-1, 2)
    pts = pts + 0.5 * 4.0 ** (-m)       # corner -> center of level-m square
    out = np.zeros((pts.shape[0], 3))
    out[:, :2] = pts
    w = np.full(pts.shape[0], 4.0 ** (-m))
    return DiscreteMeasure(3, 1, out, w, 4.0 ** (-m), f"cantor m={m}")


def sawtooth_profile(lam: float, period: float) -> Callable[[np.ndarray], np.ndarray]:
    """Triangle-wave graph profile with exact Lipschitz constant lam.

    Output lands in the first codimension coordinate; for d>1 the per-axis
    waves are summed with a 1/sqrt(d) factor to keep the constant.
    """
    if not period > 0:
        raise ParameterError("period must be positive")
    def fn(base: np.ndarray) -> np.ndarray:
        base = np.atleast_2d(base)
        d = base.shape[1]
        tri = np.abs(base - period * np.round(base / period))
        col = lam * tri.sum(axis=1) / math.sqrt(d)
        return col[:, None]
    return fn


def sine_profile(lam: float, period: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth sine graph profile with Lipschitz constant lam."""
    if not period > 0:
        raise ParameterError("period must be positive")
    k = 2.0 * math.pi / period

    def fn(base: np.ndarray) -> np.ndarray:
        base = np.atleast_2d(base)
        d = base.shape[1]
        col = (lam / k) * np.sin(k * base).sum(axis=1) / math.sqrt(d)
        return col[:, None]
    return fn


# -- inspection -----------------------------------------------------------


def ahlfors_constant(sigma: DiscreteMeasure, balls: Sequence[Ball]) -> AhlforsReport:
    """Two-sided regularity constant over a ball family.

    Balls outside the resolution window [4*spacing, extent/4] are excluded
    and reported, not silently used.  The constant is
    max(max ratio, 1/min ratio) with ratio = sigma(B)/r^d, so it is >= 1 and
    equals the usual two-sided bound when the family is rich enough.
    """
    lo, hi = sigma.window()
    ratios = []
    used: list[Ball] = []
    excluded: list[tuple[Ball, str]] = []
    d = sigma.intrinsic_dim
    for b in balls:
        if b.radius < lo:
            excluded.append((b, f"radius {b.radius:g} below window floor {lo:g}"))
            continue
        if b.radius > hi:
            excluded.append((b, f"radius {b.radius:g} above window ceiling {hi:g}"))
            continue
        ratios.append(sigma.mass_in_ball(b.center, b.radius) / b.radius ** d)
        used.append(b)
    if not used:
        raise InputError("no admissible balls in the resolution window")
    ratios_arr = np.asarray(ratios)
    if np.any(ratios_arr <= 0):
        raise InputError("a ball in the family carries no mass")
    const = float(max(ratios_arr.max(), 1.0 / ratios_arr.min()))
    return AhlforsReport(const, ratios_arr, used, excluded, d)


def corkscrew_point(sigma: DiscreteMeasure, ball: Ball,
                    grid_step: float) -> CorkscrewResult:
    """Deepest candidate grid point of the ball, away from the support.

    Candidates are x + grid_step*k, k integer, inside the closed ball; the
    grid is anchored at the ball center so scaling points, ball, and step
    together scales the output exactly.  The winner must clear the support
    by at least grid_step, otherwise the resolution is too coarse.
    """
    if not grid_step > 0:
        raise ParameterError("grid_step must be positive")
    if ball.radius < 8.0 * grid_step:
        raise ParameterError("ball radius must be at least 8*grid_step")
    n = sigma.ambient_dim
    k = int(math.floor(ball.radius / grid_step))
    axis = np.arange(-k, k + 1) * grid_step
    offsets = _lattice([axis] * n)
    inside = np.einsum("ij,ij->i", offsets, offsets) <= ball.radius ** 2
    cand = ball.center + offsets[inside]
    dist = sigma.dist_to_support(cand)
    best = int(np.argmax(dist))
    if dist[best] < grid_step:
        raise ResolutionError(
            f"no candidate clears the support by grid_step={grid_step:g}")
    point = cand[best]
    return CorkscrewResult(point, float(dist[best]),
                           float(np.linalg.norm(point - ball.center)),
                           float(ball.radius / dist[best]))


def support_ball_family(sigma: DiscreteMeasure, count: int,
                        rng: np.random.Generator,
                        radii: Sequence[float] | None = None) -> list[Ball]:
    """Seeded ball family: centers on random support points, dyadic radii.

    The default radii run dyadically down from the window ceiling; every
    (center, radius) pair becomes one ball.
    """
    if count < 1:
        raise ParameterError(f"ball count must be at least 1, got {count}")
    if radii is None:
        lo, hi = sigma.window()
        radii = []
        r = hi
        while r >= lo and len(radii) < 6:
            radii.append(r)
            r /= 2.0
        if not radii:
            raise ResolutionError("empty resolution window")
    idx = rng.choice(len(sigma), size=min(count, len(sigma)), replace=False)
    return [Ball(sigma.points[i], float(r)) for i in idx for r in radii]


# -- serialization --------------------------------------------------------


def save_measure(sigma: DiscreteMeasure, path: str) -> None:
    """Columnar text dump: header 'n d N spacing', then coords + weight."""
    with open(path, "w") as fh:
        fh.write(f"{sigma.ambient_dim} {sigma.intrinsic_dim} "
                 f"{len(sigma)} {sigma.spacing:.17g}\n")
        np.savetxt(fh, np.column_stack([sigma.points, sigma.weights]),
                   fmt="%.17g")


def load_measure(path: str) -> DiscreteMeasure:
    """Inverse of save_measure; round-trips float64 exactly (17 sig digits).

    A file that cannot be opened or parsed is an InputError naming it.
    """
    try:
        with open(path) as fh:
            n, d, count, spacing = fh.readline().split()
            n, d, count, spacing = int(n), int(d), int(count), float(spacing)
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read a measure from {path}: {exc}") from None
    if data.shape != (count, n + 1):
        raise InputError(f"expected {count} rows of {n + 1} columns in {path}")
    return DiscreteMeasure(n, d, data[:, :n], data[:, n], spacing,
                           f"loaded from {path}")
