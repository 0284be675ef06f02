"""Dyadic cube decomposition of the support complement, with per-cube
flatness numbers, flat-measure attachments, and multiscale square sums.

The complement is tiled by maximal dyadic cubes whose 20-fold dilate
misses the support; the 60-fold dilate of each retained cube then meets
it by maximality.  Cubes are stored struct-of-arrays per level (corner
multi-indices packed into sorted int64 keys) because codimension-2 tubes
produce millions of cubes at depth; `WhitneyCube` objects are lightweight
views.  Flatness numbers are memoized by (anchor point, ball radius) —
all cubes in a cross-sectional ring share their anchor ball, which
collapses the LP count per level to the number of distinct anchors.

Scale caveat: the classical construction evaluates flatness on balls
B(anchor, SCALE_FACTOR * 2^k * diam(Q)) with an enormous SCALE_FACTOR.
At desk scale such balls leave any finite dataset immediately, so
SCALE_FACTOR defaults to 8 here and is a parameter everywhere; every
claim checked against it is structural (a bound exists), so the change
only renames constants.  Output headers echo the value in use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear
from scipy.spatial import cKDTree

from .exceptions import (
    DomainError,
    ParameterError,
    ResolutionError,
    StateError,
    TruncationError,
)
from .geometry import Ball, DiscreteMeasure
from .wasserstein import (
    AlphaResult,
    FlatMeasure,
    _null_space,
    alpha_number,
    flat_distance,
)

__all__ = [
    "SCALE_FACTOR",
    "WhitneyCube",
    "WhitneyDecomposition",
    "MuResult",
    "AXResult",
    "URSumResult",
    "decompose",
    "alpha_qk",
    "mu_q",
    "a_x",
    "a_x_field",
    "ur_square_sum",
    "neighbor_count_max",
    "dump_cubes",
]

SCALE_FACTOR = 8.0              # default ball dilation factor (see header)
_EPS_DEFAULT = 0.3              # calibrated branch threshold for mu_q


def _pack_bits(n: int) -> int:
    """Per-axis bits in the packed corner key (all axes share an int64)."""
    return 63 // n


def _pack(corners: np.ndarray, n: int) -> np.ndarray:
    bits = _pack_bits(n)
    out = np.zeros(corners.shape[0], dtype=np.int64)
    for j in range(n):
        out = (out << bits) | corners[:, j].astype(np.int64)
    return out


def _child_offsets(n: int) -> np.ndarray:
    bits = np.arange(2 ** n)[:, None] >> np.arange(n)[None, ::-1]
    return (bits & 1).astype(np.int64)


def _dilate_gap2(centers: np.ndarray, side: float, s: float,
                 x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from x to the s-dilate of each cube."""
    over = np.clip(np.abs(centers - x) - 0.5 * s * side, 0.0, None)
    return np.einsum("ij,ij->i", over, over)


@dataclass
class _Level:
    side: float
    packed: np.ndarray          # (M,) int64 corner keys, ascending
    centers: np.ndarray         # (M, n) float
    anchor_idx: np.ndarray      # (M,) indices into sigma.points


@dataclass
class MuResult:
    flat: FlatMeasure
    branch: str                 # 'optimal' | 'separating'
    alpha_q: float
    atilde: float               # transport distance of the chosen flat
    gap_2q: float               # dist(2Q, plane)
    anchor_gap: float           # dist(anchor, plane)
    checks: dict
    flagged: bool
    eps: float


@dataclass
class AXResult:
    value: float
    tail: float                 # certified bound on dropped/remaining terms
    n_terms: int
    skipped: tuple
    flagged: bool               # probe was not inside the cube used
    level: int
    index: int


@dataclass
class URSumResult:
    value: float
    n_cubes: int
    n_excluded: int
    n_anchors: int
    radius: float
    k: int


class WhitneyCube:
    """View onto one cube of a decomposition."""

    __slots__ = ("deco", "level", "index")

    def __init__(self, deco: "WhitneyDecomposition", level: int, index: int):
        self.deco = deco
        self.level = level
        self.index = index

    @property
    def side(self) -> float:
        return self.deco.levels[self.level].side

    @property
    def corner(self) -> np.ndarray:
        """Integer grid coordinates of the low corner at this level."""
        lev = self.deco.levels[self.level]
        rel = (lev.centers[self.index] - self.deco.box_lo) / lev.side
        return np.rint(rel - 0.5).astype(np.int64)

    @property
    def center(self) -> np.ndarray:
        return self.deco.levels[self.level].centers[self.index]

    @property
    def diameter(self) -> float:
        return math.sqrt(self.deco.sigma.ambient_dim) * self.side

    @property
    def anchor_index(self) -> int:
        return int(self.deco.levels[self.level].anchor_idx[self.index])

    @property
    def anchor(self) -> np.ndarray:
        """Support point attached to the cube (inside its 60-dilate)."""
        return self.deco.sigma.points[self.anchor_index]

    def box(self, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * scale * self.side
        return self.center - half, self.center + half

    def alpha(self, k: int = 0, **kw) -> AlphaResult:
        return alpha_qk(self.deco, self, k, **kw)

    def mu(self, **kw) -> MuResult:
        return mu_q(self.deco, self, **kw)

    def __repr__(self) -> str:
        c = ",".join(str(v) for v in self.corner)
        return f"WhitneyCube(level={self.level}, corner=({c}), side={self.side:g})"


class WhitneyDecomposition:
    """Sequence of Whitney cubes plus shared caches.

    Indexing is by level (ascending), then packed-corner order within the
    level, so iteration order is deterministic for a given input.
    """

    def __init__(self, sigma, box_lo, box_side, max_depth, levels, undecided,
                 alpha_resolution, alpha_cap, alpha_seed, focus=None,
                 pruned=0):
        self.sigma = sigma
        self.box_lo = box_lo
        self.box_side = box_side
        self.max_depth = max_depth
        self.levels = dict(sorted(levels.items()))
        self.undecided = undecided
        self.focus = focus
        self.pruned = pruned
        self.alpha_resolution = alpha_resolution
        self.alpha_cap = alpha_cap
        self.alpha_seed = alpha_seed
        self.alpha_cache: dict = {}
        self._mu_cache: dict = {}
        self._ax_cache: dict = {}
        self._level_keys = list(self.levels)
        self._starts = np.concatenate(
            [[0], np.cumsum([len(self.levels[k].packed)
                             for k in self._level_keys])])
        self._center_tree = None

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, i: int) -> WhitneyCube:
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        j = int(np.searchsorted(self._starts, i, side="right")) - 1
        return WhitneyCube(self, self._level_keys[j], i - int(self._starts[j]))

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        return np.all((pts >= self.box_lo)
                      & (pts < self.box_lo + self.box_side), axis=-1)

    def _locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(level, index) of the retained cube holding each point, -1
        where none does; one packed-key search per level."""
        n = self.sigma.ambient_dim
        level = np.full(pts.shape[0], -1, dtype=np.int64)
        index = np.full(pts.shape[0], -1, dtype=np.int64)
        open_idx = np.flatnonzero(self._inside(pts))
        for k, lev in self.levels.items():
            if open_idx.size == 0:
                break
            corner = np.floor((pts[open_idx] - self.box_lo)
                              / lev.side).astype(np.int64)
            key = _pack(corner, n)
            pos = np.minimum(np.searchsorted(lev.packed, key),
                             len(lev.packed) - 1)
            hit = (np.all((corner >= 0) & (corner < 2 ** k), axis=1)
                   & (lev.packed[pos] == key))
            level[open_idx[hit]] = k
            index[open_idx[hit]] = pos[hit]
            open_idx = open_idx[~hit]
        return level, index

    def cube_at(self, x: np.ndarray) -> WhitneyCube | None:
        """The unique retained cube containing x, or None."""
        x = np.asarray(x, dtype=np.float64)
        if not self._inside(x):
            raise DomainError("probe point outside the decomposed box")
        level, index = self._locate(x[None, :])
        if level[0] < 0:
            return None
        return WhitneyCube(self, int(level[0]), int(index[0]))

    def nearest_cube(self, x: np.ndarray) -> WhitneyCube:
        if self._center_tree is None:
            centers = np.vstack([lev.centers for lev in self.levels.values()])
            self._center_tree = cKDTree(centers)
        _, flat_idx = self._center_tree.query(np.asarray(x, dtype=np.float64))
        return self[flat_idx]


def _require(deco) -> None:
    if not isinstance(deco, WhitneyDecomposition) or not len(deco):
        raise StateError("a completed, non-empty decomposition is required")


# -- construction --------------------------------------------------------------


def decompose(sigma: DiscreteMeasure, box=None, max_depth: int = 10, *,
              focus=None, alpha_resolution: int = 12, alpha_cap: int = 120,
              alpha_seed: int = 0) -> WhitneyDecomposition:
    """Maximal dyadic cubes whose 20-dilate misses the support.

    Subdivision runs breadth-first; a cube is retained when the support
    stays sup-norm-further than 10 sides from its center, i.e. exactly
    when its 20-dilate misses the discrete support.  Cubes still violating
    at max_depth are counted as undecided and dropped, never clipped.
    `box` is (center, side); the default box spans 2.5x the support.

    `focus=(x, R)` prunes subdivision branches that can never produce a
    cube whose 2-dilate meets B(x, R): square sums at or inside (x, R)
    are unchanged while deep levels stay tractable on fractal supports.
    Pruned branch counts are recorded; cube_at outside the focus region
    reports holes as missing cubes, so point queries there are unsafe.
    """
    pts = sigma.points
    n = sigma.ambient_dim
    depth_cap = _pack_bits(n)           # corner keys must fit an int64
    if n > 8:
        raise ParameterError("ambient dimension too large for packed corners")
    if not 1 <= max_depth <= depth_cap:
        raise ParameterError(
            f"max_depth must lie in [1, {depth_cap}] in dimension {n}")
    lo_pts, hi_pts = pts.min(axis=0), pts.max(axis=0)
    if box is None:
        center = 0.5 * (lo_pts + hi_pts)
        side = 2.5 * max(float(np.max(hi_pts - lo_pts)), 16.0 * sigma.spacing)
    else:
        center, side = np.asarray(box[0], dtype=np.float64), float(box[1])
    lo = center - 0.5 * side
    margin = min(float(np.min(lo_pts - lo)),
                 float(np.min(lo + side - hi_pts)))
    if margin < side / 4.0 - 1e-12 * side:
        raise ParameterError(
            f"support must sit inside the box with margin side/4 "
            f"(got margin {margin:g} for side {side:g})")

    if focus is not None:
        f_center = np.asarray(focus[0], dtype=np.float64)
        f_radius = float(focus[1])
        if f_radius <= 0:
            raise ParameterError("focus radius must be positive")

    offsets = _child_offsets(n)
    levels: dict[int, _Level] = {}
    undecided = 0
    pruned = 0
    current = np.zeros((1, n), dtype=np.int64)
    for k in range(max_depth + 1):
        side_k = side / 2.0 ** k
        centers = lo + (current + 0.5) * side_k
        d_inf, _ = sigma.tree.query(centers, p=np.inf, workers=-1)
        keep = d_inf > 10.0 * side_k
        kept = current[keep]
        if kept.shape[0]:
            # maximality gives the 60-dilate hit for free; verify anyway
            if not np.all(d_inf[keep] <= 30.0 * side_k * (1 + 1e-12)):
                raise AssertionError("60-dilate check failed (internal)")
            key = _pack(kept, n)
            order = np.argsort(key)
            kept, key = kept[order], key[order]
            ctr = lo + (kept + 0.5) * side_k
            _, aidx = sigma.tree.query(ctr, workers=-1)
            bad = np.max(np.abs(pts[aidx] - ctr), axis=1) > 30.0 * side_k
            if np.any(bad):     # euclid-nearest left 60Q; sup-norm fallback
                _, afix = sigma.tree.query(ctr[bad], p=np.inf, workers=-1)
                aidx[bad] = afix
            levels[k] = _Level(side_k, key, ctr, aidx.astype(np.int32))
        viol = current[~keep]
        if k == max_depth:
            undecided = viol.shape[0]
            break
        if focus is not None and viol.shape[0]:
            live = (_dilate_gap2(lo + (viol + 0.5) * side_k, side_k, 1.0,
                                 f_center) <= (f_radius + side_k) ** 2)
            pruned += int(np.count_nonzero(~live))
            viol = viol[live]
        if viol.shape[0] == 0:
            break
        current = (viol[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, n)

    return WhitneyDecomposition(sigma, lo, side, max_depth, levels, undecided,
                                alpha_resolution, alpha_cap, alpha_seed,
                                focus=focus, pruned=pruned)


# -- per-cube quantities --------------------------------------------------------


def alpha_qk(deco: WhitneyDecomposition, cube: WhitneyCube, k: int = 0, *,
             lam: float = SCALE_FACTOR, refine: bool = False,
             window: str = "raise") -> AlphaResult:
    """Flatness number of the support on B(anchor, lam * 2^k * diam(Q)).

    Memoized by (anchor, radius, refine): rings of cubes sharing an anchor
    ball resolve to a single LP.  window='raise' turns resolution-window
    violations into errors; 'flag' lets the underlying evaluation run and
    mark itself truncated.
    """
    _require(deco)
    if k < 0:
        raise ParameterError("k must be nonnegative")
    sigma = deco.sigma
    radius = lam * 2.0 ** k * cube.diameter
    floor_r, ceil_r = sigma.window()
    if window == "raise":
        if radius > ceil_r:
            raise TruncationError(
                f"flatness ball radius {radius:g} exceeds the data window "
                f"ceiling {ceil_r:g} (cube level {cube.level}, k={k})")
        if radius < floor_r:
            raise ResolutionError(
                f"flatness ball radius {radius:g} below the resolution "
                f"floor {floor_r:g} (cube level {cube.level}, k={k})")
    return _anchor_alpha(deco, cube.anchor_index, radius, refine)


def _anchor_alpha(deco: WhitneyDecomposition, anchor_index: int,
                  radius: float, refine: bool) -> AlphaResult:
    """alpha_number on B(sigma.points[anchor_index], radius), memoized."""
    key = (int(anchor_index), float(radius), bool(refine))
    hit = deco.alpha_cache.get(key)
    if hit is None:
        sigma = deco.sigma
        hit = alpha_number(sigma, Ball(sigma.points[anchor_index], radius),
                           resolution=deco.alpha_resolution,
                           cap=deco.alpha_cap, refine=refine,
                           seed=deco.alpha_seed)
        deco.alpha_cache[key] = hit
    return hit


def _box_plane_gap(lo: np.ndarray, hi: np.ndarray, flat: FlatMeasure) -> float:
    """Euclidean distance between an axis box and an affine d-plane."""
    n = lo.shape[0]
    d = flat.dim
    a = np.hstack([np.eye(n), -flat.basis.T])
    lb = np.concatenate([lo, np.full(d, -np.inf)])
    ub = np.concatenate([hi, np.full(d, np.inf)])
    res = lsq_linear(a, flat.offset, bounds=(lb, ub))
    return float(np.linalg.norm(res.fun))


def _attached_flat(deco: WhitneyDecomposition, cube: WhitneyCube, *,
                   eps: float, lam: float, refine: bool):
    """(flat, branch, alpha, atilde) without the geometric post-checks.

    The optimal branch reuses the minimizing flat of the flatness LP, whose
    transport distance IS the flatness value, so no extra LP runs and the
    result memoizes per anchor ball.  The separating branch constructs a
    cube-specific plane and prices it with one LP per cube.
    """
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    a_res = alpha_qk(deco, cube, 0, lam=lam, refine=refine)
    if a_res.value <= eps:
        return a_res.flat, "optimal", a_res.value, a_res.value
    xi = cube.anchor
    lo20, hi20 = cube.box(20.0)
    foot = np.clip(xi, lo20, hi20)
    normal = xi - foot
    norm = float(np.linalg.norm(normal))
    if norm <= 0.0:             # impossible: the 20-dilate misses the support
        raise AssertionError("anchor inside the 20-dilate (internal)")
    rows = _null_space((normal / norm)[None, :])
    flat = FlatMeasure(xi.copy(), rows[:d], 1.0)
    key = ("sep", cube.level, cube.index, float(eps), float(lam),
           bool(refine))
    atilde = deco.alpha_cache.get(key)
    if atilde is None:
        atilde = flat_distance(sigma, flat, Ball(xi, lam * cube.diameter),
                               resolution=deco.alpha_resolution,
                               cap=deco.alpha_cap, seed=deco.alpha_seed)
        deco.alpha_cache[key] = atilde
    return flat, "separating", a_res.value, atilde


def mu_q(deco: WhitneyDecomposition, cube: WhitneyCube, *,
         eps: float = _EPS_DEFAULT, lam: float = SCALE_FACTOR,
         refine: bool = True) -> MuResult:
    """Flat measure attached to a cube, with separation post-checks.

    Small flatness number: reuse the minimizing flat measure (its distance
    is within a factor 2 of optimal by definition).  Large: unit density
    on the plane through the anchor orthogonal to the shortest segment
    from the anchor to the 20-dilate — the convex-projection direction
    separates the plane from the whole dilate, which the center-segment
    choice does not guarantee.  Post-checks record the separation, the
    anchor offset, and the density band; failures flag the cube loudly.
    """
    _require(deco)
    ck = (cube.level, cube.index, float(eps), float(lam), bool(refine))
    hit = deco._mu_cache.get(ck)
    if hit is not None:
        return hit
    sigma = deco.sigma
    flat, branch, alpha, atilde = _attached_flat(deco, cube, eps=eps,
                                                 lam=lam, refine=refine)
    xi = cube.anchor
    lo2, hi2 = cube.box(2.0)
    gap_2q = _box_plane_gap(lo2, hi2, flat)
    anchor_gap = float(np.linalg.norm(xi - flat.project(xi)))
    tol = sigma.spacing
    checks = {
        "separation": gap_2q >= 5.0 * cube.side - tol,
        "anchor_offset": anchor_gap <= 5.0 * cube.diameter + tol,
        "density_band": 1e-2 <= flat.c <= 1e2,
    }
    out = MuResult(flat, branch, alpha, atilde, gap_2q, anchor_gap,
                   checks, not all(checks.values()), eps)
    deco._mu_cache[ck] = out
    return out


# -- aggregates -----------------------------------------------------------------


def _alpha_upper_bound(sigma: DiscreteMeasure, center: np.ndarray,
                       radius: float) -> float:
    """Classical uniform bound: mass over radius^d dominates any flatness."""
    mass = min(sigma.mass_in_ball(center, radius), sigma.total_mass)
    return mass / radius ** sigma.intrinsic_dim


def a_x(deco: WhitneyDecomposition, x: np.ndarray, alpha_exp: float,
        beta_exp: float, *, k_max: int = 8, eps: float = _EPS_DEFAULT,
        lam: float = SCALE_FACTOR, refine: bool = False) -> AXResult:
    """Multiscale flatness sum at a point: the cube term plus the
    geometrically damped ladder over growing balls.

    The value is constant on each cube, so results memoize per cube.
    Scales whose balls leave the data window are skipped and covered,
    together with the k > k_max remainder, by a certified tail bound
    built from the mass-based uniform bound on flatness numbers; a cube
    so deep that even its own attachment ball is sub-resolution has that
    term tail-bounded too, recorded as skipped scale -1.
    """
    _require(deco)
    if alpha_exp <= 0 or beta_exp <= 0:
        raise ParameterError("exponents must be positive")
    x = np.asarray(x, dtype=np.float64)
    cube = deco.cube_at(x)
    flagged = cube is None
    if flagged:
        cube = deco.nearest_cube(x)
    value, tail, n_terms, skipped = _a_x_cube(
        deco, cube, min(alpha_exp, beta_exp), k_max=k_max, eps=eps,
        lam=lam, refine=refine)
    return AXResult(value, tail, n_terms, skipped, flagged,
                    cube.level, cube.index)


def _a_x_cube(deco: WhitneyDecomposition, cube: WhitneyCube, m: float, *,
              k_max: int, eps: float, lam: float,
              refine: bool) -> tuple:
    """Memoized per-cube body of a_x: (value, tail, n_terms, skipped)."""
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    ck = (cube.level, cube.index, k_max, float(m), float(eps), float(lam),
          bool(refine))
    hit = deco._ax_cache.get(ck)
    if hit is None:
        skipped = []
        total = 0.0
        n_terms = 0
        try:
            total = _attached_flat(deco, cube, eps=eps, lam=lam,
                                   refine=refine)[3]
            n_terms = 1
        except (TruncationError, ResolutionError):
            skipped.append(-1)
        for k in range(k_max + 1):
            try:
                a_res = alpha_qk(deco, cube, k, lam=lam, refine=refine)
            except (TruncationError, ResolutionError):
                skipped.append(k)
                continue
            total += 2.0 ** (-k * m) * a_res.value
            n_terms += 1
        tail = 0.0
        for k in skipped:       # scale -1 is the attachment term (k=0 ball)
            r_k = lam * 2.0 ** max(k, 0) * cube.diameter
            tail += 2.0 ** (-max(k, 0) * m) * _alpha_upper_bound(
                sigma, cube.anchor, r_k)
        # k > k_max: bound_k decays like 2^{-kd} once the ball eats the data
        r_top = lam * 2.0 ** k_max * cube.diameter
        q = 2.0 ** (-(m + d))
        tail += (2.0 ** (-k_max * m) * _alpha_upper_bound(sigma, cube.anchor,
                                                          r_top)
                 * q / (1.0 - q))
        hit = (total, tail, n_terms, tuple(skipped))
        deco._ax_cache[ck] = hit
    return hit


def a_x_field(deco: WhitneyDecomposition, points: np.ndarray,
              alpha_exp: float, beta_exp: float, *, k_max: int = 8,
              eps: float = _EPS_DEFAULT, lam: float = SCALE_FACTOR,
              refine: bool = False) -> np.ndarray:
    """a_x evaluated at many points in one sweep.

    Points are matched to cubes in one vectorized lookup, so cost scales
    with the number of distinct cubes hit (each priced once through the
    shared memo), not with the point count.  Points covered by no retained
    cube — on unresolved cells, in pruned branches, or outside the box —
    come back NaN; callers choose how to treat uncovered cells.
    """
    _require(deco)
    if alpha_exp <= 0 or beta_exp <= 0:
        raise ParameterError("exponents must be positive")
    pts = np.asarray(points, dtype=np.float64)
    n = deco.sigma.ambient_dim
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ParameterError(f"points must have shape (m, {n})")
    m = min(alpha_exp, beta_exp)
    level, index = deco._locate(pts)
    found = np.flatnonzero(level >= 0)
    cubes, inv = np.unique(np.stack([level[found], index[found]], axis=1),
                           axis=0, return_inverse=True)
    vals = np.array([_a_x_cube(deco, WhitneyCube(deco, int(k), int(j)), m,
                               k_max=k_max, eps=eps, lam=lam,
                               refine=refine)[0] for k, j in cubes])
    out = np.full(pts.shape[0], np.nan)
    out[found] = vals[inv.reshape(-1)]
    return out


def ur_square_sum(deco: WhitneyDecomposition, x: np.ndarray, r: float,
                  k: int = 0, *, lam: float = SCALE_FACTOR,
                  refine: bool = False, details: bool = False):
    """Normalized square sum of flatness numbers over cubes near a ball.

    Cubes enter when their 2-dilate meets B(x, r); each contributes
    alpha^2 * diam^d.  Whole levels whose flatness balls leave the data
    window are excluded and counted, keeping truncation bias visible.
    """
    _require(deco)
    if r <= 0:
        raise ParameterError("r must be positive")
    x = np.asarray(x, dtype=np.float64)
    if deco.focus is not None:
        f_center, f_radius = deco.focus
        if float(np.linalg.norm(x - np.asarray(f_center))) + r > f_radius:
            raise ParameterError(
                "query ball leaves the focus region of a pruned decomposition")
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    n = sigma.ambient_dim
    floor_r, ceil_r = sigma.window()
    total = 0.0
    n_cubes = 0
    n_excluded = 0
    anchors = 0
    for lev_k, lev in deco.levels.items():
        sel = _dilate_gap2(lev.centers, lev.side, 2.0, x) <= r * r
        count = int(np.count_nonzero(sel))
        if count == 0:
            continue
        ell = math.sqrt(n) * lev.side
        radius = lam * 2.0 ** k * ell
        if not floor_r <= radius <= ceil_r:
            n_excluded += count
            continue
        aidx = lev.anchor_idx[sel]
        uniq, inv = np.unique(aidx, return_inverse=True)
        vals = np.array([_anchor_alpha(deco, a_i, radius, refine).value
                         for a_i in uniq])
        total += ell ** d * float(np.sum(vals[inv] ** 2))
        n_cubes += count
        anchors += len(uniq)
    value = total / r ** d
    if details:
        return URSumResult(value, n_cubes, n_excluded, anchors, r, k)
    return value


def neighbor_count_max(deco: WhitneyDecomposition, *,
                       max_level_gap: int | None = 2) -> int:
    """Largest number of cubes whose 2-dilates meet a given cube's 2-dilate.

    The count includes the cube itself.  Touching dilates force comparable
    sides: were the side ratio 4 or more, the smaller cube's parent already
    violated retention within reach of the larger cube's center, beating
    the larger cube's own clearance — so level gaps above 1 are impossible
    and the default scan window of 2 is already conservative.  Pass
    max_level_gap=None to scan every pair regardless.
    """
    _require(deco)
    keys = list(deco.levels)
    trees = {k: cKDTree(deco.levels[k].centers) for k in keys}
    counts = {k: np.zeros(len(deco.levels[k].packed), dtype=np.int64)
              for k in keys}
    for a in keys:
        lev_a = deco.levels[a]
        for b in keys:
            if b < a:
                continue
            if max_level_gap is not None and b - a > max_level_gap:
                continue
            lev_b = deco.levels[b]
            rad = lev_a.side + lev_b.side
            got = trees[a].query_ball_point(lev_b.centers, rad, p=np.inf,
                                            return_length=True)
            counts[b] += got
            if a != b:          # mirror the tally onto the coarser level
                rev = trees[b].query_ball_point(lev_a.centers, rad, p=np.inf,
                                                return_length=True)
                counts[a] += rev
    return int(max(arr.max() for arr in counts.values()))


def dump_cubes(deco: WhitneyDecomposition, path, *, k_max: int = 0,
               lam: float = SCALE_FACTOR, eps: float = _EPS_DEFAULT,
               include_alpha: bool = False, include_mu: bool = False,
               stride: int = 1) -> int:
    """CSV dump of the decomposition; returns the number of rows written.

    Flatness and flat-measure columns are optional (they trigger LP work
    per distinct anchor ball) and window violations render as empty cells.
    ``stride`` keeps every stride-th cube of the global cube order; only
    the optional columns build per-cube views.
    """
    _require(deco)
    n = deco.sigma.ambient_dim
    stride = max(1, stride)
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = (["level"] + [f"corner{j}" for j in range(n)] + ["diameter"]
                + [f"anchor{j}" for j in range(n)])
        if include_alpha:
            head += [f"alpha_k{k}" for k in range(k_max + 1)]
        if include_mu:
            head += ["mu_branch", "mu_density", "gap_2q", "anchor_gap",
                     "flagged"]
        w.writerow(head)
        for (level, lev), start in zip(deco.levels.items(), deco._starts):
            local = np.arange(-int(start) % stride, len(lev.packed), stride)
            corners = np.rint((lev.centers[local] - deco.box_lo) / lev.side
                              - 0.5).astype(np.int64)
            diameter = f"{math.sqrt(n) * lev.side:.17g}"
            anchors = deco.sigma.points[lev.anchor_idx[local]]
            for i, corner, anchor in zip(local, corners.tolist(), anchors):
                row = ([level] + corner + [diameter]
                       + [f"{v:.17g}" for v in anchor])
                if include_alpha or include_mu:
                    cube = WhitneyCube(deco, level, int(i))
                if include_alpha:
                    for k in range(k_max + 1):
                        try:
                            alpha = alpha_qk(deco, cube, k, lam=lam).value
                            row.append(f"{alpha:.17g}")
                        except (TruncationError, ResolutionError):
                            row.append("")
                if include_mu:
                    try:
                        mu = mu_q(deco, cube, eps=eps, lam=lam, refine=False)
                        row += [mu.branch, f"{mu.flat.c:.17g}",
                                f"{mu.gap_2q:.17g}", f"{mu.anchor_gap:.17g}",
                                str(mu.flagged)]
                    except (TruncationError, ResolutionError):
                        row += ["", "", "", "", ""]
                w.writerow(row)
                rows += 1
    return rows
