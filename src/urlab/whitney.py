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

from .exceptions import (
    DomainError,
    ParameterError,
    ResolutionError,
    StateError,
    TruncationError,
)
from .geometry import Ball, DiscreteMeasure, _as_points
from .wasserstein import (
    AlphaResult,
    FlatMeasure,
    _null_space,
    alpha_number,
    flat_sample,
    local_wasserstein,
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
    "ur_square_sum",
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


@dataclass
class AXResult:
    """a_x over a point batch, one entry per point; a point that no
    retained cube holds reads NaN value and tail, level and index -1 and
    no skipped scale."""

    value: np.ndarray           # (m,)
    tail: np.ndarray            # (m,) certified bound on the dropped terms
    skipped: tuple              # per point, the tuple of skipped scales
    level: np.ndarray           # (m,) int
    index: np.ndarray           # (m,) int


@dataclass
class URSumResult:
    value: float
    n_cubes: int
    n_excluded: int
    n_anchors: int


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

    def box(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        half = 0.5 * scale * self.side
        return self.center - half, self.center + half

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


def _require(deco, *, empty_if_focused: bool = False) -> None:
    """Refuse anything but a completed, non-empty decomposition; with
    ``empty_if_focused`` a focused one may be empty, since its focus
    pruned only branches that hold no cube the caller can select."""
    if not isinstance(deco, WhitneyDecomposition) or not (
            len(deco) or (empty_if_focused and deco.focus is not None)):
        raise StateError("a completed, non-empty decomposition is required")


# -- construction --------------------------------------------------------------


def decompose(sigma: DiscreteMeasure, box=None, max_depth: int = 10, *,
              focus=None, alpha_resolution: int = 12, alpha_cap: int = 120,
              alpha_seed: int = 0) -> WhitneyDecomposition:
    """Maximal dyadic cubes whose 20-dilate misses the support.

    Subdivision runs breadth-first; a cube is retained when the support
    stays sup-norm-further than 10 sides from its center, i.e. exactly
    when its 20-dilate misses the discrete support.  Each level makes one
    Euclidean nearest-atom query d2: since the sup-norm distance lies in
    [d2/sqrt(n), d2], a cube with d2 <= 10 sides violates and one with
    d2 > 10 sqrt(n) sides is retained; only the band between takes the
    exact sup-norm query.  The same query's nearest atom is the anchor,
    unless it lies outside the 60-dilate, where the sup-norm nearest atom
    replaces it.  Cubes still violating at max_depth are counted as
    undecided and dropped, never clipped.  `box` is (center, side); the
    default box spans 2.5x the support.

    `focus=(x, R)` prunes subdivision branches that can never produce a
    cube whose 2-dilate meets B(x, R): square sums at or inside (x, R)
    are unchanged while deep levels stay tractable on fractal supports.
    Pruned branch counts are recorded; outside the focus region cube_at
    and a_x report holes as missing cubes (None; NaN with level -1), so
    point queries there are unsafe.
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
    root_n = math.sqrt(n)
    levels: dict[int, _Level] = {}
    undecided = 0
    pruned = 0
    current = np.zeros((1, n), dtype=np.int64)
    for k in range(max_depth + 1):
        side_k = side / 2.0 ** k
        centers = lo + (current + 0.5) * side_k
        # d_inf lies in [d2/sqrt(n), d2], so d2 decides every cube outside
        # the band between the two thresholds; the 1e-12 guard sends
        # rounding-level ties to the exact sup-norm query
        d2, aidx = sigma.tree.query(centers, workers=-1)
        keep = d2 > 10.0 * root_n * side_k * (1 + 1e-12)
        band = np.flatnonzero(~keep & (d2 > 10.0 * side_k * (1 - 1e-12)))
        if band.size:
            d_inf, _ = sigma.tree.query(centers[band], p=np.inf, workers=-1)
            keep[band] = d_inf > 10.0 * side_k
        kept = current[keep]
        if kept.shape[0]:
            key = _pack(kept, n)
            order = np.argsort(key)
            kept, key = kept[order], key[order]
            ctr = centers[keep][order]
            aidx = aidx[keep][order]
            # where the euclid-nearest atom left 60Q, the sup-norm nearest;
            # any other cube's 60-dilate already holds that atom
            bad = np.flatnonzero(
                np.max(np.abs(pts[aidx] - ctr), axis=1) > 30.0 * side_k)
            if bad.size:
                d_inf, i_inf = sigma.tree.query(ctr[bad], p=np.inf,
                                                workers=-1)
                # maximality gives the 60-dilate hit for free; verify anyway
                if not np.all(d_inf <= 30.0 * side_k * (1 + 1e-12)):
                    raise AssertionError("60-dilate check failed (internal)")
                aidx[bad] = i_inf
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
             lam: float = SCALE_FACTOR) -> AlphaResult:
    """Flatness number of the support on B(anchor, lam * 2^k * diam(Q)),
    from the PCA initialization of ``alpha_number`` (no refinement).

    Memoized by (anchor, radius): rings of cubes sharing an anchor ball
    resolve to a single LP.  A radius outside the data window is refused
    with a TruncationError or ResolutionError.
    """
    _require(deco)
    _scale_index("k", k)
    radius = lam * 2.0 ** k * cube.diameter
    refusal = _window_refusal(deco.sigma, radius, cube.level, k)
    if refusal is not None:
        raise refusal
    return _anchor_alpha(deco, cube.anchor_index, radius)


def _scale_index(name: str, k: int) -> None:
    """Refuse a negative scale index (k or k_max) with a ParameterError."""
    if k < 0:
        raise ParameterError(f"{name} must be nonnegative, got {k}")


def _window_refusal(sigma: DiscreteMeasure, radius: float, level: int,
                    k: int) -> TruncationError | ResolutionError | None:
    """The error refusing a flatness ball radius outside the data window
    (above its ceiling: truncation, below its floor: resolution), or None.

    The radius depends on a cube only through its level, so a refusal
    holds for a whole (level, k) column of cubes.
    """
    floor_r, ceil_r = sigma.window()
    if radius > ceil_r:
        return TruncationError(
            f"flatness ball radius {radius:g} exceeds the data window "
            f"ceiling {ceil_r:g} (cube level {level}, k={k})")
    if radius < floor_r:
        return ResolutionError(
            f"flatness ball radius {radius:g} below the resolution "
            f"floor {floor_r:g} (cube level {level}, k={k})")
    return None


def _anchor_alpha(deco: WhitneyDecomposition, anchor_index: int,
                  radius: float) -> AlphaResult:
    """Unrefined alpha_number on B(sigma.points[anchor_index], radius),
    memoized."""
    key = (int(anchor_index), float(radius))
    hit = deco.alpha_cache.get(key)
    if hit is None:
        sigma = deco.sigma
        hit = alpha_number(sigma, Ball(sigma.points[anchor_index], radius),
                           resolution=deco.alpha_resolution,
                           cap=deco.alpha_cap, refine=False,
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
                   eps: float, lam: float):
    """(flat, branch, alpha, atilde) without the geometric post-checks.

    The optimal branch reuses the minimizing flat of the flatness LP, whose
    transport distance IS the flatness value, so no extra LP runs and the
    result memoizes per anchor ball.  The separating branch constructs a
    cube-specific plane and prices it with one LP per cube.
    """
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    a_res = alpha_qk(deco, cube, 0, lam=lam)
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
    # the plane and its distance do not depend on eps, only the branch does
    key = ("sep", cube.level, cube.index, float(lam))
    atilde = deco.alpha_cache.get(key)
    if atilde is None:
        # the plane passes through the ball's centre, so the sample is
        # never empty
        ball = Ball(xi, lam * cube.diameter)
        atilde = local_wasserstein(
            flat_sample(flat, ball, deco.alpha_resolution), sigma, ball,
            cap=deco.alpha_cap, seed=deco.alpha_seed)
        deco.alpha_cache[key] = atilde
    return flat, "separating", a_res.value, atilde


def mu_q(deco: WhitneyDecomposition, cube: WhitneyCube, *,
         eps: float = _EPS_DEFAULT, lam: float = SCALE_FACTOR) -> MuResult:
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
    ck = (cube.level, cube.index, float(eps), float(lam))
    hit = deco._mu_cache.get(ck)
    if hit is not None:
        return hit
    sigma = deco.sigma
    flat, branch, alpha, atilde = _attached_flat(deco, cube, eps=eps,
                                                 lam=lam)
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
                   checks, not all(checks.values()))
    deco._mu_cache[ck] = out
    return out


# -- aggregates -----------------------------------------------------------------


def _alpha_upper_bound(sigma: DiscreteMeasure, center: np.ndarray,
                       radius: float) -> float:
    """Classical uniform bound: mass over radius^d dominates any flatness."""
    mass = min(sigma.mass_in_ball(center, radius), sigma.total_mass)
    return mass / radius ** sigma.intrinsic_dim


def a_x(deco: WhitneyDecomposition, points: np.ndarray, alpha_exp: float,
        beta_exp: float, *, k_max: int = 8, eps: float = _EPS_DEFAULT,
        lam: float = SCALE_FACTOR) -> AXResult:
    """Multiscale flatness sum at each point of an (m, n) batch: the cube
    term plus the geometrically damped ladder over growing balls.

    The value is constant on each cube, so points are matched to cubes in
    one vectorized lookup and each distinct cube is priced once through a
    per-cube memo.  Scales whose balls leave the data window are skipped
    and covered, together with the k > k_max remainder, by a certified
    tail bound built from the mass-based uniform bound on flatness
    numbers; a cube so deep that even its own attachment ball is
    sub-resolution has that term tail-bounded too, recorded as skipped
    scale -1.  Points that no retained cube holds (on the support, in
    pruned or undecided cells, or outside the box) read NaN with level -1.
    """
    _require(deco)
    _scale_index("k_max", k_max)
    if alpha_exp <= 0 or beta_exp <= 0:
        raise ParameterError("exponents must be positive")
    pts = _as_points(points, deco.sigma.ambient_dim)
    m = min(alpha_exp, beta_exp)
    level, index = deco._locate(pts)
    found = np.flatnonzero(level >= 0)
    cubes, inv = np.unique(np.stack([level[found], index[found]], axis=1),
                           axis=0, return_inverse=True)
    terms = [_a_x_cube(deco, WhitneyCube(deco, int(k), int(j)), m,
                       k_max=k_max, eps=eps, lam=lam) for k, j in cubes]
    value, tail = np.full((2, pts.shape[0]), np.nan)
    skipped = [()] * pts.shape[0]
    for i, c in zip(found, inv.reshape(-1)):
        value[i], tail[i], skipped[i] = terms[c]
    return AXResult(value, tail, tuple(skipped), level, index)


def _a_x_cube(deco: WhitneyDecomposition, cube: WhitneyCube, m: float, *,
              k_max: int, eps: float, lam: float) -> tuple:
    """Memoized per-cube body of a_x: (value, tail, skipped)."""
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    ck = (cube.level, cube.index, k_max, float(m), float(eps), float(lam))
    hit = deco._ax_cache.get(ck)
    if hit is None:
        skipped = []
        total = 0.0
        try:
            total = _attached_flat(deco, cube, eps=eps, lam=lam)[3]
        except (TruncationError, ResolutionError):
            skipped.append(-1)
        for k in range(k_max + 1):
            try:
                a_res = alpha_qk(deco, cube, k, lam=lam)
            except (TruncationError, ResolutionError):
                skipped.append(k)
                continue
            total += 2.0 ** (-k * m) * a_res.value
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
        hit = (total, tail, tuple(skipped))
        deco._ax_cache[ck] = hit
    return hit


def ur_square_sum(deco: WhitneyDecomposition, x: np.ndarray, r: float,
                  k: int = 0, *, lam: float = SCALE_FACTOR) -> URSumResult:
    """Normalized square sum of flatness numbers over cubes near a ball.

    Cubes enter when their 2-dilate meets B(x, r); each contributes
    alpha^2 * diam^d.  Whole levels whose flatness balls leave the data
    window are excluded and counted, keeping truncation bias visible.
    A decomposition focused on a ball holding B(x, r) may be empty: its
    sum is 0 over no cube.
    """
    _require(deco, empty_if_focused=True)
    _scale_index("k", k)
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
        if _window_refusal(sigma, radius, lev_k, k) is not None:
            n_excluded += count
            continue
        aidx = lev.anchor_idx[sel]
        uniq, inv = np.unique(aidx, return_inverse=True)
        vals = np.array([_anchor_alpha(deco, a_i, radius).value
                         for a_i in uniq])
        total += ell ** d * float(np.sum(vals[inv] ** 2))
        n_cubes += count
        anchors += len(uniq)
    return URSumResult(total / r ** d, n_cubes, n_excluded, anchors)


def dump_cubes(deco: WhitneyDecomposition, path, *, k_max: int = 0,
               lam: float = SCALE_FACTOR, eps: float = _EPS_DEFAULT,
               include_alpha: bool = False, include_mu: bool = False,
               stride: int = 1) -> int:
    """CSV dump of the decomposition; returns the number of rows written.

    Flatness and flat-measure columns are optional (they trigger LP work
    per distinct anchor ball) and window violations render as empty cells.
    ``stride`` (at least 1) keeps every stride-th cube of the global cube
    order; only the flat-measure columns build per-cube views, and a
    window refusal of the flatness columns is decided once per (level, k).
    """
    _require(deco)
    _scale_index("k_max", k_max)
    n = deco.sigma.ambient_dim
    if stride < 1:
        raise ParameterError(f"stride must be at least 1, got {stride}")
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
            diam = math.sqrt(n) * lev.side
            diameter = f"{diam:.17g}"
            # alpha_qk's radii, None where the data window refuses the
            # whole (level, k) column
            radii = []
            for k in range(k_max + 1 if include_alpha else 0):
                radius = lam * 2.0 ** k * diam
                refusal = _window_refusal(deco.sigma, radius, level, k)
                radii.append(radius if refusal is None else None)
            anchors = deco.sigma.points[lev.anchor_idx[local]]
            for i, corner, anchor in zip(local, corners.tolist(), anchors):
                row = ([level] + corner + [diameter]
                       + [f"{v:.17g}" for v in anchor])
                for radius in radii:
                    if radius is None:
                        row.append("")
                        continue
                    try:
                        alpha = _anchor_alpha(deco, lev.anchor_idx[i],
                                              radius).value
                        row.append(f"{alpha:.17g}")
                    except (TruncationError, ResolutionError):
                        row.append("")
                if include_mu:
                    try:
                        mu = mu_q(deco, WhitneyCube(deco, level, int(i)),
                                  eps=eps, lam=lam)
                        row += [mu.branch, f"{mu.flat.c:.17g}",
                                f"{mu.gap_2q:.17g}", f"{mu.anchor_gap:.17g}",
                                str(mu.flagged)]
                    except (TruncationError, ResolutionError):
                        row += ["", "", "", "", ""]
                w.writerow(row)
                rows += 1
    return rows
