"""Dyadic cube decomposition of the support complement, with per-cube
flatness numbers, flat-measure attachments, and multiscale square sums.

The complement is tiled by maximal dyadic cubes whose 20-fold dilate
misses the support; the 60-fold dilate of each retained cube then meets
it by maximality.  Cubes are stored struct-of-arrays per level, as corner
multi-indices packed into sorted int64 keys and int32 anchors, because
codimension-2 tubes produce millions of cubes at depth.  The key is a
cube's only position data: its corner and centre are unpacked from it
where they are read, a chunk at a time; `WhitneyCube` objects are
lightweight views.  Flatness numbers are memoized by (anchor point, ball
radius) — all cubes in a cross-sectional ring share their anchor ball, which
collapses the LP count per level to the number of distinct anchors.  That
memo, `alpha_cache`, is the only one, since it is the one that runs hit:
on the `whitney` rerun config of tests/test_cli.py, 341 of its 441
lookups hit, while per-cube memos of `mu_q` and of the separating-plane
LP hit none of their 220 and 141 lookups.  So `mu_q` and `a_x` price
again on each call.

`decompose` sweeps each level in fixed chunks of `_CHUNK` cubes, so its
memory is its output, plus one chunk, plus one level's sort of its keys;
`ur_square_sum` scans the levels in the same chunks and keeps one anchor
count array per level.  A child cube that its parent's atom already puts
within 10 sides in the sup norm violates without a nearest-atom query.

A cube's flatness ball at scale k has radius lam * 2^k * diam(Q), with
one dilation lam for the whole decomposition (``decompose``'s ``lam``,
stored as ``deco.lam``); one rule (`_flatness_ball`) gives it with its
refusal outside the data window, for every caller.

Scale caveat: the classical construction evaluates flatness on balls
B(anchor, SCALE_FACTOR * 2^k * diam(Q)) with an enormous SCALE_FACTOR.
At desk scale such balls leave any finite dataset immediately, so
SCALE_FACTOR defaults to 8 here and is a parameter of `decompose`; every
claim checked against it is structural (a bound exists), so the change
only renames constants.  Output headers echo the value in use.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear

from .exceptions import (
    ParameterError,
    ResolutionError,
    StateError,
    TruncationError,
)
from .geometry import (Ball, DiscreteMeasure, _as_box, _as_points,
                       _finite_point)
from .wasserstein import (
    AlphaResult,
    FlatMeasure,
    _ball_support,
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
_CHUNK = 2 ** 14                # cubes per chunk of the level sweeps


def _pack_bits(n: int) -> int:
    """Per-axis bits in the packed corner key (all axes share an int64)."""
    return 63 // n


def _pack(corners: np.ndarray, n: int) -> np.ndarray:
    bits = _pack_bits(n)
    out = np.zeros(corners.shape[0], dtype=np.int64)
    for j in range(n):
        out = (out << bits) | corners[:, j].astype(np.int64)
    return out


def _unpack(keys: np.ndarray, n: int) -> np.ndarray:
    bits = _pack_bits(n)
    shifts = bits * np.arange(n - 1, -1, -1, dtype=np.int64)
    return (keys[:, None] >> shifts) & ((1 << bits) - 1)


def _child_offsets(n: int) -> np.ndarray:
    bits = np.arange(2 ** n)[:, None] >> np.arange(n)[None, ::-1]
    return (bits & 1).astype(np.int64)


def _child_chunks(parents: np.ndarray, near: np.ndarray):
    """The children of ``parents``, each parent's 2^n in offset order, in
    chunks of _CHUNK cubes: (corners, the parent's atom of each child)."""
    n = parents.shape[1]
    offsets = _child_offsets(n)
    total = parents.shape[0] << n
    for s in range(0, total, _CHUNK):
        i = np.arange(s, min(s + _CHUNK, total))
        p = i >> n
        yield parents[p] * 2 + offsets[i & ((1 << n) - 1)], near[p]


def _sup_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sup-norm distance, rounded as the kd-tree rounds it."""
    gap = np.abs(a - b)
    return functools.reduce(np.maximum, gap.T)


def _anchors(sigma, ctr: np.ndarray, aidx: np.ndarray,
             side: float) -> np.ndarray:
    """Anchors of retained cubes from their Euclidean-nearest atoms
    ``aidx`` (overwritten): where that atom leaves the 60-dilate, the
    sup-norm nearest; any other cube's 60-dilate already holds that
    atom."""
    bad = np.flatnonzero(_sup_gap(sigma.points[aidx], ctr) > 30.0 * side)
    if bad.size:
        d_inf, i_inf = sigma.tree.query(ctr[bad], p=np.inf, workers=-1)
        # maximality gives the 60-dilate hit for free; verify anyway
        if not np.all(d_inf <= 30.0 * side * (1 + 1e-12)):
            raise AssertionError("60-dilate check failed (internal)")
        aidx[bad] = i_inf
    return aidx.astype(np.int32)


def _sorted_level(keys: list, anchors: list, lo: np.ndarray,
                  side: float) -> "_Level":
    """One level from its chunks' packed keys and anchors, in one sort."""
    key = np.concatenate(keys)
    order = np.argsort(key)
    key = key[order]
    return _Level(side, lo, key, np.concatenate(anchors)[order])


def _dilate_gap2(centers: np.ndarray, side: float, s: float,
                 x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from x to the s-dilate of each cube."""
    over = np.clip(np.abs(centers - x) - 0.5 * s * side, 0.0, None)
    return np.einsum("ij,ij->i", over, over)


@dataclass
class _Level:
    side: float
    lo: np.ndarray              # (n,) low corner of the decomposition box
    packed: np.ndarray          # (M,) int64 corner keys, ascending
    anchor_idx: np.ndarray      # (M,) int32 indices into sigma.points

    def centers(self, s: int = 0, e: int | None = None) -> np.ndarray:
        """(e - s, n) centres of cubes s to e, unpacked from their keys."""
        return self.lo + (_unpack(self.packed[s:e], self.lo.shape[0])
                          + 0.5) * self.side


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
        return _unpack(lev.packed[self.index:self.index + 1], lev.lo.size)[0]

    @property
    def center(self) -> np.ndarray:
        return self.deco.levels[self.level].centers(self.index,
                                                    self.index + 1)[0]

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
    """Sequence of Whitney cubes plus the shared flatness memo.

    Indexing is by level (ascending), then packed-corner order within the
    level, so iteration order is deterministic for a given input.
    """

    def __init__(self, sigma, box_lo, box_side, max_depth, levels, undecided,
                 lam, alpha_resolution, alpha_cap, alpha_seed, focus=None,
                 pruned=0):
        self.sigma = sigma
        self.box_lo = box_lo
        self.box_side = box_side
        self.max_depth = max_depth
        self.levels = dict(sorted(levels.items()))
        self.undecided = undecided
        self.focus = focus
        self.pruned = pruned
        self.lam = lam
        self.alpha_resolution = alpha_resolution
        self.alpha_cap = alpha_cap
        self.alpha_seed = alpha_seed
        self.alpha_cache: dict = {}     # (anchor index, radius) -> alpha
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


def _require(deco, *, empty_if_focused: bool = False) -> None:
    """Refuse anything but a completed, non-empty decomposition; with
    ``empty_if_focused`` a focused one may be empty, since its focus
    pruned only branches that hold no cube the caller can select."""
    if not isinstance(deco, WhitneyDecomposition) or not (
            len(deco) or (empty_if_focused and deco.focus is not None)):
        raise StateError("a completed, non-empty decomposition is required")


# -- construction --------------------------------------------------------------


def decompose(sigma: DiscreteMeasure, box=None, max_depth: int = 10, *,
              focus=None, lam: float = SCALE_FACTOR,
              alpha_resolution: int = 12, alpha_cap: int = 120,
              alpha_seed: int = 0) -> WhitneyDecomposition:
    """Maximal dyadic cubes whose 20-dilate misses the support.

    Subdivision runs breadth-first; a cube is retained when the support
    stays sup-norm-further than 10 sides from its center, i.e. exactly
    when its 20-dilate misses the discrete support.  Every violating cube
    hands one atom to its children, and the sup-norm gap from a child's
    centre to it bounds the child's sup-norm distance d_inf: a child with
    that gap at most 10 sides violates without a query and hands the same
    atom on (the root takes atom 0).  Every other child makes one
    Euclidean nearest-atom query d2: since d_inf lies in [d2/sqrt(n), d2],
    a cube with d2 <= 10 sides violates and one with d2 > 10 sqrt(n)
    sides is retained.  In the band between, the new nearest atom's
    sup-norm gap decides the cubes it puts within 10 sides, and only the
    rest take the exact sup-norm query.  The Euclidean nearest atom is the
    anchor, unless it lies outside the 60-dilate, where the sup-norm
    nearest atom replaces it.  Cubes still violating at max_depth are
    counted as undecided and dropped, never clipped.  `box` is (center,
    side); the default box spans 2.5x the support.

    Memory: each level is swept in chunks of _CHUNK cubes, and between
    levels only the violating parents live on, as corners and atoms.  A
    chunk returns its retained cubes' keys and anchors; a level then
    makes one sort of its keys, and no centres are rebuilt: the output is
    12 bytes per cube.  The peak is the output, plus one chunk, plus one
    level's sort, and no level is ever held as a whole candidate array.

    `focus=(x, R)` prunes subdivision branches that can never produce a
    cube whose 2-dilate meets B(x, R): square sums at or inside (x, R)
    are unchanged while deep levels stay tractable on fractal supports.
    Pruned branch counts are recorded; outside the focus region a_x
    reports holes as missing cubes (NaN with level -1), so point queries
    there are unsafe.

    `lam` is the dilation of every flatness ball the decomposition prices
    (radius lam * 2^k * diam(Q)); it and the alpha settings are stored on
    the decomposition, since its flatness memo holds their numbers.
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
        center, side = _as_box(box, n)
    lo = center - 0.5 * side
    margin = min(float(np.min(lo_pts - lo)),
                 float(np.min(lo + side - hi_pts)))
    if margin < side / 4.0 - 1e-12 * side:
        raise ParameterError(
            f"support must sit inside the box with margin side/4 "
            f"(got margin {margin:g} for side {side:g})")

    if focus is not None:
        f_center = _finite_point(focus[0], n, "focus center")
        f_radius = float(focus[1])
        if not f_radius > 0:
            raise ParameterError("focus radius must be positive")

    root_n = math.sqrt(n)
    levels: dict[int, _Level] = {}
    undecided = 0
    pruned = 0
    # any atom's sup-norm gap bounds a cube's d_inf, so atom 0 serves the root
    chunks = [(np.zeros((1, n), dtype=np.int64), np.zeros(1, dtype=np.intp))]
    for k in range(max_depth + 1):
        side_k = side / 2.0 ** k
        keys, anchors, parents, nears = [], [], [], []
        for cand, near in chunks:
            ctr = lo + (cand + 0.5) * side_k
            # the 1e-12 guards send rounding-level ties of d2 to the band;
            # a sup-norm gap is rounded as the kd-tree rounds d_inf
            ask = np.flatnonzero(_sup_gap(pts[near], ctr) > 10.0 * side_k)
            keep = np.zeros(cand.shape[0], dtype=bool)
            if ask.size:
                d2, near[ask] = sigma.tree.query(ctr[ask], workers=-1)
                kept = d2 > 10.0 * root_n * side_k * (1 + 1e-12)
                band = ask[~kept & (d2 > 10.0 * side_k * (1 - 1e-12))]
                band = band[_sup_gap(pts[near[band]], ctr[band])
                            > 10.0 * side_k]
                keep[ask[kept]] = True
                if band.size:
                    d_inf, _ = sigma.tree.query(ctr[band], p=np.inf,
                                                workers=-1)
                    keep[band] = d_inf > 10.0 * side_k
                keys.append(_pack(cand[keep], n))
                anchors.append(_anchors(sigma, ctr[keep], near[keep],
                                        side_k))
            viol = np.flatnonzero(~keep)
            if k == max_depth:
                undecided += viol.size
                continue
            if focus is not None and viol.size:
                live = (_dilate_gap2(ctr[viol], side_k, 1.0, f_center)
                        <= (f_radius + side_k) ** 2)
                pruned += int(np.count_nonzero(~live))
                viol = viol[live]
            parents.append(cand[viol])
            nears.append(near[viol])
        if any(key.size for key in keys):
            levels[k] = _sorted_level(keys, anchors, lo, side_k)
        if k == max_depth:
            break
        parents = np.concatenate(parents)
        if parents.shape[0] == 0:
            break
        chunks = _child_chunks(parents, np.concatenate(nears))

    return WhitneyDecomposition(sigma, lo, side, max_depth, levels, undecided,
                                lam, alpha_resolution, alpha_cap, alpha_seed,
                                focus=focus, pruned=pruned)


# -- per-cube quantities --------------------------------------------------------


def alpha_qk(deco: WhitneyDecomposition, cube: WhitneyCube,
             k: int = 0) -> AlphaResult:
    """Flatness number of the support on B(anchor, lam * 2^k * diam(Q)),
    lam being ``deco.lam``, from the PCA initialization of
    ``alpha_number`` (no refinement).

    Memoized by (anchor, radius): rings of cubes sharing an anchor ball
    resolve to a single LP.  A radius outside the data window is refused
    with a TruncationError or ResolutionError.
    """
    _require(deco)
    _scale_index("k", k)
    radius, refusal = _flatness_ball(deco, cube.level, k)
    if refusal is not None:
        raise refusal
    return _anchor_alpha(deco, cube.anchor_index, radius)


def _scale_index(name: str, k: int) -> None:
    """Refuse a negative scale index (k or k_max) with a ParameterError."""
    if k < 0:
        raise ParameterError(f"{name} must be nonnegative, got {k}")


def _flatness_ball(deco: WhitneyDecomposition, level: int, k: int) -> tuple:
    """(radius, refusal) of the flatness ball of a level's cubes at scale
    k: radius lam * 2^k * diam(Q) with lam = ``deco.lam``, and the error
    refusing it outside the data window (above its ceiling: truncation,
    below its floor: resolution), or None.

    The radius depends on a cube only through its level, so a refusal
    holds for a whole (level, k) column of cubes.
    """
    sigma = deco.sigma
    radius = deco.lam * 2.0 ** k * (math.sqrt(sigma.ambient_dim)
                                     * deco.levels[level].side)
    floor_r, ceil_r = sigma.window()
    refusal = None
    if radius > ceil_r:
        refusal = TruncationError(
            f"flatness ball radius {radius:g} exceeds the data window "
            f"ceiling {ceil_r:g} (cube level {level}, k={k})")
    elif radius < floor_r:
        refusal = ResolutionError(
            f"flatness ball radius {radius:g} below the resolution "
            f"floor {floor_r:g} (cube level {level}, k={k})")
    return radius, refusal


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
                   eps: float):
    """(flat, branch, alpha, atilde) without the geometric post-checks.

    The optimal branch reuses the minimizing flat of the flatness LP, whose
    transport distance IS the flatness value, so no extra LP runs and the
    result memoizes per anchor ball.  The separating branch constructs a
    cube-specific plane and prices it with one LP per call, against the
    support the ball's alpha is priced on (``wasserstein._ball_support``
    with the decomposition's resolution, cap and seed) and at alpha's
    flat-sample resolution, so alpha and atilde are two flats priced
    against one sample.
    """
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    a_res = alpha_qk(deco, cube, 0)
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
    # the plane passes through the ball's centre, so the sample is never
    # empty; alpha_qk above already refused a ball outside the window
    ball = Ball(xi, _flatness_ball(deco, cube.level, 0)[0])
    support, m_res = _ball_support(sigma, ball, deco.alpha_resolution,
                                   deco.alpha_cap, deco.alpha_seed)
    atilde = local_wasserstein(flat_sample(flat, ball, m_res), support, ball)
    return flat, "separating", a_res.value, atilde


def mu_q(deco: WhitneyDecomposition, cube: WhitneyCube, *,
         eps: float = _EPS_DEFAULT) -> MuResult:
    """Flat measure attached to a cube, with separation post-checks.

    Small flatness number: reuse the minimizing flat measure (its distance
    is within a factor 2 of optimal by definition).  Large: unit density
    on the plane through the anchor orthogonal to the shortest segment
    from the anchor to the 20-dilate — the convex-projection direction
    separates the plane from the whole dilate, which the center-segment
    choice does not guarantee.  Post-checks record the separation, the
    anchor offset, and the density band; failures flag the cube loudly.
    The separating plane's distance ``atilde`` is priced against the same
    reduced support of the ball as the cube's alpha.
    """
    _require(deco)
    sigma = deco.sigma
    flat, branch, alpha, atilde = _attached_flat(deco, cube, eps=eps)
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
    return MuResult(flat, branch, alpha, atilde, gap_2q, anchor_gap,
                    checks, not all(checks.values()))


# -- aggregates -----------------------------------------------------------------


def _alpha_upper_bound(sigma: DiscreteMeasure, center: np.ndarray,
                       radius: float) -> float:
    """Classical uniform bound: mass over radius^d dominates any flatness."""
    mass = min(sigma.mass_in_ball(center, radius), sigma.total_mass)
    return mass / radius ** sigma.intrinsic_dim


def a_x(deco: WhitneyDecomposition, points: np.ndarray, alpha_exp: float,
        beta_exp: float, *, k_max: int = 8,
        eps: float = _EPS_DEFAULT) -> AXResult:
    """Multiscale flatness sum at each point of an (m, n) batch: the cube
    term plus the geometrically damped ladder over growing balls.

    The value is constant on each cube, so points are matched to cubes in
    one vectorized lookup and each distinct cube of the batch is priced
    once.  Across calls only the per-anchor flatness numbers are memoized
    (``deco.alpha_cache``); a cube's separating-plane LP and its sum run
    again on each call, since no run calls a_x.  Scales whose balls leave
    the data window are skipped and covered, together with the k > k_max
    remainder, by a certified tail bound built from the mass-based uniform
    bound on flatness numbers; a cube so deep that even its own attachment
    ball is sub-resolution has that term tail-bounded too, recorded as
    skipped scale -1.  Points that no retained cube holds (on the support, in
    pruned or undecided cells, or outside the box) read NaN with level -1.
    """
    _require(deco)
    _scale_index("k_max", k_max)
    if not (alpha_exp > 0 and beta_exp > 0):
        raise ParameterError("exponents must be positive")
    pts = _as_points(points, deco.sigma.ambient_dim)
    m = min(alpha_exp, beta_exp)
    level, index = deco._locate(pts)
    found = np.flatnonzero(level >= 0)
    cubes, inv = np.unique(np.stack([level[found], index[found]], axis=1),
                           axis=0, return_inverse=True)
    terms = [_a_x_cube(deco, WhitneyCube(deco, int(k), int(j)), m,
                       k_max=k_max, eps=eps) for k, j in cubes]
    value, tail = np.full((2, pts.shape[0]), np.nan)
    skipped = [()] * pts.shape[0]
    for i, c in zip(found, inv.reshape(-1)):
        value[i], tail[i], skipped[i] = terms[c]
    return AXResult(value, tail, tuple(skipped), level, index)


def _a_x_cube(deco: WhitneyDecomposition, cube: WhitneyCube, m: float, *,
              k_max: int, eps: float) -> tuple:
    """Per-cube body of a_x: (value, tail, skipped)."""
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    skipped = []
    total = 0.0
    try:
        total = _attached_flat(deco, cube, eps=eps)[3]
    except (TruncationError, ResolutionError):
        skipped.append(-1)
    for k in range(k_max + 1):
        try:
            a_res = alpha_qk(deco, cube, k)
        except (TruncationError, ResolutionError):
            skipped.append(k)
            continue
        total += 2.0 ** (-k * m) * a_res.value
    tail = 0.0
    for k in skipped:           # scale -1 is the attachment term (k=0 ball)
        r_k, _ = _flatness_ball(deco, cube.level, max(k, 0))
        tail += 2.0 ** (-max(k, 0) * m) * _alpha_upper_bound(
            sigma, cube.anchor, r_k)
    # k > k_max: bound_k decays like 2^{-kd} once the ball eats the data
    r_top, _ = _flatness_ball(deco, cube.level, k_max)
    q = 2.0 ** (-(m + d))
    tail += (2.0 ** (-k_max * m) * _alpha_upper_bound(sigma, cube.anchor,
                                                      r_top)
             * q / (1.0 - q))
    return total, tail, tuple(skipped)


def ur_square_sum(deco: WhitneyDecomposition, x: np.ndarray, r: float,
                  k: int = 0) -> URSumResult:
    """Normalized square sum of flatness numbers over cubes near a ball.

    Cubes enter when their 2-dilate meets B(x, r); each contributes
    alpha^2 * diam^d.  Whole levels whose flatness balls leave the data
    window are excluded and counted, keeping truncation bias visible.
    A decomposition focused on a ball holding B(x, r) may be empty: its
    sum is 0 over no cube.  A query point that is not a finite point of
    R^n is an InputError.

    Cubes of one level share their alpha through their anchor, so each
    level is scanned in chunks of _CHUNK cubes, adding the anchors of the
    selected cubes into one count per atom; the distinct anchors are then
    priced in ascending order, and the level adds diam^d * sum_a n_a
    alpha_a^2.  No per-cube array outlives its chunk.
    """
    _require(deco, empty_if_focused=True)
    _scale_index("k", k)
    if not r > 0:
        raise ParameterError("r must be positive")
    sigma = deco.sigma
    d = sigma.intrinsic_dim
    n = sigma.ambient_dim
    x = _finite_point(x, n, "query point")
    if deco.focus is not None:
        f_center, f_radius = deco.focus
        if float(np.linalg.norm(x - np.asarray(f_center))) + r > f_radius:
            raise ParameterError(
                "query ball leaves the focus region of a pruned decomposition")
    total, n_cubes, n_excluded, anchors = 0.0, 0, 0, 0
    for lev_k, lev in deco.levels.items():
        counts = np.zeros(len(sigma), dtype=np.int64)
        for s in range(0, len(lev.packed), _CHUNK):
            hit = _dilate_gap2(lev.centers(s, s + _CHUNK), lev.side, 2.0,
                               x) <= r * r
            counts += np.bincount(lev.anchor_idx[s:s + _CHUNK][hit],
                                  minlength=counts.size)
        count = int(counts.sum())
        if count == 0:
            continue
        ell = math.sqrt(n) * lev.side
        radius, refusal = _flatness_ball(deco, lev_k, k)
        if refusal is not None:
            n_excluded += count
            continue
        uniq = np.flatnonzero(counts)
        vals = np.array([_anchor_alpha(deco, a_i, radius).value
                         for a_i in uniq])
        total += ell ** d * float(np.sum(counts[uniq] * vals ** 2))
        n_cubes += count
        anchors += len(uniq)
    return URSumResult(total / r ** d, n_cubes, n_excluded, anchors)


def dump_cubes(deco: WhitneyDecomposition, path, *, k_max: int = 0,
               eps: float = _EPS_DEFAULT,
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
            corners = _unpack(lev.packed[local], n)
            diam = math.sqrt(n) * lev.side
            diameter = f"{diam:.17g}"
            # alpha_qk's radii, None where the data window refuses the
            # whole (level, k) column
            radii = []
            for k in range(k_max + 1 if include_alpha else 0):
                radius, refusal = _flatness_ball(deco, level, k)
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
                                  eps=eps)
                        row += [mu.branch, f"{mu.flat.c:.17g}",
                                f"{mu.gap_2q:.17g}", f"{mu.anchor_gap:.17g}",
                                str(mu.flagged)]
                    except (TruncationError, ResolutionError):
                        row += ["", "", "", "", ""]
                w.writerow(row)
                rows += 1
    return rows
