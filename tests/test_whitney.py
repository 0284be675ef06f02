"""Dyadic decomposition, per-cube flatness, attached flats, and square sums.

Expected values were either derived by brute force inside the test (the
retention inequalities, containment counts) or measured once on the frozen
seeded constructions and asserted with stated headroom.
"""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from urlab import whitney
from urlab.exceptions import (
    InputError,
    ParameterError,
    ResolutionError,
    StateError,
    TruncationError,
)
from urlab.geometry import Ball, DiscreteMeasure, make_cantor_set, \
    make_lipschitz_graph, make_plane_set, sawtooth_profile
from urlab.wasserstein import flat_sample, local_wasserstein
from urlab.whitney import (
    _EPS_DEFAULT,
    WhitneyCube,
    _a_x_cube,
    a_x,
    alpha_qk,
    decompose,
    dump_cubes,
    mu_q,
    ur_square_sum,
)

CANTOR_BOX = (np.array([0.47, 0.47, 0.0]), 2.5)


@pytest.fixture(scope="module")
def small_line():
    """50-point line: small enough for exhaustive brute-force checks."""
    return make_plane_set(3, 1, 0.25, 0.01)


@pytest.fixture(scope="module")
def deco_small(small_line):
    return decompose(small_line, max_depth=6)


@pytest.fixture(scope="module")
def deco_line(line3d):
    return decompose(line3d, max_depth=8, lam=2.0)


@pytest.fixture(scope="module")
def deco_line3(line3d):
    """`deco_line` with flatness balls of dilation 3."""
    return decompose(line3d, max_depth=8, lam=3.0)


@pytest.fixture(scope="module")
def deco_graph(graph02):
    return decompose(graph02, max_depth=8, lam=2.0)


def _cube_at(deco, x):
    """The retained cube holding the point x, or None: a scan of every
    level's centres, the single-point oracle for `_locate` and `a_x`."""
    held = [(k, int(i)) for k, lev in deco.levels.items()
            for i in np.flatnonzero(np.all(np.abs(lev.centers() - x)
                                           < 0.5 * lev.side, axis=1))]
    assert len(held) <= 1
    return WhitneyCube(deco, *held[0]) if held else None


def _interior_cube(deco, level, frac=0.5, bound=0.3):
    lev = deco.levels[level]
    idx = np.where(np.abs(lev.centers()[:, 0]) < bound)[0]
    return WhitneyCube(deco, level, int(idx[int(frac * (len(idx) - 1))]))


# -- construction invariants ------------------------------------------------


def test_retention_both_halves_exact(deco_small, small_line):
    # brute-force sup-norm distance from every cube center to every point
    pts = small_line.points
    for k, lev in deco_small.levels.items():
        gaps = np.abs(lev.centers()[:, None, :] - pts[None, :, :]).max(axis=2)
        d_inf = gaps.min(axis=1)
        assert np.all(d_inf > 10.0 * lev.side)                # 20Q clear
        assert np.all(d_inf <= 30.0 * lev.side * (1 + 1e-12))  # 60Q touches


def test_retained_cubes_are_maximal(deco_small):
    # the parent of every retained cube must itself have been subdivided,
    # i.e. the parent cell is never present at the coarser level
    from urlab.whitney import _pack
    for k, lev in deco_small.levels.items():
        if k - 1 not in deco_small.levels:
            continue
        rel = (lev.centers() - deco_small.box_lo) / lev.side - 0.5
        corners = np.rint(rel).astype(np.int64)
        parent_keys = _pack(corners // 2, 3)
        coarse = deco_small.levels[k - 1].packed
        pos = np.searchsorted(coarse, parent_keys)
        pos = np.minimum(pos, len(coarse) - 1)
        assert not np.any(coarse[pos] == parent_keys)


def test_partition_unique_containment(deco_small, rng):
    # jittered cube centers stay inside their cube and inside no other
    picks = rng.integers(0, len(deco_small), size=150)
    for i in picks:
        cube = deco_small[int(i)]
        x = cube.center + rng.uniform(-0.49, 0.49, 3) * cube.side
        got = _cube_at(deco_small, x)
        assert (got.level, got.index) == (cube.level, cube.index)
        level, index = deco_small._locate(x[None, :])
        assert (level[0], index[0]) == (cube.level, cube.index)


def test_points_on_support_lie_in_no_cube(deco_small, small_line):
    pts = small_line.points[::5]
    assert all(_cube_at(deco_small, p) is None for p in pts)
    level, index = deco_small._locate(pts)
    assert (level == -1).all() and (index == -1).all()


def test_sandwich_band_over_the_plane(deco_line):
    # cubes over the core of the segment: side/height stays inside the
    # band forced by the 10/30-clearance sandwich
    lo, hi = 1.0 / (40.0 * math.sqrt(3)), math.sqrt(3)
    for k, lev in deco_line.levels.items():
        core = np.abs(lev.centers()[:, 0]) <= 0.5
        if not np.any(core):
            continue
        h = np.linalg.norm(lev.centers()[core, 1:], axis=1)  # height over axis
        ratio = lev.side / h
        assert ratio.min() >= lo and ratio.max() <= hi


def neighbor_count_max(deco, *, max_level_gap=2):
    """Largest number of cubes whose 2-dilates meet a given cube's 2-dilate.

    The count includes the cube itself.  Touching dilates force comparable
    sides: were the side ratio 4 or more, the smaller cube's parent already
    violated retention within reach of the larger cube's center, beating
    the larger cube's own clearance — so level gaps above 1 are impossible
    and the default scan window of 2 is already conservative.  Pass
    max_level_gap=None to scan every pair regardless.
    """
    keys = list(deco.levels)
    trees = {k: cKDTree(deco.levels[k].centers()) for k in keys}
    counts = {k: np.zeros(len(deco.levels[k].packed), dtype=np.int64)
              for k in keys}
    for a in keys:
        for b in keys:
            if max_level_gap is not None and abs(b - a) > max_level_gap:
                continue
            lev_b = deco.levels[b]
            counts[b] += trees[a].query_ball_point(
                lev_b.centers(), deco.levels[a].side + lev_b.side, p=np.inf,
                return_length=True)
    return int(max(arr.max() for arr in counts.values()))


def test_neighbor_count_invariant_across_depths():
    # the max contact count is a property of the ring geometry alone; it
    # stays fixed under depth increases while every retained side remains
    # well above the atomic spacing of the support
    sigma = make_plane_set(3, 1, 1.0, 0.002)
    counts = [neighbor_count_max(decompose(sigma, max_depth=d))
              for d in (6, 8)]
    assert counts[0] == counts[1]


def test_neighbor_scan_window_is_exhaustive(deco_small):
    # touching 2-dilates force comparable sides; the widened scan finds
    # nothing the default window missed
    assert (neighbor_count_max(deco_small, max_level_gap=None)
            == neighbor_count_max(deco_small))


def test_decompose_guards(small_line):
    with pytest.raises(ParameterError):
        decompose(small_line, box=(np.array([5.0, 0, 0]), 1.0))  # support out
    with pytest.raises(ParameterError):
        decompose(small_line, max_depth=22)          # corner key overflow
    with pytest.raises(ParameterError):
        decompose(small_line, max_depth=0)
    with pytest.raises(ParameterError):
        decompose(small_line, focus=(np.zeros(3), -1.0))
    # the box and the focus are parsed as assemble parses its box: a wrong
    # dimension, a non-finite value and a zero side are refused as such
    for box, error in [(((0.0, 0.0), 5.0), InputError),
                       (((np.nan, 0.0, 0.0), 5.0), InputError),
                       (5.0, InputError),
                       ((np.zeros(3), 0.0), ParameterError),
                       ((np.zeros(3), np.nan), ParameterError)]:
        with pytest.raises(error, match="box (center|side|must be a)"):
            decompose(small_line, box=box, max_depth=4)
    for focus, error in [(((0.0, 0.0), 0.5), InputError),
                         ((np.zeros(3), np.nan), ParameterError)]:
        with pytest.raises(error, match="focus"):
            decompose(small_line, focus=focus, max_depth=4)


@pytest.mark.parametrize("call", [
    lambda deco: a_x(deco, np.array([[0.0, 0.05, 0.0]]), float("nan"), 2.0),
    lambda deco: a_x(deco, np.array([[0.0, 0.05, 0.0]]), 1.0, float("nan")),
    lambda deco: ur_square_sum(deco, np.zeros(3), float("nan")),
], ids=["a_x-alpha", "a_x-beta", "ur_sum-r"])
def test_nan_is_refused_like_a_nonpositive_value(deco_small, call):
    """A NaN exponent or radius fails ``not x > 0``; ``x <= 0`` passed it."""
    with pytest.raises(ParameterError, match="must be positive"):
        call(deco_small)


def test_undecided_cells_are_counted(deco_small):
    assert deco_small.undecided > 0


def _oracle_decompose(sigma, lo, side, max_depth, focus):
    """decompose's level loop with a sup-norm query over every centre:
    (levels as (side, packed, centers, anchor_idx), undecided, pruned)."""
    from urlab.whitney import _child_offsets, _dilate_gap2, _pack
    pts, n = sigma.points, sigma.ambient_dim
    offsets = _child_offsets(n)
    levels, undecided, pruned = {}, 0, 0
    current = np.zeros((1, n), dtype=np.int64)
    for k in range(max_depth + 1):
        side_k = side / 2.0 ** k
        centers = lo + (current + 0.5) * side_k
        d_inf, i_inf = sigma.tree.query(centers, p=np.inf)
        keep = d_inf > 10.0 * side_k
        kept = current[keep]
        if kept.shape[0]:
            key = _pack(kept, n)
            order = np.argsort(key)
            kept, key = kept[order], key[order]
            ctr = lo + (kept + 0.5) * side_k
            _, aidx = sigma.tree.query(ctr)
            bad = np.max(np.abs(pts[aidx] - ctr), axis=1) > 30.0 * side_k
            aidx[bad] = i_inf[keep][order][bad]
            levels[k] = (side_k, key, ctr, aidx.astype(np.int32))
        viol = current[~keep]
        if k == max_depth:
            undecided = viol.shape[0]
            break
        if focus is not None and viol.shape[0]:
            live = (_dilate_gap2(lo + (viol + 0.5) * side_k, side_k, 1.0,
                                 np.asarray(focus[0], dtype=np.float64))
                    <= (focus[1] + side_k) ** 2)
            pruned += int(np.count_nonzero(~live))
            viol = viol[live]
        if viol.shape[0] == 0:
            break
        current = (viol[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, n)
    return levels, undecided, pruned


def _random_atoms():
    """40 uniform atoms in a cube: sparse enough that some cube's
    Euclidean-nearest atom leaves its 60-dilate."""
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(40, 3))
    return DiscreteMeasure(3, 1, pts, np.full(40, 0.01), 0.01, "random")


_ORACLE_SETS = {
    "line": lambda: make_plane_set(3, 1, 1.0, 0.01),
    "sawtooth": lambda: make_lipschitz_graph(3, 1, sawtooth_profile(0.5, 0.5),
                                             0.5, 1.0, 0.01),
    "cantor": lambda: make_cantor_set(5),
    "plane4d": lambda: make_plane_set(4, 2, 0.5, 0.03125),
    "random": _random_atoms,
}


_ORACLE_CASES = [
    ("line", None, 7, None),
    ("line", None, 9, ((0.1, 0.0, 0.0), 0.15)),
    ("sawtooth", None, 7, None),
    ("sawtooth", None, 9, ((0.0, 0.0, 0.0), 0.1)),
    ("cantor", CANTOR_BOX, 7, None),
    ("cantor", CANTOR_BOX, 10, ((0.0, 0.0, 0.0), 0.13)),
    ("plane4d", None, 7, ((0.0, 0.0, 0.0, 0.0), 0.2)),
    ("random", (np.zeros(3), 4.0), 9, ((0.0, 0.0, 0.0), 0.2)),
]


@pytest.mark.parametrize("name, box, depth, focus", _ORACLE_CASES)
def test_decompose_equals_the_sup_norm_oracle(name, box, depth, focus):
    # the Euclidean classification is exact: every level field, the
    # undecided count and the pruned count equal the all-sup-norm loop's
    sigma = _ORACLE_SETS[name]()
    deco = decompose(sigma, box, depth, focus=focus)
    levels, undecided, pruned = _oracle_decompose(
        sigma, deco.box_lo, deco.box_side, depth, focus)
    assert len(deco) > 0
    assert list(deco.levels) == list(levels)
    fallback = 0
    for k, (side, packed, centers, anchor_idx) in levels.items():
        lev = deco.levels[k]
        assert lev.side == side
        for got, want in ((lev.packed, packed), (lev.centers(), centers),
                          (lev.anchor_idx, anchor_idx)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        fallback += int(np.count_nonzero(
            sigma.tree.query(centers)[1] != anchor_idx))
    assert (deco.undecided, deco.pruned) == (undecided, pruned)
    assert (focus is None) == (pruned == 0)
    # the random atoms reach the sup-norm anchor fallback (9 cubes)
    assert (fallback > 0) == (name == "random")


@pytest.mark.parametrize("case, chunk", [
    pytest.param(i, chunk, id=f"{_ORACLE_CASES[i][0]}-{chunk}")
    for i, chunk in ((1, 7), (3, 7), (5, 100), (6, 24), (7, 100))])
def test_chunked_decompose_equals_the_sup_norm_oracle(monkeypatch, case,
                                                      chunk):
    # a few cubes per chunk, never a whole number of parents (2^n children
    # each), so chunk edges cut through one parent's children and through
    # every level past the first; the focused cases keep tiny chunks fast
    monkeypatch.setattr(whitney, "_CHUNK", chunk)
    test_decompose_equals_the_sup_norm_oracle(*_ORACLE_CASES[case])


class _QuerySpy:
    """A kd-tree stand-in counting the points of each norm's queries."""

    def __init__(self, tree):
        self.tree = tree
        self.points = {2: 0, np.inf: 0}

    def query(self, x, *args, p=2, **kwargs):
        self.points[p] += len(x)
        return self.tree.query(x, *args, p=p, **kwargs)


def test_atoms_decide_queries_without_changing_the_cubes(monkeypatch):
    # the oracle queries every candidate cube once in the sup norm; a
    # child that its parent's atom puts within 10 sides takes no query,
    # and a band cube that its own nearest atom puts there takes no
    # sup-norm query.  Measured: 2400 Euclidean and 1888 sup-norm points
    # for 16009 candidates, where querying each candidate in the Euclidean
    # norm and each band cube in the sup norm made 16009 and 3592
    sigma = _ORACLE_SETS["sawtooth"]()
    focus = ((0.0, 0.0, 0.0), 0.1)
    spy = _QuerySpy(sigma.tree)
    monkeypatch.setattr(sigma, "tree", spy)
    deco = decompose(sigma, None, 9, focus=focus)
    euclid, sup = spy.points[2], spy.points[np.inf]
    spy.points = {2: 0, np.inf: 0}
    _oracle_decompose(sigma, deco.box_lo, deco.box_side, 9, focus)
    candidates = spy.points[np.inf]
    assert euclid + sup <= 0.5 * candidates


def test_decompose_peak_stays_near_its_output():
    # the ursum_sawtooth graph and focus, in traced bytes per cube: the
    # output is 12 (a key and an anchor), and one chunk and one level's
    # sort beside it bring the peak to 36.2
    sigma = make_lipschitz_graph(3, 1, sawtooth_profile(0.2, 0.5), 0.2, 1.0,
                                 0.00125)
    sigma.tree                  # built before tracing starts
    tracemalloc.start()
    try:
        deco = decompose(sigma, None, 11, focus=(np.zeros(3), 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(deco) == 145312
    assert peak <= 40 * len(deco)


# -- per-cube flatness -------------------------------------------------------


def test_alpha_plane_discretization_bound(deco_line, line3d):
    for level in (7, 8):
        cube = _interior_cube(deco_line, level)
        radius = 2.0 * cube.diameter
        a = alpha_qk(deco_line, cube, 0)
        assert a.value <= 5.0 * line3d.spacing / radius
        # sharper expected scale: grid pitch of the data and of the flat sample
        assert a.value <= 1.5 * (line3d.spacing / radius + 1.0 / 12.0)


def test_alpha_uniform_mass_bound(deco_line, deco_graph):
    from urlab.whitney import _alpha_upper_bound
    for deco in (deco_line, deco_graph):
        cube = _interior_cube(deco, 8)
        for k in (0, 1):
            a = alpha_qk(deco, cube, k)
            cap = _alpha_upper_bound(deco.sigma, cube.anchor,
                                     2.0 * 2.0 ** k * cube.diameter)
            assert a.value <= cap * (1 + 1e-9)


def test_alpha_cache_collapses_shared_anchors(line3d):
    deco = decompose(line3d, max_depth=8, lam=1.9)
    lev = deco.levels[8]
    owners = {}
    for i, a in enumerate(lev.anchor_idx):
        owners.setdefault(int(a), []).append(i)
    twins = next(v for v in owners.values() if len(v) >= 2)
    before = len(deco.alpha_cache)
    r1 = alpha_qk(deco, WhitneyCube(deco, 8, twins[0]), 0)
    r2 = alpha_qk(deco, WhitneyCube(deco, 8, twins[1]), 0)
    assert len(deco.alpha_cache) == before + 1
    assert r1 is r2


def test_alpha_window_errors_and_flag(deco_line, line3d):
    cube = _interior_cube(deco_line, 8)
    half = decompose(line3d, max_depth=8, lam=0.5)
    with pytest.raises(TruncationError):
        alpha_qk(deco_line, cube, 2)    # ball outgrows the data
    with pytest.raises(ResolutionError):
        alpha_qk(half, _interior_cube(half, 8), 0)  # ball under-resolves
    with pytest.raises(ParameterError):
        alpha_qk(deco_line, cube, -1)


def test_alpha_floor_on_cantor_dust():
    sigma = make_cantor_set(6)
    deco = decompose(sigma, box=CANTOR_BOX, max_depth=12,
                     focus=(np.zeros(3), 0.05), lam=1.0)
    lo_ell, hi_ell = 4.0 ** -5, 4.0 ** -2
    sampled = 0
    for level, lev in deco.levels.items():
        ell = math.sqrt(3) * lev.side
        if not lo_ell <= ell <= hi_ell:
            continue
        n = len(lev.packed)
        for idx in (0, n // 2, n - 1):
            a = alpha_qk(deco, WhitneyCube(deco, level, idx), 0)
            assert a.value >= 0.05
            sampled += 1
    assert sampled >= 9


# -- attached flat measures ---------------------------------------------------


def test_mu_plane_recovers_true_plane(deco_line, line3d):
    cube = _interior_cube(deco_line, 8)
    m = mu_q(deco_line, cube)
    assert m.branch == "optimal"
    assert all(m.checks.values()) and not m.flagged
    assert m.anchor_gap <= line3d.spacing
    assert m.gap_2q >= 5.0 * cube.side - line3d.spacing
    assert m.atilde <= m.alpha_q + 1e-9


def test_mu_separating_branch(deco_line, line3d):
    cube = _interior_cube(deco_line, 8, frac=0.25)
    m = mu_q(deco_line, cube, eps=1e-9)
    assert m.branch == "separating"
    assert m.flat.c == 1.0
    assert m.anchor_gap == 0.0          # plane passes through the anchor
    assert m.checks["separation"] and m.checks["density_band"]
    assert m.gap_2q >= 5.0 * cube.side - line3d.spacing


def test_mu_graph_sweep_calibration(deco_graph):
    # the default threshold must hold across scales and positions: every
    # attached flat passes all post-checks, with one shared distance ratio
    ratios = []
    for level in (7, 8):
        n = len(deco_graph.levels[level].packed)
        for frac in (0.15, 0.5, 0.85):
            cube = WhitneyCube(deco_graph, level, int(frac * n))
            m = mu_q(deco_graph, cube)
            assert all(m.checks.values()), (level, frac, m.checks)
            ratios.append(m.atilde / max(m.alpha_q, 1e-12))
    assert max(ratios) <= 2.0           # measured 1.0 on this sweep


def test_separating_flat_is_priced_once_per_mu_q_call(monkeypatch):
    # nothing memoizes the separating plane: each mu_q call on the cube runs
    # its one LP (the anchor ball's alpha is already memoized), and the
    # plane and its transport distance do not depend on eps
    from urlab import wasserstein
    sigma = make_lipschitz_graph(3, 1, sawtooth_profile(0.5, 0.5), 0.5, 1.0,
                                 0.02)
    deco = decompose(sigma, max_depth=8, lam=3.0)
    cube = next(c for c in (WhitneyCube(deco, 7, i)
                            for i in range(0, len(deco.levels[7].packed), 7))
                if alpha_qk(deco, c, 0).value > 0.15)
    seen = []
    solve = wasserstein.linprog

    def spy(c, **kwargs):
        seen.append(len(c))
        return solve(c, **kwargs)

    monkeypatch.setattr(wasserstein, "linprog", spy)
    first = mu_q(deco, cube, eps=0.15)
    assert len(seen) == 1
    second = mu_q(deco, cube, eps=0.1)
    assert len(seen) == 2
    assert first.branch == second.branch == "separating"
    assert second.atilde == first.atilde


def test_separating_flat_is_priced_against_alphas_support():
    """atilde is the exact distance from the plane's flat sample, at
    alpha's resolution, to the ball's atoms reduced as alpha reduces them:
    one multinomial draw from default_rng(alpha_seed) down to cap minus
    the flat budget.  Here the ball holds 80 atoms and the draw keeps 17
    of them at cap 40; atilde reads 0.729 (0.768 when the separating
    plane was priced on its own proportional resampling)."""
    sigma = make_lipschitz_graph(3, 1, sawtooth_profile(0.5, 0.5), 0.5, 1.0,
                                 0.005)
    deco = decompose(sigma, max_depth=8, lam=3.0, alpha_cap=40)
    cube = WhitneyCube(deco, 7, len(deco.levels[7].packed) // 3)
    m = mu_q(deco, cube, eps=1e-9)
    assert m.branch == "separating"
    ball = Ball(cube.anchor, deco.lam * cube.diameter)
    pts, w = sigma.restrict_to_ball(ball)
    # d = 1: the flat budget is min(cap // 2, 2 * resolution)
    target = deco.alpha_cap - min(deco.alpha_cap // 2,
                                  2 * deco.alpha_resolution)
    counts = np.random.default_rng(deco.alpha_seed).multinomial(
        target, w / w.sum())
    keep = counts > 0
    assert (len(pts), keep.sum()) == (80, 17)
    support = DiscreteMeasure(3, 1, pts[keep],
                              counts[keep] * (w.sum() / target),
                              sigma.spacing)
    want = local_wasserstein(
        flat_sample(m.flat, ball, deco.alpha_resolution), support, ball)
    assert m.atilde == want


# -- the multiscale sum at a point -------------------------------------------


def test_a_x_plane_value_tail_and_flags(deco_line, line3d):
    cube = _interior_cube(deco_line, 8, frac=0.6)
    out = a_x(deco_line, cube.center[None, :], 1.0, 1.0, k_max=4)
    assert (out.level[0], out.index[0]) == (8, cube.index)
    assert out.value[0] <= 10.0 * line3d.spacing / cube.diameter
    assert out.value[0] > 0.0
    assert out.skipped == ((2, 3, 4),)  # those balls outgrow the data window
    assert out.tail[0] > 0.0
    repeat = a_x(deco_line, cube.center[None, :], 1.0, 1.0, k_max=4)
    assert repeat.value == out.value


def test_a_x_fallback_flag_and_domain(deco_line):
    """A point that no retained cube holds reads NaN value and tail with
    level -1, below every retained cube and outside the box alike; a 1-D
    point and a non-positive exponent are refused."""
    pts = np.array([[0.0, 0.07, 0.0], [40.0, 0.0, 0.0]])
    out = a_x(deco_line, pts, 1.0, 1.0, k_max=2)
    assert np.isnan(out.value).all() and np.isnan(out.tail).all()
    assert out.level.tolist() == [-1, -1] and out.index.tolist() == [-1, -1]
    assert out.skipped == ((), ())
    with pytest.raises(ParameterError):
        a_x(deco_line, pts[0], 1.0, 1.0)
    with pytest.raises(ParameterError):
        a_x(deco_line, np.zeros((1, 3)), 0.0, 1.0)


def test_a_x_batch_matches_one_point_at_a_time(deco_line, line3d):
    """The batch agrees, tail and skipped scales included, with the
    per-cube sum at the cube that the scan oracle finds and with a batch
    of one per point, and is NaN on support points (no cube) and outside
    the box."""
    rng = np.random.default_rng(7)
    cubes = [deco_line[int(i)]
             for i in rng.choice(len(deco_line), 20, replace=False)]
    sides = np.array([[c.side] for c in cubes])
    inner = (np.array([c.center for c in cubes])
             + rng.uniform(-0.45, 0.45, size=(20, 3)) * sides)
    outside = deco_line.box_lo - 1.0
    pts = np.vstack([inner, line3d.points[::40], outside])
    batch = a_x(deco_line, pts, 1.0, 1.0, k_max=2)
    got = batch.value
    assert got.shape == batch.tail.shape == (pts.shape[0],)
    assert len(batch.skipped) == pts.shape[0]
    for i, x in enumerate(pts[:-1]):
        cube = _cube_at(deco_line, x)
        if i < len(cubes):
            assert (cube.level, cube.index) == (cubes[i].level,
                                                cubes[i].index)
        if cube is None:
            assert np.isnan(got[i]) and batch.level[i] == -1
        else:
            assert (batch.level[i], batch.index[i]) == (cube.level,
                                                        cube.index)
            # the per-cube body at the cube that the oracle finds
            assert (got[i], batch.tail[i], batch.skipped[i]) == _a_x_cube(
                deco_line, cube, 1.0, k_max=2, eps=_EPS_DEFAULT)
        one = a_x(deco_line, x[None, :], 1.0, 1.0, k_max=2)
        assert np.array_equal(one.value, got[i:i + 1], equal_nan=True)
        assert np.array_equal(one.tail, batch.tail[i:i + 1],
                              equal_nan=True)
        assert one.skipped == batch.skipped[i:i + 1]
    assert np.isnan(got[len(cubes):-1]).all()     # support: in no cube
    assert np.isfinite(got[:len(cubes)]).all()
    assert np.isfinite(batch.tail[:len(cubes)]).all()
    assert np.isnan(got[-1]) and _cube_at(deco_line, outside) is None


# -- square sums ---------------------------------------------------------------


def test_ur_sum_plane_refinement_trend(deco_line, line3d_fine):
    # flat support: halving the spacing at fixed radius cuts the sum well
    # below half (measured 3.17 -> 1.09); the classical all-scale limit is
    # unreachable here because the window floor pins the deepest ball size
    deco_fine = decompose(line3d_fine, max_depth=8, lam=2.0)
    coarse = ur_square_sum(deco_line, np.zeros(3), 0.25, k=0)
    fine = ur_square_sum(deco_fine, np.zeros(3), 0.25, k=0)
    assert coarse.n_excluded == 0 and fine.n_excluded == 0
    assert fine.value <= 0.5 * coarse.value
    assert coarse.value < 5.0


def test_ur_sum_focus_invariance_and_guard(line3d, deco_line, deco_line3):
    focused = decompose(line3d, max_depth=8, focus=(np.zeros(3), 0.3),
                        lam=2.0)
    full = ur_square_sum(deco_line, np.zeros(3), 0.25, k=0)
    part = ur_square_sum(focused, np.zeros(3), 0.25, k=0)
    assert part.value == pytest.approx(full.value, rel=1e-12)
    with pytest.raises(ParameterError):
        ur_square_sum(focused, np.zeros(3), 0.35, k=0)
    # the focus that `urlab ur-sum` always uses, (x, r), prunes no cube
    # the sum selects: every result field equals the unfocused one exactly
    x, r = line3d.points[120], 0.25
    cli_focus = decompose(line3d, max_depth=8, focus=(x, r), lam=3.0)
    assert cli_focus.pruned > 0
    for k in (0, 1):
        want = ur_square_sum(deco_line3, x, r, k=k)
        got = ur_square_sum(cli_focus, x, r, k=k)
        assert want.n_cubes > 0
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_ur_sum_in_tiny_chunks_equals_the_whole_level_scan(monkeypatch,
                                                          deco_line3, line3d):
    x, r = line3d.points[120], 0.25
    monkeypatch.setattr(whitney, "_CHUNK", 2 ** 40)
    want = [ur_square_sum(deco_line3, x, r, k=k) for k in (0, 3)]
    monkeypatch.setattr(whitney, "_CHUNK", 7)
    got = [ur_square_sum(deco_line3, x, r, k=k) for k in (0, 3)]
    assert want[0].n_cubes > 0 and want[1].n_excluded > 0
    assert [dataclasses.asdict(g) for g in got] == [
        dataclasses.asdict(w) for w in want]


def _ur_sum_oracle(deco, x, r, k):
    """ur_square_sum cube by cube: (value, n_cubes, n_excluded,
    n_anchors) over every cube whose 2-dilate meets B(x, r), each priced
    by alpha_qk; the cubes are selected a whole level at a time."""
    d = deco.sigma.intrinsic_dim
    total, n_cubes, n_excluded, anchors = 0.0, 0, 0, set()
    for level, lev in deco.levels.items():
        gap = np.clip(np.abs(lev.centers() - x) - lev.side, 0.0, None)
        for i in np.flatnonzero(np.linalg.norm(gap, axis=1) <= r):
            cube = WhitneyCube(deco, level, int(i))
            try:
                alpha = alpha_qk(deco, cube, k).value
            except (TruncationError, ResolutionError):
                n_excluded += 1
                continue
            total += alpha ** 2 * cube.diameter ** d
            n_cubes += 1
            anchors.add((level, cube.anchor_index))
    return total / r ** d, n_cubes, n_excluded, len(anchors)


@pytest.mark.parametrize("k", [0, 3])
def test_ur_sum_equals_the_per_cube_oracle(deco_line3, line3d, k):
    # k = 3 pushes every selected level's flatness balls past the window
    x, r = line3d.points[120], 0.25
    got = ur_square_sum(deco_line3, x, r, k=k)
    value, n_cubes, n_excluded, n_anchors = _ur_sum_oracle(deco_line3, x,
                                                           r, k)
    assert (n_cubes > 0, n_excluded > 0) == ((True, False) if k == 0
                                             else (False, True))
    assert got.value == pytest.approx(value, rel=1e-12)
    assert (got.n_cubes, got.n_excluded, got.n_anchors) == (
        n_cubes, n_excluded, n_anchors)


@pytest.mark.parametrize("focused", [False, True])
@pytest.mark.parametrize("x", [[float("nan"), 0.0, 0.0], [0.0, 0.0]])
def test_ur_sum_refuses_a_query_point_outside_r3(line3d, deco_line3,
                                                 focused, x):
    deco = deco_line3
    if focused:
        deco = decompose(line3d, max_depth=6, focus=(np.zeros(3), 0.3),
                         lam=3.0)
    with pytest.raises(InputError, match="query point"):
        ur_square_sum(deco, x, 0.2)


def test_ur_sum_k_growth_is_linearly_stable():
    # coarse scales leave the window as k grows; the sum wobbles but stays
    # within a band rather than growing faster than linearly in k
    sigma = make_lipschitz_graph(3, 1, sawtooth_profile(0.2, 0.5), 0.2, 1.0,
                                 0.00125)
    x = sigma.points[int(np.argmin(np.linalg.norm(sigma.points, axis=1)))]
    deco = decompose(sigma, max_depth=12, focus=(x, 0.45), lam=3.0)
    vals = [ur_square_sum(deco, x, 0.2, k=k).value
            for k in (0, 1, 2)]
    assert all(v > 0 for v in vals)
    assert max(vals) <= 2.0 * min(vals)
    slope = float(np.polyfit([0, 1, 2], vals, 1)[0])
    assert abs(slope) <= 2.0 * vals[0]


def test_ur_sum_grows_on_cantor_refinement():
    # two extra generation levels open more in-window scales with the same
    # per-scale flatness floor, so the normalized sum must climb
    vals = {}
    for m, depth in ((3, 10), (5, 12)):
        sigma = make_cantor_set(m)
        deco = decompose(sigma, box=CANTOR_BOX, max_depth=depth,
                         focus=(np.zeros(3), 0.13), lam=4.0)
        out = ur_square_sum(deco, np.zeros(3), 0.1, k=0)
        vals[m] = out
    assert vals[3].n_excluded > 0       # below-floor levels stay visible
    assert vals[5].value >= 1.5 * vals[3].value


def test_ur_sum_parameter_guards(deco_small):
    with pytest.raises(ParameterError):
        ur_square_sum(deco_small, np.zeros(3), -0.1)
    with pytest.raises(StateError):
        ur_square_sum("nope", np.zeros(3), 0.1)


def test_ur_sum_of_an_empty_focused_decomposition_is_zero(small_line):
    # the focus proves no selectable cube was dropped, so an empty focused
    # decomposition sums to 0; an empty unfocused one is still refused
    focused = decompose(small_line, max_depth=4, focus=(np.zeros(3), 0.1),
                        lam=2.0)
    assert len(focused) == 0 and focused.pruned > 0
    got = ur_square_sum(focused, np.zeros(3), 0.1)
    assert dataclasses.astuple(got) == (0.0, 0, 0, 0)
    with pytest.raises(StateError):
        ur_square_sum(decompose(small_line, max_depth=4), np.zeros(3), 0.1)
    with pytest.raises(StateError):
        alpha_qk(focused, WhitneyCube(focused, 4, 0))


# -- dumps ---------------------------------------------------------------------


def test_dump_cubes_layout(tmp_path, deco_small):
    path = tmp_path / "cubes.csv"
    rows = dump_cubes(deco_small, path, k_max=1, include_alpha=True)
    lines = path.read_text().strip().splitlines()
    assert rows == len(deco_small)
    assert len(lines) == rows + 1
    head = lines[0].split(",")
    assert head[:4] == ["level", "corner0", "corner1", "corner2"]
    assert "alpha_k0" in head and "alpha_k1" in head
    # the 25-point set has an empty resolution window: alpha cells stay blank
    first = lines[1].split(",")
    assert first[head.index("alpha_k0")] == ""
    # corner indices reproduce the cube center
    cube = deco_small[0]
    vals = np.array([float(first[1]), float(first[2]), float(first[3])])
    side = cube.side
    rebuilt = deco_small.box_lo + (vals + 0.5) * side
    assert np.allclose(rebuilt, cube.center, atol=1e-12)


def test_dump_cubes_stride(tmp_path, deco_small):
    path = tmp_path / "cubes.csv"
    rows = dump_cubes(deco_small, path, stride=7)
    assert rows == math.ceil(len(deco_small) / 7)


@pytest.mark.parametrize("stride", [0, -4])
def test_dump_cubes_refuses_stride_below_one(tmp_path, deco_small, stride):
    path = tmp_path / "cubes.csv"
    with pytest.raises(ParameterError):
        dump_cubes(deco_small, path, stride=stride)
    assert not path.exists()


def _dump_cubes_oracle(deco, path, *, k_max=0, eps=0.3,
                       include_alpha=False, include_mu=False, stride=1):
    """The replaced per-cube writer, kept as a reference; its flatness
    balls take ``deco.lam``."""
    n = deco.sigma.ambient_dim
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
        for idx in range(0, len(deco), max(1, stride)):
            cube = deco[idx]
            row = ([cube.level] + [int(c) for c in cube.corner]
                   + [f"{cube.diameter:.17g}"]
                   + [f"{v:.17g}" for v in cube.anchor])
            if include_alpha:
                for k in range(k_max + 1):
                    try:
                        alpha = alpha_qk(deco, cube, k).value
                        row.append(f"{alpha:.17g}")
                    except (TruncationError, ResolutionError):
                        row.append("")
            if include_mu:
                try:
                    mu = mu_q(deco, cube, eps=eps)
                    row += [mu.branch, f"{mu.flat.c:.17g}",
                            f"{mu.gap_2q:.17g}", f"{mu.anchor_gap:.17g}",
                            str(mu.flagged)]
                except (TruncationError, ResolutionError):
                    row += ["", "", "", "", ""]
            w.writerow(row)
            rows += 1
    return rows


@pytest.mark.parametrize("kw", [dict(k_max=1, include_alpha=True),
                                dict(stride=7), dict(include_mu=True)])
def test_dump_cubes_matches_per_cube_writer(tmp_path, deco_small, kw):
    got, want = tmp_path / "levels.csv", tmp_path / "cubes.csv"
    rows = dump_cubes(deco_small, got, **kw)
    assert rows == _dump_cubes_oracle(deco_small, want, **kw)
    assert got.read_bytes() == want.read_bytes()
    # the decomposition still iterates, through __getitem__
    assert sum(1 for _ in deco_small) == len(deco_small)


def test_negative_scale_index_is_refused(tmp_path, deco_small):
    """k = -1 is not a scale of the ladder: every entry point refuses it
    instead of pricing a smaller ball, dropping the k = 0 term or writing
    no flatness columns."""
    x = np.zeros(3)
    cube = deco_small[0]
    calls = [
        lambda: alpha_qk(deco_small, cube, -1),
        lambda: ur_square_sum(deco_small, x, 0.1, -1),
        lambda: a_x(deco_small, cube.center[None, :], 1.0, 1.0, k_max=-1),
        lambda: dump_cubes(deco_small, tmp_path / "cubes.csv", k_max=-1,
                           include_alpha=True),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    assert not (tmp_path / "cubes.csv").exists()
