"""Carleson norms with bias accounting and their slab sweep, the radial
shell oracle, and cone maxima."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from urlab import carleson, distances, geometry
from urlab.carleson import (
    ConeFamily,
    carleson_norm,
    ntmax,
    ntmax_family,
    shell_oracle,
    write_carleson,
)
from urlab.exceptions import DomainError, ParameterError, ResolutionError
from urlab.geometry import Ball, make_lipschitz_graph, sawtooth_profile


@pytest.fixture(scope="module")
def graph2d():
    return make_lipschitz_graph(2, 1, sawtooth_profile(0.2, 0.5), 0.2, 1.0,
                                0.005)


def _origin_point(sigma):
    return sigma.points[np.argmin(np.linalg.norm(sigma.points, axis=1))]


@pytest.fixture(scope="module")
def ball2(graph2d):
    return Ball(_origin_point(graph2d), 0.2)


def _ones(pts):
    return np.ones(pts.shape[0])


def _shell(sigma, *bands):
    """Indicator of the union of the shells s0 <= dist(X, support) <= s1
    over the (s0, s1) bands."""
    def f(pts):
        dist = sigma.dist_to_support(pts)
        return np.logical_or.reduce(
            [(s0 <= dist) & (dist <= s1) for s0, s1 in bands]).astype(float)
    return f


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda s, b: shell_oracle(1, 3, 0.25, _NAN, 0.1), "inner radius"),
    (lambda s, b: carleson_norm(_ones, s, [b], _NAN), "grid step"),
], ids=["shell-s0", "norm-h"])
def test_nan_is_refused_like_a_nonpositive_value(line3d, call, message):
    """NaN fails every comparison, so each positivity guard is written as
    ``not x > 0``; at ``x <= 0`` NaN passed it."""
    with pytest.raises(ParameterError, match=message):
        call(line3d, Ball(_origin_point(line3d), 0.25))


# -- Carleson norms -----------------------------------------------------------


def test_carleson_zero_and_parameter_guards(line3d):
    c0 = _origin_point(line3d)
    ball = Ball(c0, 0.25)
    est = carleson_norm(lambda p: np.zeros(p.shape[0]), line3d, [ball],
                        ball.radius / 32.0)
    assert est.supremum == 0.0
    assert np.all(est.bias == 0.0)
    assert est.refinement == (0.0, 0.0)
    assert est.refinement_ratio() is None
    with pytest.raises(ParameterError):
        carleson_norm(_ones, line3d, [ball], ball.radius / 16.0)
    with pytest.raises(ParameterError):
        carleson_norm(_ones, line3d, [], ball.radius / 32.0)
    with pytest.raises(ParameterError):
        carleson_norm(_ones, line3d, [ball], -1.0)
    lost = Ball(c0 + np.array([0.0, 3.0, 0.0]), 0.25)
    with pytest.raises(DomainError):
        carleson_norm(_ones, line3d, [lost], lost.radius / 32.0,
                      refine=False)


def test_carleson_norm_is_monotone(graph2d, ball2):
    eps, r = 0.02, ball2.radius
    f3 = _shell(graph2d, (eps / 2.0, eps))
    f23 = _shell(graph2d, (r / 40.0, 2.0 * r), (eps / 2.0, eps))
    other = Ball(graph2d.points[40], 0.1)
    balls = [ball2, other]
    h = other.radius / 32.0
    lo = carleson_norm(f3, graph2d, balls, h, refine=False)
    hi = carleson_norm(f23, graph2d, balls, h, refine=False)
    assert np.all(lo.values <= hi.values + 1e-15)
    assert lo.supremum <= hi.supremum + 1e-15


def test_plane_weight_divergence_matches_radial_oracle(line3d):
    ball = Ball(_origin_point(line3d), 0.25)
    h = ball.radius / 32.0
    est = carleson_norm(_ones, line3d, [ball], h, refine=True)
    v_h, v_half = est.refinement
    increment = v_half - v_h
    assert increment >= 0.5 * math.log(2.0)
    mass = line3d.mass_in_ball(ball.center, ball.radius)
    oracle = shell_oracle(1, 3, ball.radius, h, 2.0 * h) / mass
    assert abs(increment / oracle - 1.0) <= 0.15
    assert est.supremum == est.values[0] == v_h
    assert est.bias[0] > 1.0          # the unresolved shell is genuinely big
    assert est.skipped[0] == 0


def test_second_shell_norm_stable_under_refinement(graph2d, ball2):
    f2 = _shell(graph2d, (ball2.radius / 40.0, 2.0 * ball2.radius))
    h = ball2.radius / 64.0
    est = carleson_norm(f2, graph2d, [ball2], h, refine=True)
    ratio = est.refinement_ratio()
    assert 1.0 / 1.2 <= ratio <= 1.2
    assert est.skipped[0] == 0
    assert np.isfinite(est.bias[0])


def test_skipped_cell_accounting(graph2d, ball2):
    hole = Ball(ball2.center + np.array([0.0, 0.05]), 0.02)

    def leaky(pts):
        out = np.ones(pts.shape[0])
        bad = np.linalg.norm(pts - hole.center, axis=1) <= hole.radius
        out[bad] = np.nan
        return out

    est = carleson_norm(leaky, graph2d, [ball2], ball2.radius / 32.0,
                        refine=False)
    assert est.skipped[0] > 0
    assert np.isfinite(est.values[0]) and est.values[0] > 0.0

    def broken(pts):
        raise DomainError("no field here")

    est2 = carleson_norm(broken, graph2d, [ball2], ball2.radius / 32.0,
                         refine=False)
    assert est2.values[0] == 0.0
    assert est2.n_cells[0] == 0
    assert est2.skipped[0] > 0


def test_refusing_evaluator_costs_only_its_cells(graph2d, ball2):
    """An evaluator that refuses some cells (as the distance kernel does
    near the support) loses exactly those cells, the same as one that
    returns NaN there: the cell-by-cell retry must accept array output.
    The retry halves the refused batches, so a hole of about a hundred
    cells costs a few hundred calls, not one per cell of its slice."""
    hole = Ball(ball2.center + np.array([0.0, 0.05]), 0.02)
    calls = []

    def in_hole(pts):
        return np.linalg.norm(pts - hole.center, axis=1) <= hole.radius

    def nan_in_hole(pts):
        return np.where(in_hole(pts), np.nan, 1.0)

    def refuses_hole(pts):
        calls.append(pts.shape[0])
        if in_hole(pts).any():
            raise ResolutionError("probe in the hole")
        return np.ones(pts.shape[0])

    h = ball2.radius / 32.0
    want = carleson_norm(nan_in_hole, graph2d, [ball2], h, refine=False)
    got = carleson_norm(refuses_hole, graph2d, [ball2], h, refine=False)
    assert want.skipped[0] > 0
    assert got.skipped[0] == want.skipped[0]
    assert got.values[0] == want.values[0]
    assert len(calls) < 300


def test_bias_is_unknown_when_no_shell_cell_evaluates(graph2d, ball2):
    """A near-support shell whose cells all failed gives no supremum to
    scale the shell oracle by: the ball's bias is NaN, not 0, and the
    summary maximum covers only the balls whose bias is known."""
    other = Ball(graph2d.points[40], 0.1)
    h = other.radius / 32.0

    def refuses_shell(pts):
        in_ball2 = np.linalg.norm(pts - ball2.center, axis=1) <= ball2.radius
        if (in_ball2 & (graph2d.dist_to_support(pts) <= 4.0 * h)).any():
            raise ResolutionError("probe in the near-support shell")
        return np.ones(pts.shape[0])

    est = carleson_norm(refuses_shell, graph2d, [ball2], h, refine=False)
    assert est.skipped[0] > 0 and est.values[0] > 0.0
    assert np.isnan(est.bias[0])
    assert est.max_bias() is None
    both = carleson_norm(refuses_shell, graph2d, [ball2, other], h,
                         refine=False)
    assert np.isnan(both.bias[0])
    assert both.skipped[1] == 0 and both.bias[1] > 0.0
    assert both.max_bias() == both.bias[1]


def test_evaluator_bugs_propagate_instead_of_skipping_cells(graph2d, ball2):
    """A programming error in an evaluator is not a cell failure: it must
    surface, not turn into a count of skipped cells.  Only a ``LabError``
    costs cells; a numpy shape error and a division by zero are bugs."""
    def buggy(pts):
        return pts.no_such_attribute

    def misshaped(pts):
        return np.ones(pts.shape[0]).reshape(-1, 2) @ np.ones((3, 1))

    def divides_by_zero(pts):
        far = int(np.count_nonzero(pts[:, 0] > 10.0))   # none in the ball
        return np.ones(pts.shape[0]) * (1.0 / far)

    h = ball2.radius / 32.0
    for field, error in [(buggy, AttributeError), (misshaped, ValueError),
                         (divides_by_zero, ZeroDivisionError)]:
        with pytest.raises(error):
            carleson_norm(field, graph2d, [ball2], h, refine=False)


# -- the slab sweep -------------------------------------------------------------


def _gradient_norm(sigma):
    return lambda pts: np.linalg.norm(
        distances.distance_gradient(sigma, pts, 2.0), axis=1)


def test_refined_pass_reports_its_skipped_cells_and_bias(graph2d, ball2):
    """The h/2 pass keeps cells down to h, below the 2h where the h pass
    stops: its skipped cells and whether its bias is known reach the
    estimate and the summary instead of hiding behind the refinement
    pair."""
    h = ball2.radius / 32.0

    def fails_below_2h(pts):
        return np.where(graph2d.dist_to_support(pts) >= 2.0 * h, 1.0, np.nan)

    est = carleson_norm(fails_below_2h, graph2d, [ball2], h)
    assert est.skipped[0] == 0 and np.isfinite(est.bias[0])
    assert est.refinement_skipped > 0 and est.refinement_bias_known is False
    summary = est.summary()
    assert summary["refinement_skipped_cells"] == est.refinement_skipped
    assert summary["refinement_bias_known"] is False
    # the kernel refuses probes below 2 spacings = 0.01, inside the h/2
    # pass's cells; its shell cells in [0.01, 4 (h/2)] keep the bias known
    grad = carleson_norm(_gradient_norm(graph2d), graph2d, [ball2], h)
    assert grad.skipped[0] == 0
    assert grad.refinement_skipped > 0 and grad.refinement_bias_known
    clean = carleson_norm(_ones, graph2d, [ball2], h)
    assert clean.refinement_skipped == 0 and clean.refinement_bias_known
    off = carleson_norm(_ones, graph2d, [ball2], h, refine=False).summary()
    assert off["refinement_skipped_cells"] is None
    assert off["refinement_bias_known"] is None


def test_carleson_norm_keeps_its_bits_at_any_worker_count(graph2d, ball2,
                                                          monkeypatch):
    """Slabs of 5 planes make 13 slabs of the 64-plane grid, run as 1, 2
    and 3 tasks (the last split 4/4/5), and 64 two-plane slabs at h/2;
    each slab's kernel chunks start at its first cell, so every number
    keeps its bits."""
    h = ball2.radius / 32.0
    other = Ball(graph2d.points[40], 0.25)
    monkeypatch.setattr(carleson, "_CHUNK", 5 * 64 + 3)
    assert carleson._grid_slabs(graph2d, ball2, h)[0] == 13
    runs = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as mp:
            mp.setattr(distances, "_WORKERS", workers)
            runs.append(carleson_norm(_gradient_norm(graph2d), graph2d,
                                      [ball2, other], h))
    assert runs[0].refinement_skipped > 0
    for est in runs[1:]:
        for name in ("values", "bias", "skipped", "n_cells"):
            assert getattr(est, name).tobytes() == \
                getattr(runs[0], name).tobytes(), name
        assert est.refinement == runs[0].refinement
        assert est.refinement_skipped == runs[0].refinement_skipped
        assert est.refinement_bias_known == runs[0].refinement_bias_known


def test_slab_size_moves_only_the_rounding(graph2d, ball2, monkeypatch):
    """One plane a slab against one slab a ball: the same cells, and the
    sums within 1e-12 relative (kernel chunks and partial sums fall
    elsewhere)."""
    h = ball2.radius / 32.0
    balls = [ball2, Ball(graph2d.points[40], 0.25)]
    runs = []
    for chunk, slabs in ((1, 64), (1 << 30, 1)):
        monkeypatch.setattr(carleson, "_CHUNK", chunk)
        assert carleson._grid_slabs(graph2d, ball2, h)[0] == slabs
        runs.append(carleson_norm(_gradient_norm(graph2d), graph2d, balls, h,
                                  refine=False))
    tiny, whole = runs
    assert np.array_equal(tiny.n_cells, whole.n_cells)
    assert np.array_equal(tiny.skipped, whole.skipped)
    assert np.all(tiny.bias > 0)
    np.testing.assert_allclose(tiny.values, whole.values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tiny.bias, whole.bias, rtol=1e-12, atol=0)


def test_ball_peak_is_a_few_slabs_not_its_grid(graph02, monkeypatch):
    """Traced peak of one 137 k-cell ball in 8 slabs, gradient field.

    Measured: 2.8 MiB at 1 worker and 9.5 MiB at 4 or 8 (at most four
    slabs in flight); the whole-ball batch this sweep replaced read
    21.0 MiB at any worker count.
    """
    ball = Ball(_origin_point(graph02), 0.64)
    h = ball.radius / 32.0
    peaks = {}
    for workers in (1, 8):
        with monkeypatch.context() as mp:
            mp.setattr(distances, "_WORKERS", workers)
            tracemalloc.start()
            try:
                est = carleson_norm(_gradient_norm(graph02), graph02, [ball],
                                    h, refine=False)
                peaks[workers] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
        assert est.n_cells[0] > 130_000 and est.skipped[0] == 0
    assert peaks[1] <= 4.0 and peaks[8] <= 12.0, peaks


def _shell_integral_oracle(d, r, s0, s1):
    """The replaced quadrature of (r^2 - t^2)^{d/2} / t over [s0, s1],
    kept as a reference; t = e^s removes the 1/t, and the tolerance is
    2e-14 relative."""
    val, _ = quad(lambda s: (r * r - math.exp(2.0 * s)) ** (d / 2.0),
                  math.log(s0), math.log(s1), epsabs=0.0, epsrel=2e-14,
                  limit=200)
    return val


def test_shell_oracle_matches_the_quadrature_oracle():
    """The antiderivative against the quadrature for d = 0..4, n up to 6,
    four radii and five shells, the outer edge clipped to r."""
    for d, r in itertools.product(range(5), (0.05, 0.25, 0.64, 1.0)):
        for s0, s1 in ((0.0025, 0.1), (1e-4, 2e-4), (0.01, 0.02),
                       (0.05, 1.0), (0.2, 0.3)):
            if s0 >= r:
                continue
            want = _shell_integral_oracle(d, r, s0, min(s1, r))
            for n in range(d + 1, 7):
                front = geometry._sphere_area(n - d) * geometry._ball_volume(d)
                assert shell_oracle(d, n, r, s0, s1) == pytest.approx(
                    front * want, rel=1e-12), (d, n, r, s0, s1)


def test_shell_oracle_closed_form_and_guards():
    r, a, b = 0.25, 0.05, 0.1

    def anti(t):                      # antiderivative of sqrt(r^2-t^2)/t
        u = math.sqrt(r * r - t * t)
        return u - r * math.atanh(u / r)

    expect = 4.0 * math.pi * (anti(b) - anti(a))
    assert shell_oracle(1, 3, r, a, b) == pytest.approx(expect, rel=1e-10)
    # thin shells far below r approach the flat log profile
    approx = shell_oracle(1, 3, 1.0, 1e-4, 2e-4)
    assert approx == pytest.approx(4.0 * math.pi * math.log(2.0), rel=2e-2)
    assert shell_oracle(1, 3, r, 0.2, 0.1) == 0.0
    with pytest.raises(ParameterError):
        shell_oracle(1, 3, r, 0.0, 0.1)
    with pytest.raises(ParameterError):
        shell_oracle(3, 3, r, 0.05, 0.1)


# -- cone maxima --------------------------------------------------------------


def _cone_field(sigma, ball, h):
    m = int(math.ceil(2.0 * ball.radius / h))
    axis = (np.arange(m) + 0.5 - 0.5 * m) * h
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1) + ball.center
    dist = sigma.dist_to_support(pts)
    keep = (np.linalg.norm(pts - ball.center, axis=1) <= ball.radius) \
        & (dist >= 2.0 * h)
    return pts[keep], dist[keep]


def test_ntmax_constant_ramp_and_homogeneity(graph2d, ball2):
    pts, dist = _cone_field(graph2d, ball2, ball2.radius / 32.0)
    x = ball2.center
    const = ntmax((pts, np.full(pts.shape[0], 3.7)), graph2d, x)
    assert const.value == 3.7 and not const.flagged
    ramp = pts[:, 0] - x[0]
    got = ntmax((pts, ramp), graph2d, x)
    member = np.linalg.norm(pts - x, axis=1) <= 2.0 * dist
    assert got.value == np.max(np.abs(ramp[member]))
    doubled = ntmax((pts, 2.0 * ramp), graph2d, x)
    assert doubled.value == pytest.approx(2.0 * got.value, rel=1e-15)


def test_ntmax_truncation_and_cone_geometry(graph2d, ball2):
    pts, dist = _cone_field(graph2d, ball2, ball2.radius / 32.0)
    x = ball2.center
    grows = [ntmax((pts, dist), graph2d, x, ball=Ball(x, r)).value
             for r in (0.05, 0.1, 0.2)]
    assert grows == sorted(grows)
    # cone points satisfy |X-x| <= 2 dist, so dist values stay below 2r
    capped = ntmax((pts, dist), graph2d, x, ball=ball2)
    assert capped.value <= 2.0 * ball2.radius
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empty = ntmax((pts, dist), graph2d, x,
                      ball=Ball(x + np.array([5.0, 0.0]), 0.01))
    assert empty.flagged and empty.value == 0.0 and empty.n_cells == 0
    assert len(caught) == 1
    with pytest.raises(DomainError):
        ntmax((pts, dist), graph2d, x + np.array([0.0, 0.5]))


def test_ntmax_family_matches_scalar_calls(graph2d, ball2):
    pts, dist = _cone_field(graph2d, ball2, ball2.radius / 32.0)
    vals = np.sin(7.0 * pts[:, 0]) + 0.3 * pts[:, 1]
    verts = graph2d.points[::40]
    cones = ConeFamily(verts, 2.0, ball2)
    family, empty = ntmax_family((pts, vals), graph2d, cones, dists=dist)
    for i, v in enumerate(verts):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = ntmax((pts, vals), graph2d, v, ball=ball2, dists=dist)
        assert family[i] == one.value
        assert empty[i] == one.flagged
    with pytest.raises(ParameterError):
        ConeFamily(verts, aperture=1.0)


def _ntmax_family_oracle(u, sigma, cones, dists=None):
    """The replaced per-vertex loop, kept as a reference: per block of
    2^15 points, each vertex's squared distances are built axis by axis
    and the block maximum is taken over its members."""
    block = 1 << 15
    pts, vals = u
    pts = np.asarray(pts, dtype=np.float64)
    vals = np.ravel(np.asarray(vals, dtype=np.float64))
    best = np.full(len(cones), -np.inf)
    block_max = np.empty(len(cones))
    for lo in range(0, pts.shape[0], block):
        b_pts = pts[lo:lo + block]
        b_dists = sigma.dist_to_support(b_pts) if dists is None \
            else np.asarray(dists)[lo:lo + block]
        reach2 = (cones.aperture * b_dists) ** 2
        absvals = np.abs(vals[lo:lo + block])
        if cones.ball is not None:
            inside = (np.linalg.norm(b_pts - cones.ball.center, axis=1)
                      <= cones.ball.radius)
            absvals = np.where(inside, absvals, -np.inf)
        cols = np.ascontiguousarray(b_pts.T)
        for i, vx in enumerate(cones.vertices):
            d2 = (cols[0] - vx[0]) ** 2
            for k in range(1, cols.shape[0]):
                d2 += (cols[k] - vx[k]) ** 2
            block_max[i] = np.max(absvals, where=d2 <= reach2,
                                  initial=-np.inf)
        np.maximum(best, block_max, out=best)
    empty = ~np.isfinite(best)
    return np.where(empty, 0.0, best), empty


@pytest.mark.parametrize("budget", [None, 7 * 400 + 3])
def test_ntmax_family_matches_per_vertex_loop(graph2d, budget, monkeypatch):
    """Values and flags equal the per-vertex loop's on a cone field over
    a large ball (every atom a vertex, dists given); with a small
    pair budget the 400 vertices get 7-point blocks that do not divide
    the field."""
    domain = Ball(_origin_point(graph2d), 0.45)
    pts, dist = _cone_field(graph2d, domain, 0.003125)
    vals = np.sin(7.0 * pts[:, 0]) + 0.3 * pts[:, 1]
    cones = ConeFamily(graph2d.points, 2.0, domain)
    assert len(cones) == 400 and pts.shape[0] % 7
    if budget is not None:
        monkeypatch.setattr(carleson, "_NT_BUDGET", budget)
    got = ntmax_family((pts, vals), graph2d, cones, dists=dist)
    want = _ntmax_family_oracle((pts, vals), graph2d, cones, dists=dist)
    assert want[1].any() and not want[1].all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_write_carleson_outputs(tmp_path, graph2d, ball2):
    est = carleson_norm(_ones, graph2d, [ball2], ball2.radius / 32.0,
                        refine=True)
    csv_path = tmp_path / "balls.csv"
    json_path = tmp_path / "summary.json"
    write_carleson(est, str(csv_path), str(json_path))
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[0].startswith("ball,center0")
    cells = rows[1].split(",")
    assert float(cells[-4]) == est.values[0]
    import json
    summary = json.loads(json_path.read_text())
    assert summary["supremum"] == est.supremum
    assert len(summary["refinement"]) == 2
    assert summary["refinement_ratio"] == est.refinement_ratio()
    assert summary["max_bias"] == est.max_bias() == est.bias[0]
    assert summary == est.summary()
