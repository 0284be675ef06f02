"""Cutoffs and shell sets, Carleson norms with bias accounting, cone
maxima, and the two-sided embedding consistency check."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from urlab import carleson, geometry
from urlab.carleson import (
    ConeFamily,
    carleson_norm,
    cutoff_gradient_check,
    cutoff_phi,
    e_sets_indicator,
    embedding_check,
    ntmax,
    ntmax_family,
    shell_oracle,
    write_carleson,
)
from urlab.exceptions import (
    DomainError,
    InputError,
    NumericError,
    ParameterError,
    ResolutionError,
)
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


def _indicator(sigma, ball, eps, which):
    def f(pts):
        return e_sets_indicator(sigma, ball, eps, pts)[which].astype(float)
    return f


# -- cutoff and shell sets ---------------------------------------------------


def test_cutoff_plateau_and_support(line3d):
    c0 = _origin_point(line3d)
    ball = Ball(c0, 0.25)
    eps = 0.01
    # plateau, below eps/2, and far along the support (tiny boundary
    # distance, large ball gap)
    probes = c0 + np.array([[0.1, 2 * eps, 0.0], [0.0, eps / 4.0, 0.0],
                            [0.6, 0.01, 0.0]])
    assert cutoff_phi(line3d, ball, eps, probes).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ParameterError):
        cutoff_phi(line3d, ball, eps, probes[0])

    rng = np.random.default_rng(11)
    pts = c0 + rng.uniform(-0.7, 0.7, size=(4000, 3))
    phi = cutoff_phi(line3d, ball, eps, pts)
    assert np.all((phi >= 0.0) & (phi <= 1.0))
    dist_g = line3d.dist_to_support(pts)
    dist_b = np.maximum(np.linalg.norm(pts - ball.center, axis=1)
                        - ball.radius, 0.0)
    plateau = (dist_b == 0.0) & (dist_g >= eps)
    assert np.all(phi[plateau] == 1.0)
    outside = ((dist_b > 20.0 * dist_g) | (dist_b >= ball.radius)
               | (dist_g <= eps / 2.0))
    assert np.all(phi[outside] == 0.0)


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda s, b, p: cutoff_phi(s, b, _NAN, p), "eps"),
    (lambda s, b, p: cutoff_gradient_check(s, b, 0.01, p, step=_NAN), "step"),
    (lambda s, b, p: shell_oracle(1, 3, 0.25, _NAN, 0.1), "inner radius"),
    (lambda s, b, p: carleson_norm(_ones, s, [b], _NAN), "grid step"),
    (lambda s, b, p: embedding_check(_ones, _ones, s, b, _NAN), "grid step"),
], ids=["cutoff-eps", "gradient-step", "shell-s0", "norm-h", "embedding-h"])
def test_nan_is_refused_like_a_nonpositive_value(line3d, call, message):
    """NaN fails every comparison, so each positivity guard is written as
    ``not x > 0``; at ``x <= 0`` NaN passed it."""
    c0 = _origin_point(line3d)
    probes = c0 + np.array([[0.1, 0.02, 0.0]])
    with pytest.raises(ParameterError, match=message):
        call(line3d, Ball(c0, 0.25), probes)


def test_cutoff_gradient_bound(line3d):
    c0 = _origin_point(line3d)
    ball = Ball(c0, 0.25)
    rng = np.random.default_rng(3)
    pts = c0 + rng.uniform(-0.6, 0.6, size=(300, 3))
    res = cutoff_gradient_check(line3d, ball, 0.01, pts)
    assert bool(res["ok"].all())
    assert float(res["grad_norm"].max()) > 0.0


def test_e_set_memberships(line3d):
    c0 = _origin_point(line3d)
    ball = Ball(c0, 0.25)
    # third shell membership at three quarters of eps (second overlaps here)
    sets = e_sets_indicator(line3d, ball, 0.01,
                            c0 + np.array([[0.0, 0.0075, 0.0]]))
    assert [s.tolist() for s in sets] == [[False], [True], [True]]
    # at eps = 0.002: the interior plateau (inside the ball, above eps,
    # below r/40), the first shell (ball gap between 10 and 20 boundary
    # distances) and a point beyond the 2-dilate, where everything is off
    y = 0.01
    x = math.sqrt(0.4 ** 2 - y ** 2)
    probes = c0 + np.array([[0.05, 0.003, 0.0], [x, y, 0.0],
                            [2 * ball.radius + 0.05, 0.001, 0.0]])
    e1, e2, e3 = e_sets_indicator(line3d, ball, 0.002, probes)
    assert e1.tolist() == [False, True, False]
    assert not e2[[0, 2]].any() and not e3[[0, 2]].any()
    assert cutoff_phi(line3d, ball, 0.002, probes)[0] == 1.0
    res = cutoff_gradient_check(line3d, ball, 0.002, probes[:1])
    assert float(res["grad_norm"][0]) <= 1e-12
    with pytest.raises(ParameterError):
        e_sets_indicator(line3d, ball, 0.002, probes[0])


# The cutoff trio as written before the cutoff's geometry moved into one
# support query per point set: each function queried the support itself.
# Kept as the oracle of the shared implementation.


def _oracle_cutoff_phi(sigma, ball, eps, pts):
    dist_g = np.atleast_1d(sigma.dist_to_support(pts))
    dist_b = carleson._ball_gap(pts, ball)
    on_support = dist_g <= 0.0
    safe = np.where(on_support, 1.0, dist_g)
    out = (carleson._psi(dist_b / (10.0 * safe))
           * carleson._psi(2.0 * dist_b / ball.radius)
           * carleson._psi(eps / safe))
    out[on_support] = 0.0
    return out


def _oracle_e_sets(sigma, ball, eps, pts):
    dist_g = np.atleast_1d(sigma.dist_to_support(pts))
    dist_b = carleson._ball_gap(pts, ball)
    r = ball.radius
    in_2b = np.linalg.norm(pts - ball.center, axis=1) <= 2.0 * r
    e1 = in_2b & (10.0 * dist_g <= dist_b) & (dist_b <= 20.0 * dist_g)
    e2 = in_2b & (r / 40.0 <= dist_g) & (dist_g <= 2.0 * r)
    e3 = in_2b & (eps / 2.0 <= dist_g) & (dist_g <= eps)
    return e1, e2, e3


def _oracle_gradient_check(sigma, ball, eps, pts):
    n = sigma.ambient_dim
    step = 1e-3 * min(eps, ball.radius)
    grad = np.zeros_like(pts)
    active = np.zeros(pts.shape[0], dtype=bool)
    min_dist = np.atleast_1d(sigma.dist_to_support(pts))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        hi, lo = pts + e, pts - e
        grad[:, j] = (_oracle_cutoff_phi(sigma, ball, eps, hi)
                      - _oracle_cutoff_phi(sigma, ball, eps, lo)) / (2 * step)
        for stencil in (hi, lo):
            s1, s2, s3 = _oracle_e_sets(sigma, ball, eps, stencil)
            active |= s1 | s2 | s3
            min_dist = np.minimum(
                min_dist, np.atleast_1d(sigma.dist_to_support(stencil)))
    s1, s2, s3 = _oracle_e_sets(sigma, ball, eps, pts)
    active |= s1 | s2 | s3
    grad_norm = np.linalg.norm(grad, axis=1)
    with np.errstate(divide="ignore"):
        bound = np.where(active, 100.0 / np.maximum(min_dist - step, 1e-300),
                         0.0)
    return {"grad_norm": grad_norm, "bound": bound,
            "ok": grad_norm <= bound + 1e-9, "active": active, "step": step}


def _cutoff_batch(sigma, ball, eps):
    """Points on the support, on and around the 2B sphere, in each E-set,
    and a random cloud around the ball."""
    c0, r = ball.center, ball.radius
    rng = np.random.default_rng(5)
    y = np.array([0.0, 1.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    edge = [c0 + (2.0 * r + t) * u for t in (-1e-12, 0.0, 1e-12, 0.003)
            for u in (x, y, (x + y) / math.sqrt(2.0))]
    e1 = [c0 + math.sqrt((r + 15.0 * g) ** 2 - g ** 2) * x + g * y
          for g in (0.004, 0.006)]
    e2 = [c0 + 0.1 * y, c0 + 0.05 * x + 0.2 * y]
    e3 = [c0 + 0.0075 * y, c0 + 0.1 * x + 0.006 * y]
    return np.vstack([sigma.points[::10], *edge, *e1, *e2, *e3,
                      c0 + rng.uniform(-0.6, 0.6, size=(400, 3))])


def test_cutoff_trio_equals_the_oracle(line3d):
    ball = Ball(_origin_point(line3d), 0.25)
    eps = 0.01
    pts = _cutoff_batch(line3d, ball, eps)
    sets = e_sets_indicator(line3d, ball, eps, pts)
    want = _oracle_e_sets(line3d, ball, eps, pts)
    for got_set, want_set in zip(sets, want):
        assert want_set.any() and not want_set.all()
        assert np.array_equal(got_set, want_set)
    phi = cutoff_phi(line3d, ball, eps, pts)
    assert np.any(line3d.dist_to_support(pts) == 0.0)
    assert np.array_equal(phi, _oracle_cutoff_phi(line3d, ball, eps, pts))
    got = cutoff_gradient_check(line3d, ball, eps, pts)
    want = _oracle_gradient_check(line3d, ball, eps, pts)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_cutoff_gradient_check_queries_the_support_once_per_stencil_set(
        line3d, monkeypatch):
    """2n+1 support queries in R^n: the centre set and the two shifted
    sets per axis (7 in R^3, where the separate trio made 20)."""
    ball = Ball(_origin_point(line3d), 0.25)
    pts = _cutoff_batch(line3d, ball, 0.01)
    calls = []
    query = type(line3d).dist_to_support

    def counted(self, x):
        calls.append(np.shape(x))
        return query(self, x)

    monkeypatch.setattr(type(line3d), "dist_to_support", counted)
    res = cutoff_gradient_check(line3d, ball, 0.01, pts)
    assert len(calls) == 2 * 3 + 1
    assert all(shape == pts.shape for shape in calls)
    assert bool(res["ok"].all())


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
    eps = 0.02
    f3 = _indicator(graph2d, ball2, eps, 2)
    f23 = lambda p: (e_sets_indicator(graph2d, ball2, eps, p)[1]
                     | e_sets_indicator(graph2d, ball2, eps, p)[2]
                     ).astype(float)
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
    est = carleson_norm(_ones, line3d, [ball], h, squared=True, refine=True)
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
    f2 = _indicator(graph2d, ball2, 0.01, 1)
    h = ball2.radius / 64.0
    est = carleson_norm(f2, graph2d, [ball2], h, squared=True, refine=True)
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
        raise ValueError("no field here")

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
    surface, not turn into a count of skipped cells."""
    def buggy(pts):
        return pts.no_such_attribute

    h = ball2.radius / 32.0
    with pytest.raises(AttributeError):
        carleson_norm(buggy, graph2d, [ball2], h, refine=False)
    with pytest.raises(AttributeError):
        embedding_check(buggy, _ones, graph2d, ball2, h, cm1=1.0)
    with pytest.raises(AttributeError):
        embedding_check(_ones, buggy, graph2d, ball2, h, cm1=1.0)


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
    """Values and flags equal the per-vertex loop's on the embedding
    check's cone field (every atom a vertex, dists given); with a small
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


# -- embedding check ----------------------------------------------------------


def test_embedding_battery_bounded_and_stable(graph2d):
    c0 = _origin_point(graph2d)
    geom = Ball(c0, 0.2)
    domain = Ball(c0, 0.45)
    eps = 0.02
    fields = {name: _indicator(graph2d, geom, eps, j)
              for j, name in enumerate(("first", "second", "third"))}
    profiles = {
        "const": _ones,
        "dist": lambda p: graph2d.dist_to_support(p) / geom.radius,
    }
    fam = geometry.support_ball_family(graph2d, 8, np.random.default_rng(0))
    h_fam = min(b.radius for b in fam) / 32.0
    cm1 = {name: carleson_norm(f, graph2d, fam, h_fam, squared=False,
                               refine=False).supremum
           for name, f in fields.items()}
    ratios = {}
    for h in (0.003125, 0.003125 / 2.0, 0.003125 / 4.0):
        for fname, f in fields.items():
            for uname, u in profiles.items():
                res = embedding_check(f, u, graph2d, domain, h,
                                      cm1=cm1[fname])
                ratios.setdefault((fname, uname), []).append(res.ratio)
    for series in ratios.values():
        assert max(series) <= 1.0            # one constant for the battery
        assert max(series) <= 2.0 * min(series)
    for fname in fields:
        const_r, dist_r = ratios[(fname, "const")], ratios[(fname, "dist")]
        assert all(d <= 1.1 * c for c, d in zip(const_r, dist_r))


def test_embedding_trivial_and_error_paths(graph2d, ball2):
    f2 = _indicator(graph2d, ball2, 0.01, 1)
    h = 0.003125
    zero = embedding_check(f2, lambda p: np.zeros(p.shape[0]), graph2d,
                           ball2, h, cm1=1.0)
    assert zero.lhs == 0.0 and math.isnan(zero.ratio)
    with pytest.raises(NumericError):
        embedding_check(f2, _ones, graph2d, ball2, h, cm1=0.0)
    with pytest.raises(InputError):
        embedding_check(lambda p: -np.ones(p.shape[0]), _ones, graph2d,
                        ball2, h, cm1=1.0)


def test_embedding_counts_a_cell_failing_both_fields_once(graph2d, ball2):
    def nan(pts):
        return np.full(pts.shape[0], np.nan)

    res = embedding_check(nan, nan, graph2d, ball2, ball2.radius / 32.0,
                          cm1=1.0)
    assert res.n_cells > 0
    assert res.skipped == res.n_cells


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
