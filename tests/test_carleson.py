"""Cutoffs and shell sets, Carleson norms with bias accounting, cone
maxima, and the two-sided embedding consistency check."""

import math
import warnings

import numpy as np
import pytest

from urlab.carleson import (
    ConeFamily,
    carleson_norm,
    cm1_ball_family,
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
    return make_lipschitz_graph(2, 1, sawtooth_profile(0.2), 0.2, 1.0, 0.005)


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
    assert cutoff_phi(line3d, ball, eps,
                      c0 + np.array([0.1, 2 * eps, 0.0])) == 1.0
    assert cutoff_phi(line3d, ball, eps,
                      c0 + np.array([0.0, eps / 4.0, 0.0])) == 0.0
    # far along the support: tiny boundary distance, large ball gap
    assert cutoff_phi(line3d, ball, eps,
                      c0 + np.array([0.6, 0.01, 0.0])) == 0.0

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
    e1, e2, e3 = e_sets_indicator(line3d, ball, 0.01,
                                  c0 + np.array([0.0, 0.0075, 0.0]))
    assert (e1, e2, e3) == (False, True, True)
    # interior plateau: inside the ball, above eps, below r/40
    probe = c0 + np.array([0.05, 0.003, 0.0])
    assert e_sets_indicator(line3d, ball, 0.002, probe) == (False, False,
                                                            False)
    assert cutoff_phi(line3d, ball, 0.002, probe) == 1.0
    res = cutoff_gradient_check(line3d, ball, 0.002, probe[None, :])
    assert float(res["grad_norm"][0]) <= 1e-12
    # first shell: ball gap between 10 and 20 boundary distances
    y = 0.01
    x = math.sqrt(0.4 ** 2 - y ** 2)
    e1, _, _ = e_sets_indicator(line3d, ball, 0.002,
                                c0 + np.array([x, y, 0.0]))
    assert e1
    # beyond the 2-dilate everything is off
    far = c0 + np.array([2 * ball.radius + 0.05, 0.001, 0.0])
    assert e_sets_indicator(line3d, ball, 0.002, far) == (False, False,
                                                          False)


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
    fam = cm1_ball_family(graph2d, count=8, seed=0)
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
    assert zero.lhs == 0.0 and zero.ratio == 0.0
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
