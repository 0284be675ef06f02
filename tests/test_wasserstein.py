"""Transport LP, flat sampling, alpha numbers, closed-form envelopes."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from urlab import wasserstein
from urlab.exceptions import DegenerateInputError, InputError
from urlab.geometry import Ball, DiscreteMeasure, make_cantor_set
from urlab.wasserstein import (
    FlatMeasure,
    alpha_number,
    flat_pair_envelope,
    flat_sample,
    local_wasserstein,
    scale_monotonicity,
)
from urlab.wasserstein import _transport_lp


def _atoms(points, weights):
    points = np.atleast_2d(np.asarray(points, float))
    return DiscreteMeasure(points.shape[1], 1, points,
                           np.asarray(weights, float), 1e-3, "atoms")


def _line_flat(n=3, c=1.0, offset=None, direction=0):
    basis = np.zeros((1, n))
    basis[0, direction] = 1.0
    return FlatMeasure(np.zeros(n) if offset is None else offset, basis, c)


# -- two-point oracle ---------------------------------------------------------

def test_two_point_analytic_optimum():
    # oracle: w * min(|p-q|, (r-|p-x|) + (r-|q-x|)), normalized by r^{d+1}
    rng = np.random.default_rng(11)
    for _ in range(12):
        r = float(rng.uniform(0.5, 2.0))
        center = rng.normal(size=3)
        p = center + rng.uniform(-0.5, 0.5, size=3) * r
        q = center + rng.uniform(-0.5, 0.5, size=3) * r
        w = float(rng.uniform(0.2, 3.0))
        mu = _atoms([p], [w])
        nu = _atoms([q], [w])
        got = local_wasserstein(mu, nu, Ball(center, r))
        slack = (r - np.linalg.norm(p - center)) + (r - np.linalg.norm(q - center))
        want = w * min(np.linalg.norm(p - q), slack) / r ** 2
        assert got == pytest.approx(want, abs=1e-6, rel=1e-6)


# -- all-pairs dual LP oracle -------------------------------------------------

def _dual_lp_oracle(pts_a, w_a, pts_b, w_b, center, radius):
    """Dual form on the same atoms: m potentials, m(m-1) Lipschitz rows."""
    pts = np.concatenate([pts_a, pts_b])
    coeff = np.concatenate([w_a, -w_b])
    inside = np.linalg.norm(pts - center, axis=1) < radius
    pts, inv = np.unique(pts[inside], axis=0, return_inverse=True)
    merged = np.zeros(pts.shape[0])
    np.add.at(merged, inv, coeff[inside])
    m = pts.shape[0]
    bound = radius - np.linalg.norm(pts - center, axis=1)
    iu, ju = np.triu_indices(m, k=1)
    a_ub = b_ub = None
    if iu.size:
        lip = np.linalg.norm(pts[iu] - pts[ju], axis=1)
        rows = np.arange(iu.size)
        a_ub = sp.coo_matrix(
            (np.concatenate([np.ones(iu.size), -np.ones(iu.size),
                             -np.ones(iu.size), np.ones(iu.size)]),
             (np.concatenate([rows, rows, rows + iu.size, rows + iu.size]),
              np.concatenate([iu, ju, iu, ju]))),
            shape=(2 * iu.size, m)).tocsr()
        b_ub = np.concatenate([lip, lip])
    res = linprog(-merged, A_ub=a_ub, b_ub=b_ub,
                  bounds=np.column_stack([-bound, bound]), method="highs")
    assert res.status == 0
    return max(0.0, float(-res.fun))


def _lp_columns(monkeypatch):
    """Record the column count of every LP the transport core solves."""
    seen = []

    def spy(c, **kwargs):
        seen.append(len(c))
        return linprog(c, **kwargs)

    monkeypatch.setattr(wasserstein, "linprog", spy)
    return seen


@pytest.mark.parametrize("coincide", [False, True])
def test_transport_lp_matches_dual_oracle(coincide):
    rng = np.random.default_rng(23 + coincide)
    for _ in range(20):
        na, nb = rng.integers(1, 121, size=2)
        a = rng.normal(size=(na, 3)) * 0.5
        b = rng.normal(size=(nb, 3)) * 0.5
        if coincide:            # half the atoms sit on the other side's atoms
            h = min(na, nb) // 2
            b[:h] = a[:h]
        wa = rng.uniform(0.1, 1.0, size=na)
        wb = rng.uniform(0.1, 1.0, size=nb)
        center = rng.normal(size=3) * 0.1
        r = float(rng.uniform(0.8, 1.2))
        got = _transport_lp(a, wa, b, wb, center, r, cap=None)[0]
        want = _dual_lp_oracle(a, wa, b, wb, center, r)
        assert got == pytest.approx(want, rel=1e-9)


def test_transport_lp_one_signed_runs_no_lp(monkeypatch):
    seen = _lp_columns(monkeypatch)
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.4, 0.4, size=(30, 3))
    wa = rng.uniform(0.1, 1.0, size=30)
    empty = np.zeros((0, 3))
    bound = 1.0 - np.linalg.norm(a, axis=1)
    for got in (_transport_lp(a, wa, empty, np.zeros(0), np.zeros(3), 1.0,
                              cap=None),
                _transport_lp(empty, np.zeros(0), a, wa, np.zeros(3), 1.0,
                              cap=None)):
        assert got[:3] == (pytest.approx(float(wa @ bound), rel=1e-12), 0, 30)
        assert got[0] == pytest.approx(
            _dual_lp_oracle(a, wa, empty, np.zeros(0), np.zeros(3), 1.0),
            rel=1e-9)
    assert seen == []


def test_transport_lp_prunes_every_pair(monkeypatch):
    seen = _lp_columns(monkeypatch)
    rng = np.random.default_rng(4)
    # atoms near opposite poles: every pair is longer than both trips out
    a = np.array([0.9, 0.0, 0.0]) + rng.uniform(-0.03, 0.03, size=(12, 3))
    b = np.array([-0.9, 0.0, 0.0]) + rng.uniform(-0.03, 0.03, size=(9, 3))
    wa = rng.uniform(0.1, 1.0, size=12)
    wb = rng.uniform(0.1, 1.0, size=9)
    got = _transport_lp(a, wa, b, wb, np.zeros(3), 1.0, cap=None)[0]
    assert seen == [21]         # ground flows only, no pair column
    bound = 1.0 - np.linalg.norm(np.concatenate([a, b]), axis=1)
    want = _dual_lp_oracle(a, wa, b, wb, np.zeros(3), 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(float(np.concatenate([wa, wb]) @ bound),
                                rel=1e-9)


def test_transport_lp_single_atom():
    p = np.array([[0.2, -0.1, 0.3]])
    got = _transport_lp(p, [0.7], np.zeros((0, 3)), np.zeros(0),
                        np.zeros(3), 1.0, cap=None)
    want = 0.7 * (1.0 - np.linalg.norm(p))
    assert got == (pytest.approx(want, rel=1e-15), 0, 1, False)
    assert got[0] == pytest.approx(
        _dual_lp_oracle(p, [0.7], np.zeros((0, 3)), np.zeros(0),
                        np.zeros(3), 1.0), rel=1e-9)


def test_identical_inputs_vanish(line3d):
    ball = Ball(np.zeros(3), 0.25)
    assert local_wasserstein(line3d, line3d, ball) < 1e-8


def test_symmetry(line3d, graph02):
    ball = Ball(np.array([0.105, 0.0, 0.0]), 0.2)
    ab = local_wasserstein(line3d, graph02, ball, cap=150, seed=4)
    ba = local_wasserstein(graph02, line3d, ball, cap=150, seed=4)
    assert ab == pytest.approx(ba, rel=1e-6, abs=1e-9)


def test_scale_invariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3)) * 0.3
    w = rng.uniform(0.5, 1.5, size=40) * 1e-2
    qts = rng.normal(size=(35, 3)) * 0.3
    v = rng.uniform(0.5, 1.5, size=35) * 1e-2
    ball = Ball(np.zeros(3), 1.0)
    base = local_wasserstein(_atoms(pts, w), _atoms(qts, v), ball)
    lam = 7.0
    scaled = local_wasserstein(_atoms(lam * pts, lam * w),
                               _atoms(lam * qts, lam * v),
                               Ball(np.zeros(3), lam))
    assert scaled == pytest.approx(base, rel=1e-6, abs=1e-9)


def test_determinism_under_subsampling(line3d, graph02):
    ball = Ball(np.zeros(3), 0.25)
    a = local_wasserstein(line3d, graph02, ball, cap=60, seed=9)
    b = local_wasserstein(line3d, graph02, ball, cap=60, seed=9)
    assert a == b


# -- flat sampling ------------------------------------------------------------

def test_flat_sample_center_chord():
    samp = flat_sample(_line_flat(), Ball(np.zeros(3), 1.0), 16)
    assert samp.total_mass == pytest.approx(2.0, abs=2.0 / 16)
    assert np.all(samp.weights == 1.0 / 16)


def test_flat_sample_offset_chord():
    mu = _line_flat(offset=np.array([0.0, 0.9, 0.0]))
    samp = flat_sample(mu, Ball(np.zeros(3), 1.0), 16)
    assert samp.total_mass == pytest.approx(2.0 * math.sqrt(1 - 0.81),
                                            abs=2.0 / 16)


def test_flat_sample_miss_raises():
    mu = _line_flat(offset=np.array([0.0, 1.5, 0.0]))
    with pytest.raises(InputError):
        flat_sample(mu, Ball(np.zeros(3), 1.0), 16)


def test_flat_measure_validates_basis():
    with pytest.raises(InputError):
        FlatMeasure(np.zeros(3), np.array([[1.0, 0.5, 0.0]]), 1.0)


# -- parallel planes ----------------------------------------------------------

def test_parallel_lines_small_offset():
    r, b = 1.0, 0.08
    ball = Ball(np.zeros(3), r)
    mu = _line_flat()
    nu = _line_flat(offset=np.array([0.0, b, 0.0]))
    got = local_wasserstein(flat_sample(mu, ball, 24),
                            flat_sample(nu, ball, 24), ball)
    env = flat_pair_envelope(mu, nu, ball)
    closed = b / r
    assert env.lower <= got <= env.upper
    assert closed / 32 <= got <= closed * 32
    assert env.case == "graph"
    assert env.shift == pytest.approx(b)
    assert env.tilt == pytest.approx(0.0, abs=1e-12)


def test_envelope_identical_planes():
    mu = _line_flat()
    env = flat_pair_envelope(mu, _line_flat(), Ball(np.zeros(3), 1.0))
    assert env.lower == 0.0 and env.upper == 0.0


def test_envelope_orthogonal_planes():
    mu = _line_flat(direction=0)
    nu = _line_flat(direction=1)
    env = flat_pair_envelope(mu, nu, Ball(np.zeros(3), 1.0))
    assert env.case == "orthogonal"
    assert env.lower == pytest.approx(2.0 / 32)
    assert env.upper == pytest.approx(64.0)


def test_envelope_monotone_in_shift():
    mu = _line_flat()
    uppers = []
    for b in (0.0125, 0.025, 0.05, 0.1, 0.2):
        nu = _line_flat(offset=np.array([0.0, b, 0.0]))
        uppers.append(flat_pair_envelope(mu, nu, Ball(np.zeros(3), 1.0)).upper)
    assert all(x < y for x, y in zip(uppers, uppers[1:]))


def test_envelope_requires_planes_near_center():
    mu = _line_flat()
    nu = _line_flat(offset=np.array([0.0, 0.8, 0.0]))
    with pytest.raises(InputError):
        flat_pair_envelope(mu, nu, Ball(np.zeros(3), 1.0))


def test_scale_monotonicity_parallel_pair():
    mu = _line_flat()
    nu = _line_flat(offset=np.array([0.0, 0.05, 0.0]))
    for k in (1, 2, 3):
        chk = scale_monotonicity(mu, nu, np.zeros(3), 1.0, k)
        assert not chk.exact_equality
        assert chk.ratio <= 4.0


def test_scale_monotonicity_exact_equality():
    mu = _line_flat()
    chk = scale_monotonicity(mu, _line_flat(), np.zeros(3), 1.0, 2)
    assert chk.exact_equality
    assert math.isnan(chk.ratio)


# -- alpha numbers ------------------------------------------------------------

def test_alpha_plane_is_small(line3d):
    ball = Ball(np.array([0.005, 0.0, 0.0]), 0.25)
    res = alpha_number(line3d, ball, seed=1)
    assert res.value <= 5.0 * line3d.spacing / ball.radius
    assert res.refined_value <= res.initial_value + 1e-9
    assert not res.truncated


def test_alpha_recovers_offset_plane(line3d):
    # same line translated: the optimizer must find the translated plane
    pts = line3d.points + np.array([0.0, 0.03, 0.0])
    moved = DiscreteMeasure(3, 1, pts, line3d.weights, line3d.spacing, "moved")
    ball = Ball(np.array([0.005, 0.03, 0.0]), 0.25)
    res = alpha_number(moved, ball, seed=2)
    assert res.value <= 5.0 * moved.spacing / ball.radius
    assert res.flat.distance(np.array([0.0, 0.03, 0.0])) <= 0.02


def test_alpha_degenerate_ball(line3d):
    with pytest.raises(DegenerateInputError):
        alpha_number(line3d, Ball(np.array([0.0, 0.5, 0.0]), 0.01))


def test_alpha_cantor_floor():
    # non-rectifiable contrast: alpha stays above the floor at a mid scale
    c6 = make_cantor_set(6)
    center = c6.points[np.argmin(np.linalg.norm(
        c6.points - np.array([0.5, 0.5, 0.0]), axis=1))]
    res = alpha_number(c6, Ball(center, 0.3), cap=200, seed=3)
    assert res.value >= 0.05
    assert res.truncated       # radius 0.3 exceeds extent/4 for [0,1]^2 data


def test_alpha_graph_scales_with_lambda(graph02):
    ball = Ball(graph02.points[100], 0.25)
    res = alpha_number(graph02, ball, seed=4)
    # a 0.2-Lipschitz sawtooth is not flat at corner scales but alpha stays O(lam)
    assert res.value <= 0.5
