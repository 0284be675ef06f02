"""Transport LP, flat sampling, and alpha numbers."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from urlab import wasserstein
from urlab.exceptions import (
    DegenerateInputError,
    InputError,
    NumericError,
    ParameterError,
)
from urlab.geometry import Ball, DiscreteMeasure, make_cantor_set
from urlab.wasserstein import (
    FlatMeasure,
    alpha_number,
    flat_sample,
    local_wasserstein,
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
    """Record the column count of every LP the transport core solves; the
    shipped solver, captured before patching, still solves each one."""
    seen = []
    solve = wasserstein.linprog

    def spy(c, **kwargs):
        seen.append(len(c))
        return solve(c, **kwargs)

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


def _transport_inputs(rng, n_lo, n_hi, coincide=False):
    """Random _transport_lp arguments with n_lo..n_hi atoms a side."""
    na, nb = rng.integers(n_lo, n_hi + 1, size=2)
    a = rng.normal(size=(na, 3)) * 0.5
    b = rng.normal(size=(nb, 3)) * 0.5
    if coincide:
        h = min(na, nb) // 2
        b[:h] = a[:h]
    return (a, rng.uniform(0.1, 1.0, size=na), b,
            rng.uniform(0.1, 1.0, size=nb), rng.normal(size=3) * 0.1,
            float(rng.uniform(0.8, 1.2)))


def test_linprog_matches_scipy_linprog_on_transport_lps(monkeypatch):
    # the LPs _transport_lp builds: about 60 rows as in ursum_sawtooth and
    # about 200 as in alpha_cantor, with coincident atoms, plus LPs whose
    # every pair is pruned; HiGHS runs the same dual simplex on each
    rng = np.random.default_rng(31)
    inputs = [_transport_inputs(rng, 38, 48) for _ in range(8)]
    inputs += [_transport_inputs(rng, 38, 48, True) for _ in range(4)]
    inputs += [_transport_inputs(rng, 130, 150) for _ in range(5)]
    inputs += [_transport_inputs(rng, 130, 150, True) for _ in range(2)]
    inputs += [_transport_inputs(rng, 1, 6) for _ in range(3)]
    for n in (5, 12):           # opposite poles: ground columns only
        inputs.append((np.array([0.9, 0.0, 0.0])
                       + rng.uniform(-0.03, 0.03, size=(n, 3)),
                       rng.uniform(0.1, 1.0, size=n),
                       np.array([-0.9, 0.0, 0.0])
                       + rng.uniform(-0.03, 0.03, size=(n + 3, 3)),
                       rng.uniform(0.1, 1.0, size=n + 3), np.zeros(3), 1.0))
    seen = []
    solve = wasserstein.linprog

    def spy(c, **kwargs):
        seen.append((c, kwargs))
        return solve(c, **kwargs)

    monkeypatch.setattr(wasserstein, "linprog", spy)
    for args in inputs:
        _transport_lp(*args, cap=None)
    assert len(seen) >= 20
    rows = np.array([kw["A_eq"].shape[0] for _, kw in seen])
    assert np.sum((rows >= 40) & (rows <= 80)) >= 8
    assert np.sum((rows >= 140) & (rows <= 250)) >= 6
    assert sum(len(c) == kw["A_eq"].shape[0] for c, kw in seen) == 2
    for c, kw in seen:
        got = solve(c, **kw)
        want = linprog(c, A_eq=kw["A_eq"], b_eq=kw["b_eq"], method="highs",
                       options={"presolve": False})
        assert got.status == want.status == 0
        assert (got.fun, got.nit) == (want.fun, want.nit)


def test_linprog_reports_failure_with_the_model_status(monkeypatch):
    c, a_eq = np.ones(1), sp.csc_array(np.ones((1, 1)))
    got = wasserstein.linprog(c, A_eq=a_eq, b_eq=-np.ones(1))
    want = linprog(c, A_eq=a_eq, b_eq=-np.ones(1), method="highs",
                   options={"presolve": False})
    assert got.status == want.status == 2
    assert "Infeasible" in got.message
    # an optimum outside the feasibility bound is a failure as well
    monkeypatch.setattr(wasserstein, "_FEAS_TOL", -1.0)
    got = wasserstein.linprog(c, A_eq=a_eq, b_eq=np.ones(1))
    assert got.status == 4 and "constraints" in got.message


@pytest.mark.parametrize("failure", ["infeasible", "unchecked"])
def test_transport_lp_raises_when_the_lp_fails(monkeypatch, failure):
    a, b = np.array([[0.1, 0.0, 0.0]]), np.array([[-0.1, 0.0, 0.0]])
    if failure == "infeasible":
        # every LP handed on comes back as the infeasible system x = -1
        solve = wasserstein.linprog
        monkeypatch.setattr(
            wasserstein, "linprog", lambda c, *, A_eq, b_eq: solve(
                np.ones(1), A_eq=sp.csc_array(np.ones((1, 1))),
                b_eq=-np.ones(1)))
    else:
        monkeypatch.setattr(wasserstein, "_FEAS_TOL", -1.0)
    with pytest.raises(NumericError, match="LP failed"):
        _transport_lp(a, [1.0], b, [1.0], np.zeros(3), 1.0, cap=None)


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


@pytest.mark.parametrize("basis, ok", [
    # off the diagonal the Gram matrix may miss 0 by atol = 1e-10
    (np.array([[1.0, 0.0, 0.0], [0.5e-10, 1.0, 0.0]]), True),
    (np.array([[1.0, 0.0, 0.0], [2e-10, 1.0, 0.0]]), False),
    # on it, 1 by atol + rtol = 1e-10 + 1e-5
    (np.array([[math.sqrt(1.0 + 0.5e-5), 0.0, 0.0]]), True),
    (np.array([[math.sqrt(1.0 + 2e-5), 0.0, 0.0]]), False),
    (np.array([[np.nan, 0.0, 0.0]]), False),
], ids=["off-inside", "off-outside", "diag-inside", "diag-outside", "nan"])
def test_flat_measure_basis_bound_is_allclose(basis, ok):
    gram = basis @ basis.T
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-10) == ok
    if ok:
        FlatMeasure(np.zeros(3), basis, 1.0)
    else:
        with pytest.raises(InputError):
            FlatMeasure(np.zeros(3), basis, 1.0)


# -- parallel planes ----------------------------------------------------------

def test_parallel_lines_small_offset():
    r, b = 1.0, 0.08
    ball = Ball(np.zeros(3), r)
    mu = _line_flat()
    nu = _line_flat(offset=np.array([0.0, b, 0.0]))
    got = local_wasserstein(flat_sample(mu, ball, 24),
                            flat_sample(nu, ball, 24), ball)
    closed = b / r
    assert closed / 32 <= got <= closed * 32


def _two_scales(mu, nu, radius, k):
    """local_wasserstein of two flat measures at radius and 2^k * radius."""
    values = []
    for rad in (radius, 2.0 ** k * radius):
        ball = Ball(np.zeros(3), rad)
        values.append(local_wasserstein(flat_sample(mu, ball, 16),
                                        flat_sample(nu, ball, 16), ball))
    return values


def test_scale_monotonicity_parallel_pair():
    mu = _line_flat()
    nu = _line_flat(offset=np.array([0.0, 0.05, 0.0]))
    for k in (1, 2, 3):
        small, big = _two_scales(mu, nu, 1.0, k)
        assert small >= 1e-12
        assert big / small <= 4.0


def test_scale_monotonicity_exact_equality():
    small, _ = _two_scales(_line_flat(), _line_flat(), 1.0, 2)
    assert small < 1e-12


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


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_alpha_cap_must_leave_room_for_a_plane(line3d, cap):
    """At cap 2 or less the flat sample leaves at most one support atom,
    and a line through one atom is no fit (d = 1 needs two)."""
    with pytest.raises(ParameterError):
        alpha_number(line3d, Ball(line3d.points[100], 0.25), cap=cap)


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
