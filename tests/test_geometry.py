"""Generators, ball statistics, corkscrew points, serialization."""

import math

import numpy as np
import pytest

from urlab.exceptions import InputError, ParameterError, ResolutionError
from urlab.geometry import (
    Ball,
    DiscreteMeasure,
    ahlfors_constant,
    corkscrew_point,
    load_measure,
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    save_measure,
    sawtooth_profile,
    sine_profile,
    support_ball_family,
)


# -- masses: analytic values ------------------------------------------------

def test_plane_total_mass_exact(line3d):
    assert abs(line3d.total_mass - 2.0) <= 1e-12 * 2.0


def test_plane2d_total_mass_exact(plane4d):
    assert abs(plane4d.total_mass - 1.0) <= 1e-12


def test_cantor_mass_and_count():
    for m in (1, 3, 5):
        c = make_cantor_set(m)
        assert len(c) == 4 ** m
        assert abs(c.total_mass - 1.0) <= 1e-12


def test_graph_total_mass_exact(graph02):
    assert abs(graph02.total_mass - 2.0) <= 1e-12 * 2.0


# -- ball statistics ---------------------------------------------------------

def test_line_ball_mass_is_chord_length(line3d):
    assert line3d.mass_in_ball(np.zeros(3), 0.5) == pytest.approx(1.0, abs=0.02)


def test_line_ratio_two_over_window(line3d):
    # interior centers on the support, radii spanning the window
    for x1 in (-0.41, 0.005, 0.305):
        center = np.array([x1, 0.0, 0.0])
        for r in (0.04, 0.08, 0.17, 0.25):
            ratio = line3d.mass_in_ball(center, r) / r
            assert ratio == pytest.approx(2.0, rel=0.05)


def test_plane2d_ratio_is_disc_area(plane4d):
    # oracle: area of the 2-disc = pi r^2
    for r in (0.04, 0.06, 0.11):
        for c in ([0.0, 0.0], [0.105, -0.055]):
            center = np.array(c + [0.0, 0.0])
            ratio = plane4d.mass_in_ball(center, r) / r ** 2
            assert ratio == pytest.approx(math.pi, rel=0.05)


def test_graph_ratio_arclength_bounds(graph02):
    # lam-Lipschitz graph: chord mass in [2r/sqrt(1+lam^2), 2r], plus 10%
    lam = 0.2
    lo = 2.0 / (1.0 + lam) * 0.9
    hi = 2.0 * (1.0 + lam) * 1.1
    rng = np.random.default_rng(7)
    idx = rng.choice(len(graph02), size=12, replace=False)
    for i in idx:
        p = graph02.points[i]
        if abs(p[0]) > 0.6:
            continue
        for r in (0.05, 0.12, 0.25):
            ratio = graph02.mass_in_ball(p, r) / r
            assert lo <= ratio <= hi


def test_cantor_ratios_bounded(cantor4):
    m = 4
    for j in range(1, m - 1):
        r = 4.0 ** (-j)
        ratios = np.array([cantor4.mass_in_ball(p, r) / r
                           for p in cantor4.points[::17]])
        assert ratios.min() >= 1.0 / 8.0
        assert ratios.max() <= 8.0


def test_ahlfors_report_line(line3d):
    rng = np.random.default_rng(3)
    balls = support_ball_family(line3d, 8, rng)
    rep = ahlfors_constant(line3d, balls)
    assert 1.9 <= rep.constant <= 2.1
    assert not rep.excluded


def test_ahlfors_excludes_out_of_window(line3d):
    balls = [Ball(np.zeros(3), 0.1), Ball(np.zeros(3), 0.001),
             Ball(np.zeros(3), 10.0)]
    rep = ahlfors_constant(line3d, balls)
    assert len(rep.balls) == 1
    assert len(rep.excluded) == 2
    reasons = " ".join(reason for _, reason in rep.excluded)
    assert "below" in reasons and "above" in reasons


# -- corkscrew ----------------------------------------------------------------

def test_corkscrew_line_depth(line3d):
    res = corkscrew_point(line3d, Ball(np.zeros(3), 1.0), 0.125)
    assert res.dist >= 0.4
    assert res.offset <= 1.0 + 1e-12
    assert res.constant == pytest.approx(1.0 / res.dist * 1.0)


def test_corkscrew_scale_covariance(line3d):
    lam = 3.0
    res1 = corkscrew_point(line3d, Ball(np.zeros(3), 1.0), 0.125)
    scaled = make_plane_set(3, 1, lam * 1.0, lam * 0.01)
    res2 = corkscrew_point(scaled, Ball(np.zeros(3), lam), lam * 0.125)
    assert np.array_equal(res2.point, lam * res1.point)


def test_corkscrew_cantor():
    c = make_cantor_set(6)
    center = c.points[len(c) // 2]
    res = corkscrew_point(c, Ball(center, 0.5), 0.5 / 16)
    assert res.dist >= 0.5 / 16


def test_corkscrew_resolution_guards(line3d):
    with pytest.raises(ParameterError):
        corkscrew_point(line3d, Ball(np.zeros(3), 0.5), 0.1)  # r < 8*step


@pytest.mark.parametrize("step", [0.0, -0.01, float("nan")])
def test_corkscrew_refuses_a_step_that_is_not_positive(line3d, step):
    with pytest.raises(ParameterError, match="grid_step"):
        corkscrew_point(line3d, Ball(np.zeros(3), 0.5), step)


def test_ball_refuses_a_nan_radius():
    with pytest.raises(ParameterError, match="radius"):
        Ball(np.zeros(3), float("nan"))


# -- generator guards ---------------------------------------------------------

def test_plane_requires_margin():
    with pytest.raises(ParameterError):
        make_plane_set(3, 1, 0.1, 0.01)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field, error", [("points", InputError),
                                          ("weights", InputError),
                                          ("spacing", ParameterError)])
def test_measure_refuses_non_finite_values(field, error, value):
    args = {"points": np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]]),
            "weights": np.ones(3), "spacing": 0.1}
    if field == "spacing":
        args["spacing"] = value
    else:
        args[field][1] = value
    with pytest.raises(error):
        DiscreteMeasure(3, 1, **args)


def test_lipschitz_spot_check_fires():
    with pytest.raises(InputError):
        make_lipschitz_graph(3, 1, sawtooth_profile(0.2, 0.5), 0.05, 1.0,
                             0.01)


@pytest.mark.parametrize("lam", [-0.5, float("nan")])
def test_lipschitz_graph_refuses_a_lam_that_is_not_nonnegative(lam):
    # a NaN lam made the spot check's tolerance NaN, so a slope-2 profile
    # constructed
    with pytest.raises(ParameterError, match="lam"):
        make_lipschitz_graph(3, 1, sawtooth_profile(2.0, 0.5), lam, 1.0,
                             0.01)


def test_sine_profile_has_amplitude_lam_over_k_and_slope_lam():
    """lam / k sin(k t), k = 2 pi / period, along each axis, over sqrt(d):
    its largest value is lam / k and its largest slope is lam, and in
    d = 2 its gradient along the diagonal has length lam."""
    lam, period = 0.5, 0.25
    k = 2.0 * math.pi / period
    fn = sine_profile(lam, period)
    t = np.linspace(0.0, 1.0, 4001)
    y = fn(t[:, None])
    assert y.shape == (t.size, 1)
    assert np.max(np.abs(y)) == pytest.approx(lam / k, rel=1e-12)
    assert np.max(np.abs(np.diff(y[:, 0]) / np.diff(t))) == pytest.approx(
        lam, rel=1e-3)
    diag = fn(np.stack([t, t], axis=1))[:, 0]
    slope = np.diff(diag) / (np.diff(t) * math.sqrt(2.0))
    assert np.max(np.abs(slope)) == pytest.approx(lam, rel=1e-3)
    graph = make_lipschitz_graph(3, 1, fn, lam, 1.0, 0.01)
    assert np.max(np.abs(graph.points[:, 1])) <= lam / k + 1e-15


def test_flat_graph_matches_plane(line3d):
    g = make_lipschitz_graph(3, 1, lambda b: np.zeros((b.shape[0], 2)),
                             0.0, 1.0, 0.01)
    assert np.array_equal(g.points, line3d.points)
    assert np.array_equal(g.weights, line3d.weights)


# -- serialization ------------------------------------------------------------

def test_roundtrip_exact(tmp_path, graph02):
    path = tmp_path / "graph.txt"
    save_measure(graph02, str(path))
    back = load_measure(str(path))
    assert back.ambient_dim == graph02.ambient_dim
    assert back.intrinsic_dim == graph02.intrinsic_dim
    assert back.spacing == graph02.spacing
    assert np.array_equal(back.points, graph02.points)
    assert np.array_equal(back.weights, graph02.weights)


def test_header_shape(tmp_path, cantor4):
    path = tmp_path / "cantor.txt"
    save_measure(cantor4, str(path))
    header = path.read_text().splitlines()[0].split()
    assert header[:3] == ["3", "1", str(4 ** 4)]


def _save_measure_oracle(sigma, path):
    """The replaced per-atom writer of save_measure, kept as a reference."""
    with open(path, "w") as fh:
        fh.write(f"{sigma.ambient_dim} {sigma.intrinsic_dim} "
                 f"{len(sigma)} {sigma.spacing:.17g}\n")
        for p, w in zip(sigma.points, sigma.weights):
            cols = " ".join(f"{c:.17g}" for c in p)
            fh.write(f"{cols} {w:.17g}\n")


@pytest.mark.parametrize("fixture", ["graph02", "cantor4"])
def test_save_measure_bytes_match_per_atom_writer(tmp_path, request,
                                                   fixture):
    sigma = request.getfixturevalue(fixture)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    save_measure(sigma, str(got))
    _save_measure_oracle(sigma, str(want))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("count", [0, -3])
def test_ball_family_needs_a_ball(line3d, count):
    with pytest.raises(ParameterError):
        support_ball_family(line3d, count, np.random.default_rng(0))
