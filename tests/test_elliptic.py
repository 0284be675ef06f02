"""Truncated degenerate-weight solver: assembly identities, hitting
probabilities and their invariants, the scatter diagnostic, and the
square-function comparisons."""

import csv
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from urlab import carleson, distances, elliptic
from urlab.distances import kernel_constant, regularized_distance
from urlab.elliptic import (
    MASK_COLLAR,
    MASK_INTERIOR,
    Ball,
    GridField,
    ScatterResult,
    SNResult,
    SolverConfig,
    ainfty_scatter,
    assemble,
    harmonic_measure,
    read_field,
    sn_check,
    write_field,
    write_scatter,
)
from urlab.exceptions import (
    DegenerateInputError,
    DomainError,
    InputError,
    NumericError,
    ParameterError,
    ResolutionError,
    TopologyError,
)
from urlab.geometry import (
    DiscreteMeasure,
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    sawtooth_profile,
)


def _matvec_oracle(system, x):
    """The replaced stencil matvec, kept as a reference: one whole-grid
    slice sweep per axis and direction over the face-shaped weights."""
    n = len(system.shape)
    x3 = x.reshape(system.shape)
    y3 = system.diag.reshape(system.shape) * x3
    for a, w in enumerate(system.w_faces):
        fr = elliptic._axis_slice(n, a, np.s_[:-1])
        bk = elliptic._axis_slice(n, a, np.s_[1:])
        y3[fr] -= w * x3[bk]
        y3[bk] -= w * x3[fr]
    return y3.ravel()


def _cg_oracle(system, b, x0, tol):
    """The replaced Jacobi-PCG loop over the oracle matvec."""
    stop = tol * np.linalg.norm(b)
    x = x0.copy()
    r = b - _matvec_oracle(system, x)
    inv_diag = 1.0 / system.diag
    z = r * inv_diag
    p = z.copy()
    rz = float(r @ z)
    iters = 0
    while np.linalg.norm(r) > stop:
        iters += 1
        ap = _matvec_oracle(system, p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = r * inv_diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, iters


def _harmonic_measure_oracle(system, e, pole):
    """The replaced two-solve hitting probability, kept as a reference:
    (value, complement value) at the pole of the indicator-data solves of
    the atom set e and of its complement."""
    return tuple(
        system.solve(ind.astype(float)).field.interp(pole[None, :])[0]
        for ind in (e, ~e))


@pytest.fixture(scope="module")
def sys48(line3d):
    """Shared 48^3 system on the standard line, reflecting walls."""
    return assemble(line3d, (np.zeros(3), 3.0), 3.0 / 48, SolverConfig())


@pytest.fixture(scope="module")
def pole_above():
    return np.array([0.0, 0.25, 0.0])


# -- configuration and assembly guards ---------------------------------------


def test_config_guards():
    # NaN fails every comparison, so no guard may pass it by failing one
    for knob in ("beta", "gamma", "tol", "collar"):
        with pytest.raises(ParameterError):
            SolverConfig(**{knob: float("nan")})
    with pytest.raises(ParameterError):
        SolverConfig(beta=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(gamma=1.0)
    with pytest.raises(ParameterError):
        SolverConfig(gamma=-1.0)
    with pytest.raises(ParameterError):
        SolverConfig(tol=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(collar=0.5)
    with pytest.raises(ParameterError):
        SolverConfig(outer="periodic")
    with pytest.raises(ParameterError):
        SolverConfig(maxiter=0)


def test_config_refuses_a_tolerance_below_float64_precision():
    """No float64 residual can meet a relative tolerance below the
    machine epsilon: CG would divide by a vanished p.Ap or run to
    maxiter, so the config refuses it."""
    eps = np.finfo(float).eps
    assert SolverConfig(tol=eps).tol == eps
    for tol in (1e-300, 0.5 * eps):
        with pytest.raises(ParameterError):
            SolverConfig(tol=tol)


def test_assemble_guards(line3d):
    box = (np.zeros(3), 3.0)
    with pytest.raises(ParameterError):
        assemble(make_plane_set(2, 1, 0.5, 0.01), (np.zeros(2), 1.0), 0.05)
    with pytest.raises(ParameterError):
        assemble(line3d, box, -0.1)
    # face midpoints would dip below two spacings of the support
    with pytest.raises(ResolutionError):
        assemble(line3d, box, 0.015, SolverConfig(collar=1.5))
    with pytest.raises(InputError):
        assemble(line3d, (np.zeros(2), 3.0), 3.0 / 48)
    with pytest.raises(InputError):
        assemble(line3d, "not a box", 3.0 / 48)
    # a non-finite side or center is refused as such
    for side in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="box side"):
            assemble(line3d, (np.zeros(3), side), 3.0 / 48)
    with pytest.raises(InputError, match="box center must be finite"):
        assemble(line3d, (np.array([0.0, np.nan, 0.0]), 3.0), 3.0 / 48)
    with pytest.raises(DomainError):
        assemble(line3d, (np.array([40.0, 40.0, 40.0]), 3.0), 3.0 / 48)


def test_assemble_refuses_a_nan_cell_size(line3d):
    """At ``h <= 0`` a NaN h died in a bare ``ValueError``."""
    with pytest.raises(ParameterError, match="cell size"):
        assemble(line3d, (np.zeros(3), 3.0), float("nan"))


def test_collar_wall_disconnects_box():
    # a dense 2-D sheet of atoms declared one-dimensional: the collar
    # becomes a slab across the whole box and splits it in two
    ax = np.arange(-0.3, 0.3001, 0.05)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    sheet = DiscreteMeasure(3, 1, pts, np.full(len(pts), 0.05), 0.05, "sheet")
    with pytest.raises(TopologyError):
        assemble(sheet, (np.zeros(3), 0.6), 0.06, SolverConfig(collar=2.5))


# -- assembled operator identities --------------------------------------------


def test_matrix_is_symmetric_and_kills_constants(sys48):
    rng = np.random.default_rng(3)
    for _ in range(2):
        x = rng.normal(size=sys48.n_cells)
        y = rng.normal(size=sys48.n_cells)
        lhs = float(x @ sys48._matvec(y))
        rhs = float(y @ sys48._matvec(x))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    r = sys48._matvec(np.ones(sys48.n_cells))
    touches_collar = np.zeros(sys48.n_cells, dtype=bool)
    touches_collar[sys48.coupling[0]] = True
    free = ~sys48.collar & ~touches_collar
    assert free.sum() > 100_000
    assert np.abs(r[free]).max() <= 1e-12
    # pinned rows are exact identities
    assert np.abs(r[sys48.collar] - 1.0).max() == 0.0


@pytest.fixture(scope="module")
def sys4():
    """12^4 system on a small d=2 sheet in R^4."""
    sheet = make_plane_set(4, 2, 0.16, 0.01)
    return assemble(sheet, (np.zeros(4), 0.24), 0.02, SolverConfig())


@pytest.mark.parametrize("block", [None, 1000])
def test_blocked_matvec_is_bit_identical(sys48, sys4, block, monkeypatch):
    # neither 48^3 nor 12^4 is a multiple of either block; a 1000-cell
    # block is also shorter than the 2304-cell stride of the first axis
    if block is not None:
        monkeypatch.setattr(elliptic, "_BLOCK", block)
    rng = np.random.default_rng(4)
    for system in (sys48, sys4):
        assert system.n_cells % elliptic._BLOCK != 0
        x = rng.normal(size=system.n_cells)
        out = np.full(system.n_cells, np.nan)
        assert system._matvec(x, out=out) is out
        assert np.array_equal(out, _matvec_oracle(system, x))
        assert np.array_equal(system._matvec(x), out)


@pytest.mark.parametrize("red", [None, 8192])
def test_solve_keeps_its_bits_at_any_worker_count(line3d, sys48, red,
                                                  monkeypatch):
    """Partial sums come from fixed blocks, so fields, iteration counts
    and residuals do not depend on the worker count.  48^3 cells make one
    block of the default size; 8192-cell blocks make 14, split 7/7 and
    4/5/5, the last block half full."""
    g = (line3d.points[:, 0] > 0).astype(float)
    if red is not None:
        monkeypatch.setattr(elliptic, "_BLOCK", 4096)
        monkeypatch.setattr(elliptic, "_RED", red)
    nblocks = -(-sys48.n_cells // elliptic._RED)
    run_tasks = distances._run_tasks
    runs = []
    for workers in (1, 2, 3):
        tasks = set()

        def counting(units, fn, most=None):
            out = run_tasks(units, fn, most)
            tasks.add(len(out))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(distances, "_WORKERS", workers)
            mp.setattr(distances, "_run_tasks", counting)
            runs.append(sys48.solve(g))
        assert tasks == {min(workers, nblocks)}
    assert runs[0].iterations > 0
    for res in runs[1:]:
        assert res.iterations == runs[0].iterations
        assert res.residual == runs[0].residual
        assert np.array_equal(res.field.values, runs[0].field.values)


def test_padded_faces_back_the_face_views(sys48):
    m = sys48.shape[0]
    for a, (w, face) in enumerate(zip(sys48.w_pad, sys48.w_faces)):
        assert w.shape == (sys48.n_cells,) and np.shares_memory(w, face)
        last = w.reshape(sys48.shape)[elliptic._axis_slice(3, a, m - 1)]
        assert not last.any()


def test_solve_matches_oracle_cg(line3d, sys48):
    g = (line3d.points[:, 0] > 0).astype(float)
    res = sys48.solve(g)
    b = sys48._rhs(g)
    x0 = b.copy()
    x0[~sys48.collar] = g.mean()
    want, iters = _cg_oracle(sys48, b, x0, sys48.config.tol)
    assert res.iterations == iters > 0
    assert np.abs(res.field.values.ravel() - want).max() <= 1e-12


def test_cg_that_runs_out_of_iterations_is_a_numeric_error(line3d):
    """A solve that has not met its tolerance after ``maxiter`` iterations
    raises instead of returning the iterate it stopped at."""
    system = assemble(line3d, (np.zeros(3), 3.0), 3.0 / 24,
                      SolverConfig(maxiter=1))
    g = (line3d.points[:, 0] > 0).astype(float)
    with pytest.raises(NumericError, match="after 1 iterations"):
        system.solve(g)


def test_face_weights_match_plane_closed_form(line3d):
    # for the straight line the regularized distance has an exact closed
    # form, so each face conductance must match c^(1/2)/t to 1 percent in
    # the window where neither atom spacing nor finite extent intrudes
    sysc = assemble(line3d, (np.zeros(3), 1.5), 1.5 / 48, SolverConfig())
    h = sysc.h
    m = sysc.shape[0]
    cb = kernel_constant(1, 2.0)
    ax = [sysc.box_lo[a] + (np.arange(m) + 0.5) * h for a in range(3)]
    w1 = sysc.w_faces[1]
    checked = 0
    for ix in (m // 2 - 2, m // 2, m // 2 + 2):
        for iz in (m // 2 - 1, m // 2, m // 2 + 1):
            for iy in range(m - 1):
                t = np.hypot(ax[1][iy] + 0.5 * h, ax[2][iz])
                if not 0.1 <= t <= 0.2:
                    continue
                got = w1[ix, iy, iz]
                if got == 0.0:
                    continue
                assert abs(got / (np.sqrt(cb) / t * h) - 1.0) < 0.01
                checked += 1
    assert checked >= 50


def test_constant_data_is_exact_with_reflecting_walls(sys48):
    res = sys48.solve(1.0)
    assert res.iterations == 0
    assert np.array_equal(res.field.values, np.ones(sys48.shape))
    assert res.residual <= 1e-12


def _magic_residual(sigma, h: float, beta: float) -> float:
    """Median over the cells whose 2n neighbours are all unknowns of
    |(A d)_i| / sum_f w_f |d_i - d_nb|, with d = D_beta sampled at the
    unknown cells of the 0.96-box grid of cell size h and 0 on the
    collar: the interior residual of D_beta relative to its flux scale."""
    system = assemble(sigma, (np.zeros(4), 0.96), h, SolverConfig(beta=beta))
    shape = system.shape
    cells = np.flatnonzero(~system.collar)
    dval = np.zeros(system.n_cells)
    dval[cells] = regularized_distance(
        sigma, elliptic._cell_centers(system.box_lo, h, shape, cells), beta)
    res = np.abs(system._matvec(dval)).reshape(shape)
    d = dval.reshape(shape)
    collar = system.collar.reshape(shape)
    inner = system.mask.reshape(shape) == MASK_INTERIOR  # no wall neighbour
    scale = np.zeros(shape)
    for a, w in enumerate(system.w_faces):
        fr = elliptic._axis_slice(4, a, np.s_[:-1])
        bk = elliptic._axis_slice(4, a, np.s_[1:])
        flux = w * np.abs(d[fr] - d[bk])
        scale[fr] += flux
        scale[bk] += flux
        inner[fr] &= ~collar[bk]
        inner[bk] &= ~collar[fr]
    return float(np.median(res[inner] / scale[inner]))


def test_magic_exponent_solves_the_assembled_operator():
    """At gamma = 0 and beta = n - d - 2 (1 for a d = 1 set in R^4),
    1/D_beta = sum_j w_j |x - y_j|^{2-n} is harmonic off the atoms, so
    D_beta solves div(D^{d+1-n} grad u) = 0 exactly on any measure,
    rectifiable or not (David, Engelstein & Mayboroda, Duke Math. J.
    2021).  The assembled operator's interior residual on D_beta then
    falls at the scheme's order as h halves, on a line, a sawtooth and
    the Cantor set alike; at beta = 2, where D_beta is no solution, it
    falls only about as fast as h.

    Measured medians, h = 0.08 -> 0.04: line 1.66e-3 -> 1.49e-4 (11.1),
    lam = 0.5 sawtooth 1.66e-3 -> 1.53e-4 (10.9), Cantor m = 3
    2.9e-3 -> 3.0e-4 (9.7); the line at beta = 2 6.4e-3 -> 2.7e-3 (2.4).
    """
    line = make_plane_set(4, 1, 1.0, 0.02)
    saw = make_lipschitz_graph(4, 1, sawtooth_profile(0.5, 0.5), 0.5, 1.0,
                               0.02)
    cantor3 = make_cantor_set(3)
    lifted = np.zeros((len(cantor3), 4))
    lifted[:, :3] = cantor3.points
    lifted[:, :2] -= 0.5                # centre the unit square
    cantor = DiscreteMeasure(4, 1, lifted, cantor3.weights,
                             cantor3.spacing, "cantor m=3 in R^4")
    for sigma in (line, saw, cantor):
        coarse, fine = (_magic_residual(sigma, h, 1.0) for h in (0.08, 0.04))
        assert coarse / fine >= 6.0 and fine <= 1e-3, sigma.descriptor
    coarse, fine = (_magic_residual(line, h, 2.0) for h in (0.08, 0.04))
    assert coarse / fine <= 4.0


# -- hitting probabilities -----------------------------------------------------


def test_half_line_symmetry(line3d, sys48, pole_above):
    e = line3d.points[:, 0] > 0
    hm = harmonic_measure(sys48, e, pole_above)
    assert abs(hm.value - 0.5) <= 1e-8
    assert hm.mass_gap <= 1e-10
    assert -1e-7 <= hm.value <= 1 + 1e-7
    assert hm.iterations > 0


def test_representer_matches_direct_solves(line3d, sys48, pole_above):
    e = line3d.points[:, 0] > 0.3
    pw = sys48.pole_weights(pole_above)
    hm = harmonic_measure(sys48, e, pole_above)
    want = _harmonic_measure_oracle(sys48, e, pole_above)
    assert abs(pw.value(e) - want[0]) <= 1e-6
    assert abs(hm.value - want[0]) <= 1e-6
    assert abs(hm.complement_value - want[1]) <= 1e-6
    assert abs(pw.weights.sum() - 1.0) <= 1e-6
    assert pw.weights.min() >= -1e-8
    # per-pole cache returns the identical object
    assert sys48.pole_weights(pole_above) is pw
    # index form agrees with mask form
    assert pw.value(np.flatnonzero(e)) == pytest.approx(pw.value(e))


def test_additivity_monotonicity_max_principle(line3d, sys48, pole_above):
    x = line3d.points[:, 0]
    e1 = x > 0.3
    e2 = (x <= 0.3) & (x > -0.4)
    h1 = harmonic_measure(sys48, e1, pole_above)
    h2 = harmonic_measure(sys48, e2, pole_above)
    h12 = harmonic_measure(sys48, e1 | e2, pole_above)
    assert abs(h1.value + h2.value - h12.value) <= 1e-7
    assert h12.value >= h1.value - 1e-8
    assert h12.value >= h2.value - 1e-8
    fv = sys48.solve((e1 | e2).astype(float)).field.values
    assert fv.min() >= -1e-7 and fv.max() <= 1.0 + 1e-7


@pytest.mark.parametrize("name", ["sys48", "sys48d"])
def test_one_solve_matches_the_two_solve_oracle(name, line3d, pole_above,
                                                request):
    system = request.getfixturevalue(name)
    e = line3d.points[:, 0] > 0
    hm = harmonic_measure(system, e, pole_above)
    value, cvalue = _harmonic_measure_oracle(system, e, pole_above)
    assert abs(hm.value - value) <= 1e-6
    assert abs(hm.complement_value - cvalue) <= 1e-6


def test_hitting_probabilities_at_one_pole_share_one_solve(
        line3d, sys48, pole_above, monkeypatch):
    calls = []
    green = sys48.green

    def counting_green(pole):
        calls.append(pole)
        return green(pole)

    monkeypatch.setattr(sys48, "green", counting_green)
    monkeypatch.setattr(sys48, "_pole_cache", {})
    # the set is checked before any solve
    with pytest.raises(InputError):
        harmonic_measure(sys48, np.ones(5, dtype=bool), pole_above)
    assert calls == []
    x = line3d.points[:, 0]
    for e in (x > 0, x > 0.3, np.abs(x) < 0.2):
        harmonic_measure(sys48, e, pole_above)
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["ball-nan", "pole-nan", "pole-inf"])
def test_a_non_finite_centre_or_pole_is_an_input_error(case, line3d, sys48):
    """Refused before any kd-tree query, whose own ValueError ('x' must be
    finite) names neither the ball nor the pole."""
    from urlab.wasserstein import alpha_number
    with pytest.raises(InputError, match="must be a finite point"):
        if case == "ball-nan":
            alpha_number(line3d, Ball([np.nan, 0.0, 0.0], 0.2))
        else:
            bad = np.nan if case == "pole-nan" else np.inf
            harmonic_measure(sys48, line3d.points[:, 0] > 0,
                             np.array([bad, 0.5, 0.0]))


def test_mass_gap_solves_the_constant_datum_once_per_system(line3d,
                                                            monkeypatch):
    """Three hitting probabilities at two poles on an absorbing-wall
    system make one constant-datum solve, not one per call, and every
    mass gap reads that solve's field."""
    system = assemble(line3d, (np.zeros(3), 2.0), 2.0 / 32,
                      SolverConfig(outer="dirichlet0"))
    calls = []
    solve = system.solve

    def counting_solve(g, *args, **kwargs):
        calls.append(solve(g, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(system, "solve", counting_solve)
    poles = [np.array([0.0, 0.3, 0.0]), np.array([0.2, -0.3, 0.1])]
    poles.append(poles[0])
    got = [harmonic_measure(system, np.arange(100), p) for p in poles]
    assert len(calls) == 1 and calls[0].iterations > 0
    for hm, p in zip(got, poles):
        assert hm.mass_gap == 1.0 - calls[0].field.interp(p[None, :])[0]
    assert got[1].mass_gap != got[0].mass_gap


@pytest.fixture(scope="module")
def green_above(sys48, pole_above):
    return sys48.green(pole_above)


def test_green_function_is_symmetric(sys48, pole_above, green_above):
    y = np.array([0.3, 0.1, 0.35])
    g_xy = green_above.field.interp(y[None, :])[0]
    g_yx = sys48.green(y).field.interp(pole_above[None, :])[0]
    assert g_xy > 0
    assert abs(g_xy - g_yx) <= 1e-6 * g_xy


def test_green_function_is_nonnegative_and_vanishes_on_the_collar(
        sys48, green_above):
    v = green_above.field.values.ravel()
    assert v.min() >= 0.0
    assert not v[sys48.collar].any()


def test_pole_weights_are_the_collar_functional_of_green(
        sys48, pole_above, green_above):
    assert np.array_equal(
        sys48._collar_functional(green_above.field.values.ravel()),
        sys48.pole_weights(pole_above).weights)


def test_pole_guards(line3d, sys48):
    e = line3d.points[:, 0] > 0
    with pytest.raises(DomainError):
        harmonic_measure(sys48, e, np.array([0.0, 0.05, 0.0]))
    with pytest.raises(DomainError):
        sys48.pole_weights(np.array([0.0, 5.0, 0.0]))
    with pytest.raises(InputError):
        sys48.pole_weights(np.array([0.0, 0.25]))
    with pytest.raises(InputError):
        harmonic_measure(sys48, e[:50], np.array([0.0, 0.25, 0.0]))


def test_pole_weights_value_reads_an_atom_set(line3d, sys48, pole_above):
    """Indices are an atom set: a repeat counts once, and an index outside
    the atoms is an InputError, not a wrap to the last atom (-1) or an
    IndexError (n)."""
    pw = sys48.pole_weights(pole_above)
    n = len(line3d)
    mask = np.zeros(n, dtype=bool)
    mask[[3, 7, 150]] = True
    assert pw.value([3, 7, 150]) == pw.value(mask) > 0.0
    assert pw.value([150, 3, 7, 7, 3]) == pw.value(mask)
    for bad in ([-1], [n], [0, n + 5]):
        with pytest.raises(InputError):
            pw.value(bad)


def test_harnack_style_pole_moves(line3d, sys48):
    # poles within dist/2 of each other give comparable values
    e = line3d.points[:, 0] > 0
    poles = [np.array([0.0, 0.25, 0.0]), np.array([0.125, 0.25, 0.0]),
             np.array([0.0, 0.375, 0.0]), np.array([0.0, 0.25, 0.125])]
    vals = [sys48.pole_weights(p).value(e) for p in poles]
    assert min(vals) > 0
    assert max(vals) / min(vals) <= 4.0


def test_hitting_weight_doubling(line3d, sys48):
    pw = sys48.pole_weights(np.array([0.0, 0.45, 0.0]))
    x0 = line3d.points[np.argmin(np.abs(line3d.points[:, 0] - 0.3))]
    gap = np.linalg.norm(line3d.points - x0[None, :], axis=1)
    ratios = []
    for rho in (0.05, 0.1, 0.2):
        w1 = pw.weights[gap <= rho].sum()
        w2 = pw.weights[gap <= 2 * rho].sum()
        assert w1 > 0
        ratios.append(w2 / w1)
    assert max(ratios) <= 4.0
    assert max(ratios) / min(ratios) <= 2.0


def test_absorbing_walls_measure_truncation_bias(line3d, pole_above):
    sysd = assemble(line3d, (np.zeros(3), 3.0), 3.0 / 48,
                    SolverConfig(outer="dirichlet0"))
    res = sysd.solve(1.0)
    assert res.iterations > 0
    bias_value = res.field.interp(pole_above[None, :])[0]
    assert 0.6 <= bias_value <= 0.95
    e = line3d.points[:, 0] > 0
    hm = harmonic_measure(sysd, e, pole_above)
    # the two indicator solves still sum to the biased constant solution
    assert abs(hm.mass_gap - (1.0 - bias_value)) <= 1e-6


def test_refinement_keeps_symmetry_value(line3d):
    # both grids are mirror-symmetric, so the halving drift is tiny; the
    # pole sits high enough to clear the coarse grid's four-cell rule
    e = line3d.points[:, 0] > 0
    pole = np.array([0.0, 0.55, 0.0])
    sys24 = assemble(line3d, (np.zeros(3), 3.0), 3.0 / 24, SolverConfig())
    hm_coarse = harmonic_measure(sys24, e, pole)
    hm_fine = harmonic_measure(
        assemble(line3d, (np.zeros(3), 3.0), 3.0 / 48), e, pole)
    assert abs(hm_coarse.value - hm_fine.value) <= 0.05


def test_four_dimensional_ambient_smoke(plane4d):
    # d=2 sheet in R^4 exercises the dimension-generic stencil
    sysp = assemble(plane4d, (np.zeros(4), 0.24), 0.02, SolverConfig())
    res = sysp.solve(1.0)
    assert res.iterations == 0
    assert np.array_equal(res.field.values, np.ones(sysp.shape))
    e = plane4d.points[:, 0] > 0
    pole = np.array([0.0, 0.0, 0.1, 0.0])
    hm = harmonic_measure(sysp, e, pole)
    assert abs(hm.value - 0.5) <= 1e-6
    assert hm.mass_gap <= 1e-8
    value, cvalue = _harmonic_measure_oracle(sysp, e, pole)
    assert abs(hm.value - value) <= 1e-6
    assert abs(hm.complement_value - cvalue) <= 1e-6


def test_warm_start_changes_nothing_but_iterations(line3d, sys48):
    g = (line3d.points[:, 0] > 0).astype(float)
    cold = sys48.solve(g)
    warm = sys48.solve(g, warm_start=cold.field)
    assert warm.iterations == 0
    assert np.array_equal(warm.field.values, cold.field.values)


def test_cross_grid_warm_start_interpolates_and_converges(line3d, sys48):
    g = (line3d.points[:, 0] > 0).astype(float)
    coarse = assemble(line3d, (np.zeros(3), 3.0), 3.0 / 24,
                      SolverConfig()).solve(g).field
    seed = sys48._warm_start(coarse)
    # the seed is the coarse field at the fine cell centers, clamped into
    # the coarse cell-center hull (the outermost fine centers lie outside)
    axes = [sys48.box_lo[a] + (np.arange(48) + 0.5) * sys48.h
            for a in range(3)]
    centers = np.stack([c.ravel() for c in
                        np.meshgrid(*axes, indexing="ij")], axis=1)
    lo = coarse.box_lo + (0.5 + 1e-9) * coarse.h
    hi = coarse.box_lo + (np.asarray(coarse.shape) - 0.5 - 1e-9) * coarse.h
    clamped = np.clip(centers, lo, hi)
    assert np.any(clamped != centers)
    assert np.array_equal(seed, coarse.interp(clamped))
    # the seed changes the iteration, not the answer: both solves meet the
    # relative residual tol of the same system, so A(warm - cold) is at
    # most 2 tol |b|, recomputed here from the system itself
    tol = sys48.config.tol
    cold = sys48.solve(g)
    warm = sys48.solve(g, warm_start=coarse)
    assert warm.iterations > 0
    b = sys48._rhs(g)
    gap = sys48._matvec((warm.field.values - cold.field.values).ravel())
    assert np.linalg.norm(gap) <= 2.0 * tol * np.linalg.norm(b)
    # batched interpolation is the one point at a time
    pts = np.random.default_rng(5).uniform(lo, hi, size=(300, 3))
    assert np.array_equal(coarse.interp(pts),
                          [coarse.interp(p[None, :])[0] for p in pts])


def _interp_oracle(fld, pts):
    """The replaced GridField.interp gather, kept as a reference."""
    t = (pts - fld.box_lo[None, :]) / fld.h - 0.5
    base = np.floor(t).astype(np.int64)
    frac = t - base
    out = np.zeros(pts.shape[0])
    for corner in itertools.product((0, 1), repeat=fld.ambient_dim):
        wt = np.ones(pts.shape[0])
        for a, c in enumerate(corner):
            wt *= frac[:, a] if c else 1.0 - frac[:, a]
        out += wt * fld.values[tuple((base[:, a] + corner[a])
                                     for a in range(fld.ambient_dim))]
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_interp_matches_per_axis_gather(n):
    rng = np.random.default_rng(40 + n)
    shape = (9, 7, 8, 6)[:n]
    fld = GridField(rng.uniform(-1.0, 1.0, n), 0.13,
                    rng.standard_normal(shape), np.zeros(shape, np.int8))
    lo = fld.box_lo + 0.5 * fld.h
    hi = fld.box_lo + (np.asarray(shape) - 0.5) * fld.h
    pts = rng.uniform(lo, hi, size=(5000, n))
    assert np.array_equal(fld.interp(pts), _interp_oracle(fld, pts))


def test_pole_weights_scatter_the_interpolation_stencil(sys48, pole_above):
    """The representer right-hand side is the old per-pole stencil: its
    solve reproduces the pole weights bit for bit."""
    t = (pole_above - sys48.box_lo) / sys48.h - 0.5
    base = np.floor(t).astype(np.int64)
    frac = t - base
    b = np.zeros(sys48.n_cells)
    for corner in itertools.product((0, 1), repeat=3):
        wt, flat = 1.0, 0
        for a, c in enumerate(corner):
            wt *= frac[a] if c else 1.0 - frac[a]
            flat = flat * sys48.shape[a] + int(base[a] + c)
        b[flat] += wt
    v, _, _ = sys48._cg(b, np.zeros(sys48.n_cells))
    assert np.array_equal(sys48.pole_weights(pole_above).weights,
                          sys48._collar_functional(v))


@pytest.fixture(scope="module")
def sys48d(line3d):
    """The sys48 grid with absorbing walls."""
    return assemble(line3d, (np.zeros(3), 3.0), 3.0 / 48,
                    SolverConfig(outer="dirichlet0"))


@pytest.mark.parametrize("name", ["sys48", "sys48d", "sys4"])
def test_rhs_and_collar_functional_are_transposes(name, request):
    """Both directions read one coupling list: <v, C g> = <C^T v, g>, and
    a collar row of C g is the datum of the cell's nearest atom."""
    system = request.getfixturevalue(name)
    rng = np.random.default_rng(6)
    npts = system.sigma.points.shape[0]
    for _ in range(3):
        v = rng.normal(size=system.n_cells)
        g = rng.normal(size=npts)
        lhs = float(v @ system._rhs(g))
        rhs = float(system._collar_functional(v) @ g)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    coll = np.flatnonzero(system.collar)
    centers = elliptic._cell_centers(system.box_lo, system.h, system.shape,
                                     coll)
    _, nearest = system.sigma.tree.query(centers)
    assert np.array_equal(system._rhs(g)[coll], g[nearest])


def _collar_cells_oracle(sigma, lo, h, shape, collar):
    """The replaced full-grid collar pass, kept as a reference: a kd query
    bounded at the collar radius from every cell center."""
    reach = collar * h
    dist, near = sigma.tree.query(
        elliptic._cell_centers(lo, h, shape, np.arange(np.prod(shape))),
        distance_upper_bound=np.nextafter(reach, np.inf))
    cells = np.flatnonzero(dist <= reach)
    return cells, near[cells]


# (measure fixture, box, h, config) of the shared systems, and of a box
# whose low x face at -0.25 cuts the line, which runs on [-0.5, 0.5]: at
# collar 1 and 1.5 the atoms more than rad cells outside it are dropped
_CUT_BOX = (np.array([0.5, 0.1, 0.0]), 1.5)
_COLLAR_CASES = {
    "sys48": ("line3d", (np.zeros(3), 3.0), 3.0 / 48, SolverConfig()),
    "sys48d": ("line3d", (np.zeros(3), 3.0), 3.0 / 48,
               SolverConfig(outer="dirichlet0")),
    "sys4": (None, (np.zeros(4), 0.24), 0.02, SolverConfig()),
    "cut-1.0": ("line3d", _CUT_BOX, 1.5 / 24, SolverConfig(collar=1.0)),
    "cut-1.5": ("line3d", _CUT_BOX, 1.5 / 24, SolverConfig(collar=1.5)),
    "cut-3.0": ("line3d", _CUT_BOX, 1.5 / 24, SolverConfig(collar=3.0)),
}


@pytest.mark.parametrize("case", sorted(_COLLAR_CASES))
def test_collar_search_matches_full_grid_pass(case, request, monkeypatch):
    """The collar search near the support finds exactly the cells and
    nearest atoms of a query at every cell, so the assembled system is
    the same array for array."""
    measure, box, h, config = _COLLAR_CASES[case]
    if case.startswith("sys"):
        got = request.getfixturevalue(case)
    else:
        got = assemble(request.getfixturevalue(measure), box, h, config)
    sigma = got.sigma
    monkeypatch.setattr(elliptic, "_collar_cells", _collar_cells_oracle)
    want = assemble(sigma, box, h, config)
    assert got.n_collar == want.n_collar > 0
    assert np.array_equal(got.mask, want.mask)
    for a, b in zip(got.coupling, want.coupling):
        assert np.array_equal(a, b)
    assert np.array_equal(got.diag, want.diag)
    for a, b in zip(got.w_pad, want.w_pad):
        assert np.array_equal(a, b)
    if case.startswith("cut"):
        # the cut box leaves part of the line outside, so some atoms pin
        # no cell, and the grid's low x layer holds collar cells
        assert np.unique(got.coupling[1]).size < len(sigma)
        assert got.mask.reshape(got.shape)[0].any()


# -- grid fields ---------------------------------------------------------------


def test_grid_field_io_and_interp(tmp_path, sys48):
    res = sys48.solve((np.sin(3.0 * np.arange(200) / 200.0)))
    fld = res.field
    binp = tmp_path / "field.bin"
    write_field(fld, binp, str(binp) + ".json", str(binp) + ".mask")
    back = read_field(str(binp) + ".json")
    assert np.array_equal(back.values, fld.values)
    assert np.array_equal(back.mask, fld.mask)
    assert back.h == fld.h
    assert np.allclose(back.box_lo, fld.box_lo)
    # multilinear interpolation is exact at cell centers
    probe = fld.box_lo + (np.array([[10, 20, 30]]) + 0.5) * fld.h
    assert fld.interp(probe) == pytest.approx([fld.values[10, 20, 30]])
    with pytest.raises(DomainError):
        fld.interp(fld.box_lo[None, :] - 1.0)
    # the batch contract: a dimension mismatch or a 1-D point
    for bad in (np.zeros((1, 2)), probe[0]):
        with pytest.raises(InputError):
            fld.interp(bad)


# -- scatter -------------------------------------------------------------------


def test_scatter_rows_and_envelopes(line3d, tmp_path):
    c = line3d.points[np.argmin(np.linalg.norm(line3d.points, axis=1))]
    ball = Ball(c, 0.4)
    single = np.zeros(len(line3d.points), dtype=bool)
    single[np.argmin(np.linalg.norm(line3d.points - c[None, :], axis=1))] = True
    res = ainfty_scatter(assemble(line3d, (c, 3.0), 3.0 / 64), ball,
                         n_sets=16, seed=1,
                         extra_sets=[single, np.zeros(len(line3d.points), bool)])
    assert res.pairs.shape == (19, 2)
    assert res.descriptors[0] == "full"
    assert tuple(res.pairs[0]) == (1.0, 1.0)
    # single-point sets sit near the scatter origin; a lone atom can carry
    # zero hitting weight when it anchors no pinned cell at this grid step
    om, sg = res.pairs[17]
    assert om <= 2.0 / res.n_atoms and sg <= 2.0 / res.n_atoms
    assert om >= 0 and sg > 0
    # empty extra set contributes an exact origin row
    assert tuple(res.pairs[18]) == (0.0, 0.0)
    env = [res.envelope(d) for d in (0.01, 0.05, 0.2, 1.1)]
    assert env == sorted(env)
    assert env[3] == res.pairs[:, 1].max()
    # the only rows with zero hitting-weight ratio are the two extras, so
    # the tiny-threshold envelope is exactly the lone atom's mass ratio
    assert res.envelope(1e-9) == sg

    csv_path = tmp_path / "scatter.csv"
    write_scatter(res, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "omega_ratio,sigma_ratio,descriptor"
    assert len(lines) == 20
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 1.0


def test_scatter_csv_quotes_descriptors(line3d, sys48, tmp_path):
    # union descriptors hold commas; csv.reader must see three fields
    c = line3d.points[np.argmin(np.linalg.norm(line3d.points, axis=1))]
    single = np.zeros(len(line3d.points), dtype=bool)
    single[0] = True
    res = ainfty_scatter(sys48, Ball(c, 0.4), n_sets=4, seed=1,
                         extra_sets=[single])
    assert any("," in desc for desc in res.descriptors)
    path = tmp_path / "scatter.csv"
    write_scatter(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega_ratio", "sigma_ratio", "descriptor"]
    assert all(len(row) == 3 for row in rows)
    assert [row[2] for row in rows[1:]] == list(res.descriptors)
    assert b"\r" not in path.read_bytes()


def test_scatter_guards(line3d, sys48):
    c = line3d.points[0]
    with pytest.raises(ParameterError):
        ainfty_scatter(sys48, Ball(c, 0.4), n_sets=0, seed=0)
    with pytest.raises(DegenerateInputError):
        ainfty_scatter(sys48, Ball(np.array([0.0, 2.0, 0.0]), 0.05),
                       n_sets=4, seed=0)


# -- square function vs suprema -------------------------------------------------


def test_sn_guards(line3d, sys48):
    ball = Ball(line3d.points[100], 0.64)
    ones = sys48.solve(np.ones(200))
    with pytest.raises(ResolutionError):
        sn_check(sys48, ball, ones)
    # the shared 48^3 grid cannot cover 2B for an edge ball (radius chosen
    # so r/32 equals the grid step and the resolution guard stays quiet)
    edge_ball = Ball(line3d.points[np.argmax(line3d.points[:, 0])], 2.0)
    with pytest.raises(DomainError):
        sn_check(sys48, edge_ball, ones)
    # a solution from a different grid is rejected
    other = assemble(line3d, (np.zeros(3), 1.5), 1.5 / 24, SolverConfig())
    sol = other.solve(1.0)
    with pytest.raises(InputError):
        sn_check(sys48, Ball(np.zeros(3), 2.0), sol)


@pytest.fixture(scope="module")
def sys24(line3d):
    """24^3 system at h = 1/16 centred at 0: box_lo = (-0.75,) * 3."""
    return assemble(line3d, (np.zeros(3), 1.5), 1.0 / 16, SolverConfig())


def test_sn_h_must_be_the_given_systems(line3d, sys24):
    """The r/32 rule applies to the system's own cell size."""
    ball = Ball(line3d.points[100], 0.3)
    # 1/16 > 0.3/32
    with pytest.raises(ResolutionError):
        sn_check(sys24, ball, sys24.solve(np.ones(200)))


def test_sn_refuses_a_solution_with_another_cell_size(line3d, sys24):
    """Same shape and box_lo, but h = 1/8: not the system's grid."""
    other = assemble(line3d, (np.full(3, 0.75), 3.0), 1.0 / 8,
                     SolverConfig())
    assert other.shape == sys24.shape
    assert np.array_equal(other.box_lo, sys24.box_lo)
    sol = other.solve(1.0)
    with pytest.raises(InputError):
        sn_check(sys24, Ball(np.zeros(3), 2.0), sol)
    assert not sys24.same_grid(sol.field) and other.same_grid(sol.field)


def test_sn_single_ball_ratios_and_cone_domination(line3d):
    c = line3d.points[np.argmin(np.abs(line3d.points[:, 0] - 0.125))]
    ball = Ball(c, 0.64)
    g = (line3d.points[:, 0] > c[0]).astype(float)
    cfg = SolverConfig(collar=1.5, tol=1e-6)
    system = assemble(line3d, (c, 4.0 * ball.radius + 8.0 * 0.02), 0.02, cfg)
    res = sn_check(system, ball, system.solve(g))
    assert res.square_fn > 0
    assert 0.3 <= res.sup_ratio() <= 1.5
    assert 0.25 <= res.nt_ratio() <= 1.5
    assert res.sup <= 1.0 + 1e-9
    assert res.n_cells > 100_000
    assert res.n_empty_cones == 0

    # the summed cone norm dominates every single member contribution
    fld = res.field
    gap = np.linalg.norm(line3d.points - c[None, :], axis=1)
    verts = np.flatnonzero(gap <= 2 * ball.radius)[:10]
    centers = fld.cell_centers()
    dist_g = line3d.dist_to_support(centers)
    in_2b = np.linalg.norm(centers - c[None, :], axis=1) <= 2 * ball.radius
    for vi in verts:
        member = in_2b & (np.linalg.norm(
            centers - line3d.points[vi][None, :], axis=1) <= 2.0 * dist_g)
        if not member.any():
            continue
        peak = np.abs(fld.values.ravel()[member]).max()
        assert res.nt_sq >= peak ** 2 * line3d.weights[vi] - 1e-12


def test_sn_constant_data_has_zero_square_function(line3d):
    ball = Ball(line3d.points[100], 0.64)
    system = assemble(line3d, (ball.center, 4.0 * ball.radius + 8.0 * 0.02),
                      0.02, SolverConfig(collar=1.5, tol=1e-6))
    res = sn_check(system, ball, system.solve(np.ones(200)))
    assert res.square_fn == 0.0
    assert res.sup_sq == pytest.approx(line3d.mass_in_ball(ball.center,
                                                           ball.radius))
    assert res.nt_ratio() == 0.0


def test_envelope_without_qualifying_rows_is_nan():
    pairs = np.array([[1.0, 1.0], [0.3, 0.25], [0.05, 0.1]])
    res = ScatterResult(pairs, ["full", "a", "b"], None, None, 1.0, 1.0,
                        3, 0, 0.0)
    assert res.envelope(0.1) == 0.1
    assert res.envelope(0.5) == 0.25
    # no row below the threshold: no data, not a zero envelope
    assert math.isnan(res.envelope(0.05))


# -- the smallest sn grid, shared by the slab and memory tests ---------------


@pytest.fixture(scope="module")
def sn128():
    """The smallest sn grid in R^3: a 32-atom line (spacing 0.02, collar
    3), h = r/32 and a box that just covers 2B, so 128^3 cells; the
    halfspace data are solved once.  Returns (sigma, ball, system,
    solution)."""
    sigma = make_plane_set(3, 1, 0.32, 0.02)
    c = sigma.points[np.argmin(np.abs(sigma.points[:, 0] - 0.125))]
    ball = Ball(c, 0.64)
    system = assemble(sigma, (c, 4.0 * ball.radius), ball.radius / 32.0,
                      SolverConfig(tol=1e-3, collar=3.0))
    assert system.shape == (128,) * 3
    sol = system.solve((sigma.points[:, 0] > c[0]).astype(float))
    return sigma, ball, system, sol


def _sn_check_oracle(sigma, ball, system, sol):
    """The replaced whole-window sn_check body, kept as a reference."""
    fld = sol.field
    r = ball.radius
    n = sigma.ambient_dim
    d = sigma.intrinsic_dim
    full_ax = fld.axes()
    win = []
    for a in range(n):
        i0 = int(np.searchsorted(full_ax[a], ball.center[a] - 2.0 * r - fld.h))
        i1 = int(np.searchsorted(full_ax[a], ball.center[a] + 2.0 * r + fld.h))
        win.append(slice(max(0, i0 - 1), min(fld.shape[a], i1 + 1)))
    win = tuple(win)
    sub = GridField(np.array([full_ax[a][win[a]][0] - 0.5 * fld.h
                              for a in range(n)]),
                    fld.h, fld.values[win], fld.mask[win])
    grad2 = elliptic._masked_gradient_sq(sub)
    ax = sub.axes()
    dist2 = np.zeros(sub.shape)
    for a in range(n):
        sh = [1] * n
        sh[a] = -1
        dist2 = dist2 + ((ax[a] - ball.center[a]) ** 2).reshape(sh)
    in_b = (dist2 <= r * r) & (sub.mask != MASK_COLLAR)
    expo2 = d + 2.0 - n
    if np.any(in_b):
        wgt = 1.0 if expo2 == 0.0 else elliptic._conductance(
            sigma, elliptic._cell_centers(sub.box_lo, sub.h, sub.shape,
                                          np.flatnonzero(in_b)),
            system.config.beta, expo2, "gradient")
        square_fn = float(np.sum(grad2[in_b] * wgt) * fld.h ** n)
    else:
        square_fn = 0.0
    in_2b = dist2 <= 4.0 * r * r
    sup = float(np.abs(sub.values[in_2b]).max()) if in_2b.any() else 0.0
    sup_sq = sup * sup * sigma.mass_in_ball(ball.center, r)
    cells_2b = elliptic._cell_centers(sub.box_lo, sub.h, sub.shape,
                                      np.flatnonzero(in_2b))
    verts = np.flatnonzero(
        np.linalg.norm(sigma.points - ball.center[None, :], axis=1) <= 2 * r)
    cones = carleson.ConeFamily(sigma.points[verts], 2.0,
                                Ball(ball.center, 2.0 * r))
    nvals, empty = carleson.ntmax_family(
        (cells_2b, sub.values[in_2b]), sigma, cones)
    nt_sq = float(np.sum(sigma.weights[verts] * nvals ** 2))
    return SNResult(square_fn, float(sup_sq), nt_sq, sup, ball,
                    float(system.h), sol.iterations, sol.residual,
                    int(in_b.sum()), int(empty.sum()), fld)


def test_slabbed_sn_check_matches_whole_window(sn128, monkeypatch):
    """Every SNResult field equals the whole-window body's, with slabs of
    5 planes that do not divide the 128-plane window."""
    sigma, ball, system, sol = sn128
    monkeypatch.setattr(elliptic, "_SN_SLAB", 5 * 128 * 128 + 7)
    got = sn_check(system, ball, sol)
    want = _sn_check_oracle(sigma, ball, system, sol)
    assert got.square_fn > 0 and got.n_cells > 100_000
    for f in dataclasses.fields(SNResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a is b if f.name in ("ball", "field") else a == b, f.name


def test_sn_check_queries_the_support_once_per_slab(sn128, monkeypatch):
    """One support query per slab of the 128-plane window, not one per
    cone-budget block: 32 slabs of 4 planes at the default slab size, one
    point per cell of 2B."""
    sigma, ball, system, sol = sn128
    calls = []
    query = type(sigma).dist_to_support

    def counting(self, x):
        calls.append(len(x))
        return query(self, x)

    monkeypatch.setattr(type(sigma), "dist_to_support", counting)
    res = sn_check(system, ball, sol)
    step = elliptic._SN_SLAB // 128 ** 2
    assert len(calls) == math.ceil(128 / step) == 32
    in_2b = np.linalg.norm(sol.field.cell_centers() - ball.center,
                           axis=1) <= 2.0 * ball.radius
    assert sum(calls) == np.count_nonzero(in_2b)
    assert res.n_empty_cones == 0


def test_sn_check_keeps_its_bits_at_any_worker_count(sn128, monkeypatch):
    """Slabs of 5 planes make 26 slabs of the 128-plane window, run as 1,
    2 and 3 tasks (the last split 8/9/9): every scalar keeps its bits."""
    sigma, ball, system, sol = sn128
    monkeypatch.setattr(elliptic, "_SN_SLAB", 5 * 128 * 128 + 7)
    runs = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as mp:
            mp.setattr(distances, "_WORKERS", workers)
            runs.append(sn_check(system, ball, sol))
    assert runs[0].square_fn > 0 and runs[0].nt_sq > 0
    for res in runs[1:]:
        for f in dataclasses.fields(SNResult):
            if f.name not in ("ball", "field"):
                assert getattr(res, f.name) == getattr(runs[0], f.name), \
                    f.name


def test_sn_ratios_of_zero_data_are_nan(sn128):
    """Zero data: square function, sup^2 and N^2 all vanish, so both
    ratios are 0/0, which is no data, not a perfect 0."""
    sigma, ball, system, _ = sn128
    sol = system.solve(np.zeros(len(sigma)))
    assert sol.iterations == 0
    res = sn_check(system, ball, sol)
    assert res.square_fn == res.sup_sq == res.nt_sq == 0.0
    assert math.isnan(res.sup_ratio()) and math.isnan(res.nt_ratio())


def _peak_grid_arrays(n_cells, fn, *args):
    """fn(*args) and the traced allocation peak of the call, in float64
    arrays of n_cells entries."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (8.0 * n_cells)


def test_phase_peaks_stay_near_the_working_set(line3d, sn128, monkeypatch):
    """Traced allocation peaks of each phase, in float64 grid arrays.

    Measured: assemble 8.67 on the 48^3 grid with 4096-cell slabs (4.3 of
    them the system it returns, most of the rest the face loop), solve 4.0
    (the four CG vectors), sn_check 1.99 on the 128^3 grid.  The bounds
    add 0.5 of headroom.  The whole-grid collar search, the seven-vector
    CG and the whole-window sn_check they replace read 12.6, 7.0 and 10.2;
    the face loop that kept its label grid, ``nz`` and one ``bincount``
    output per sum alive read 10.07, and the sn_check that gathered all of
    2B's cell centres before its cone maxima read 3.92.
    """
    with monkeypatch.context() as mp:
        mp.setattr(elliptic, "_EVAL_SLAB", 4096)
        system, assemble_peak = _peak_grid_arrays(
            48 ** 3, assemble, line3d, (np.zeros(3), 3.0), 3.0 / 48,
            SolverConfig())
        g = (line3d.points[:, 0] > 0).astype(float)
        _, solve_peak = _peak_grid_arrays(system.n_cells, system.solve, g)
    sigma, ball, big, sol = sn128
    _, sn_peak = _peak_grid_arrays(
        big.n_cells, lambda: sn_check(big, ball, sol))
    peaks = {"assemble": assemble_peak, "solve": solve_peak,
             "sn_check": sn_peak}
    bounds = {"assemble": 9.2, "solve": 4.5, "sn_check": 2.5}
    assert all(peaks[k] <= bounds[k] for k in bounds), peaks


@pytest.mark.parametrize("slab", [4096, None])
def test_assemble_peak_does_not_grow_with_the_workers(line3d, slab,
                                                      monkeypatch):
    """Kernel tasks hold buffers only as far as their slab's probes cover
    them, so the extra peak at 8 workers is at most one slab's probe
    array, and none with the phase test's 4096-cell slabs, where the
    peak stays within that test's assemble bound."""
    n_cells = 48 ** 3
    peaks = []
    for workers in (1, 8):
        with monkeypatch.context() as mp:
            if slab is not None:
                mp.setattr(elliptic, "_EVAL_SLAB", slab)
            mp.setattr(distances, "_WORKERS", workers)
            _, peak = _peak_grid_arrays(
                n_cells, assemble, line3d, (np.zeros(3), 3.0), 3.0 / 48,
                SolverConfig())
        peaks.append(peak)
    probes = 3 * min(elliptic._EVAL_SLAB if slab is None else slab,
                     48 * 48 * 47) / n_cells
    if slab is not None:
        assert peaks[1] <= 9.2 and peaks[1] - peaks[0] < 0.01, peaks
    assert peaks[1] - peaks[0] <= probes, peaks


def test_sn_check_peak_stays_within_its_bound_at_any_worker_count(
        sn128, monkeypatch):
    """At most four slab tasks are in flight, so the traced sn_check peak
    stays within the phase test's 2.5 grid arrays at any worker count.
    Measured: 0.65, 1.89 and 1.89 at 1, 4 and 8 workers; one task per
    worker with 16-plane slabs read 2.33 at 2 workers and 4.19 at 4."""
    sigma, ball, system, sol = sn128
    peaks = []
    for workers in (1, 4, 8):
        with monkeypatch.context() as mp:
            mp.setattr(distances, "_WORKERS", workers)
            _, peak = _peak_grid_arrays(
                system.n_cells, lambda: sn_check(system, ball, sol))
        peaks.append(peak)
    assert peaks[0] <= 1.0 and max(peaks) <= 2.5, peaks
