"""Truncated degenerate-weight solver: assembly identities, hitting
probabilities and their invariants, the scatter diagnostic, and the
square-function comparisons."""

import itertools

import numpy as np
import pytest

from urlab import elliptic
from urlab.distances import kernel_constant
from urlab.elliptic import (
    MASK_COLLAR,
    Ball,
    GridField,
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
    ParameterError,
    ResolutionError,
    TopologyError,
)
from urlab.geometry import DiscreteMeasure, make_plane_set


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


@pytest.fixture(scope="module")
def sys48(line3d):
    """Shared 48^3 system on the standard line, reflecting walls."""
    return assemble(line3d, (np.zeros(3), 3.0), 3.0 / 48, SolverConfig())


@pytest.fixture(scope="module")
def pole_above():
    return np.array([0.0, 0.25, 0.0])


# -- configuration and assembly guards ---------------------------------------


def test_config_guards():
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
    with pytest.raises(DomainError):
        assemble(line3d, (np.array([40.0, 40.0, 40.0]), 3.0), 3.0 / 48)


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


# -- hitting probabilities -----------------------------------------------------


def test_half_line_symmetry(line3d, sys48, pole_above):
    e = line3d.points[:, 0] > 0
    hm = harmonic_measure(line3d, e, pole_above, system=sys48)
    assert abs(hm.value - 0.5) <= 1e-8
    assert hm.mass_gap <= 1e-10
    assert -1e-7 <= hm.value <= 1 + 1e-7
    assert hm.iterations[0] > 0


def test_representer_matches_direct_solves(line3d, sys48, pole_above):
    e = line3d.points[:, 0] > 0.3
    pw = sys48.pole_weights(pole_above)
    hm = harmonic_measure(line3d, e, pole_above, system=sys48)
    assert abs(pw.value(e) - hm.value) <= 1e-6
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
    h1 = harmonic_measure(line3d, e1, pole_above, system=sys48)
    h2 = harmonic_measure(line3d, e2, pole_above, system=sys48)
    h12 = harmonic_measure(line3d, e1 | e2, pole_above, system=sys48)
    assert abs(h1.value + h2.value - h12.value) <= 1e-7
    assert h12.value >= h1.value - 1e-8
    assert h12.value >= h2.value - 1e-8
    fv = h12.field.values
    assert fv.min() >= -1e-7 and fv.max() <= 1.0 + 1e-7


def test_pole_guards(line3d, sys48):
    e = line3d.points[:, 0] > 0
    with pytest.raises(DomainError):
        harmonic_measure(line3d, e, np.array([0.0, 0.05, 0.0]), system=sys48)
    with pytest.raises(DomainError):
        sys48.pole_weights(np.array([0.0, 5.0, 0.0]))
    with pytest.raises(InputError):
        sys48.pole_weights(np.array([0.0, 0.25]))
    with pytest.raises(InputError):
        harmonic_measure(line3d, e[:50], np.array([0.0, 0.25, 0.0]),
                         system=sys48)
    other = make_plane_set(3, 1, 0.5, 0.01)
    with pytest.raises(InputError):
        harmonic_measure(other, np.ones(len(other.points), bool),
                         np.array([0.0, 0.25, 0.0]), system=sys48)


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
    bias_value = res.field.interp(pole_above)
    assert 0.6 <= bias_value <= 0.95
    e = line3d.points[:, 0] > 0
    hm = harmonic_measure(line3d, e, pole_above, system=sysd)
    # the two indicator solves still sum to the biased constant solution
    assert abs(hm.mass_gap - (1.0 - bias_value)) <= 1e-6


def test_refinement_keeps_symmetry_value(line3d):
    # both grids are mirror-symmetric, so the halving drift is tiny; the
    # pole sits high enough to clear the coarse grid's four-cell rule
    e = line3d.points[:, 0] > 0
    pole = np.array([0.0, 0.55, 0.0])
    sys24 = assemble(line3d, (np.zeros(3), 3.0), 3.0 / 24, SolverConfig())
    hm_coarse = harmonic_measure(line3d, e, pole, system=sys24)
    hm_fine = harmonic_measure(line3d, e, pole,
                               box=(np.zeros(3), 3.0), h=3.0 / 48)
    assert abs(hm_coarse.value - hm_fine.value) <= 0.05


def test_four_dimensional_ambient_smoke(plane4d):
    # d=2 sheet in R^4 exercises the dimension-generic stencil
    sysp = assemble(plane4d, (np.zeros(4), 0.24), 0.02, SolverConfig())
    res = sysp.solve(1.0)
    assert res.iterations == 0
    assert np.array_equal(res.field.values, np.ones(sysp.shape))
    e = plane4d.points[:, 0] > 0
    hm = harmonic_measure(plane4d, e, np.array([0.0, 0.0, 0.1, 0.0]),
                          system=sysp)
    assert abs(hm.value - 0.5) <= 1e-6
    assert hm.mass_gap <= 1e-8


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
    # batched interpolation is the pointwise one
    pts = np.random.default_rng(5).uniform(lo, hi, size=(300, 3))
    assert np.array_equal(coarse.interp(pts),
                          [coarse.interp(p) for p in pts])


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


# -- grid fields ---------------------------------------------------------------


def test_grid_field_io_and_interp(tmp_path, sys48):
    res = sys48.solve((np.sin(3.0 * np.arange(200) / 200.0)))
    fld = res.field
    binp = tmp_path / "field.bin"
    write_field(fld, binp)
    back = read_field(str(binp) + ".json")
    assert np.array_equal(back.values, fld.values)
    assert np.array_equal(back.mask, fld.mask)
    assert back.h == fld.h
    assert np.allclose(back.box_lo, fld.box_lo)
    # multilinear interpolation is exact at cell centers
    probe = fld.box_lo + (np.array([10, 20, 30]) + 0.5) * fld.h
    assert fld.interp(probe) == pytest.approx(fld.values[10, 20, 30])
    with pytest.raises(DomainError):
        fld.interp(fld.box_lo - 1.0)
    with pytest.raises(InputError):
        fld.interp(np.zeros(2))


# -- scatter -------------------------------------------------------------------


def test_scatter_rows_and_envelopes(line3d, tmp_path):
    c = line3d.points[np.argmin(np.linalg.norm(line3d.points, axis=1))]
    ball = Ball(c, 0.4)
    single = np.zeros(len(line3d.points), dtype=bool)
    single[np.argmin(np.linalg.norm(line3d.points - c[None, :], axis=1))] = True
    res = ainfty_scatter(line3d, ball, n_sets=16, seed=1,
                         box=(c, 3.0), h=3.0 / 64,
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


def test_scatter_guards(line3d):
    c = line3d.points[0]
    with pytest.raises(ParameterError):
        ainfty_scatter(line3d, Ball(c, 0.4), n_sets=0)
    with pytest.raises(DegenerateInputError):
        ainfty_scatter(line3d, Ball(np.array([0.0, 2.0, 0.0]), 0.05),
                       n_sets=4)


# -- square function vs suprema -------------------------------------------------


def test_sn_guards(line3d, sys48):
    ball = Ball(line3d.points[100], 0.64)
    with pytest.raises(InputError):
        sn_check(line3d, ball, h=0.02)
    with pytest.raises(ResolutionError):
        sn_check(line3d, ball, SolverConfig(), np.ones(200), h=0.04)
    # the shared 48^3 grid cannot cover 2B for an edge ball (radius chosen
    # so r/32 equals the grid step and the resolution guard stays quiet)
    edge_ball = Ball(line3d.points[np.argmax(line3d.points[:, 0])], 2.0)
    with pytest.raises(DomainError):
        sn_check(line3d, edge_ball, SolverConfig(), np.ones(200),
                 system=sys48)
    # a solution from a different grid is rejected
    other = assemble(line3d, (np.zeros(3), 1.5), 1.5 / 24, SolverConfig())
    sol = other.solve(1.0)
    with pytest.raises(InputError):
        sn_check(line3d, Ball(np.zeros(3), 2.0), SolverConfig(),
                 system=sys48, solution=sol)


def test_sn_single_ball_ratios_and_cone_domination(line3d):
    c = line3d.points[np.argmin(np.abs(line3d.points[:, 0] - 0.125))]
    ball = Ball(c, 0.64)
    g = (line3d.points[:, 0] > c[0]).astype(float)
    cfg = SolverConfig(collar=1.5, tol=1e-6)
    res = sn_check(line3d, ball, cfg, g, h=0.02)
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
    res = sn_check(line3d, ball, SolverConfig(collar=1.5, tol=1e-6),
                   np.ones(200), h=0.02)
    assert res.square_fn == 0.0
    assert res.sup_sq == pytest.approx(line3d.mass_in_ball(ball.center,
                                                           ball.radius))
    assert res.nt_ratio() == 0.0
