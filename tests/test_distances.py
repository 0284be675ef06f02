"""Kernel constant, field evaluators, and the exact identities."""

import math
import os
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial.distance import cdist

from urlab import distances
from urlab.distances import (
    distance_gradient,
    divergence_check,
    evaluate_fields,
    fd_gradient_check,
    kernel_constant,
    ratio_gradient,
    regularized_distance,
    riesz_field,
)
from urlab.exceptions import ParameterError, ResolutionError
from urlab.geometry import DiscreteMeasure, make_plane_set


def _neg_half_pow_oracle(r2, e):
    if e == 1.0:
        return 1.0 / np.sqrt(r2)
    if e == 2.0:
        return 1.0 / r2
    if e == 3.0:
        return 1.0 / (r2 * np.sqrt(r2))
    if e == 4.0:
        return 1.0 / (r2 * r2)
    if e == 5.0:
        return 1.0 / (r2 * r2 * np.sqrt(r2))
    return r2 ** (-e / 2.0)


def _kernel_bundle_oracle(sigma, probes, scalar_exps, vector_exps=(),
                          check=True):
    """The replaced kernel-sum core, kept as a reference: squared distances
    from the expanded product |x|^2 + |y|^2 - 2x.y in (probes, atoms)
    chunks of up to 4e6 floats, vector sums through a (chunk, atoms, n)
    difference array."""
    pts = sigma.points
    w = sigma.weights
    m, n = probes.shape
    scalars = {e: np.zeros(m) for e in scalar_exps}
    vectors = {e: np.zeros((m, n)) for e in vector_exps}
    gap = np.full(m, np.inf)
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    chunk = max(1, 4_000_000 // max(pts.shape[0], 1))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        pr = probes[lo:hi]
        r2 = np.einsum("ij,ij->i", pr, pr)[:, None] + pts_sq[None, :] \
            - 2.0 * (pr @ pts.T)
        np.maximum(r2, 0.0, out=r2)
        gap[lo:hi] = np.sqrt(r2.min(axis=1))
        for e in scalar_exps:
            scalars[e][lo:hi] = _neg_half_pow_oracle(r2, e) @ w
        if vector_exps:
            diff = pr[:, None, :] - pts[None, :, :]
            for e in vector_exps:
                fac = _neg_half_pow_oracle(r2, e + 1.0) * w[None, :]
                vectors[e][lo:hi] = np.einsum("ij,ijk->ik", fac, diff)
    if check and np.any(gap < 2.0 * sigma.spacing):
        raise ResolutionError("probe too close to the support")
    return scalars, vectors, gap


def _assert_bundles_match(got, want, rtol):
    (s, v, gap), (so, vo, gapo) = got, want
    assert s.keys() == so.keys() and v.keys() == vo.keys()
    for e in so:
        assert np.all(np.abs(s[e] - so[e]) <= rtol * np.abs(so[e]))
    for e in vo:
        err = np.linalg.norm(v[e] - vo[e], axis=1)
        assert np.all(err <= rtol * np.linalg.norm(vo[e], axis=1))
    assert np.all(np.abs(gap - gapo) <= rtol * gapo)


def _ring_probes(count, dist, x_range=0.4, seed=0):
    """Probes at fixed distance from the x1-axis, spread along it."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-x_range, x_range, size=count)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([x1, dist * np.cos(theta), dist * np.sin(theta)])


@pytest.fixture(scope="module")
def longline3d():
    # the half-exponent kernel tail decays like sqrt(dist/reach), so plane
    # statements routed through the smoothed density need a long support
    return make_plane_set(3, 1, extent=120.0, spacing=0.01)


# -- kernel constant ----------------------------------------------------------

def test_kernel_constant_reference_values():
    assert kernel_constant(1, 1.0) == pytest.approx(math.pi, rel=1e-8)
    assert kernel_constant(1, 3.0) == pytest.approx(math.pi / 2.0, rel=1e-8)


def _kernel_constant_oracle(d, beta):
    """The replaced radial quadrature, kept as a reference: the area of
    the unit (d-1)-sphere times a 1-D integral decaying like
    rho^{-1-beta}, at relative tolerance 1e-10."""
    expo = (d + beta) / 2.0
    val, err = quad(lambda rho: rho ** (d - 1) * (1.0 + rho * rho) ** (-expo),
                    0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    assert err <= 1e-10 * val
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) * val


def test_kernel_constant_gamma_closed_form():
    for d in (1, 2, 3, 4):
        for beta in (0.5, 1.0, 1.7, 2.0, 3.0, 5.0):
            want = _kernel_constant_oracle(d, beta)
            assert kernel_constant(d, beta) == pytest.approx(want, rel=1e-12)


def test_kernel_constant_recursion():
    # (beta + d) c_{beta+2} = beta c_beta
    for d in (1, 2):
        for beta in (0.5, 1.0, 2.0):
            lhs = (beta + d) * kernel_constant(d, beta + 2.0)
            rhs = beta * kernel_constant(d, beta)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_kernel_constant_rejects_bad_args():
    with pytest.raises(ParameterError):
        kernel_constant(0, 1.0)
    with pytest.raises(ParameterError):
        kernel_constant(1, 0.0)


@pytest.mark.parametrize("call", [
    lambda s: kernel_constant(1, float("nan")),
    lambda s: regularized_distance(s, np.array([[0.0, 0.5, 0.0]]),
                                   float("nan")),
], ids=["kernel_constant", "regularized_distance"])
def test_nan_beta_is_refused(line3d, call):
    """At ``beta <= 0`` a NaN beta gave a NaN constant and a bare
    ``ValueError`` from the integer-exponent test."""
    with pytest.raises(ParameterError):
        call(line3d)


# -- plane closed forms (beta=2: light tails, truncation negligible) ---------

def test_distance_plane_value(line3d):
    beta = 2.0
    probes = _ring_probes(20, 0.05)
    want = kernel_constant(1, beta) ** (-1.0 / beta) * 0.05
    got = regularized_distance(line3d, probes, beta)
    assert np.allclose(got, want, rtol=0.01)


def test_field_plane_value(line3d):
    beta = 2.0
    u = 0.05
    probes = _ring_probes(20, u, seed=3)
    got = riesz_field(line3d, probes, beta)
    normal = probes.copy()
    normal[:, 0] = 0.0
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    want = kernel_constant(1, beta + 1.0) * u ** (-beta) * normal
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 0.02 * np.linalg.norm(want, axis=1))


def test_gradient_plane_value(line3d):
    beta = 2.0
    probes = _ring_probes(20, 0.06, seed=4)
    got = distance_gradient(line3d, probes, beta)
    normal = probes.copy()
    normal[:, 0] = 0.0
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    want = kernel_constant(1, beta) ** (-1.0 / beta) * normal
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 0.01 * np.linalg.norm(want, axis=1))


def test_field_bounded_by_distance_power(line3d, graph02):
    beta = 1.5
    for sigma in (line3d, graph02):
        probes = _ring_probes(30, 0.2, seed=5) + np.array([0.0, 0.1, 0.0])
        h = riesz_field(sigma, probes, beta)
        d = regularized_distance(sigma, probes, beta)
        assert np.all(np.linalg.norm(h, axis=1)
                      <= d ** (-beta) * (1.0 + 1e-12))


def test_homogeneity_exact(line3d):
    lam = 2.0
    probes = _ring_probes(8, 0.07, seed=6)
    base_d = regularized_distance(line3d, probes, 2.0)
    base_g = distance_gradient(line3d, probes, 2.0)
    scaled = DiscreteMeasure(3, 1, lam * line3d.points, lam * line3d.weights,
                             lam * line3d.spacing, "scaled")
    got_d = regularized_distance(scaled, lam * probes, 2.0)
    got_g = distance_gradient(scaled, lam * probes, 2.0)
    assert np.allclose(got_d, lam * base_d, rtol=1e-12)
    assert np.allclose(got_g, base_g, rtol=1e-10, atol=1e-14)


# -- identities by finite differences ----------------------------------------

@pytest.mark.parametrize("beta", [0.7, 1.0, 2.0])
def test_fd_gradient_check_line(line3d, beta):
    for probe in _ring_probes(5, 0.08, seed=7):
        rep = fd_gradient_check(line3d, probe, beta)
        assert rep["rel_err"] <= 1e-4
        assert rep["richardson_ok"]


def test_fd_gradient_check_graph(graph02):
    probes = _ring_probes(5, 0.1, seed=8) + np.array([0.0, 0.08, 0.0])
    for probe in probes:
        rep = fd_gradient_check(graph02, probe, 2.0)
        assert rep["rel_err"] <= 1e-4


def test_divergence_free_middle_exponent(line3d, graph02):
    for sigma in (line3d, graph02):
        for probe in _ring_probes(4, 0.12, seed=9) + np.array([0.0, 0.06, 0.0]):
            rep = divergence_check(sigma, probe)
            assert rep["ratio"] <= 1e-3


# -- ratio field -------------------------------------------------------------

def test_ratio_gradient_small_on_plane(longline3d):
    probes = _ring_probes(10, 0.025, x_range=0.5, seed=12)
    vals = ratio_gradient(longline3d, probes, 1.0, 2.0)
    assert np.all(vals <= 0.05)


def test_ratio_gradient_sees_graph_corners(graph02):
    # probes straddling a sawtooth corner: the ratio gradient wakes up
    probes = np.array([[0.125, 0.08, 0.0], [0.375, 0.07, 0.02]])
    vals = ratio_gradient(graph02, probes, 1.0, 2.0)
    assert np.all(vals > 1e-3)


# -- guards -------------------------------------------------------------------

def test_resolution_guard_fires(line3d):
    with pytest.raises(ResolutionError):
        regularized_distance(line3d, np.array([[0.0, 0.015, 0.0]]), 2.0)


def test_evaluators_take_one_batch_shape(line3d):
    """Every evaluator returns arrays over an (m, n) batch, a batch of
    one included, and refuses a 1-D point or a wrong width."""
    probe = np.array([0.05, 0.07, -0.02])
    evaluators = [
        (lambda x: regularized_distance(line3d, x, 2.0), (1,)),
        (lambda x: riesz_field(line3d, x, 2.0), (1, 3)),
        (lambda x: distance_gradient(line3d, x, 2.0), (1, 3)),
        (lambda x: ratio_gradient(line3d, x, 1.0, 2.0), (1,)),
        (lambda x: evaluate_fields(line3d, x, 2.0).field, (1, 3)),
    ]
    for fn, shape in evaluators:
        assert fn(probe[None, :]).shape == shape
        for bad in (probe, probe[None, :2], probe[None, None, :]):
            with pytest.raises(ParameterError):
                fn(bad)


def test_evaluate_fields_flags_instead(line3d):
    probes = np.array([[0.0, 0.015, 0.0], [0.0, 0.1, 0.0]])
    fs = evaluate_fields(line3d, probes, 2.0)
    assert fs.reliable.tolist() == [False, True]
    assert fs.distance.shape == (2,)
    assert fs.field.shape == (2, 3)


# -- kernel-sum core against the expanded-product oracle ---------------------

_SCALARS = (1.5, 3.0, 3.5, 4.0, 5.0)
_VECTORS = (3.0, 4.0)


def test_kernel_bundle_matches_oracle(graph02):
    probes = _ring_probes(300, 0.1, seed=13) + np.array([0.0, 0.06, 0.0])
    got = distances._kernel_bundle(graph02, probes, _SCALARS, _VECTORS)
    want = _kernel_bundle_oracle(graph02, probes, _SCALARS, _VECTORS)
    _assert_bundles_match(got, want, 1e-12)


def test_kernel_bundle_single_probe(line3d):
    probe = np.array([[0.05, 0.07, -0.02]])
    got = distances._kernel_bundle(line3d, probe, _SCALARS, _VECTORS)
    want = _kernel_bundle_oracle(line3d, probe, _SCALARS, _VECTORS)
    _assert_bundles_match(got, want, 1e-12)


def test_kernel_bundle_more_atoms_than_a_chunk(graph02, monkeypatch):
    # a budget below the atom count leaves one probe per chunk
    monkeypatch.setattr(distances, "_CHUNK_BUDGET", 64)
    assert graph02.points.shape[0] > 64
    probes = _ring_probes(7, 0.15, seed=14) + np.array([0.0, 0.06, 0.0])
    got = distances._kernel_bundle(graph02, probes, _SCALARS, _VECTORS)
    want = _kernel_bundle_oracle(graph02, probes, _SCALARS, _VECTORS)
    _assert_bundles_match(got, want, 1e-12)


def _spanning_probes(sigma, count, seed):
    """Probes 4 to 30 spacings off the support, in random order along it,
    so every chunk of a few hundred spans all of it.  (Closer probes
    leave the oracle, whose r^2 is the expanded product, the larger
    error.)"""
    rng = np.random.default_rng(seed)
    base = sigma.points[rng.integers(0, len(sigma), size=count)]
    step = rng.normal(size=base.shape)
    step *= rng.uniform(4.0, 30.0, size=(count, 1)) * sigma.spacing \
        / np.linalg.norm(step, axis=1, keepdims=True)
    probes = base + step
    return probes[sigma.dist_to_support(probes) >= 4.0 * sigma.spacing]


@pytest.mark.parametrize("scalar_exps, vector_exps", [
    ((3.0,), (4.0,)),           # distance_gradient: r^-5 from r^-3 / r^2
    ((3.0,), (3.0, 4.0)),       # evaluate_fields: r^-4 is formed on its own
    ((2.0, 3.0), (3.0, 4.0)),   # ratio_gradient: each from its own scalar
])
def test_kernel_bundle_moments_about_a_chunk_probe(graph02, scalar_exps,
                                                   vector_exps):
    """The vector sums are first moments about one probe of the chunk; on
    chunks that span the whole support they still match the direct
    differences to 1e-12."""
    probes = _spanning_probes(graph02, 1500, seed=18)
    chunk = distances._CHUNK_BUDGET // graph02.points.shape[0]
    assert probes.shape[0] > 2 * chunk
    extent = np.ptp(graph02.points[:, 0])
    for lo in range(0, probes.shape[0], chunk):
        assert np.ptp(probes[lo:lo + chunk, 0]) > 0.9 * extent
    got = distances._kernel_bundle(graph02, probes, scalar_exps, vector_exps)
    want = _kernel_bundle_oracle(graph02, probes, scalar_exps, vector_exps)
    _assert_bundles_match(got, want, 1e-12)


# a 3000-float budget gives graph02's 200 atoms 15-probe chunks, so a few
# thousand probes cover several tasks' buffers; 15 is not a multiple of 8
_BUDGET = 3000


def _bundle_at(workers, sigma, probes, monkeypatch, budget=_BUDGET):
    """_kernel_bundle at the given worker count, and the task count of
    each ``_run_tasks`` call it made."""
    tasks = []
    run_tasks = distances._run_tasks

    def counting(units, fn, most=None):
        out = run_tasks(units, fn, most)
        tasks.append(len(out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(distances, "_WORKERS", workers)
        mp.setattr(distances, "_CHUNK_BUDGET", budget)
        mp.setattr(distances, "_run_tasks", counting)
        out = distances._kernel_bundle(sigma, probes, _SCALARS, _VECTORS)
    return out, tasks


def _assert_bundles_equal(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[e], b[e]) for e in a)
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("workers", [2, 3])
def test_kernel_sums_keep_their_bits_at_any_worker_count(graph02, workers,
                                                         monkeypatch):
    """Each task is a run of whole chunks, so every value is the one-task
    run's, bit for bit, whatever the split.  The probe count is not a
    multiple of the chunk, and the chunk is not a multiple of 8, so the
    last chunk and the column tails of ``w @ K`` are exercised."""
    chunk = _BUDGET // graph02.points.shape[0]
    probes = _ring_probes(9001, 0.1, seed=15) + np.array([0.0, 0.06, 0.0])
    assert chunk % 8 and probes.shape[0] % chunk
    one, tasks = _bundle_at(1, graph02, probes, monkeypatch)
    assert tasks == [1]
    got, tasks = _bundle_at(workers, graph02, probes, monkeypatch)
    assert tasks == [workers]
    _assert_bundles_equal(got, one)


def test_kernel_tasks_buffers_stay_within_the_probes(graph02, monkeypatch):
    """However many workers there are, a batch gets no more tasks than its
    probe array can cover with their three (atoms, chunk) buffers, so the
    extra memory is bounded by the batch."""
    def inline(units, fn, most=None):
        tasks = max(1, min(distances._WORKERS, units, most))
        return [fn(units * t // tasks, units * (t + 1) // tasks)
                for t in range(tasks)]

    # 9000 floats of buffers per task; 3 floats per probe
    for count, want in [(5, 1), (3000, 1), (5999, 1), (6000, 2), (9001, 3)]:
        probes = _ring_probes(count, 0.1, seed=17) + np.array([0, 0.06, 0])
        with monkeypatch.context() as mp:
            mp.setattr(distances, "_run_tasks", inline)
            _, tasks = _bundle_at(64, graph02, probes, mp)
        assert tasks == [want]


def test_a_failing_task_raises_unchanged_and_the_pool_recovers(
        graph02, monkeypatch):
    probes = _ring_probes(9001, 0.1, seed=16) + np.array([0.0, 0.06, 0.0])
    want, _ = _bundle_at(1, graph02, probes, monkeypatch)
    chunk = _BUDGET // graph02.points.shape[0]
    # at two workers the second task starts at chunk nchunk // 2
    second = probes[(-(-probes.shape[0] // chunk) // 2) * chunk]
    boom = RuntimeError("cdist failed in the second task")
    cdist_ = distances.distance.cdist

    def failing(xa, xb, *args, **kwargs):
        if np.array_equal(xb[0], second):
            raise boom
        return cdist_(xa, xb, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(distances.distance, "cdist", failing)
        with pytest.raises(RuntimeError) as info:
            _bundle_at(2, graph02, probes, monkeypatch)
    assert info.value is boom
    got, tasks = _bundle_at(2, graph02, probes, monkeypatch)
    assert tasks == [2]
    _assert_bundles_equal(got, want)


def test_run_tasks_called_from_a_task_runs_inline(monkeypatch):
    """Nested calls run in the calling pool thread, so the two outer tasks
    cannot wait on pool threads that they themselves occupy."""
    monkeypatch.setattr(distances, "_WORKERS", 2)

    def inner(u0, u1):
        return threading.get_ident()

    def outer(u0, u1):
        me = threading.get_ident()
        return me, distances._run_tasks(3, inner)

    result = []
    caller = threading.Thread(target=lambda: result.append(
        distances._run_tasks(2, outer)))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(result) == 1
    for me, nested in result[0]:
        assert me != caller.ident and nested == [me, me]


def test_run_tasks_splits_into_contiguous_runs_and_resizes_the_pool(
        monkeypatch):
    """Runs cover range(units) in order; a changed worker count gets a pool
    of that many threads, so each task has its own thread."""
    barrier = threading.Barrier(4, timeout=60)

    def run(u0, u1):
        barrier.wait()
        return u0, u1, threading.get_ident()

    with monkeypatch.context() as mp:
        mp.setattr(distances, "_WORKERS", 4)
        got = distances._run_tasks(10, run)
        mp.setattr(distances, "_WORKERS", 3)
        assert [r[:2] for r in distances._run_tasks(10, lambda a, b: (a, b),
                                                    most=2)] == [(0, 5),
                                                                 (5, 10)]
    assert [r[:2] for r in got] == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert len({r[2] for r in got}) == 4
    assert distances._run_tasks(0, lambda a, b: (a, b)) == [(0, 0)]


def test_cpu_count_caps_the_affinity_by_the_cgroup_quota(tmp_path):
    cpus = len(os.sched_getaffinity(0))
    cg = tmp_path / "sys/fs/cgroup"

    def tree(cgroup, files):
        (tmp_path / "proc/self").mkdir(parents=True, exist_ok=True)
        (tmp_path / "proc/self/cgroup").write_text(cgroup)
        for name, text in files.items():
            (cg / name).parent.mkdir(parents=True, exist_ok=True)
            (cg / name).write_text(text)
        return distances._cpu_count(str(tmp_path))

    assert distances._cpu_count(str(tmp_path)) == cpus     # no /proc file
    # v2: a 1.5-CPU quota rounds up to 2; "max" is no quota
    assert tree("0::/job\n", {"job/cpu.max": "150000 100000\n"}) \
        == min(cpus, 2)
    assert tree("0::/job\n", {"job/cpu.max": "max 100000\n"}) == cpus
    # v1 with an unreadable v2 line beside it, as in hybrid hierarchies
    assert tree("1:cpu,cpuacct:/a\n0::/b\n", {
        "cpu,cpuacct/a/cpu.cfs_quota_us": "50000\n",
        "cpu,cpuacct/a/cpu.cfs_period_us": "100000\n"}) == 1
    assert tree("1:cpu,cpuacct:/a\n", {
        "cpu,cpuacct/a/cpu.cfs_quota_us": "-1\n"}) == cpus


@pytest.mark.parametrize("n, atoms", [(3, 32), (3, 320), (4, 320)])
def test_cdist_r2_is_the_per_axis_difference_sum(n, atoms):
    """r^2 from cdist equals, bit for bit, the per-axis sum of squared
    differences probe minus atom that the kernel sums used to build."""
    rng = np.random.default_rng(30 + n + atoms)
    pts = rng.uniform(-0.5, 0.5, size=(atoms, n)) + 3.0
    probes = rng.uniform(-0.6, 0.6, size=(1 + (1 << 15) // atoms, n)) + 3.0
    want = np.zeros((atoms, probes.shape[0]))
    for k in range(n):
        dk = probes[:, k][None, :] - pts[:, k][:, None]
        want += dk * dk
    got = np.empty_like(want)
    cdist(pts, probes, "sqeuclidean", out=got)
    assert np.array_equal(got, want)


def test_kernel_bundle_near_support_guard(line3d):
    probes = np.array([[0.0, 0.015, 0.0], [0.0, 0.1, 0.0]])
    with pytest.raises(ResolutionError):
        distances._kernel_bundle(line3d, probes, (3.0,))
    got = distances._kernel_bundle(line3d, probes, (3.0,), (3.0,),
                                   check=False)
    want = _kernel_bundle_oracle(line3d, probes, (3.0,), (3.0,),
                                 check=False)
    _assert_bundles_match(got, want, 1e-12)
    assert np.allclose(got[2], line3d.dist_to_support(probes), rtol=1e-12)
    assert got[2][0] < 2.0 * line3d.spacing


def test_fields_invariant_under_translation():
    # direct differences: a shift of the whole picture moves the values
    # only by the rounding of the shifted coordinates
    line = make_plane_set(3, 1, 0.32, 0.02)
    assert line.points.shape[0] == 32
    shift = np.full(3, 1e3)
    moved = DiscreteMeasure(3, 1, line.points + shift, line.weights,
                            line.spacing, "shifted")
    probes = _ring_probes(40, 0.08, x_range=0.3, seed=15)
    base = evaluate_fields(line, probes, 2.0)
    far = evaluate_fields(moved, probes + shift, 2.0)
    assert np.all(np.abs(far.distance / base.distance - 1.0) <= 1e-10)
    assert np.all(np.abs(far.support_gap / base.support_gap - 1.0) <= 1e-10)
    err = np.linalg.norm(far.gradient - base.gradient, axis=1)
    assert np.all(err <= 1e-10 * np.linalg.norm(base.gradient, axis=1))
