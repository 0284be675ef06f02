"""Regularized distance and Riesz-type fields over a discrete measure.

All field evaluations are direct kernel sums over the full support; no
truncation or tree approximation, so the only error against the continuum
is the sampling of the measure itself.  r^2 comes from scipy's ``cdist``,
which sums the squared differences probe minus atom in axis order, never
from an expanded |x|^2 + |y|^2 - 2x.y product, so the values do not drift
when the data are translated.  A vector sum at a probe X, the sum over
the atoms p of w K (X - p), is taken as first moments about one probe o
of X's chunk: (X - o) sum(w K) - sum(w K (p - o)), from one BLAS product
of the kernel block with the moment matrix [w; w (p - o)].  The direct
differences round at eps sum(w K |X - p|); this form rounds at
eps sum(w K (|X - o| + |p - o|)) <= eps (1 + 2 diam/gap) sum(w K |X - p|),
diam being the chunk's diameter and gap X's distance to the support.  It
is still translation invariant, since o moves with the data.
Probes are processed in chunks whose (atoms, probes) blocks stay
cache-resident.  The chunks are split over a thread pool of one worker
per usable CPU (``_run_tasks``): each task is a contiguous run of whole
chunks and reuses a few buffers it allocates once, so every chunk, and
with it every value, is the same bits at any worker count; a batch gets
no more tasks than its probe array can cover with buffers, so the extra
memory is bounded by the batch, not by the worker count.  ``cdist``,
the kernel powers and the products all release the GIL, but ``cdist``
scales poorly on blocks of few atoms (see ``_run_tasks``).  Probes closer
to the support than twice its spacing are refused: there the kernel sum
is dominated by the nearest atom and the values are meaningless.

Every evaluator takes one (m, n) batch of probes and returns arrays over
it: (m,) for a scalar field, (m, n) for a vector field.  A single point
is a batch of one, ``x[None, :]``; a 1-D point is a ParameterError, so no
evaluator has a second return type.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.spatial import distance

from .exceptions import ParameterError, ResolutionError
from .geometry import DiscreteMeasure, _as_points

__all__ = [
    "FieldSample",
    "kernel_constant",
    "regularized_distance",
    "riesz_field",
    "distance_gradient",
    "ratio_gradient",
    "evaluate_fields",
    "fd_gradient_check",
    "divergence_check",
]

_CHUNK_BUDGET = 1 << 16         # floats per (atoms, probes) block: 512 KB
_SLAB_TASKS = 4                 # grid-slab tasks in flight, at any worker count
_pool: tuple[int, ThreadPoolExecutor] | None = None    # (threads, pool)
_pool_lock = threading.Lock()
_local = threading.local()          # ``in_task`` is set on pool threads


@dataclass
class FieldSample:
    """Field values at probe points, with the resolution guard recorded."""

    points: np.ndarray          # (M, n)
    beta: float
    distance: np.ndarray        # (M,) regularized distance
    field: np.ndarray           # (M, n) Riesz-type vector field
    gradient: np.ndarray        # (M, n) gradient of the regularized distance
    support_gap: np.ndarray     # (M,) true distance to the support
    reliable: np.ndarray        # (M,) bool, gap >= 2*spacing


# -- thread pool -------------------------------------------------------------


def _cpu_count(root: str = "/") -> int:
    """The CPUs this process can use: its affinity set, capped by the CPU
    quota of its own cgroup when one is set (v2 ``cpu.max``, v1
    ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``), rounded up.

    Only files are read; a missing or unreadable one means no quota.
    ``root`` prefixes every path.
    """
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(os.path.join(root, "proc/self/cgroup")) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return cpus
    base = os.path.join(root, "sys/fs/cgroup")
    for _, ctrl, path in entries:
        if not ctrl:
            files = [f"{base}{path}/cpu.max"]
        elif "cpu" in ctrl.split(","):
            files = [f"{base}/{ctrl}{path}/cpu.cfs_{f}_us"
                     for f in ("quota", "period")]
        else:
            continue
        try:
            quota, period = " ".join(_read(f) for f in files).split()
            if quota not in ("max", "-1"):
                cpus = min(cpus, max(1, -(-int(quota) // int(period))))
        except (OSError, ValueError):
            continue
    return cpus


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


_WORKERS = _cpu_count()


def _mark_pool_thread() -> None:
    _local.in_task = True


def _run_tasks(units: int, fn, most: int | None = None) -> list:
    """[fn(u0, u1) for each run], where ``range(units)`` is cut into one
    contiguous run [u0, u1) per task, in run order.

    There are min(``_WORKERS``, ``units``, ``most``) tasks, at least one,
    on one lazily created pool of ``_WORKERS`` threads (the CPUs this
    process can use).  The tasks use every core as far as their native
    calls scale: numpy's ufuncs, BLAS products and scipy's ``cdist`` all
    release the GIL, but on (32 atoms, 1024 probes) blocks two threads of
    ``cdist`` ran only 1.0-1.1x as fast as one, against 1.7-2.4x from 64
    atoms up (scipy 1.17.1, 2 vCPUs).  They run inline when there is one
    task, or when called from inside a task, so a nested call cannot
    deadlock.  Every task has finished when this returns or raises; an
    exception from a task is raised unchanged, the first one in run
    order.  Callers make what a unit computes independent of the
    run it falls in, so results never depend on the worker count; a task
    allocates its own buffers, so callers pass ``most`` to bound them.
    The callers: ``_kernel_bundle`` (whole kernel chunks) and
    ``_run_units``, the per-unit map of the CG passes of
    ``elliptic.EllipticSystem`` (partial-sum blocks) and of the grid
    slabs of ``carleson_norm`` and ``elliptic.sn_check`` (at most
    ``_SLAB_TASKS`` tasks, whose kernel sums then run inline).
    Pool threads do not inherit the caller's ``contextvars``: a telemetry
    recorder held in a ``ContextVar`` must count in the caller or submit
    its tasks through ``contextvars.copy_context()``.
    """
    tasks = max(1, min(_WORKERS, units,
                       units if most is None else most))
    fns = [functools.partial(fn, units * t // tasks, units * (t + 1) // tasks)
           for t in range(tasks)]
    if tasks == 1 or getattr(_local, "in_task", False):
        return [f() for f in fns]
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != _WORKERS:
            if _pool is not None:        # ``_WORKERS`` was reset: resize
                _pool[1].shutdown(wait=False)
            _pool = (_WORKERS, ThreadPoolExecutor(
                _WORKERS, initializer=_mark_pool_thread))
        pool = _pool[1]
    futures = [pool.submit(f) for f in fns]
    wait(futures)
    return [f.result() for f in futures]


def _run_units(units: int, fn, most: int | None = None) -> list:
    """[fn(u) for u in range(units)], in unit order, each task of
    ``_run_tasks`` running fn over its contiguous run of units."""
    runs = _run_tasks(units, lambda u0, u1: [fn(u) for u in range(u0, u1)],
                      most)
    return [out for run in runs for out in run]


# -- kernel normalizing constant -------------------------------------------


def kernel_constant(d: int, beta: float) -> float:
    """Integral of (1+|y|^2)^{-(d+beta)/2} over R^d, in closed form.

    In polar coordinates it is the area 2 pi^{d/2} / Gamma(d/2) of the
    unit (d-1)-sphere times the Beta integral
    Gamma(d/2) Gamma(beta/2) / (2 Gamma((d+beta)/2)), which leaves
    pi^{d/2} Gamma(beta/2) / Gamma((d+beta)/2).
    """
    if d < 1 or not beta > 0:
        raise ParameterError("need d >= 1 and beta > 0")
    return math.pi ** (d / 2.0) * math.gamma(beta / 2.0) \
        / math.gamma((d + beta) / 2.0)


# -- kernel sums -------------------------------------------------------------


def _as_batch(sigma: DiscreteMeasure, x, *exps: float) -> np.ndarray:
    """(M, n) probe batch; refuses exponents <= 0 and any other shape."""
    if not all(e > 0 for e in exps):
        raise ParameterError("beta must be positive" if len(exps) == 1
                             else "exponents must be positive")
    return _as_points(x, sigma.ambient_dim)


def _neg_half_pow(r2: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """out = r2 ** (-e/2), in place; integer e by products of r2 and sqrt."""
    if e != int(e) or not 1 <= e <= 8:
        return np.power(r2, -0.5 * e, out=out)
    k, odd = divmod(int(e), 2)
    if odd:
        np.sqrt(r2, out=out)
    else:
        np.copyto(out, r2)
        k -= 1
    for _ in range(k):
        out *= r2
    return np.divide(1.0, out, out=out)


def _moment_sum(moments: np.ndarray, kern: np.ndarray,
                offset: np.ndarray) -> np.ndarray:
    """(chunk, n) vector sums of one chunk: with P = moments @ kern,
    offset * P[0] - P[1:], offset being the probes minus the origin."""
    prod = moments @ kern                               # (n+1, chunk)
    return offset * prod[0][:, None] - prod[1:].T


def _kernel_bundle(sigma: DiscreteMeasure, probes: np.ndarray,
                   scalar_exps: tuple[float, ...],
                   vector_exps: tuple[float, ...] = (),
                   check: bool = True):
    """One pass over the support computing all requested moment sums.

    scalar_exps e: sums w*r^-e.  vector_exps e: sums w*r^-(e+1)*(X-p),
    i.e. unit direction times w*r^-e.  Returns (scalars, vectors, gap).

    Probes are laid out in chunks of (atoms, probes) blocks of at most
    _CHUNK_BUDGET floats (512 KB, so a chunk's working set stays in a 2 MB
    L2 cache).  The chunks are split into one contiguous run of whole
    chunks per task (``_run_tasks``), so every chunk holds the same
    probes at any worker count and every value keeps its bits.  Each task
    allocates two blocks once: r^2 from one ``cdist`` call and a kernel
    block that every exponent overwrites in turn.  A batch is split only
    into tasks whose buffers weigh no more than their probes (counted as
    three blocks a task when vector sums are asked for, which leaves room
    for the moment products), so all buffers together stay within the
    probe array, however many workers there are.  The gap is the minimum of r^2 over the atom axis and the scalar
    sums are w @ K.  The vector sums are one product of the moment
    matrix [w; w*(p-o)], o the chunk's middle probe, with the kernel
    block K: row 0 is w @ K and rows 1..n are the first moments about o,
    so the sum is (X-o) * row 0 - rows 1..n.  When the scalar exponent e-1 is asked for
    too, the vector kernel r^-(e+1) is its kernel divided by r^2, taken
    before the next exponent overwrites the block.
    """
    pts = sigma.points
    w = sigma.weights
    m, n = probes.shape
    nsup = pts.shape[0]
    scalars = {e: np.empty(m) for e in scalar_exps}
    vectors = {e: np.empty((m, n)) for e in vector_exps}
    gap = np.empty(m)
    chunk = max(1, _CHUNK_BUDGET // nsup)
    nchunk = -(-m // chunk)
    # a vector exponent e + 1 whose kernel r^-(e+2) is scalar e's over r^2
    derived = {e: e + 1.0 for e in scalar_exps if e + 1.0 in vectors}
    own = [e for e in vectors if e not in derived.values()]
    # a task's buffers never outweigh the probes it serves
    task_floats = (3 if vector_exps else 2) * nsup * chunk

    def run(c0: int, c1: int) -> None:
        """The sums over chunks c0 <= c < c1."""
        size = nsup * min(chunk, m - c0 * chunk)
        r2_buf, kern_buf = np.empty(size), np.empty(size)
        moments = np.empty((n + 1, nsup))
        moments[0] = w
        for lo in range(c0 * chunk, min(c1 * chunk, m), chunk):
            hi = min(lo + chunk, m)
            r2, kern = (b[:nsup * (hi - lo)].reshape(nsup, hi - lo)
                        for b in (r2_buf, kern_buf))
            distance.cdist(pts, probes[lo:hi], "sqeuclidean", out=r2)
            r2.min(axis=0, out=gap[lo:hi])
            if vectors:
                origin = probes[(lo + hi) // 2]
                np.multiply((pts - origin).T, w, out=moments[1:])
                offset = probes[lo:hi] - origin            # (chunk, n)
            for e in scalar_exps:
                scalars[e][lo:hi] = w @ _neg_half_pow(r2, e, kern)
                if e in derived:
                    kern /= r2
                    vectors[derived[e]][lo:hi] = _moment_sum(moments, kern,
                                                             offset)
            for e in own:
                vectors[e][lo:hi] = _moment_sum(
                    moments, _neg_half_pow(r2, e + 1.0, kern), offset)

    _run_tasks(nchunk, run, probes.size // task_floats)
    np.sqrt(gap, out=gap)
    if check:
        bad = gap < 2.0 * sigma.spacing
        if np.any(bad):
            raise ResolutionError(
                f"{int(bad.sum())} probe(s) closer to the support than "
                f"2*spacing={2 * sigma.spacing:g}; nearest gap {gap.min():g}")
    return scalars, vectors, gap


def _distance(s: dict, d: int, beta: float) -> np.ndarray:
    """D_beta = S_beta^{-1/beta} from the scalar sum of exponent d+beta."""
    return s[d + beta] ** (-1.0 / beta)


def _gradient(s: dict, v: dict, d: int, beta: float) -> tuple:
    """(D_beta, grad D_beta), by the field identity
    grad D = ((d+beta)/beta) * D^{beta+1} * field(beta+1)."""
    dval = _distance(s, d, beta)
    grad = ((d + beta) / beta) * (dval ** (beta + 1.0))[:, None] \
        * v[d + beta + 1.0]
    return dval, grad


def regularized_distance(sigma: DiscreteMeasure, x,
                         beta: float) -> np.ndarray:
    """Inverse-beta-root of the kernel sum; comparable to dist(x, support)."""
    d = sigma.intrinsic_dim
    s, _, _ = _kernel_bundle(sigma, _as_batch(sigma, x, beta), (d + beta,))
    return _distance(s, d, beta)


def riesz_field(sigma: DiscreteMeasure, x, beta: float) -> np.ndarray:
    """Vector kernel sum w*r^-(d+beta+1)*(X-p); |field| <= distance^-beta."""
    d = sigma.intrinsic_dim
    _, v, _ = _kernel_bundle(sigma, _as_batch(sigma, x, beta), (),
                             (d + beta,))
    return v[d + beta]


def distance_gradient(sigma: DiscreteMeasure, x, beta: float) -> np.ndarray:
    """Gradient of the regularized distance, via the field identity.

    grad D = ((d+beta)/beta) * D^{beta+1} * field(beta+1); no finite
    differences on the primary path.
    """
    d = sigma.intrinsic_dim
    s, v, _ = _kernel_bundle(sigma, _as_batch(sigma, x, beta), (d + beta,),
                             (d + beta + 1.0,))
    return _gradient(s, v, d, beta)[1]


def ratio_gradient(sigma: DiscreteMeasure, x, alpha: float,
                   beta: float) -> np.ndarray:
    """dist(X, support) * |grad of the ratio D_beta/D_alpha|.

    The gradient is assembled from the two field identities, so the flat
    case cancels exactly; the scale factor makes the quantity dimensionless.
    """
    d = sigma.intrinsic_dim
    s, v, gap = _kernel_bundle(
        sigma, _as_batch(sigma, x, alpha, beta),
        (d + alpha, d + beta),
        (d + alpha + 1.0, d + beta + 1.0))
    # grad log D_e = grad D_e / D_e = ((d+e)/e) * field(e+1) / S_e
    log_b, log_a = (((d + e) / e) * v[d + e + 1.0] / s[d + e][:, None]
                    for e in (beta, alpha))
    ratio = _distance(s, d, beta) / _distance(s, d, alpha)
    grad = ratio[:, None] * (log_b - log_a)
    return gap * np.linalg.norm(grad, axis=1)


def evaluate_fields(sigma: DiscreteMeasure, x, beta: float) -> FieldSample:
    """Distance, field, and gradient in one pass, with reliability flags.

    Unlike the individual evaluators this does not refuse near-support
    probes; it flags them, so sweeps can report coverage.
    """
    probes = _as_batch(sigma, x, beta)
    d = sigma.intrinsic_dim
    s, v, gap = _kernel_bundle(
        sigma, probes, (d + beta,), (d + beta, d + beta + 1.0), check=False)
    dval, grad = _gradient(s, v, d, beta)
    return FieldSample(probes, beta, dval, v[d + beta], grad, gap,
                       gap >= 2.0 * sigma.spacing)


# -- verification helpers ------------------------------------------------


def fd_gradient_check(sigma: DiscreteMeasure, x, beta: float) -> dict:
    """Central-difference check of the gradient identity at one probe.

    The step is gap/100; a half-step Richardson pass must not degrade the
    agreement (quadratic convergence, until rounding noise floors it).
    """
    x = np.asarray(x, dtype=np.float64)
    n = sigma.ambient_dim
    gap = float(sigma.dist_to_support(x))
    h = gap / 100.0
    grad = distance_gradient(sigma, x[None, :], beta)[0]

    def central(hh: float) -> np.ndarray:
        probes = np.concatenate([x + hh * np.eye(n), x - hh * np.eye(n)])
        vals = regularized_distance(sigma, probes, beta)
        return (vals[:n] - vals[n:]) / (2.0 * hh)

    fd = central(h)
    fd_half = central(h / 2.0)
    scale = max(float(np.linalg.norm(grad)), 1e-300)
    err = float(np.linalg.norm(fd - grad)) / scale
    err_half = float(np.linalg.norm(fd_half - grad)) / scale
    richardson_ok = err_half <= max(0.6 * err, 1e-9)
    return {"analytic": grad, "fd": fd, "rel_err": err,
            "rel_err_half": err_half, "richardson_ok": richardson_ok,
            "step": h, "gap": gap}


def divergence_check(sigma: DiscreteMeasure, x) -> dict:
    """Central-difference divergence of the middle-exponent field, with
    step 0.01 dist(x, support).

    With exponent beta = n-d-1 every kernel term is divergence free away
    from the atoms, so the sum is too; the report compares the measured
    divergence against the natural term scale n * sum w r^-n.
    """
    x = np.asarray(x, dtype=np.float64)
    n = sigma.ambient_dim
    d = sigma.intrinsic_dim
    beta = n - d - 1.0
    if beta <= 0:
        raise ParameterError("need d < n-1 for the middle exponent")
    gap = float(sigma.dist_to_support(x))
    h = gap * 0.01
    div = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fp = riesz_field(sigma, (x + e)[None, :], beta)[0, j]
        fm = riesz_field(sigma, (x - e)[None, :], beta)[0, j]
        div += (fp - fm) / (2.0 * h)
    s, _, _ = _kernel_bundle(sigma, x[None, :], (float(n),))
    scale = n * float(s[float(n)][0])
    return {"divergence": div, "scale": scale, "ratio": abs(div) / scale,
            "step": h}
