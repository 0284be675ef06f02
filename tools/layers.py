"""Per-layer rates of the ``ur-sum`` path, on the inputs of the
``ursum_sawtooth`` benchmark workload: the lam = 0.2 sawtooth graph in R^3
(period 0.5, extent 1, spacing 0.00125).

Each row is the best of three runs:

* ``decompose`` in cubes/s, unfocused at depth 9, and at depth 11 with
  focus ((0, 0, 0), 0.1), the workload's query ball;
* ``ur_square_sum scan`` in cubes/s over every cube of that focused
  decomposition (lam 3, k 0), with the alpha cache already filled, so the
  row times the level scan and no LP, and the traced peak in MiB;
* ``transport_lp`` in LPs/s over the LPs of the anchor alphas that
  ``ur_square_sum`` prices on that focused decomposition (lam 3, k 0,
  alpha_cap 120, alpha_resolution 12, alpha_seed 0).  One untimed sum
  records the arguments of every ``wasserstein._transport_lp`` call; the
  timed runs solve them again, so a row times the LP build and HiGHS and
  nothing else;
* ``decompose`` at depth 12 with focus ((0, 0, 0), 0.2), the ROADMAP's
  size.  Each decompose row also prints the traced peak
  (``tracemalloc``) of one more, untimed run in MiB: the output it
  returns plus what the sweep held beside it;
* ``transport_lp cantor`` in LPs/s over the few large LPs (m about 200)
  of the ``alpha_cantor`` workload: ``alpha_number`` on the m = 6 Cantor
  set in one r = 0.3 ball about the support point that ``urlab alpha``
  draws at seed 0, with cap 220, resolution 16 and at most 10
  Nelder-Mead iterations, recorded and solved again in the same way;
* ``kernel sums`` in pairs/s, on the inputs of the ``sn_line`` workload
  (the 32-atom line of spacing 0.02, a 128^3 grid of h = 0.02, collar 3):
  the scalar kernel sums ``assemble`` makes at the midpoints of the faces
  along axis 0 between two unknowns, in ``assemble``'s slabs;
* ``cg`` in ms per iteration, with the iteration count, of the
  ``sn_line`` solve (tol 1e-3, data 1 on the atoms with x > 0.125) on the
  system ``assemble`` builds there;
* ``sn_check`` in cells/s over that grid, the smallest that covers 2B,
  with that solution and the workload's ball (r = 0.64 about the atom at
  x = 0.13), and its traced peak in MiB;
* ``vector kernel sums`` in pairs/s, on the inputs of the
  ``carleson_sawtooth`` workload (the sawtooth graph at spacing 0.00625,
  320 atoms): ``distance_gradient`` (beta 2) over the 136,564 cells of
  the r = 0.2 ball that ``urlab carleson`` draws at seed 2 (the variant
  of benchmark seed 10) at h = 0.00625, as one batch;
* ``carleson sweep`` in cells/s and traced peak in MiB of one
  ``carleson._ball_value`` (the gradient field of that workload, squared):
  on that ball at r/32; at r/64 on the graph at spacing 0.003125 (640
  atoms, h = 0.003125, 1.1 M cells), on the ball it draws at seed 2; and
  at r/64 on the workload's ball (``r/64 refine``), the h/2 pass that
  ``urlab carleson`` adds by default, where the kernel refuses the cells
  closer than two spacings to the support and each refusal is retried.

The rows from ``kernel sums`` on are measured at one worker and at every
worker the process may run on, by setting the library's private worker
count (the CG partition is fixed when the system is assembled).

Usage (from the repository root; BLAS runs on one thread):

    PYTHONPATH=src python tools/layers.py

Point PYTHONPATH at another tree's ``src`` to time that tree.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

if __name__ == "__main__":     # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from urlab import (  # noqa: E402
    carleson,
    distances,
    elliptic,
    wasserstein,
    whitney,
)
from urlab.geometry import (  # noqa: E402
    Ball,
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    sawtooth_profile,
    support_ball_family,
)

QUERY = (np.zeros(3), 0.1)
WIDE = (12, (np.zeros(3), 0.2))         # the ROADMAP's depth and ball
LAM = 3.0


def workload_measure(spacing: float = 0.00125):
    """The ``ursum_sawtooth`` support, at another spacing if given."""
    return make_lipschitz_graph(3, 1, sawtooth_profile(0.2, 0.5), 0.2, 1.0,
                                spacing)


def best_of(fn, repeats: int) -> tuple:
    """(fn's last result, shortest wall time of ``repeats`` calls)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def traced_peak(fn) -> float:
    """Traced peak of one ``fn()`` call in MiB, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def decompose_row(name: str, fn, repeats: int) -> tuple:
    """((name, cubes, best seconds, traced peak MiB), the last timed
    decomposition) of a decompose call."""
    deco, secs = best_of(fn, repeats)
    return (name, len(deco), secs, traced_peak(fn)), deco


def lp_calls(fn) -> list[tuple]:
    """(args, kwargs) of every transport LP that ``fn()`` runs."""
    calls = []
    solve = wasserstein._transport_lp

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    wasserstein._transport_lp = record
    try:
        fn()
    finally:
        wasserstein._transport_lp = solve
    return calls


def lp_row(name: str, calls: list[tuple], repeats: int) -> tuple:
    _, secs = best_of(lambda: [wasserstein._transport_lp(*a, **k)
                               for a, k in calls], repeats)
    return name, len(calls), secs


def rows(sigma, depths=(9, 11), query=QUERY, wide=WIDE, lam: float = LAM,
         repeats: int = 3) -> list[tuple]:
    """(row name, work count, best seconds[, traced peak MiB]) of each
    layer row; the decompose and scan rows carry the peak."""
    full, focused = depths
    wide_depth, wide_query = wide
    out = [decompose_row(f"decompose depth {full}",
                         lambda: whitney.decompose(sigma, None, full),
                         repeats)[0]]
    # decompose's alpha defaults are the workload's: resolution 12, cap
    # 120, seed 0
    row, deco = decompose_row(
        f"decompose depth {focused} focus r={query[1]:g}",
        lambda: whitney.decompose(sigma, None, focused, focus=query, lam=lam),
        repeats)

    def scan():
        return whitney.ur_square_sum(deco, *query)

    calls = lp_calls(scan)      # fills the alpha cache the scan row reads
    scan_row = ("ur_square_sum scan", len(deco), best_of(scan, repeats)[1],
                traced_peak(scan))
    del deco
    # the LPs are timed before the wide row: a freed depth-12
    # decomposition left them 30% slower to solve again
    out += [row, scan_row, lp_row("transport_lp", calls, repeats),
            decompose_row(f"decompose depth {wide_depth} focus "
                          f"r={wide_query[1]:g}",
                          lambda: whitney.decompose(sigma, None, wide_depth,
                                                    focus=wide_query),
                          repeats)[0]]
    return out


def cantor_row(m: int = 6, repeats: int = 3) -> tuple[str, int, float]:
    """The ``transport_lp cantor`` row, on the level-m Cantor set."""
    sigma = make_cantor_set(m)
    ball = support_ball_family(sigma, 1, np.random.default_rng(0), [0.3])[0]
    calls = lp_calls(lambda: wasserstein.alpha_number(
        sigma, ball, resolution=16, cap=220, refine_maxiter=10, xatol=1e-4))
    return lp_row(f"transport_lp cantor m={m}", calls, repeats)


SN_BOX = (np.array([0.13, 0.0, 0.0]), 2.56)
SN_H = 0.02


def sn_measure():
    """The ``sn_line`` support."""
    return make_plane_set(3, 1, 0.32, 0.02)


def sn_system(sigma, box=SN_BOX, h: float = SN_H):
    """The system ``assemble`` builds for the ``sn_line`` config."""
    return elliptic.assemble(sigma, box, h, elliptic.SolverConfig(
        beta=2.0, gamma=0.0, tol=1e-3, collar=3.0))


def sn_data(sigma) -> np.ndarray:
    """The ``sn_line`` data: 1 on the atoms with x > 0.125."""
    return (sigma.points[:, 0] > 0.125).astype(float)


def sn_ball(sigma):
    """The ``sn_line`` ball: r = 0.64 about the atom nearest x = 0.125."""
    return Ball(sigma.points[np.argmin(np.abs(sigma.points[:, 0] - 0.125))],
                0.64)


def with_workers(workers: int, fn):
    """fn() with the library's kernel and CG pool set to ``workers``."""
    saved = distances._WORKERS
    distances._WORKERS = workers
    try:
        return fn()
    finally:
        distances._WORKERS = saved


def _workers(workers):
    """The worker counts to measure: 1 and every usable CPU by default."""
    return sorted({1, distances._WORKERS}) if workers is None else workers


def sn_rows(system, repeats: int = 3,
            workers=None) -> list[tuple[str, int, float]]:
    """(row name, work count, best seconds) of the ``kernel sums`` and
    ``cg`` rows on a system at each worker count."""
    sigma, h, slab = system.sigma, system.h, elliptic._EVAL_SLAB
    g = sn_data(sigma)
    cells = np.flatnonzero(system.w_pad[0])

    def kernel_sums():
        for s0 in range(0, cells.size, slab):
            pts = elliptic._cell_centers(system.box_lo, h, system.shape,
                                         cells[s0:s0 + slab], 0, 0.5)
            distances.regularized_distance(sigma, pts, system.config.beta)

    out = []
    for w in _workers(workers):
        _, secs = with_workers(w, lambda: best_of(kernel_sums, repeats))
        out.append((f"kernel sums, {w} worker(s)",
                    cells.size * len(sigma), secs))
        res, secs = with_workers(w, lambda: best_of(lambda: system.solve(g),
                                                    repeats))
        out.append((f"cg, {w} worker(s)", res.iterations, secs))
    return out


def sn_check_rows(system, ball, solution, repeats: int = 3,
                  workers=None) -> list[tuple[str, int, float, float]]:
    """(row name, grid cells, best seconds, traced peak MiB) of
    ``sn_check`` on one solution at each worker count."""
    def check():
        return elliptic.sn_check(system, ball, solution)

    return [(f"sn_check, {w} worker(s)", system.n_cells,
             with_workers(w, lambda: best_of(check, repeats))[1],
             with_workers(w, lambda: traced_peak(check)))
            for w in _workers(workers)]


CARLESON_H = 0.00625
FINE_H = 0.003125               # r/64, on the graph of that spacing


def carleson_measure():
    """The ``carleson_sawtooth`` support."""
    return workload_measure(CARLESON_H)


def carleson_ball(sigma, seed: int = 2):
    """The r = 0.2 ball that ``urlab carleson`` draws at ``seed``."""
    return support_ball_family(sigma, 1, np.random.default_rng(seed),
                               [0.2])[0]


def far_cells(sigma, ball, h: float) -> np.ndarray:
    """The cells ``carleson_norm`` evaluates on the ball, as one batch."""
    n_slabs, slab = carleson._grid_slabs(sigma, ball, h)
    return np.concatenate([slab(k)[0] for k in range(n_slabs)])


def vector_rows(sigma, ball, h: float = CARLESON_H, repeats: int = 3,
                workers=None) -> list[tuple[str, int, float]]:
    """(row name, work count, best seconds) of the ``vector kernel sums``
    row at each worker count: one batch, so the kernel's own tasks split
    it."""
    cells = far_cells(sigma, ball, h)

    def gradients():
        distances.distance_gradient(sigma, cells, 2.0)

    return [(f"vector kernel sums, {w} worker(s)", cells.shape[0] * len(sigma),
             with_workers(w, lambda: best_of(gradients, repeats))[1])
            for w in _workers(workers)]


def sweep_rows(cases, repeats: int = 3,
               workers=None) -> list[tuple[str, int, float, float]]:
    """(row name, cells, best seconds, traced peak MiB) of one
    ``carleson._ball_value`` of the gradient field (beta 2) per (label,
    sigma, ball, h) case and worker count."""
    out = []
    for label, sigma, ball, h in cases:
        def value():
            return carleson._ball_value(
                lambda pts: np.linalg.norm(
                    distances.distance_gradient(sigma, pts, 2.0), axis=1),
                sigma, ball, h)

        for w in _workers(workers):
            (_, _, skipped, used), secs = with_workers(
                w, lambda: best_of(value, repeats))
            out.append((f"carleson sweep {label}, {w} worker(s)",
                        skipped + used, secs,
                        with_workers(w, lambda: traced_peak(value))))
    return out


_UNITS = {"transport_lp": "LPs", "kernel sums": "pairs",
          "vector kernel sums": "pairs", "cg": "iters", "sn_check": "cells",
          "carleson sweep": "cells"}


def format_row(name: str, count: int, secs: float,
               peak: float | None = None) -> str:
    unit = next((u for k, u in _UNITS.items() if name.startswith(k)),
                "cubes")
    if unit == "iters":
        return (f"{name:34}{count:>10} {unit:5}{secs:>9.3f} s"
                f"{1e3 * secs / count:>14.2f} ms/iter")
    line = (f"{name:34}{count:>10} {unit:5}{secs:>9.3f} s"
            f"{count / secs:>14.1f} {unit}/s")
    return line if peak is None else f"{line}{peak:>9.1f} MiB peak"


def main() -> int:
    for row in rows(workload_measure()):
        print(format_row(*row), flush=True)
    print(format_row(*cantor_row()), flush=True)
    system = sn_system(sn_measure())
    for row in sn_rows(system):
        print(format_row(*row), flush=True)
    sigma = system.sigma
    for row in sn_check_rows(system, sn_ball(sigma),
                             system.solve(sn_data(sigma))):
        print(format_row(*row), flush=True)
    sigma = carleson_measure()
    ball = carleson_ball(sigma)
    for row in vector_rows(sigma, ball):
        print(format_row(*row), flush=True)
    fine = workload_measure(FINE_H)
    for row in sweep_rows([("r/32", sigma, ball, CARLESON_H),
                           ("r/64", fine, carleson_ball(fine), FINE_H),
                           ("r/64 refine", sigma, ball, FINE_H)]):
        print(format_row(*row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
