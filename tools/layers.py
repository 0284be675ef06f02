"""Per-layer rates of the ``ur-sum`` path, on the inputs of the
``ursum_sawtooth`` benchmark workload: the lam = 0.2 sawtooth graph in R^3
(period 0.5, extent 1, spacing 0.00125).

Each row is the best of three runs:

* ``decompose`` in cubes/s, unfocused at depth 9, and at depth 11 with
  focus ((0, 0, 0), 0.1), the workload's query ball;
* ``transport_lp`` in LPs/s over the LPs of the anchor alphas that
  ``ur_square_sum`` prices on that focused decomposition (lam 3, k 0,
  alpha_cap 120, alpha_resolution 12, alpha_seed 0).  One untimed sum
  records the arguments of every ``wasserstein._transport_lp`` call; the
  timed runs solve them again, so a row times the LP build and HiGHS and
  nothing else;
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
  system ``assemble`` builds there.

The last two rows are measured at one worker and at every worker the
process may run on, by setting the library's private worker count (the
CG partition is fixed when the system is assembled).

Usage (from the repository root; BLAS runs on one thread):

    PYTHONPATH=src python tools/layers.py

Point PYTHONPATH at another tree's ``src`` to time that tree.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":     # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from urlab import distances, elliptic, wasserstein, whitney  # noqa: E402
from urlab.geometry import (  # noqa: E402
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    sawtooth_profile,
    support_ball_family,
)

QUERY = (np.zeros(3), 0.1)
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


def rows(sigma, depths=(9, 11), query=QUERY, lam: float = LAM,
         repeats: int = 3) -> list[tuple[str, int, float]]:
    """(row name, work count, best seconds) of each layer row."""
    out = []
    full, focused = depths
    deco, secs = best_of(lambda: whitney.decompose(sigma, None, full),
                         repeats)
    out.append((f"decompose depth {full}", len(deco), secs))
    del deco
    # decompose's alpha defaults are the workload's: resolution 12, cap
    # 120, seed 0
    deco, secs = best_of(
        lambda: whitney.decompose(sigma, None, focused, focus=query), repeats)
    out.append((f"decompose depth {focused} focus r={query[1]:g}", len(deco),
                secs))
    calls = lp_calls(lambda: whitney.ur_square_sum(deco, *query, lam=lam))
    out.append(lp_row("transport_lp", calls, repeats))
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


def with_workers(workers: int, fn):
    """fn() with the library's kernel and CG pool set to ``workers``."""
    saved = distances._WORKERS
    distances._WORKERS = workers
    try:
        return fn()
    finally:
        distances._WORKERS = saved


def sn_rows(sigma, box=SN_BOX, h: float = SN_H, repeats: int = 3,
            workers=None) -> list[tuple[str, int, float]]:
    """(row name, work count, best seconds) of the ``kernel sums`` and
    ``cg`` rows at each worker count (default: 1 and every usable CPU)."""
    if workers is None:
        workers = sorted({1, distances._WORKERS})
    config = elliptic.SolverConfig(beta=2.0, gamma=0.0, tol=1e-3,
                                   collar=3.0)
    g = (sigma.points[:, 0] > 0.125).astype(float)
    system = elliptic.assemble(sigma, box, h, config)
    cells = np.flatnonzero(system.w_pad[0])
    slab = elliptic._EVAL_SLAB

    def kernel_sums():
        for s0 in range(0, cells.size, slab):
            pts = elliptic._cell_centers(system.box_lo, h, system.shape,
                                         cells[s0:s0 + slab], 0, 0.5)
            distances.regularized_distance(sigma, pts, config.beta)

    out = []
    for w in workers:
        _, secs = with_workers(w, lambda: best_of(kernel_sums, repeats))
        out.append((f"kernel sums, {w} worker(s)",
                    cells.size * len(sigma), secs))
        res, secs = with_workers(w, lambda: best_of(lambda: system.solve(g),
                                                    repeats))
        out.append((f"cg, {w} worker(s)", res.iterations, secs))
    return out


_UNITS = {"transport_lp": "LPs", "kernel sums": "pairs", "cg": "iters"}


def format_row(name: str, count: int, secs: float) -> str:
    unit = next((u for k, u in _UNITS.items() if name.startswith(k)),
                "cubes")
    if unit == "iters":
        return (f"{name:34}{count:>10} {unit:5}{secs:>9.3f} s"
                f"{1e3 * secs / count:>14.2f} ms/iter")
    return (f"{name:34}{count:>10} {unit:5}{secs:>9.3f} s"
            f"{count / secs:>14.1f} {unit}/s")


def main() -> int:
    for row in rows(workload_measure()):
        print(format_row(*row), flush=True)
    print(format_row(*cantor_row()), flush=True)
    for row in sn_rows(sn_measure()):
        print(format_row(*row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
