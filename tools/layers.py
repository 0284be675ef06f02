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
  Nelder-Mead iterations, recorded and solved again in the same way.

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

from urlab import wasserstein, whitney  # noqa: E402
from urlab.geometry import (  # noqa: E402
    make_cantor_set,
    make_lipschitz_graph,
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


def format_row(name: str, count: int, secs: float) -> str:
    unit = "LPs" if name.startswith("transport_lp") else "cubes"
    return (f"{name:34}{count:>10} {unit:5}{secs:>9.3f} s"
            f"{count / secs:>14.1f} {unit}/s")


def main() -> int:
    for row in rows(workload_measure()):
        print(format_row(*row), flush=True)
    print(format_row(*cantor_row()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
