"""Harmonic-measure aliasing probe on the standard line (ROADMAP item 12).

Set-up: the standard line (200 atoms, spacing 0.01, x in [-1, 1]) in
R^3, the grid that ``urlab ainfty`` chooses by default for a ball of
radius r = 0.5 about the origin (box side 7.5 r about the support atom
nearest the centre, 96 cells a side, raised to the collar floor; reflecting
walls), and the pole X = (0, t, 0) with t = 0.25.

It prints:

* the count of atoms whose pole weight, their share of the harmonic
  measure seen from X, is exactly 0;
* for balls of radius rho = 0.64, 1.28 and 3.2 cells, the spread
  max/min over 61 centres s in [-0.3, 0.3] of
  (omega(B(s, rho)) / sigma(B(s, rho))) / P(s), where
  P(s) = (1/pi) t / (t^2 + s^2) is the Poisson density of the infinite
  line seen from X.  A spread of 1 means every ball gets its share; the
  finite line and box alone leave a floor of about 1.25.

Usage (from the repository root; BLAS runs on one thread):

    PYTHONPATH=src python tools/aliasing.py

Point PYTHONPATH at another tree's ``src`` to probe that tree.
"""

from __future__ import annotations

import math
import os
import sys
import time

if __name__ == "__main__":     # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from urlab.elliptic import SolverConfig, assemble  # noqa: E402
from urlab.geometry import make_plane_set  # noqa: E402

POLE = np.array([0.0, 0.25, 0.0])
RADII_CELLS = (0.64, 1.28, 3.2)
CENTRES = np.linspace(-0.3, 0.3, 61)


def standard_line():
    return make_plane_set(3, 1, 1.0, 0.01)


def ainfty_system(sigma, r: float = 0.5, cells: int = 96):
    """The default ``ainfty`` grid for a ball of radius r about the
    origin, with ``cells`` in place of its 96 cells a side."""
    config = SolverConfig()
    center = sigma.points[int(np.argmin(np.linalg.norm(sigma.points,
                                                       axis=1)))]
    side = 7.5 * r
    h = max(side / cells, config.min_h(sigma.spacing))
    return assemble(sigma, (center, side), h, config)


def spread(sigma, weights: np.ndarray, radius: float,
           pole: np.ndarray = POLE) -> float:
    """max/min over CENTRES of the ball's omega/sigma over the Poisson
    density of the infinite line seen from the pole."""
    t = float(pole[1])
    quotients = []
    for s in CENTRES:
        centre = np.array([s, 0.0, 0.0])
        inside = np.linalg.norm(sigma.points - centre, axis=1) <= radius
        density = weights[inside].sum() / sigma.weights[inside].sum()
        quotients.append(density / (t / (math.pi * (t * t + s * s))))
    return max(quotients) / min(quotients)


def probe(sigma, system, pole: np.ndarray = POLE) -> dict:
    """Zero-weight atom count, CG iterations, weight sum and the spread
    at each radius of RADII_CELLS (in cells of the system's grid)."""
    pw = system.pole_weights(pole)
    return {"zero_atoms": int(np.count_nonzero(pw.weights == 0.0)),
            "n_atoms": len(sigma),
            "iterations": pw.iterations,
            "weight_sum": float(pw.weights.sum()),
            "spreads": {c: spread(sigma, pw.weights, c * system.h, pole)
                        for c in RADII_CELLS}}


def main() -> int:
    t0 = time.perf_counter()
    sigma = standard_line()
    system = ainfty_system(sigma)
    out = probe(sigma, system)
    print(f"grid {system.shape[0]}^3, h = {system.h:.4g}; "
          f"{out['iterations']} CG iterations; "
          f"weights sum to {out['weight_sum']:.6f}")
    print(f"atoms with zero pole weight: {out['zero_atoms']} of "
          f"{out['n_atoms']}")
    for cells, value in out["spreads"].items():
        print(f"spread at rho = {cells:g} cells: {value:.3f}")
    print(f"{time.perf_counter() - t0:.1f} s in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
