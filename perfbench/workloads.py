"""The four benchmark workloads: fixed `urlab` configs, the seed mapping and
the output check.

Every key that sets the amount of work is pinned: radii, `cap`, `h`, `tol`,
`max_depth`, `lam`.  An unpinned key falls back to a library default that
may be far larger; the `carleson` default ball family, for one, sets h from
its smallest radius and applies it to the largest ball.

The workload seed picks one of VARIANTS input variants (seed mod VARIANTS)
and goes into every seeded config key: the ball family (`seed`),
`wasserstein.seed` and `whitney.alpha_seed`.  Each variant has committed
reference values in references.json, written by make_references.py.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

VARIANTS = 8


@dataclass(frozen=True)
class Tol:
    """How far a checked CSV column may sit from its reference, and why."""

    kind: str                   # "exact" | "rel" | "abs"
    tol: float
    reason: str


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    csv: str                    # the run's one-row result table
    base: dict
    seeded: bool                # False: the config has no randomness
    checks: dict                # CSV column -> Tol

    def variant(self, seed: int) -> int:
        return seed % VARIANTS if self.seeded else 0

    def config(self, seed: int) -> dict:
        v = self.variant(seed)
        cfg = {**self.base, "seed": v}
        if "wasserstein" in cfg:
            cfg["wasserstein"] = {**cfg["wasserstein"], "seed": v}
        if "whitney" in cfg:
            cfg["whitney"] = {**cfg["whitney"], "alpha_seed": v}
        return cfg


def _graph(spacing: float) -> dict:
    return {"kind": "graph", "n": 3, "d": 1, "profile": "sawtooth",
            "lam": 0.2, "period": 0.5, "extent": 1.0, "spacing": spacing}


_EXACT = Tol("exact", 0, "a count; it does not depend on rounding")
_LP = Tol("rel", 1e-7, "each LP optimum is exact up to HiGHS's default "
          "primal and dual feasibility tolerance of 1e-7")
_SUMS = Tol("rel", 1e-9, "float64 kernel sums over at most 1e3 atoms; "
            "another summation order moves them near 1e-13")
# CG stops once the relative residual is below tol = 1e-3; a perturbed
# iterate can stop one step earlier or later and move the field by about
# tol, and the squared quantities by twice that.  10 x tol leaves room.
_CG = Tol("rel", 1e-2, "10 x the CG tol of 1e-3")

WORKLOADS = {w.name: w for w in (
    Workload(
        "ursum_sawtooth", "ur-sum", "ur_sum.csv",
        {"generator": _graph(0.00125),
         "query": {"point": [0.0, 0.0, 0.0], "radius": 0.1, "k": 0},
         "whitney": {"max_depth": 11, "lam": 3.0, "focus": True,
                     "alpha_cap": 120, "alpha_resolution": 12}},
        True,
        {"square_sum": _LP, "n_cubes": _EXACT, "n_excluded": _EXACT,
         "n_anchors": _EXACT}),
    Workload(
        "alpha_cantor", "alpha", "alpha.csv",
        {"generator": {"kind": "cantor", "m": 6},
         "balls": {"count": 1, "radii": [0.3]},
         "wasserstein": {"cap": 220, "resolution": 16, "refine": True,
                         "refine_maxiter": 10, "xatol": 1e-4}},
        True,
        {"initial": _LP,
         # Nelder-Mead takes its next vertex from comparisons of LP
         # optima, so a last-digit change can divert its path; the
         # minimum it reaches moves by a few percent between seeds.
         "alpha": Tol("rel", 5e-2, "Nelder-Mead path sensitivity"),
         "truncated": _EXACT}),
    Workload(
        "carleson_sawtooth", "carleson", "carleson.csv",
        {"generator": _graph(0.00625),
         "balls": {"count": 1, "radii": [0.2]},
         "field": {"kind": "gradient", "beta": 2.0},
         "carleson": {"h": 0.00625, "squared": True, "refine": False}},
        True,
        {"value": _SUMS, "bias": _SUMS, "skipped_cells": _EXACT,
         "used_cells": _EXACT}),
    Workload(
        "sn_line", "sn", "sn.csv",
        {"generator": {"kind": "plane", "n": 3, "d": 1, "extent": 0.32,
                       "spacing": 0.02},
         "ball": {"center": [0.125, 0.0, 0.0], "radius": 0.64,
                  "snap": True},
         "data": {"kind": "halfspace", "axis": 0, "threshold": 0.125},
         # h = r/32 is the coarsest the sn check allows, and the box is
         # the smallest that covers 2B: 128 cells per side.  The ball
         # snaps to the atom at x = 0.13, so the box is centred there.
         "elliptic": {"h": 0.02, "tol": 1e-3, "collar": 3.0, "beta": 2.0,
                      "gamma": 0.0, "outer": "neumann",
                      "box": {"center": [0.13, 0.0, 0.0], "side": 2.56}}},
        False,
        {"square_fn": _CG, "sup_sq": _CG, "nt_sq": _CG,
         "iterations": Tol("abs", 3, "a perturbed CG stopping test moves "
                           "the count by a step or two"),
         "n_empty_cones": _EXACT}),
)}


def read_row(text: str) -> dict:
    """The single data row of a result CSV, keyed by column."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one data row, found {len(rows)}")
    return rows[0]


def check_row(row: dict, reference: dict, checks: dict) -> list[str]:
    """Problems found comparing a result row with its reference values."""
    problems = []
    for col, tol in checks.items():
        if col not in row:
            problems.append(f"{col}: missing")
            continue
        got, want = float(row[col]), float(reference[col])
        if not math.isfinite(got):
            ok = False
        elif tol.kind == "exact":
            ok = got == want
        elif tol.kind == "rel":
            ok = abs(got - want) <= tol.tol * abs(want)
        else:
            ok = abs(got - want) <= tol.tol
        if not ok:
            problems.append(f"{col}: {row[col]} vs reference {reference[col]}"
                            f" ({tol.kind} {tol.tol:g}: {tol.reason})")
    return problems
