"""Spans around the calls into each `urlab` layer, and the layer metrics
computed from them.

A span records (name, start, end, parent, counts).  Wrappers are installed
at the module or class attribute the caller looks up at call time, so the
library itself is never edited; `Tracer.restore` puts every original back.
Spans stay in memory and are written out once, when the traced run ends.

    python3 perfbench/spans.py SPANS.json

prints the per-layer metrics of a spans file that traced_urlab.py wrote.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``count(args, kwargs, result)`` returns the span's counts.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": tracer.clock(), "end": None,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "counts": {}}
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span["end"] = tracer.clock()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, sp["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp["end"] - sp["start"] - covered)
    return out


# -- the urlab entry points --------------------------------------------------


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _kernel_pairs(args, kwargs, result):
    sigma, x = args[0], args[1]
    return {"pairs": _rows(x) * len(sigma)}


def _lp(args, kwargs, result):
    a_ub = kwargs.get("A_ub")
    return {"m": int(len(args[0])),
            "rows": 0 if a_ub is None else int(a_ub.shape[0]),
            "highs_iters": int(result.nit)}


def _ntmax(args, kwargs, result):
    u, cones = args[0], args[2]
    cells = len(u[0]) if isinstance(u, tuple) else int(np.size(u.values))
    return {"pairs": cells * len(cones), "empty": int(result[1].sum())}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark workloads reach."""
    mod = importlib.import_module
    cli, geometry = mod("urlab.cli"), mod("urlab.geometry")
    distances, wasserstein = mod("urlab.distances"), mod("urlab.wasserstein")
    whitney, carleson = mod("urlab.whitney"), mod("urlab.carleson")
    elliptic = mod("urlab.elliptic")

    tracer.wrap(cli, "run", "cli.run")
    for gen in ("make_lipschitz_graph", "make_cantor_set", "make_plane_set"):
        tracer.wrap(cli, gen, "geometry.build")
    tracer.wrap(geometry.DiscreteMeasure, "dist_to_support",
                "geometry.support_query",
                lambda a, k, r: {"points": _rows(a[1])})
    tracer.wrap(distances, "regularized_distance", "distances.scalar",
                _kernel_pairs)
    tracer.wrap(distances, "distance_gradient", "distances.vector",
                _kernel_pairs)
    # whitney binds alpha_number by name at import, so both need a wrapper
    tracer.wrap(wasserstein, "alpha_number", "wasserstein.alpha")
    tracer.wrap(whitney, "alpha_number", "wasserstein.alpha")
    tracer.wrap(wasserstein, "linprog", "wasserstein.lp", _lp)
    tracer.wrap(whitney, "decompose", "whitney.decompose",
                lambda a, k, r: {"cubes": len(r)})
    tracer.wrap(whitney, "ur_square_sum", "whitney.ur_sum",
                lambda a, k, r: {"anchors": int(r.n_anchors)})
    tracer.wrap(carleson, "carleson_norm", "carleson.norm",
                lambda a, k, r: {"cells": int(r.n_cells.sum()),
                                 "skipped": int(r.skipped.sum())})
    tracer.wrap(carleson, "ntmax_family", "carleson.ntmax", _ntmax)
    tracer.wrap(elliptic, "assemble", "elliptic.assemble",
                lambda a, k, r: {"cells": int(r.n_cells),
                                 "unknowns": int(r.n_unknowns)})
    tracer.wrap(elliptic.EllipticSystem, "solve", "elliptic.solve",
                lambda a, k, r: {"iterations": int(r.iterations),
                                 "residual": float(r.residual)})
    tracer.wrap(elliptic, "sn_check", "elliptic.sn")


# -- per-layer metrics -------------------------------------------------------

PER_LAYER = {
    "cli.self_s": "s",
    "geometry.build_s": "s",
    "geometry.support_query.points": "count",
    "geometry.support_query.s": "s",
    "distances.scalar.pairs": "count",
    "distances.scalar.s": "s",
    "distances.scalar.pairs_per_s": "1/s",
    "distances.vector.pairs": "count",
    "distances.vector.s": "s",
    "distances.vector.pairs_per_s": "1/s",
    "wasserstein.alpha.calls": "count",
    "wasserstein.alpha.self_s": "s",
    "wasserstein.lp.count": "count",
    "wasserstein.lp.s": "s",
    "wasserstein.lp.ms_per_lp": "ms",
    "wasserstein.lp.m_mean": "count",
    "wasserstein.lp.m_max": "count",
    "wasserstein.lp.rows": "count",
    "wasserstein.lp.highs_iters": "count",
    "whitney.decompose.cubes": "count",
    "whitney.decompose.s": "s",
    "whitney.decompose.cubes_per_s": "1/s",
    "whitney.ur_sum.anchors": "count",
    "whitney.ur_sum.self_s": "s",
    "whitney.alpha_cache.hit_ratio": "ratio",
    "carleson.norm.cells": "count",
    "carleson.norm.skipped": "count",
    "carleson.norm.self_s": "s",
    "carleson.ntmax.pairs": "count",
    "carleson.ntmax.s": "s",
    "carleson.ntmax.pairs_per_s": "1/s",
    "carleson.ntmax.empty_cones": "count",
    "elliptic.assemble.cells": "count",
    "elliptic.assemble.unknowns": "count",
    "elliptic.assemble.s": "s",
    "elliptic.assemble.self_s": "s",
    "elliptic.solve.s": "s",
    "elliptic.solve.iterations": "count",
    "elliptic.solve.ms_per_iter": "ms",
    "elliptic.solve.residual": "ratio",
    "elliptic.sn.self_s": "s",
}

# counters that repeat exactly between runs of one workload and seed
EXACT = ("wasserstein.lp.count", "wasserstein.lp.m_mean",
         "elliptic.solve.iterations", "distances.scalar.pairs",
         "distances.vector.pairs", "whitney.decompose.cubes",
         "carleson.ntmax.pairs")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run; absent layers give 0."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    lp_m: list[int] = []
    alpha_in_ur_sum = 0
    for sp, st in zip(spans, selfs):
        name = sp["name"]
        total[name] = total.get(name, 0.0) + sp["end"] - sp["start"]
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        for key, val in sp["counts"].items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + val
        if name == "wasserstein.lp":
            lp_m.append(sp["counts"]["m"])
        if name == "wasserstein.alpha" and sp["parent"] is not None \
                and spans[sp["parent"]]["name"] == "whitney.ur_sum":
            alpha_in_ur_sum += 1

    def t(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    n_lp = calls.get("wasserstein.lp", 0)
    n_iter = c("elliptic.solve.iterations")
    anchors = c("whitney.ur_sum.anchors")
    residuals = [sp["counts"]["residual"] for sp in spans
                 if sp["name"] == "elliptic.solve"]
    out = {
        "cli.self_s": own.get("cli.run", 0.0),
        "geometry.build_s": t("geometry.build"),
        "geometry.support_query.points": c("geometry.support_query.points"),
        "geometry.support_query.s": t("geometry.support_query"),
        "wasserstein.alpha.calls": calls.get("wasserstein.alpha", 0),
        "wasserstein.alpha.self_s": own.get("wasserstein.alpha", 0.0),
        "wasserstein.lp.count": n_lp,
        "wasserstein.lp.s": t("wasserstein.lp"),
        "wasserstein.lp.ms_per_lp": 1e3 * _ratio(t("wasserstein.lp"), n_lp),
        "wasserstein.lp.m_mean": _ratio(sum(lp_m), n_lp),
        "wasserstein.lp.m_max": max(lp_m, default=0),
        "wasserstein.lp.rows": c("wasserstein.lp.rows"),
        "wasserstein.lp.highs_iters": c("wasserstein.lp.highs_iters"),
        "whitney.decompose.cubes": c("whitney.decompose.cubes"),
        "whitney.decompose.s": t("whitney.decompose"),
        "whitney.decompose.cubes_per_s": _ratio(
            c("whitney.decompose.cubes"), t("whitney.decompose")),
        "whitney.ur_sum.anchors": anchors,
        "whitney.ur_sum.self_s": own.get("whitney.ur_sum", 0.0),
        "whitney.alpha_cache.hit_ratio":
            1.0 - alpha_in_ur_sum / anchors if anchors else 0.0,
        "carleson.norm.cells": c("carleson.norm.cells"),
        "carleson.norm.skipped": c("carleson.norm.skipped"),
        "carleson.norm.self_s": own.get("carleson.norm", 0.0),
        "carleson.ntmax.pairs": c("carleson.ntmax.pairs"),
        "carleson.ntmax.s": t("carleson.ntmax"),
        "carleson.ntmax.pairs_per_s": _ratio(c("carleson.ntmax.pairs"),
                                             t("carleson.ntmax")),
        "carleson.ntmax.empty_cones": c("carleson.ntmax.empty"),
        "elliptic.assemble.cells": c("elliptic.assemble.cells"),
        "elliptic.assemble.unknowns": c("elliptic.assemble.unknowns"),
        "elliptic.assemble.s": t("elliptic.assemble"),
        "elliptic.assemble.self_s": own.get("elliptic.assemble", 0.0),
        "elliptic.solve.s": t("elliptic.solve"),
        "elliptic.solve.iterations": n_iter,
        "elliptic.solve.ms_per_iter": 1e3 * _ratio(t("elliptic.solve"),
                                                   n_iter),
        "elliptic.solve.residual": max(residuals, default=0.0),
        "elliptic.sn.self_s": own.get("elliptic.sn", 0.0),
    }
    for kind in ("scalar", "vector"):
        pairs = c(f"distances.{kind}.pairs")
        secs = t(f"distances.{kind}")
        out[f"distances.{kind}.pairs"] = pairs
        out[f"distances.{kind}.s"] = secs
        out[f"distances.{kind}.pairs_per_s"] = _ratio(pairs, secs)
    assert set(out) == set(PER_LAYER)
    return out


if __name__ == "__main__":
    import sys

    with open(sys.argv[1]) as fh:
        for key, value in layer_metrics(json.load(fh)).items():
            print(f"{key} {value:.6g} {PER_LAYER[key]}")
