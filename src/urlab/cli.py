"""Config-driven experiment runner binding every module of the package.

Each subcommand maps onto one module operation family: set generation,
regularity and flatness scans, dyadic decomposition sweeps, field
evaluation and identity verification, boundary-weight integrals, and the
truncated elliptic solves.  A run reads one JSON config object (sections
of key-value pairs), applies any ``--set section.key=value`` overrides,
executes, and writes its artifacts into the run directory:

* CSV tables with fixed column sets and ``%.17g`` floats — bodies are
  byte-identical across re-runs with the same config and seed;
* ``manifest.json`` carrying the subcommand, the FULLY resolved
  configuration (every value the run consumed, including defaults that the
  config file never mentioned), the config keys the run never read (a
  misspelt key shows up there), library versions, the seed, and the wall
  time.  A manifest is therefore a complete recipe for reproducing the run;
  it is the only artifact allowed to differ between identical runs.

A config with a ``sweep`` section (``sweep.key``, a dotted config path, and
``sweep.values``, a nonempty list) runs once per value, for any subcommand.
Run i goes into ``<out>/i`` as a complete ordinary run of the config with
the ``sweep`` section removed and the key set to the i-th value: its
artifacts are byte-identical to those of that config run alone, and its
manifest records the key at its own value.  ``<out>/sweep.csv`` has one row
per value: ``sweep_value`` (the value as JSON text), then the scalar
entries of that run's summary.  ``<out>/manifest.json`` records the swept
key, and every path under it, once, as the list of its values (so does
its ``seed`` field when the key is ``seed``); its ``unread`` lists the
leaves that no sub-run read.

All randomness flows from one generator seeded by the ``seed`` key; no
operation touches ambient RNG state.  Any module error ends the run with a
machine-readable record (``error.json`` plus one JSON line on stderr) and
exit status 1; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np
import scipy

from .exceptions import InputError, LabError
from .geometry import (
    Ball,
    ahlfors_constant,
    load_measure,
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    save_measure,
    sawtooth_profile,
    sine_profile,
    support_ball_family,
)

__all__ = ["ExperimentConfig", "run", "main"]

_REQUIRED = object()


# -- configuration ----------------------------------------------------------


class ExperimentConfig:
    """Nested key-value configuration that remembers everything it served.

    ``get`` records each (dotted path, value) pair it resolves — whether
    the value came from the config data or from the caller's default — so
    ``resolved()`` reconstructs the complete effective configuration with
    no hidden defaults.  Missing keys without a default raise InputError.
    """

    def __init__(self, data: dict | None = None):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise InputError("config root must be a JSON object")
        self.data = data
        self.consumed: dict[str, object] = {}

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        if not p.is_file():
            raise InputError(f"config file not found: {p}")
        try:
            with open(p) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {p} is not valid JSON: {exc}")
        return cls(data)

    def apply_override(self, spec: str) -> None:
        """Apply one ``section.key=value`` override (value parsed as JSON
        where possible, kept as a bare string otherwise)."""
        if "=" not in spec:
            raise InputError(f"override must look like section.key=value, "
                             f"got {spec!r}")
        path, raw = spec.split("=", 1)
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise InputError(f"override has an empty key path: {spec!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = self.data
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
                node[k] = nxt
            node = nxt
        node[keys[-1]] = value

    def _lookup(self, path: str) -> tuple:
        """(found, value) at a dotted path."""
        node = self.data
        for k in path.split("."):
            if not (isinstance(node, dict) and k in node):
                return False, None
            node = node[k]
        return True, node

    def get(self, path: str, default=_REQUIRED, kind=None):
        """The value at path, or ``default`` when absent, checked against
        ``kind`` and recorded as returned.

        ``kind`` is ``float``, ``int``, ``bool``, ``str``, ``[kind]`` for a
        list of such values, or None for no check.  A bool comes only from
        a JSON boolean, a float only from a finite JSON number (not ``NaN``
        or ``Infinity``) and an int only from an integral one; anything
        else is an InputError naming the key.  A missing key without a
        default is an InputError; with a None default the key is optional
        and absence (or null) gives None.
        """
        found, node = self._lookup(path)
        if not found:
            if default is _REQUIRED:
                raise InputError(f"config key {path!r} is required")
            node = default
        if node is not None or default is not None:
            node = _typed(path, node, kind)
        self.consumed[path] = node
        return node

    def has(self, path: str) -> bool:
        return self._lookup(path)[0]

    def seed(self, path: str) -> int:
        """The random seed at path, 0 when absent; a negative seed is an
        InputError naming the key."""
        value = self.get(path, 0, int)
        if value < 0:
            raise InputError(f"config key {path!r} must be a nonnegative "
                             f"seed, got {value}")
        return value

    def unread(self) -> list[str]:
        """Sorted dotted paths of the config leaves that no ``get``
        consumed, such as a misspelt key; a consumed path covers every
        leaf below it."""
        out = []

        def walk(node: dict, prefix: str) -> None:
            for k, v in node.items():
                path = prefix + k
                if path in self.consumed:
                    continue
                if isinstance(v, dict):
                    walk(v, path + ".")
                else:
                    out.append(path)

        walk(self.data, "")
        return sorted(out)

    def resolved(self) -> dict:
        """Effective configuration: every consumed key, defaults included."""
        out: dict = {}
        for path, value in sorted(self.consumed.items()):
            node = out
            keys = path.split(".")
            for k in keys[:-1]:
                node = node.setdefault(k, {})
            node[keys[-1]] = value
        return out


_KIND_NAMES = {float: "a finite number", int: "an integer",
               bool: "true or false", str: "a string"}


def _typed(path: str, value, kind):
    """value checked against kind (see ``ExperimentConfig.get``)."""
    if kind is None:
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise InputError(f"config key {path!r} must be a list, "
                             f"got {value!r}")
        return [_typed(path, v, kind[0]) for v in value]
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    else:
        # a float is finite, and so is an int read as a float
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and (kind is int and isinstance(value, int)
                 or abs(value) <= sys.float_info.max
                 and (kind is float or value.is_integer()))
    if not ok:
        raise InputError(f"config key {path!r} must be {_KIND_NAMES[kind]}, "
                         f"got {value!r}")
    return kind(value)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _json_number(x: float) -> float | None:
    """A summary number for the manifest; NaN (no data) becomes null."""
    return None if math.isnan(x) else x


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# -- shared builders --------------------------------------------------------


def _build_measure(cfg: ExperimentConfig):
    kind = cfg.get("generator.kind", kind=str)
    if kind == "plane":
        return make_plane_set(cfg.get("generator.n", 3, int),
                              cfg.get("generator.d", 1, int),
                              cfg.get("generator.extent", 1.0, float),
                              cfg.get("generator.spacing", 0.01, float))
    if kind == "graph":
        profile = cfg.get("generator.profile", "sawtooth", str)
        lam = cfg.get("generator.lam", 0.5, float)
        period = cfg.get("generator.period",
                         0.5 if profile == "sawtooth" else 1.0, float)
        if profile == "sawtooth":
            fn = sawtooth_profile(lam, period)
        elif profile == "sine":
            fn = sine_profile(lam, period)
        else:
            raise InputError(f"unknown graph profile {profile!r}")
        return make_lipschitz_graph(cfg.get("generator.n", 3, int),
                                    cfg.get("generator.d", 1, int), fn, lam,
                                    cfg.get("generator.extent", 1.0, float),
                                    cfg.get("generator.spacing", 0.01, float))
    if kind == "cantor":
        return make_cantor_set(cfg.get("generator.m", 4, int))
    if kind == "file":
        return load_measure(cfg.get("generator.path", kind=str))
    raise InputError(f"unknown generator kind {kind!r}")


def _ball_family(cfg: ExperimentConfig, sigma, rng) -> list[Ball]:
    return support_ball_family(sigma, cfg.get("balls.count", 32, int), rng,
                               cfg.get("balls.radii", None, [float]))


def _point(cfg: ExperimentConfig, path: str, sigma) -> np.ndarray:
    """The point at path: a list of the measure's ambient coordinates."""
    n = sigma.ambient_dim
    value = cfg.get(path, kind=[float])
    if len(value) != n:
        raise InputError(f"{path} must be a list of {n} numbers, "
                         f"got {value!r}")
    return np.asarray(value)


def _single_ball(cfg: ExperimentConfig, sigma) -> Ball:
    center = _point(cfg, "ball.center", sigma)
    radius = cfg.get("ball.radius", kind=float)
    if cfg.get("ball.snap", True, bool):
        center = sigma.points[int(np.argmin(
            np.linalg.norm(sigma.points - center[None, :], axis=1)))]
    return Ball(center, radius)


def _box(cfg: ExperimentConfig, section: str, sigma):
    """(center, side) from ``<section>.box``, or None (recorded) if absent."""
    if not cfg.has(f"{section}.box"):
        cfg.get(f"{section}.box", None)
        return None
    return (_point(cfg, f"{section}.box.center", sigma),
            cfg.get(f"{section}.box.side", kind=float))


def _hull_box(sigma) -> tuple:
    """The measure's bounding box, as (center, side) of a cube 1.5 times
    its longest extent."""
    hi, lo = sigma.points.max(axis=0), sigma.points.min(axis=0)
    return 0.5 * (hi + lo), 1.5 * float((hi - lo).max())


def _system(cfg: ExperimentConfig, sigma, default_box,
            h: float | None = None) -> "_elliptic.EllipticSystem":
    """The one place a subcommand chooses its grid and solver, assembled.

    The box is ``elliptic.box``, else ``default_box(step)`` of the chosen
    cell size; the cell size is ``elliptic.h``, else h, else the box side
    / 96 raised to the collar's floor (``SolverConfig.min_h``).  The
    manifest records ``elliptic.box`` and ``elliptic.h`` as given (null
    when absent), the solver knobs with their defaults.
    """
    from . import elliptic as _elliptic
    config = _elliptic.SolverConfig(
        beta=cfg.get("elliptic.beta", 2.0, float),
        gamma=cfg.get("elliptic.gamma", 0.0, float),
        tol=cfg.get("elliptic.tol", 1e-8, float),
        maxiter=cfg.get("elliptic.maxiter", None, int),
        collar=cfg.get("elliptic.collar", 1.5, float),
        outer=cfg.get("elliptic.outer", "neumann", str))
    box = _box(cfg, "elliptic", sigma)
    given = cfg.get("elliptic.h", None, float)
    step = h if given is None else given
    if box is None:
        box = default_box(step)
    if step is None:
        step = max(box[1] / 96.0, config.min_h(sigma.spacing))
    return _elliptic.assemble(sigma, box, step, config)


def _atom_data(cfg: ExperimentConfig, sigma, section: str):
    """Per-atom boundary data (float) or membership set (bool) from config."""
    kind = cfg.get(f"{section}.kind", "halfspace", str)
    npts = len(sigma)
    if kind == "halfspace":
        axis = cfg.get(f"{section}.axis", 0, int)
        threshold = cfg.get(f"{section}.threshold", 0.0, float)
        if not 0 <= axis < sigma.ambient_dim:
            raise InputError(f"{section}.axis out of range")
        return sigma.points[:, axis] > threshold
    if kind == "constant":
        return np.full(npts, cfg.get(f"{section}.value", 1.0, float))
    if kind == "indices":
        from .elliptic import _e_mask
        return _e_mask(
            np.asarray(cfg.get(f"{section}.values", kind=[int]),
                       dtype=np.int64), npts)
    raise InputError(f"unknown {section}.kind {kind!r}")


def _decomposition(cfg: ExperimentConfig, sigma,
                   focus=None) -> "_whitney.WhitneyDecomposition":
    from . import whitney as _whitney
    return _whitney.decompose(
        sigma, _box(cfg, "whitney", sigma),
        cfg.get("whitney.max_depth", 10, int),
        focus=focus,
        lam=cfg.get("whitney.lam", _whitney.SCALE_FACTOR, float),
        alpha_resolution=cfg.get("whitney.alpha_resolution", 12, int),
        alpha_cap=cfg.get("whitney.alpha_cap", 120, int),
        alpha_seed=cfg.seed("whitney.alpha_seed"))


# -- subcommands -------------------------------------------------------------


def _cmd_gen(cfg, sigma, rng, outdir):
    save_measure(sigma, str(outdir / "measure.txt"))
    return {"descriptor": sigma.descriptor, "n_atoms": len(sigma),
            "ambient_dim": sigma.ambient_dim,
            "intrinsic_dim": sigma.intrinsic_dim,
            "spacing": sigma.spacing, "extent": sigma.extent,
            "total_mass": float(sigma.weights.sum())}, ["measure.txt"]


def _cmd_ahlfors(cfg, sigma, rng, outdir):
    report = ahlfors_constant(sigma, _ball_family(cfg, sigma, rng))
    n = sigma.ambient_dim
    rows = [[i, *(_fmt(c) for c in b.center), _fmt(b.radius), _fmt(v)]
            for i, (b, v) in enumerate(zip(report.balls, report.ratios))]
    _write_csv(outdir / "ahlfors.csv",
               ["ball", *(f"center{j}" for j in range(n)), "radius", "ratio"],
               rows)
    return {"constant": report.constant, "dimension": report.dimension,
            "n_balls": len(report.balls),
            "n_excluded": len(report.excluded),
            "ratio_min": float(report.ratios.min()),
            "ratio_max": float(report.ratios.max())}, ["ahlfors.csv"]


def _cmd_alpha(cfg, sigma, rng, outdir):
    from . import wasserstein as _wasserstein
    balls = _ball_family(cfg, sigma, rng)
    resolution = cfg.get("wasserstein.resolution", 16, int)
    cap = cfg.get("wasserstein.cap", 300, int)
    refine = cfg.get("wasserstein.refine", True, bool)
    maxiter = cfg.get("wasserstein.refine_maxiter", 200, int)
    xatol = cfg.get("wasserstein.xatol", 1e-4, float)
    seed = cfg.seed("wasserstein.seed")
    n = sigma.ambient_dim
    rows = []
    values = []
    for i, b in enumerate(balls):
        res = _wasserstein.alpha_number(
            sigma, b, resolution=resolution, cap=cap, refine=refine,
            refine_maxiter=maxiter, xatol=xatol, seed=seed)
        values.append(res.value)
        rows.append([i, *(_fmt(c) for c in b.center), _fmt(b.radius),
                     _fmt(res.value), _fmt(res.initial_value),
                     _fmt(res.refined_value), res.nm_iterations,
                     int(res.truncated)])
    _write_csv(outdir / "alpha.csv",
               ["ball", *(f"center{j}" for j in range(n)), "radius", "alpha",
                "initial", "refined", "nm_iterations", "truncated"], rows)
    arr = np.asarray(values)
    return {"n_balls": len(balls), "alpha_min": float(arr.min()),
            "alpha_max": float(arr.max()),
            "alpha_mean": float(arr.mean())}, ["alpha.csv"]


def _cmd_whitney(cfg, sigma, rng, outdir):
    from . import whitney as _whitney
    dump = dict(k_max=cfg.get("whitney.k_max", 0, int),
                eps=cfg.get("whitney.eps", _whitney._EPS_DEFAULT, float),
                include_alpha=cfg.get("whitney.include_alpha", False, bool),
                include_mu=cfg.get("whitney.include_mu", False, bool),
                stride=cfg.get("whitney.stride", 1, int))
    deco = _decomposition(cfg, sigma)
    rows = _whitney.dump_cubes(deco, outdir / "cubes.csv", **dump)
    return {"lookback_scale": deco.lam, "n_cubes": len(deco),
            "n_levels": len(deco.levels), "rows_written": rows,
            "n_undecided": deco.undecided}, ["cubes.csv"]


def _cmd_ur_sum(cfg, sigma, rng, outdir):
    from . import whitney as _whitney
    x = _point(cfg, "query.point", sigma)
    r = cfg.get("query.radius", kind=float)
    k = cfg.get("query.k", 0, int)
    # pruning to B(x, r) keeps every cube the sum can select
    deco = _decomposition(cfg, sigma, focus=(x, r))
    res = _whitney.ur_square_sum(deco, x, r, k)
    _write_csv(outdir / "ur_sum.csv",
               ["square_sum", "n_cubes", "n_excluded", "n_anchors"],
               [[_fmt(res.value), res.n_cubes, res.n_excluded,
                 res.n_anchors]])
    return {"lookback_scale": deco.lam, "square_sum": res.value}, \
        ["ur_sum.csv"]


def _probe_points(cfg: ExperimentConfig, sigma) -> np.ndarray:
    n = sigma.ambient_dim
    if cfg.has("probes.points"):
        pts = cfg.get("probes.points", kind=[[float]])
        if not pts or {len(p) for p in pts} != {n}:
            raise InputError(f"probes.points must be a list of points with "
                             f"{n} coordinates each")
        return np.asarray(pts)
    if not cfg.has("probes.line"):
        raise InputError("config needs probes.points or probes.line")
    start = _point(cfg, "probes.line.start", sigma)
    stop = _point(cfg, "probes.line.stop", sigma)
    count = cfg.get("probes.line.count", 16, int)
    if count < 2:
        raise InputError("probes.line.count must be at least 2")
    t = np.linspace(0.0, 1.0, count)
    return start[None, :] + t[:, None] * (stop - start)[None, :]


def _cmd_dist_fields(cfg, sigma, rng, outdir):
    from . import distances as _distances
    beta = cfg.get("distances.beta", 2.0, float)
    pts = _probe_points(cfg, sigma)
    sample = _distances.evaluate_fields(sigma, pts, beta)
    n = sigma.ambient_dim
    rows = []
    for i in range(pts.shape[0]):
        rows.append([*(_fmt(c) for c in pts[i]), _fmt(sample.distance[i]),
                     *(_fmt(c) for c in sample.field[i]),
                     *(_fmt(c) for c in sample.gradient[i]),
                     _fmt(sample.support_gap[i]),
                     int(sample.reliable[i])])
    _write_csv(outdir / "fields.csv",
               [*(f"x{j}" for j in range(n)), "distance",
                *(f"field{j}" for j in range(n)),
                *(f"grad{j}" for j in range(n)), "support_gap", "reliable"],
               rows)
    return {"beta": beta, "n_probes": int(pts.shape[0]),
            "n_reliable": int(sample.reliable.sum())}, ["fields.csv"]


def _cmd_verify_identities(cfg, sigma, rng, outdir):
    from . import distances as _distances, wasserstein as _wasserstein
    d = sigma.intrinsic_dim
    beta = cfg.get("distances.beta", 2.0, float)
    gap = cfg.get("identities.gap", 10.0 * sigma.spacing, float)
    center = sigma.points[int(np.argmin(np.linalg.norm(
        sigma.points - sigma.points.mean(axis=0)[None, :], axis=1)))]
    probe = center.copy()
    probe[-1] += gap
    seed = cfg.seed("wasserstein.seed")

    rows = []

    def check(name: str, value: float, tol: float) -> None:
        rows.append([name, _fmt(value), _fmt(tol),
                     "pass" if value <= tol else "fail"])

    c_ref = _distances.kernel_constant(1, 1.0)
    check("kernel-constant-d1-beta1", abs(c_ref - math.pi) / math.pi, 1e-8)
    lhs = (beta + d) * _distances.kernel_constant(d, beta + 2.0)
    rhs = beta * _distances.kernel_constant(d, beta)
    check("kernel-constant-recursion", abs(lhs - rhs) / rhs, 1e-8)

    rep = _distances.fd_gradient_check(sigma, probe, beta)
    check("gradient-identity-fd", rep["rel_err"], 1e-4)
    check("gradient-identity-richardson", 0.0 if rep["richardson_ok"]
          else 1.0, 0.5)
    if d < sigma.ambient_dim - 1:
        div = _distances.divergence_check(sigma, probe)
        check("middle-exponent-divergence-free", div["ratio"], 1e-3)

    r_alpha = min(sigma.window()[1], 25.0 * sigma.spacing)
    res = _wasserstein.alpha_number(sigma, Ball(center, r_alpha), seed=seed)
    check("flatness-vanishes-on-flat-sets", res.value,
          5.0 * sigma.spacing / r_alpha)

    _write_csv(outdir / "identities.csv",
               ["identity", "value", "tolerance", "status"], rows)
    n_fail = sum(1 for r in rows if r[3] == "fail")
    return {"n_identities": len(rows), "n_failed": n_fail,
            "all_pass": n_fail == 0}, ["identities.csv"]


def _field_fn(cfg: ExperimentConfig, sigma):
    from . import distances as _distances
    kind = cfg.get("field.kind", "one", str)
    if kind == "one":
        return lambda pts: np.ones(pts.shape[0])
    if kind == "gradient":
        beta = cfg.get("field.beta", 2.0, float)
        return lambda pts: np.linalg.norm(
            _distances.distance_gradient(sigma, pts, beta), axis=1)
    raise InputError(f"unknown field.kind {kind!r}")


def _cmd_carleson(cfg, sigma, rng, outdir):
    from . import carleson as _carleson
    balls = _ball_family(cfg, sigma, rng)
    h = cfg.get("carleson.h", min(b.radius for b in balls) / 32.0, float)
    est = _carleson.carleson_norm(
        _field_fn(cfg, sigma), sigma, balls, h,
        refine=cfg.get("carleson.refine", True, bool))
    _carleson.write_carleson(est, str(outdir / "carleson.csv"),
                             str(outdir / "carleson_summary.json"))
    return {**est.summary(), "n_balls": len(est.balls)}, \
        ["carleson.csv", "carleson_summary.json"]


def _cmd_solve(cfg, sigma, rng, outdir):
    from . import elliptic as _elliptic
    g = _atom_data(cfg, sigma, "data").astype(np.float64)
    system = _system(cfg, sigma, lambda _: _hull_box(sigma),
                     cfg.get("elliptic.h", kind=float))
    sol = system.solve(g)
    _elliptic.write_field(sol.field, outdir / "field.bin",
                          outdir / "field.json", outdir / "field_mask.bin")
    return {"iterations": sol.iterations, "residual": sol.residual,
            "n_unknowns": sol.n_unknowns,
            "n_cells": int(sol.field.values.size),
            "grid_shape": list(sol.field.shape)}, \
        ["field.bin", "field.json", "field_mask.bin"]


def _cmd_hm(cfg, sigma, rng, outdir):
    from . import elliptic as _elliptic
    e = _atom_data(cfg, sigma, "set")
    if e.dtype != bool:
        raise InputError("set.kind must describe a membership set, not data")
    pole = _point(cfg, "hm.pole", sigma)
    system = _system(cfg, sigma, lambda _: _hull_box(sigma))
    res = _elliptic.harmonic_measure(system, e, pole)
    _write_csv(outdir / "hm.csv",
               ["value", "complement_value", "mass_gap", "iterations"],
               [[_fmt(res.value), _fmt(res.complement_value),
                 _fmt(res.mass_gap), res.iterations]])
    return {"value": res.value, "complement_value": res.complement_value,
            "mass_gap": res.mass_gap, "iterations": res.iterations,
            "set_size": int(e.sum())}, ["hm.csv"]


def _cmd_ainfty(cfg, sigma, rng, outdir):
    from . import elliptic as _elliptic
    ball = _single_ball(cfg, sigma)
    n_sets = cfg.get("scatter.n_sets", 64, int)
    seed = cfg.seed("scatter.seed")
    deltas = cfg.get("scatter.deltas", [0.01, 0.05, 0.2], [float])
    system = _system(cfg, sigma, lambda _: (ball.center, 7.5 * ball.radius))
    res = _elliptic.ainfty_scatter(system, ball, n_sets, seed)
    _elliptic.write_scatter(res, outdir / "scatter.csv")
    # an envelope with no row below its threshold is NaN: JSON null
    return {"envelopes": {str(t): _json_number(res.envelope(t))
                          for t in deltas},
            "omega_ball": res.omega_ball, "sigma_ball": res.sigma_ball,
            "n_rows": int(res.pairs.shape[0]),
            "iterations": res.iterations}, ["scatter.csv"]


def _cmd_sn(cfg, sigma, rng, outdir):
    from . import elliptic as _elliptic
    ball = _single_ball(cfg, sigma)
    g = _atom_data(cfg, sigma, "data").astype(np.float64)
    r = ball.radius
    system = _system(cfg, sigma, lambda h: (ball.center, 4.0 * r + 8.0 * h),
                     r / 32.0)
    res = _elliptic.sn_check(system, ball, system.solve(g))
    _write_csv(outdir / "sn.csv",
               ["square_fn", "sup_sq", "nt_sq", "sup_ratio", "nt_ratio",
                "iterations", "n_empty_cones"],
               [[_fmt(res.square_fn), _fmt(res.sup_sq), _fmt(res.nt_sq),
                 _fmt(res.sup_ratio()), _fmt(res.nt_ratio()),
                 res.iterations, res.n_empty_cones]])
    # a 0/0 ratio is NaN: JSON null
    return {"square_fn": res.square_fn, "sup_sq": res.sup_sq,
            "nt_sq": res.nt_sq, "sup_ratio": _json_number(res.sup_ratio()),
            "nt_ratio": _json_number(res.nt_ratio()), "grid_step": res.h,
            "iterations": res.iterations}, ["sn.csv"]


_COMMANDS = {
    "gen": _cmd_gen,
    "ahlfors": _cmd_ahlfors,
    "alpha": _cmd_alpha,
    "whitney": _cmd_whitney,
    "ur-sum": _cmd_ur_sum,
    "dist-fields": _cmd_dist_fields,
    "verify-identities": _cmd_verify_identities,
    "carleson": _cmd_carleson,
    "solve": _cmd_solve,
    "hm": _cmd_hm,
    "ainfty": _cmd_ainfty,
    "sn": _cmd_sn,
}


# -- runner ------------------------------------------------------------------


def _versions() -> dict:
    try:
        pkg = version("urlab")
    except PackageNotFoundError:
        pkg = "unknown"
    return {"urlab": pkg, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__}


def _error_record(subcommand: str, exc: LabError, outdir=None) -> int:
    record = {"status": "error", "subcommand": subcommand,
              "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    if outdir is not None:
        with open(outdir / "error.json", "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 1


def _sweep(subcommand: str, cfg: ExperimentConfig, out: Path) -> tuple:
    """Each value of ``sweep.values`` at ``sweep.key`` run into ``out/i``,
    and their scalar summaries written to ``out/sweep.csv``."""
    key = cfg.get("sweep.key", None, str)
    values = cfg.get("sweep.values", None, [None])
    if key is None or not values:
        raise InputError("a sweep needs sweep.key and a nonempty sweep.values")
    read, summaries = {}, []
    for i, value in enumerate(values):
        sub = ExperimentConfig(copy.deepcopy(cfg.data))
        del sub.data["sweep"]
        sub.apply_override(f"{key}={json.dumps(value)}")
        summaries.append(_run_into(subcommand, sub, out / str(i)))
        read.update(sub.consumed)
    under = [p for p in read if (p + ".").startswith(key + ".")]
    if not under:
        raise InputError(f"sweep.key {key!r} is never read")
    # the swept key, and every path under it, is recorded once, as the
    # list of the key's values
    cfg.consumed = {**{p: read[p] for p in read if p not in under},
                    **cfg.consumed, key: values}
    cols = [k for k in summaries[0] if not any(
        isinstance(s.get(k), (dict, list)) for s in summaries)]
    _write_csv(out / "sweep.csv", ["sweep_value", *cols],
               [[json.dumps(value), *(_fmt(v) if isinstance(v, float) else v
                                      for v in map(s.get, cols))]
                for value, s in zip(values, summaries)])
    return {"sweep_key": key, "n_runs": len(values)}, \
        ["sweep.csv", *map(str, range(len(values)))]


def _run_into(subcommand: str, cfg: ExperimentConfig, out: Path) -> dict:
    """Run cfg into the directory out, write its manifest and return its
    summary; a config with a sweep section runs as a sweep."""
    t0 = time.monotonic()
    out.mkdir(parents=True, exist_ok=True)
    cfg.consumed["outdir"] = str(out)
    seed = cfg.seed("seed")
    if cfg.has("sweep.key") or cfg.has("sweep.values"):
        summary, artifacts = _sweep(subcommand, cfg, out)
        # a sweep over the seed records it as the list of its values
        seed = cfg.consumed["seed"]
    else:
        summary, artifacts = _COMMANDS[subcommand](
            cfg, _build_measure(cfg), np.random.default_rng(seed), out)
    manifest = {
        "subcommand": subcommand,
        "status": "ok",
        "seed": seed,
        "config": cfg.resolved(),
        "unread": cfg.unread(),
        "versions": _versions(),
        "wall_time_s": time.monotonic() - t0,
        "artifacts": artifacts,
        "summary": summary,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return summary


def run(subcommand: str, config, outdir=None) -> int:
    """Execute one subcommand against a configuration.

    ``config`` may be an ExperimentConfig, a plain dict, or a path to a
    JSON file.  A ``sweep`` section makes the run a sweep (see the module
    docstring): one complete sub-run per value in ``<out>/0``, ``<out>/1``,
    ..., with ``sweep.csv`` and a manifest for the whole sweep in ``<out>``.
    Returns the process exit status: 0 on success, 1 with a
    machine-readable error record on any module error (a sub-run's error
    ends the sweep), 2 on usage errors.
    """
    if subcommand not in _COMMANDS:
        print(f"unknown subcommand {subcommand!r}; choose from "
              f"{', '.join(_COMMANDS)}", file=sys.stderr)
        return 2
    out = None
    try:
        if isinstance(config, ExperimentConfig):
            cfg = config
        elif isinstance(config, dict):
            cfg = ExperimentConfig(copy.deepcopy(config))
        else:
            cfg = ExperimentConfig.from_file(config)
        out = Path(outdir) if outdir is not None \
            else Path(cfg.get("outdir", "runs/latest", str))
        _run_into(subcommand, cfg, out)
    except LabError as exc:
        return _error_record(subcommand, exc, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="urlab",
        description="experiment runner for the flatness/elliptic laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="subcommand")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", default=None,
                       help="JSON config file")
        p.add_argument("-s", "--set", action="append", default=[],
                       dest="overrides", metavar="SECTION.KEY=VALUE",
                       help="override one config key")
        p.add_argument("-o", "--out", default=None,
                       help="run directory (overrides config outdir)")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config) \
            if args.config is not None else ExperimentConfig()
        for spec in args.overrides:
            cfg.apply_override(spec)
    except LabError as exc:
        return _error_record(args.subcommand, exc)
    return run(args.subcommand, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
