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
  config file never mentioned), library versions, the seed, and the wall
  time.  A manifest is therefore a complete recipe for reproducing the run;
  it is the only artifact allowed to differ between identical runs.

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
from . import carleson as _carleson
from . import distances as _distances
from . import elliptic as _elliptic
from . import wasserstein as _wasserstein
from . import whitney as _whitney

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

    def get(self, path: str, default=_REQUIRED):
        node = self.data
        found = True
        for k in path.split("."):
            if isinstance(node, dict) and k in node:
                node = node[k]
            else:
                found = False
                break
        if not found:
            if default is _REQUIRED:
                raise InputError(f"config key {path!r} is required")
            node = default
        self.consumed[path] = node
        return node

    def has(self, path: str) -> bool:
        node = self.data
        for k in path.split("."):
            if isinstance(node, dict) and k in node:
                node = node[k]
            else:
                return False
        return True

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


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


# -- shared builders --------------------------------------------------------


def _build_measure(cfg: ExperimentConfig):
    kind = cfg.get("generator.kind")
    if kind == "plane":
        return make_plane_set(int(cfg.get("generator.n", 3)),
                              int(cfg.get("generator.d", 1)),
                              float(cfg.get("generator.extent", 1.0)),
                              float(cfg.get("generator.spacing", 0.01)))
    if kind == "graph":
        profile = cfg.get("generator.profile", "sawtooth")
        lam = float(cfg.get("generator.lam", 0.5))
        period = float(cfg.get("generator.period",
                               0.5 if profile == "sawtooth" else 1.0))
        if profile == "sawtooth":
            fn = sawtooth_profile(lam, period)
        elif profile == "sine":
            fn = sine_profile(lam, period)
        else:
            raise InputError(f"unknown graph profile {profile!r}")
        return make_lipschitz_graph(int(cfg.get("generator.n", 3)),
                                    int(cfg.get("generator.d", 1)), fn, lam,
                                    float(cfg.get("generator.extent", 1.0)),
                                    float(cfg.get("generator.spacing", 0.01)))
    if kind == "cantor":
        return make_cantor_set(int(cfg.get("generator.m", 4)))
    if kind == "file":
        return load_measure(str(cfg.get("generator.path")))
    raise InputError(f"unknown generator kind {kind!r}")


def _ball_family(cfg: ExperimentConfig, sigma, rng) -> list[Ball]:
    count = int(cfg.get("balls.count", 32))
    radii = cfg.get("balls.radii", None)
    if radii is not None:
        radii = [float(r) for r in radii]
    return support_ball_family(sigma, count, rng, radii)


def _single_ball(cfg: ExperimentConfig, sigma) -> Ball:
    center = np.asarray(cfg.get("ball.center"), dtype=np.float64)
    radius = float(cfg.get("ball.radius"))
    if bool(cfg.get("ball.snap", True)):
        center = sigma.points[int(np.argmin(
            np.linalg.norm(sigma.points - center[None, :], axis=1)))]
    return Ball(center, radius)


def _optional(cfg: ExperimentConfig, path: str, kind=float):
    """The value at path converted by kind, or None (recorded) if absent."""
    value = cfg.get(path, None)
    return None if value is None else kind(value)


def _box(cfg: ExperimentConfig, section: str):
    """(center, side) from ``<section>.box``, or None (recorded) if absent."""
    if not cfg.has(f"{section}.box"):
        cfg.get(f"{section}.box", None)
        return None
    return (np.asarray(cfg.get(f"{section}.box.center"), dtype=np.float64),
            float(cfg.get(f"{section}.box.side")))


def _solver_config(cfg: ExperimentConfig) -> "_elliptic.SolverConfig":
    return _elliptic.SolverConfig(
        beta=float(cfg.get("elliptic.beta", 2.0)),
        gamma=float(cfg.get("elliptic.gamma", 0.0)),
        tol=float(cfg.get("elliptic.tol", 1e-8)),
        maxiter=_optional(cfg, "elliptic.maxiter", int),
        collar=float(cfg.get("elliptic.collar", 1.5)),
        outer=str(cfg.get("elliptic.outer", "neumann")))


def _atom_data(cfg: ExperimentConfig, sigma, section: str):
    """Per-atom boundary data (float) or membership set (bool) from config."""
    kind = cfg.get(f"{section}.kind", "halfspace")
    npts = len(sigma)
    if kind == "halfspace":
        axis = int(cfg.get(f"{section}.axis", 0))
        threshold = float(cfg.get(f"{section}.threshold", 0.0))
        if not 0 <= axis < sigma.ambient_dim:
            raise InputError(f"{section}.axis out of range")
        return sigma.points[:, axis] > threshold
    if kind == "constant":
        return np.full(npts, float(cfg.get(f"{section}.value", 1.0)))
    if kind == "indices":
        idx = np.asarray(cfg.get(f"{section}.values"), dtype=np.int64)
        mask = np.zeros(npts, dtype=bool)
        mask[idx] = True
        return mask
    raise InputError(f"unknown {section}.kind {kind!r}")


def _decomposition(cfg: ExperimentConfig, sigma,
                   focus=None) -> "_whitney.WhitneyDecomposition":
    return _whitney.decompose(
        sigma, _box(cfg, "whitney"), int(cfg.get("whitney.max_depth", 10)),
        focus=focus,
        alpha_resolution=int(cfg.get("whitney.alpha_resolution", 12)),
        alpha_cap=int(cfg.get("whitney.alpha_cap", 120)),
        alpha_seed=int(cfg.get("whitney.alpha_seed", 0)))


# -- subcommands -------------------------------------------------------------


def _cmd_gen(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    save_measure(sigma, str(outdir / "measure.txt"))
    return {"descriptor": sigma.descriptor, "n_atoms": len(sigma),
            "ambient_dim": sigma.ambient_dim,
            "intrinsic_dim": sigma.intrinsic_dim,
            "spacing": sigma.spacing, "extent": sigma.extent,
            "total_mass": float(sigma.weights.sum())}, ["measure.txt"]


def _cmd_ahlfors(cfg, rng, outdir):
    sigma = _build_measure(cfg)
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


def _cmd_alpha(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    balls = _ball_family(cfg, sigma, rng)
    resolution = int(cfg.get("wasserstein.resolution", 16))
    cap = int(cfg.get("wasserstein.cap", 300))
    refine = bool(cfg.get("wasserstein.refine", True))
    maxiter = int(cfg.get("wasserstein.refine_maxiter", 200))
    xatol = float(cfg.get("wasserstein.xatol", 1e-4))
    seed = int(cfg.get("wasserstein.seed", 0))
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


def _cmd_whitney(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    deco = _decomposition(cfg, sigma)
    lam = float(cfg.get("whitney.lam", _whitney.SCALE_FACTOR))
    rows = _whitney.dump_cubes(
        deco, outdir / "cubes.csv",
        k_max=int(cfg.get("whitney.k_max", 0)), lam=lam,
        eps=float(cfg.get("whitney.eps", _whitney._EPS_DEFAULT)),
        include_alpha=bool(cfg.get("whitney.include_alpha", False)),
        include_mu=bool(cfg.get("whitney.include_mu", False)),
        stride=int(cfg.get("whitney.stride", 1)))
    return {"lookback_scale": lam, "n_cubes": len(deco),
            "n_levels": len(deco.levels), "rows_written": rows,
            "n_undecided": deco.undecided}, ["cubes.csv"]


def _cmd_ur_sum(cfg, rng, outdir):
    x = np.asarray(cfg.get("query.point"), dtype=np.float64)
    r = float(cfg.get("query.radius"))
    k = int(cfg.get("query.k", 0))
    lam = float(cfg.get("whitney.lam", _whitney.SCALE_FACTOR))
    use_focus = bool(cfg.get("whitney.focus", True))
    sweep_key = cfg.get("sweep.key", None)
    sweep_values = cfg.get("sweep.values", [None])
    if sweep_key is None and sweep_values != [None]:
        raise InputError("sweep.values requires sweep.key")
    rows = []
    sums = []
    for value in sweep_values:
        sub = ExperimentConfig(copy.deepcopy(cfg.data))
        if sweep_key is not None:
            sub.apply_override(f"{sweep_key}={json.dumps(value)}")
        sigma = _build_measure(sub)
        focus = (x, 2.0 * r) if use_focus else None
        deco = _decomposition(sub, sigma, focus=focus)
        res = _whitney.ur_square_sum(deco, x, r, k, lam=lam, details=True)
        sums.append(res.value)
        rows.append(["" if value is None else value, _fmt(res.value),
                     res.n_cubes, res.n_excluded, res.n_anchors])
        cfg.consumed.update(sub.consumed)
    _write_csv(outdir / "ur_sum.csv",
               ["sweep_value", "square_sum", "n_cubes", "n_excluded",
                "n_anchors"], rows)
    summary = {"lookback_scale": lam, "values": sums}
    if len(sums) > 1 and sums[0] > 0:
        summary["ratio_last_over_first"] = sums[-1] / sums[0]
    return summary, ["ur_sum.csv"]


def _probe_points(cfg: ExperimentConfig, n: int) -> np.ndarray:
    if cfg.has("probes.points"):
        pts = np.asarray(cfg.get("probes.points"), dtype=np.float64)
        pts = np.atleast_2d(pts)
    elif cfg.has("probes.line"):
        start = np.asarray(cfg.get("probes.line.start"), dtype=np.float64)
        stop = np.asarray(cfg.get("probes.line.stop"), dtype=np.float64)
        count = int(cfg.get("probes.line.count", 16))
        if count < 2:
            raise InputError("probes.line.count must be at least 2")
        t = np.linspace(0.0, 1.0, count)
        pts = start[None, :] + t[:, None] * (stop - start)[None, :]
    else:
        raise InputError("config needs probes.points or probes.line")
    if pts.shape[1] != n:
        raise InputError("probe dimension does not match the measure")
    return pts


def _cmd_dist_fields(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    beta = float(cfg.get("distances.beta", 2.0))
    pts = _probe_points(cfg, sigma.ambient_dim)
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


def _cmd_verify_identities(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    d = sigma.intrinsic_dim
    beta = float(cfg.get("distances.beta", 2.0))
    gap = float(cfg.get("identities.gap", 10.0 * sigma.spacing))
    center = sigma.points[int(np.argmin(np.linalg.norm(
        sigma.points - sigma.points.mean(axis=0)[None, :], axis=1)))]
    probe = center.copy()
    probe[-1] += gap

    rows = []

    def check(name: str, value: float, tol: float) -> None:
        rows.append([name, _fmt(value), _fmt(tol),
                     "pass" if value <= tol else "fail"])

    c_ref = _distances.kernel_constant(1, 1.0)
    check("kernel-constant-d1-beta1", abs(c_ref - math.pi) / math.pi, 1e-8)
    want = math.pi ** (d / 2.0) * math.gamma(beta / 2.0) \
        / math.gamma((beta + d) / 2.0)
    check("kernel-constant-gamma-form",
          abs(_distances.kernel_constant(d, beta) - want) / want, 1e-8)
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
    res = _wasserstein.alpha_number(sigma, Ball(center, r_alpha),
                                    seed=int(cfg.get("wasserstein.seed", 0)))
    check("flatness-vanishes-on-flat-sets", res.value,
          5.0 * sigma.spacing / r_alpha)

    _write_csv(outdir / "identities.csv",
               ["identity", "value", "tolerance", "status"], rows)
    n_fail = sum(1 for r in rows if r[3] == "fail")
    return {"n_identities": len(rows), "n_failed": n_fail,
            "all_pass": n_fail == 0}, ["identities.csv"]


def _field_fn(cfg: ExperimentConfig, sigma):
    kind = cfg.get("field.kind", "one")
    if kind == "one":
        return lambda pts: np.ones(pts.shape[0])
    if kind == "riesz":
        beta = float(cfg.get("field.beta", 2.0))
        return lambda pts: np.linalg.norm(
            _distances.riesz_field(sigma, pts, beta), axis=1)
    if kind == "gradient":
        beta = float(cfg.get("field.beta", 2.0))
        return lambda pts: np.linalg.norm(
            _distances.distance_gradient(sigma, pts, beta), axis=1)
    raise InputError(f"unknown field.kind {kind!r}")


def _cmd_carleson(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    balls = _ball_family(cfg, sigma, rng)
    h = float(cfg.get("carleson.h", min(b.radius for b in balls) / 32.0))
    est = _carleson.carleson_norm(
        _field_fn(cfg, sigma), sigma, balls, h,
        squared=bool(cfg.get("carleson.squared", True)),
        refine=bool(cfg.get("carleson.refine", True)))
    _carleson.write_carleson(est, str(outdir / "carleson.csv"),
                             str(outdir / "carleson_summary.json"))
    return {"supremum": est.supremum, "grid_step": est.h,
            "n_balls": len(est.balls),
            "max_bias": est.max_bias(),
            "total_skipped_cells": int(est.skipped.sum()),
            "refinement_ratio": est.refinement_ratio()}, \
        ["carleson.csv", "carleson_summary.json"]


def _cmd_solve(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    system = _elliptic.assemble(
        sigma, _box(cfg, "elliptic") or _elliptic._default_box(sigma),
        float(cfg.get("elliptic.h")), _solver_config(cfg))
    g = _atom_data(cfg, sigma, "data").astype(np.float64)
    sol = system.solve(g)
    _elliptic.write_field(sol.field, outdir / "field.bin",
                          outdir / "field.json", outdir / "field_mask.bin")
    return {"iterations": sol.iterations, "residual": sol.residual,
            "n_unknowns": sol.n_unknowns,
            "n_cells": int(sol.field.values.size),
            "grid_shape": list(sol.field.shape)}, \
        ["field.bin", "field.json", "field_mask.bin"]


def _cmd_hm(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    e = _atom_data(cfg, sigma, "set")
    if e.dtype != bool:
        raise InputError("set.kind must describe a membership set, not data")
    pole = np.asarray(cfg.get("hm.pole"), dtype=np.float64)
    res = _elliptic.harmonic_measure(
        sigma, e, pole, _solver_config(cfg), box=_box(cfg, "elliptic"),
        h=_optional(cfg, "elliptic.h"))
    it_set, it_comp = res.iterations
    _write_csv(outdir / "hm.csv",
               ["value", "complement_value", "mass_gap", "iterations_set",
                "iterations_complement"],
               [[_fmt(res.value), _fmt(res.complement_value),
                 _fmt(res.mass_gap), it_set, it_comp]])
    return {"value": res.value, "complement_value": res.complement_value,
            "mass_gap": res.mass_gap, "iterations": list(res.iterations),
            "set_size": int(e.sum())}, ["hm.csv"]


def _cmd_ainfty(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    ball = _single_ball(cfg, sigma)
    res = _elliptic.ainfty_scatter(
        sigma, ball, _solver_config(cfg),
        n_sets=int(cfg.get("scatter.n_sets", 64)),
        seed=int(cfg.get("scatter.seed", 0)),
        box=_box(cfg, "elliptic"), h=_optional(cfg, "elliptic.h"))
    _elliptic.write_scatter(res, outdir / "scatter.csv")
    deltas = [float(t) for t in cfg.get("scatter.deltas", [0.01, 0.05, 0.2])]
    return {"envelopes": {str(t): res.envelope(t) for t in deltas},
            "omega_ball": res.omega_ball, "sigma_ball": res.sigma_ball,
            "n_rows": int(res.pairs.shape[0]),
            "iterations": res.iterations}, ["scatter.csv"]


def _cmd_sn(cfg, rng, outdir):
    sigma = _build_measure(cfg)
    ball = _single_ball(cfg, sigma)
    g = _atom_data(cfg, sigma, "data").astype(np.float64)
    res = _elliptic.sn_check(sigma, ball, _solver_config(cfg), g,
                             h=_optional(cfg, "elliptic.h"),
                             box=_box(cfg, "elliptic"))
    _write_csv(outdir / "sn.csv",
               ["square_fn", "sup_sq", "nt_sq", "sup_ratio", "nt_ratio",
                "iterations", "n_empty_cones"],
               [[_fmt(res.square_fn), _fmt(res.sup_sq), _fmt(res.nt_sq),
                 _fmt(res.sup_ratio()), _fmt(res.nt_ratio()),
                 res.iterations, res.n_empty_cones]])
    return {"square_fn": res.square_fn, "sup_sq": res.sup_sq,
            "nt_sq": res.nt_sq, "sup_ratio": res.sup_ratio(),
            "nt_ratio": res.nt_ratio(), "grid_step": res.h,
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


def run(subcommand: str, config, outdir=None) -> int:
    """Execute one subcommand against a configuration.

    ``config`` may be an ExperimentConfig, a plain dict, or a path to a
    JSON file.  Returns the process exit status: 0 on success, 1 with a
    machine-readable error record on any module error, 2 on usage errors.
    """
    if subcommand not in _COMMANDS:
        print(f"unknown subcommand {subcommand!r}; choose from "
              f"{', '.join(_COMMANDS)}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    out = None
    try:
        if isinstance(config, ExperimentConfig):
            cfg = config
        elif isinstance(config, dict):
            cfg = ExperimentConfig(copy.deepcopy(config))
        else:
            cfg = ExperimentConfig.from_file(config)
        out = Path(outdir) if outdir is not None \
            else Path(cfg.get("outdir", "runs/latest"))
        out.mkdir(parents=True, exist_ok=True)
        cfg.consumed["outdir"] = str(out)
        seed = int(cfg.get("seed", 0))
        rng = np.random.default_rng(seed)
        summary, artifacts = _COMMANDS[subcommand](cfg, rng, out)
    except LabError as exc:
        return _error_record(subcommand, exc, out)
    manifest = {
        "subcommand": subcommand,
        "status": "ok",
        "seed": seed,
        "config": cfg.resolved(),
        "versions": _versions(),
        "wall_time_s": time.monotonic() - t0,
        "artifacts": artifacts,
        "summary": summary,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
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
