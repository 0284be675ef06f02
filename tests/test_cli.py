"""Experiment runner: config resolution, artifacts, determinism, and
error records."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import urlab
from urlab import distances, elliptic, whitney
from urlab.cli import ExperimentConfig, main, run
from urlab.elliptic import read_field
from urlab.exceptions import DomainError, InputError
from urlab.geometry import load_measure, make_plane_set


def _manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def _sweep_rows(outdir):
    """sweep.csv as one dict per row, keyed by column."""
    with open(outdir / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_importing_the_cli_loads_no_subcommand_module():
    """The solver and LP modules load when a subcommand that uses them
    runs, not when the command line starts."""
    src = str(Path(urlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, urlab.cli; print(sorted(m for m "
         "in ('scipy.optimize', 'scipy.ndimage', 'urlab.elliptic', "
         "'urlab.whitney', 'urlab.wasserstein', 'urlab.carleson', "
         "'urlab.distances') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_records_every_consumed_default(tmp_path):
    cfg = ExperimentConfig({"generator": {"kind": "plane"}})
    assert cfg.get("generator.kind") == "plane"
    assert cfg.get("generator.extent", 1.0) == 1.0
    assert cfg.get("seed", 0) == 0
    resolved = cfg.resolved()
    assert resolved["generator"]["extent"] == 1.0
    assert resolved["seed"] == 0
    with pytest.raises(InputError):
        cfg.get("generator.missing")


def test_overrides_parse_json_scalars():
    cfg = ExperimentConfig()
    cfg.apply_override("a.b=2")
    cfg.apply_override("a.c=0.5")
    cfg.apply_override("a.d=word")
    cfg.apply_override('a.e=[1, 2]')
    cfg.apply_override('f={"g": true}')
    assert cfg.data == {"a": {"b": 2, "c": 0.5, "d": "word", "e": [1, 2]},
                        "f": {"g": True}}
    with pytest.raises(InputError):
        cfg.apply_override("no-equals-sign")
    with pytest.raises(InputError):
        cfg.apply_override("=3")


def test_gen_round_trips_measure(tmp_path):
    status = run("gen", {"generator": {"kind": "plane", "spacing": 0.05}},
                 tmp_path)
    assert status == 0
    sigma = load_measure(tmp_path / "measure.txt")
    assert len(sigma) == 40
    assert sigma.intrinsic_dim == 1
    man = _manifest(tmp_path)
    assert man["status"] == "ok"
    # defaults never written in the config still appear, resolved
    assert man["config"]["generator"]["n"] == 3
    assert man["config"]["generator"]["extent"] == 1.0
    assert man["summary"]["n_atoms"] == 40
    assert man["artifacts"] == ["measure.txt"]
    for lib in ("urlab", "python", "numpy", "scipy"):
        assert lib in man["versions"]


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert run("warp", {}, tmp_path) == 2
    with pytest.raises(SystemExit) as exc:
        main(["warp"])
    assert exc.value.code == 2


def test_module_error_writes_machine_readable_record(tmp_path, capsys):
    status = run("gen", {"generator": {"kind": "warp"}}, tmp_path)
    assert status == 1
    with open(tmp_path / "error.json") as fh:
        record = json.load(fh)
    assert record["status"] == "error"
    assert record["error"] == "InputError"
    assert "warp" in record["message"]
    stderr = capsys.readouterr().err
    assert json.loads(stderr.strip())["error"] == "InputError"
    assert not (tmp_path / "manifest.json").exists()


def test_missing_config_file_is_reported(tmp_path, capsys):
    assert run("gen", tmp_path / "nope.json", tmp_path) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "InputError"


def test_rerun_reproduces_csv_bytes(tmp_path):
    config = {"generator": {"kind": "plane", "spacing": 0.02},
              "balls": {"count": 5}, "seed": 7}
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("ahlfors", config, a) == 0
    assert run("ahlfors", config, b) == 0
    body_a = (a / "ahlfors.csv").read_bytes()
    assert body_a == (b / "ahlfors.csv").read_bytes()
    assert len(body_a.splitlines()) == _manifest(a)["summary"]["n_balls"] + 1
    # a different seed must change the sampled family
    config["seed"] = 8
    c = tmp_path / "c"
    assert run("ahlfors", config, c) == 0
    assert body_a != (c / "ahlfors.csv").read_bytes()


def test_verify_identities_all_pass_on_plane(tmp_path):
    status = run("verify-identities",
                 {"generator": {"kind": "plane", "spacing": 0.02}}, tmp_path)
    assert status == 0
    lines = (tmp_path / "identities.csv").read_text().strip().split("\n")
    assert lines[0] == "identity,value,tolerance,status"
    assert len(lines) >= 6
    assert all(line.endswith(",pass") for line in lines[1:])
    man = _manifest(tmp_path)
    assert man["summary"]["all_pass"] is True
    assert man["summary"]["n_failed"] == 0


def test_ur_sum_cantor_growth_recorded(tmp_path):
    config = {
        "generator": {"kind": "cantor", "m": 3},
        "query": {"point": [0.02, 0.02, 0.0], "radius": 0.1},
        "whitney": {"max_depth": 12,
                    "box": {"center": [0.47, 0.47, 0.0], "side": 2.5}},
        "sweep": {"key": "generator.m", "values": [3, 5]},
    }
    assert run("ur-sum", config, tmp_path) == 0
    rows = _sweep_rows(tmp_path)
    assert [r["sweep_value"] for r in rows] == ["3", "5"]
    assert float(rows[1]["square_sum"]) >= 1.5 * float(rows[0]["square_sum"])
    for i in range(2):
        assert _manifest(tmp_path / str(i))["summary"]["lookback_scale"] \
            == 8.0


def test_dist_fields_table(tmp_path):
    config = {"generator": {"kind": "plane", "spacing": 0.02},
              "probes": {"line": {"start": [0.0, 0.05, 0.0],
                                  "stop": [0.0, 0.5, 0.0], "count": 4}}}
    assert run("dist-fields", config, tmp_path) == 0
    lines = (tmp_path / "fields.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].split(",")[:4] == ["x0", "x1", "x2", "distance"]
    assert _manifest(tmp_path)["summary"]["n_reliable"] == 4


def test_hm_half_line_value(tmp_path):
    config = {
        "generator": {"kind": "plane"},
        "set": {"kind": "halfspace", "axis": 0, "threshold": 0.0},
        "hm": {"pole": [0.0, 0.25, 0.0]},
        "elliptic": {"box": {"center": [0.0, 0.0, 0.0], "side": 3.0},
                     "h": 0.0625, "tol": 1e-6},
    }
    assert run("hm", config, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["summary"]["value"] == pytest.approx(0.5, abs=1e-6)
    assert man["summary"]["mass_gap"] <= 1e-9
    first = (tmp_path / "hm.csv").read_text().strip().split("\n")[1]
    assert float(first.split(",")[0]) == pytest.approx(0.5, abs=1e-6)


def test_solve_field_artifacts_round_trip(tmp_path):
    config = {
        "generator": {"kind": "plane"},
        "data": {"kind": "constant", "value": 1.0},
        "elliptic": {"box": {"center": [0.0, 0.0, 0.0], "side": 3.0},
                     "h": 0.125, "tol": 1e-6},
    }
    assert run("solve", config, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["summary"]["iterations"] == 0
    fld = read_field(tmp_path / "field.json")
    assert fld.shape == (24, 24, 24)
    assert np.all(fld.values == 1.0)


def test_design_knobs_reach_the_run(tmp_path):
    config = {
        "generator": {"kind": "plane", "spacing": 0.02},
        "balls": {"count": 1, "radii": [0.25]},
        "wasserstein": {"cap": 80, "resolution": 8, "refine_maxiter": 50,
                        "xatol": 1e-3, "refine": True, "seed": 3},
    }
    assert run("alpha", config, tmp_path) == 0
    ws = _manifest(tmp_path)["config"]["wasserstein"]
    assert ws == config["wasserstein"]

    wh = tmp_path / "wh"
    config2 = {
        "generator": {"kind": "cantor", "m": 2},
        "whitney": {"max_depth": 6, "lam": 4.0, "eps": 0.25, "k_max": 1,
                    "stride": 100, "alpha_resolution": 10, "alpha_cap": 90},
    }
    assert run("whitney", config2, wh) == 0
    man = _manifest(wh)
    assert man["summary"]["lookback_scale"] == 4.0
    got = man["config"]["whitney"]
    for key, val in config2["whitney"].items():
        assert got[key] == val

    el = tmp_path / "el"
    config3 = {
        "generator": {"kind": "plane"},
        "data": {"kind": "constant", "value": 1.0},
        "elliptic": {"box": {"center": [0.0, 0.0, 0.0], "side": 3.0},
                     "h": 0.125, "tol": 1e-6, "collar": 2.0, "beta": 2.5,
                     "gamma": 0.1, "outer": "dirichlet0"},
    }
    assert run("solve", config3, el) == 0
    got = _manifest(el)["config"]["elliptic"]
    for key in ("collar", "beta", "gamma", "outer", "tol"):
        assert got[key] == config3["elliptic"][key]


def test_main_round_trip_with_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"generator": {"kind": "plane", "spacing": 0.05}}))
    status = main(["gen", "-c", str(cfg_file), "-o", str(tmp_path / "out"),
                   "-s", "generator.extent=2.0"])
    assert status == 0
    man = _manifest(tmp_path / "out")
    assert man["config"]["generator"]["extent"] == 2.0
    assert man["summary"]["n_atoms"] == 80


@pytest.mark.parametrize("argv", [["-c", "nope.json"],
                                  ["-s", "generator.kind"]],
                         ids=["missing-config-file", "malformed-override"])
def test_main_config_errors_are_reported(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", *argv, "-o", "out"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    record = json.loads(err)
    assert record["status"] == "error"
    assert record["subcommand"] == "gen"
    assert record["error"] == "InputError"
    assert not (tmp_path / "out").exists()


_RERUN_CONFIGS = {
    "alpha": ({"generator": {"kind": "cantor", "m": 4},
               "balls": {"count": 2, "radii": [0.1]},
               "wasserstein": {"cap": 120, "resolution": 8,
                               "refine_maxiter": 5}, "seed": 1},
              ["alpha.csv"]),
    "ur-sum": ({"generator": {"kind": "graph", "spacing": 0.02},
                "query": {"point": [0.0, 0.0, 0.0], "radius": 0.3},
                "whitney": {"max_depth": 9, "lam": 3.0}},
               ["ur_sum.csv"]),
    "ainfty": ({"generator": {"kind": "plane", "spacing": 0.05},
                "ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5},
                "elliptic": {"h": 0.1, "collar": 3.0, "tol": 1e-6},
                "scatter": {"n_sets": 8}},
               ["scatter.csv"]),
    "hm": ({"generator": {"kind": "plane", "spacing": 0.05},
            "set": {"kind": "halfspace", "axis": 0, "threshold": 0.3},
            "hm": {"pole": [0.0, 0.5, 0.0]},
            "elliptic": {"h": 0.1, "collar": 3.0, "tol": 1e-6}},
           ["hm.csv"]),
    "carleson": ({"generator": {"kind": "graph", "spacing": 0.02},
                  "balls": {"count": 1, "radii": [0.64]},
                  "field": {"kind": "gradient", "beta": 2.0},
                  "carleson": {"h": 0.02, "refine": False}, "seed": 3},
                 ["carleson.csv", "carleson_summary.json"]),
    "dist-fields": ({"generator": {"kind": "graph", "spacing": 0.02},
                     "probes": {"line": {"start": [0.0, 0.0, 0.01],
                                         "stop": [0.3, 0.5, 0.2],
                                         "count": 16}}},
                    ["fields.csv"]),
    "whitney": ({"generator": {"kind": "graph", "spacing": 0.02},
                 "whitney": {"max_depth": 8, "lam": 3.0, "k_max": 1,
                             "eps": 0.15, "include_alpha": True,
                             "include_mu": True, "stride": 2003}},
                ["cubes.csv"]),
    "solve": ({"generator": {"kind": "plane"},
               "data": {"kind": "halfspace", "axis": 0, "threshold": 0.0},
               "elliptic": {"box": {"center": [0.0, 0.0, 0.0], "side": 3.0},
                            "h": 0.125, "tol": 1e-6, "outer": "dirichlet0"}},
              ["field.bin", "field.json", "field_mask.bin"]),
}


@pytest.mark.parametrize("subcommand", sorted(_RERUN_CONFIGS))
def test_rerun_reproduces_artifact_bytes(tmp_path, subcommand):
    config, artifacts = _RERUN_CONFIGS[subcommand]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(subcommand, config, a) == 0
    assert run(subcommand, config, b) == 0
    assert _manifest(a)["artifacts"] == artifacts
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_ainfty_summary_writes_null_for_an_empty_envelope(tmp_path):
    config = json.loads(json.dumps(_RERUN_CONFIGS["ainfty"][0]))
    config["scatter"]["deltas"] = [-1.0, 1.1]
    assert run("ainfty", config, tmp_path) == 0

    def no_constants(name):
        raise AssertionError(f"manifest holds the non-JSON constant {name}")

    text = (tmp_path / "manifest.json").read_text()
    env = json.loads(text, parse_constant=no_constants)["summary"]["envelopes"]
    # no hitting ratio lies below -1, so that envelope has no data
    assert env["-1.0"] is None
    assert env["1.1"] == 1.0


def _error(outdir):
    with open(outdir / "error.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("values", [[-1], [500]])
def test_hm_set_indices_out_of_range_are_input_errors(tmp_path, values):
    """Indices outside the 40-atom plane are refused, not wrapped to the
    last atom (-1) or left to an IndexError traceback (500)."""
    config = {"generator": {"kind": "plane", "spacing": 0.05},
              "set": {"kind": "indices", "values": values},
              "hm": {"pole": [0.0, 0.25, 0.0]},
              "elliptic": {"h": 0.1, "collar": 3.0, "tol": 1e-6}}
    assert run("hm", config, tmp_path) == 1
    assert _error(tmp_path)["error"] == "InputError"
    assert not (tmp_path / "hm.csv").exists()


_PLANE = {"kind": "plane", "spacing": 0.05}


@pytest.mark.parametrize("subcommand, config, key", [
    ("sn", {"generator": _PLANE,
            "ball": {"center": [0.0, 0.0], "radius": 0.5}}, "ball.center"),
    ("ur-sum", {"generator": _PLANE,
                "query": {"point": [0.0, 0.0], "radius": 0.3}},
     "query.point"),
    ("whitney", {"generator": _PLANE,
                 "whitney": {"box": {"center": [0.0, 0.0], "side": 3.0}}},
     "whitney.box.center"),
    ("dist-fields", {"generator": _PLANE,
                     "probes": {"line": {"start": [0.0, 0.1],
                                         "stop": [0.3, 0.5, 0.2]}}},
     "probes.line.start"),
    ("ainfty", {"generator": _PLANE,
                "ball": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 0.5}},
     "ball.center"),
])
def test_point_of_the_wrong_dimension_is_an_input_error(tmp_path, subcommand,
                                                        config, key):
    """A point-valued key of the wrong length on a 3-D measure ends in an
    InputError record naming the key, not a broadcast traceback."""
    assert run(subcommand, config, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "InputError"
    assert key in record["message"]


def test_sn_summary_writes_null_for_vanishing_ratios(tmp_path):
    """Zero data: the square function and both bounds vanish, so both
    ratios are 0/0, NaN in sn.csv and null in the manifest."""
    config = {"generator": {"kind": "plane", "extent": 0.32,
                            "spacing": 0.02},
              "ball": {"center": [0.13, 0.0, 0.0], "radius": 0.64},
              "data": {"kind": "constant", "value": 0.0},
              "elliptic": {"collar": 3.0, "tol": 1e-3,
                           "box": {"center": [0.13, 0.0, 0.0],
                                   "side": 2.56}}}
    assert run("sn", config, tmp_path) == 0

    def no_constants(name):
        raise AssertionError(f"manifest holds the non-JSON constant {name}")

    text = (tmp_path / "manifest.json").read_text()
    summary = json.loads(text, parse_constant=no_constants)["summary"]
    assert summary["iterations"] == 0 and summary["square_fn"] == 0.0
    assert summary["sup_ratio"] is None and summary["nt_ratio"] is None
    row = (tmp_path / "sn.csv").read_text().splitlines()[1].split(",")
    assert row[3:5] == ["nan", "nan"]


_CARLESON = _RERUN_CONFIGS["carleson"][0]
_WHITNEY = {"generator": {"kind": "cantor", "m": 2},
            "whitney": {"max_depth": 6, "stride": 100}}


@pytest.mark.parametrize("subcommand, config, override, key", [
    ("carleson", _CARLESON, "carleson.refine=False", "carleson.refine"),
    ("carleson", _CARLESON, "carleson.h=abc", "carleson.h"),
    ("carleson", _CARLESON, 'balls.radii=[0.64, "a"]', "balls.radii"),
    ("whitney", _WHITNEY, "whitney.max_depth=10.5", "whitney.max_depth"),
    ("whitney", _WHITNEY, "whitney.stride=true", "whitney.stride"),
    ("solve", _RERUN_CONFIGS["solve"][0], "elliptic.tol=NaN", "elliptic.tol"),
    ("ur-sum", _RERUN_CONFIGS["ur-sum"][0], "query.radius=NaN",
     "query.radius"),
    ("ahlfors", {"generator": _PLANE}, "balls.radii=[NaN]", "balls.radii"),
    ("ahlfors", {"generator": _PLANE}, "balls.radii=[Infinity]",
     "balls.radii"),
    ("ahlfors", {"generator": _PLANE}, f"balls.radii=[{10 ** 400}]",
     "balls.radii"),
], ids=["bool-from-string", "float-from-string", "list-with-a-string",
        "int-from-fraction", "int-from-bool", "nan-tol", "nan-radius",
        "nan-in-a-list", "infinity-in-a-list", "int-beyond-float-range"])
def test_config_value_of_the_wrong_type_is_an_input_error(
        tmp_path, capsys, subcommand, config, override, key):
    """A value is never coerced: "False" is not a bool, "abc" not a number
    and 10.5 not an int; NaN and Infinity, which JSON reads, are not
    numbers a config takes.  The run ends in an InputError record naming
    the key, not a misread value or a traceback."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "-c", str(cfg_file), "-o", str(out),
                 "-s", override]) == 1
    record = _error(out)
    assert record["error"] == "InputError"
    assert key in record["message"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("subcommand, config, module, spied, key", [
    ("ainfty", {**_RERUN_CONFIGS["ainfty"][0], "scatter": {"deltas": ["a"]}},
     elliptic, "assemble", "scatter.deltas"),
    ("solve", {**_RERUN_CONFIGS["solve"][0], "data": {"kind": "x"}},
     elliptic, "assemble", "data.kind"),
    ("whitney", {**_WHITNEY, "whitney": {**_WHITNEY["whitney"],
                                         "stride": "x"}},
     whitney, "decompose", "whitney.stride"),
    ("verify-identities", {"generator": _PLANE, "wasserstein": {"seed": -1}},
     distances, "fd_gradient_check", "wasserstein.seed"),
], ids=["ainfty", "solve", "whitney", "verify-identities"])
def test_config_is_read_before_the_first_costly_call(
        tmp_path, monkeypatch, subcommand, config, module, spied, key):
    """A bad key that a subcommand reads for its output is refused before
    the assembly, decomposition or check it would otherwise follow."""
    calls = []
    monkeypatch.setattr(module, spied, lambda *a, **k: calls.append(a))
    assert run(subcommand, config, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "InputError"
    assert key in record["message"]
    assert calls == []


@pytest.mark.parametrize("stride", [0, -4])
def test_whitney_stride_below_one_is_a_parameter_error(tmp_path, stride):
    """A stride below 1 is refused, not read as 1 with every cube written."""
    config = json.loads(json.dumps(_WHITNEY))
    config["whitney"]["stride"] = stride
    assert run("whitney", config, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "ParameterError"
    assert "stride" in record["message"]
    assert not (tmp_path / "cubes.csv").exists()


def test_ur_sum_empty_sweep_is_an_input_error(tmp_path):
    """An empty sweep ends in an InputError record, not a traceback, for
    ur-sum as for any subcommand."""
    for subcommand, config in [
            ("ur-sum", {"generator": _PLANE, "query": {"radius": 0.3},
                        "sweep": {"key": "query.radius", "values": []}}),
            ("ahlfors", {"generator": _PLANE,
                         "sweep": {"key": "balls.count", "values": []}})]:
        out = tmp_path / subcommand
        assert run(subcommand, config, out) == 1
        record = _error(out)
        assert record["error"] == "InputError"
        assert "sweep.values" in record["message"]
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_manifest_records_the_typed_value(tmp_path):
    config = json.loads(json.dumps(_WHITNEY))
    config["whitney"]["max_depth"] = 6.0
    config["whitney"]["lam"] = 4
    assert run("whitney", config, tmp_path) == 0
    got = _manifest(tmp_path)["config"]["whitney"]
    assert got["max_depth"] == 6 and type(got["max_depth"]) is int
    assert got["lam"] == 4.0 and type(got["lam"]) is float


_UR_PLANE = {"generator": _PLANE,
             "query": {"point": [0.0, 0.0, 0.0], "radius": 0.3},
             "whitney": {"max_depth": 7}}


@pytest.mark.parametrize("key, values", [
    ("whitney.lam", [2.0, 3.0]),
    ("whitney.box", [{"center": [0.0, 0.0, 0.0], "side": 4.0},
                     {"center": [0.0, 0.0, 0.0], "side": 5.0}]),
])
def test_ur_sum_sweep_records_every_value_of_the_swept_key(tmp_path, key,
                                                          values):
    """The sweep's manifest records a swept key as the list of its values,
    not as the last one; each sub-run's manifest records its own value,
    and its lookback scale is its own lambda."""
    config = json.loads(json.dumps(_UR_PLANE))
    config["sweep"] = {"key": key, "values": values}
    assert run("ur-sum", config, tmp_path) == 0
    man = _manifest(tmp_path)
    section, name = key.split(".")
    assert man["config"][section][name] == values
    assert man["unread"] == []
    assert man["artifacts"] == ["sweep.csv", "0", "1"]
    for i, value in enumerate(values):
        sub = _manifest(tmp_path / str(i))
        assert sub["config"][section][name] == value
        assert "sweep" not in sub["config"] and sub["unread"] == []
        assert sub["summary"]["lookback_scale"] == (
            value if key == "whitney.lam" else 8.0)


_AHLFORS = {"generator": _PLANE, "balls": {"count": 3}}


@pytest.mark.parametrize("subcommand, sweep, named", [
    ("ur-sum", {"key": "whitney.lam"}, "sweep.values"),
    ("ur-sum", {"key": "query.radiu", "values": [0.2, 0.3]}, "query.radiu"),
    ("ur-sum", {"values": [2.0, 3.0]}, "sweep.key"),
    ("ahlfors", {"key": "balls.count"}, "sweep.values"),
    ("ahlfors", {"key": "balls.cont", "values": [2, 4]}, "balls.cont"),
    ("ahlfors", {"values": [2, 4]}, "sweep.key"),
], ids=["no-values", "unread-key", "no-key", "ahlfors-no-values",
        "ahlfors-unread-key", "ahlfors-no-key"])
def test_ur_sum_sweep_that_cannot_sweep_is_an_input_error(
        tmp_path, subcommand, sweep, named):
    """A sweep key without values, values without a key, or a key no
    sub-run reads, is refused for any subcommand instead of writing null
    into the key or repeating one row."""
    base = _UR_PLANE if subcommand == "ur-sum" else _AHLFORS
    assert run(subcommand, {**base, "sweep": sweep}, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "InputError"
    assert named in record["message"]
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def _assert_sweep_runs_alone(tmp_path, subcommand, base, artifacts, section,
                             name, values):
    """A sweep of base over section.name: each sub-run leaves the artifact
    bytes and the resolved config of base run alone with that value, and
    sweep.csv holds each value in order."""
    config = json.loads(json.dumps(base))
    config["sweep"] = {"key": f"{section}.{name}", "values": values}
    assert run(subcommand, config, tmp_path / "sweep") == 0
    rows = _sweep_rows(tmp_path / "sweep")
    assert [r["sweep_value"] for r in rows] == [json.dumps(v) for v in values]
    for i, value in enumerate(values):
        alone = json.loads(json.dumps(base))
        alone.setdefault(section, {})[name] = value
        out = tmp_path / f"alone{i}"
        assert run(subcommand, alone, out) == 0
        sub = tmp_path / "sweep" / str(i)
        for artifact in artifacts:
            assert (sub / artifact).read_bytes() \
                == (out / artifact).read_bytes(), (value, artifact)
        assert _manifest(sub)["config"] == {**_manifest(out)["config"],
                                            "outdir": str(sub)}
    return rows


def test_ur_sum_sweep_reads_each_key_from_its_value(tmp_path):
    """A sweep over query.radius runs each radius, and each sub-run equals
    the run of that radius alone."""
    rows = _assert_sweep_runs_alone(tmp_path, "ur-sum",
                                    *_RERUN_CONFIGS["ur-sum"], "query",
                                    "radius", [0.2, 0.3])
    assert rows[0]["square_sum"] != rows[1]["square_sum"]
    body = (tmp_path / "alone1" / "ur_sum.csv").read_text().splitlines()[1]
    assert body.split(",")[0] == rows[1]["square_sum"]


def test_ainfty_sweep_over_gamma_equals_each_gamma_alone(tmp_path):
    """The sweep lives in the runner: an elliptic subcommand sweeps over
    the operator family -div D^{d+1+gamma-n} grad as ur-sum does."""
    rows = _assert_sweep_runs_alone(tmp_path, "ainfty",
                                    *_RERUN_CONFIGS["ainfty"], "elliptic",
                                    "gamma", [-0.5, 0.5])
    assert rows[0]["omega_ball"] != rows[1]["omega_ball"]
    assert "envelopes" not in rows[0]


def test_ahlfors_sweep_over_the_ball_count_equals_each_count_alone(tmp_path):
    """A seeded subcommand sweeps too; sweep.csv takes every scalar entry
    of the sub-run summaries as a column."""
    base = {**_AHLFORS, "seed": 4}
    rows = _assert_sweep_runs_alone(tmp_path, "ahlfors", base,
                                    ["ahlfors.csv"], "balls", "count", [2, 5])
    assert [r["n_balls"] for r in rows] == ["2", "5"]
    assert list(rows[0]) == ["sweep_value", "constant", "dimension",
                             "n_balls", "n_excluded", "ratio_min",
                             "ratio_max"]


def test_seed_sweep_manifest_records_every_seed(tmp_path):
    """A sweep over the seed writes the list of seeds into the top
    manifest's seed field, as into its config, and each sub-run's own
    seed into its manifest."""
    config = {**_AHLFORS, "seed": 2,
              "sweep": {"key": "seed", "values": [1, 2]}}
    assert run("ahlfors", config, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["seed"] == man["config"]["seed"] == [1, 2]
    for i, seed in enumerate([1, 2]):
        sub = _manifest(tmp_path / str(i))
        assert sub["seed"] == sub["config"]["seed"] == seed


def test_a_failing_sub_run_ends_the_sweep(tmp_path):
    """A value the sub-run refuses (NaN is not a number a config takes)
    ends the sweep with one error record; it is not skipped."""
    config = {**_AHLFORS, "sweep": {"key": "balls.radii",
                                    "values": [[0.2], [math.nan], [0.3]]}}
    assert run("ahlfors", config, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "InputError"
    assert "balls.radii" in record["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "0", "1", "error.json"]
    assert (tmp_path / "0" / "manifest.json").is_file()
    assert not (tmp_path / "1" / "manifest.json").exists()


@pytest.mark.parametrize("subcommand, section", [
    ("hm", {"hm": {"pole": [0.0, 0.25, 0.0]}}),
    ("ainfty", {"ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5}}),
])
def test_default_cell_size_respects_the_collar_floor(tmp_path, subcommand,
                                                     section):
    """Without elliptic.h, a coarse plane (spacing 0.05, collar 3, floor
    h = 0.04) runs on the floor instead of failing below it at side/96."""
    config = {"generator": {"kind": "plane", "spacing": 0.05},
              "elliptic": {"collar": 3.0, "tol": 1e-6}, **section}
    assert run(subcommand, config, tmp_path) == 0
    assert _manifest(tmp_path)["config"]["elliptic"]["h"] is None


_GRID_BALL = {"center": [0.1, 0.0, 0.0], "radius": 0.64, "snap": False}
_GRID_CONFIGS = {
    "solve": {"generator": _PLANE, "data": {"kind": "constant"}},
    "hm": {"generator": _PLANE, "hm": {"pole": [0.0, 0.25, 0.0]}},
    "ainfty": {"generator": _PLANE, "ball": _GRID_BALL},
    "sn": {"generator": _PLANE, "ball": _GRID_BALL},
}
_GIVEN_BOX = {"center": [0.2, 0.1, 0.0], "side": 2.4}
_GIVEN_H = 0.015                        # below r/32 = 0.02, as sn requires


@pytest.mark.parametrize("box", [None, _GIVEN_BOX], ids=["no-box", "box"])
@pytest.mark.parametrize("h", [None, _GIVEN_H], ids=["no-h", "h"])
@pytest.mark.parametrize("subcommand", sorted(_GRID_CONFIGS))
def test_subcommands_choose_their_grid_by_the_default_rules(
        tmp_path, monkeypatch, subcommand, box, h):
    """The (center, side, h) each elliptic subcommand assembles on: a given
    elliptic.box and elliptic.h win; otherwise solve and hm take the hull
    box (1.5 times the longest extent), ainfty (c, 7.5r) and sn
    (c, 4r + 8h); h is side/96 raised to the collar floor
    2 spacing/(collar - 0.5), except for sn (r/32) and solve, which
    requires it."""
    calls = []

    def recording_assemble(sigma, box, h, config=None):
        calls.append((np.asarray(box[0], dtype=float), float(box[1]), h))
        raise DomainError("grid recorded")

    monkeypatch.setattr(elliptic, "assemble", recording_assemble)
    config = json.loads(json.dumps(_GRID_CONFIGS[subcommand]))
    elliptic_cfg = config.setdefault("elliptic", {})
    if box is not None:
        elliptic_cfg["box"] = box
    if h is not None:
        elliptic_cfg["h"] = h
    assert run(subcommand, config, tmp_path) == 1
    if subcommand == "solve" and h is None:
        assert calls == []
        record = _error(tmp_path)
        assert record["error"] == "InputError"
        assert "elliptic.h" in record["message"]
        return
    assert _error(tmp_path)["message"] == "grid recorded"

    sigma = make_plane_set(3, 1, 1.0, 0.05)
    lo, hi = sigma.points.min(axis=0), sigma.points.max(axis=0)
    c, r = np.array(_GRID_BALL["center"]), _GRID_BALL["radius"]
    if box is not None:
        want_box = (np.array(box["center"]), box["side"])
    elif subcommand in ("solve", "hm"):
        want_box = (0.5 * (lo + hi), 1.5 * float((hi - lo).max()))
    elif subcommand == "ainfty":
        want_box = (c, 7.5 * r)
    else:
        want_box = (c, 4.0 * r + 8.0 * (r / 32.0 if h is None else h))
    if h is not None:
        want_h = h
    elif subcommand == "sn":
        want_h = r / 32.0
    else:
        want_h = max(want_box[1] / 96.0, 2.0 * sigma.spacing / (1.5 - 0.5))
    [(center, side, step)] = calls
    assert np.allclose(center, want_box[0], rtol=0, atol=1e-15)
    assert side == pytest.approx(want_box[1], rel=1e-15)
    assert step == pytest.approx(want_h, rel=1e-15)


_ALPHA = {"generator": _PLANE, "balls": {"count": 1, "radii": [0.25]},
          "wasserstein": {"cap": 60, "resolution": 8, "refine": False}}


@pytest.mark.parametrize("subcommand, config, key", [
    ("ahlfors", {"generator": _PLANE, "seed": -1}, "seed"),
    ("alpha", {**_ALPHA, "wasserstein": {**_ALPHA["wasserstein"],
                                         "seed": -1}}, "wasserstein.seed"),
    ("whitney", {**_WHITNEY, "whitney": {**_WHITNEY["whitney"],
                                         "alpha_seed": -1}},
     "whitney.alpha_seed"),
    ("ainfty", {**_RERUN_CONFIGS["ainfty"][0], "scatter": {"seed": -1}},
     "scatter.seed"),
], ids=["seed", "wasserstein.seed", "whitney.alpha_seed", "scatter.seed"])
def test_negative_seed_is_an_input_error(tmp_path, subcommand, config, key):
    """A negative seed ends in an InputError record naming the key, not a
    numpy traceback or a run that ignores it."""
    assert run(subcommand, config, tmp_path) == 1
    record = _error(tmp_path)
    assert record["error"] == "InputError"
    assert repr(key) in record["message"]
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("override", [{"balls": {"count": 0}},
                                      {"balls": {"count": -3}},
                                      {"wasserstein": {"cap": 0}},
                                      {"wasserstein": {"cap": 2}}],
                         ids=["count-0", "count-negative", "cap-0", "cap-2"])
def test_alpha_ball_count_and_cap_are_checked(tmp_path, override):
    """No balls, or a cap that leaves fewer than d + 1 support atoms beside
    the flat sample, ends in a ParameterError record and writes no table."""
    config = json.loads(json.dumps(_ALPHA))
    for section, values in override.items():
        config[section].update(values)
    assert run("alpha", config, tmp_path) == 1
    assert _error(tmp_path)["error"] == "ParameterError"
    assert not (tmp_path / "alpha.csv").exists()


def test_manifest_lists_unread_config_keys(tmp_path):
    """A misspelt key is run with the default, and the manifest says so."""
    config = json.loads(json.dumps(_CARLESON))
    config["carleson"]["refien"] = True
    assert run("carleson", config, tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["unread"] == ["carleson.refien"]
    assert man["config"]["carleson"]["refine"] is False
