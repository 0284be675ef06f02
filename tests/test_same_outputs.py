"""tools/same_outputs.py: the comparison of two run directories and the
reading of the rerun configs, on synthetic inputs (no CLI runs)."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_outputs",
    Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _run_dir(path, files, config=None, summary=None):
    path.mkdir()
    for name, body in files.items():
        (path / name).write_bytes(body)
    if config is not None:
        man = {"config": config, "summary": summary, "wall_time_s": 1.0,
               "unread": []}
        (path / "manifest.json").write_text(json.dumps(man))
    return path


_CONFIG = {"outdir": "a", "seed": 0, "elliptic": {"h": None, "tol": 1e-6}}
_SUMMARY = {"value": 0.5, "iterations": [3, 4]}


def test_identical_runs_compare_the_same_despite_outdir_and_timing(tmp_path):
    files = {"hm.csv": b"value\n0.5\n", "field.bin": b"\x00\x01"}
    a = _run_dir(tmp_path / "a", files, _CONFIG, _SUMMARY)
    b = _run_dir(tmp_path / "b", files, {**_CONFIG, "outdir": "b"},
                 _SUMMARY)
    man = json.loads((b / "manifest.json").read_text())
    man["wall_time_s"] = 2.0
    man["unread"] = ["x.y"]
    (b / "manifest.json").write_text(json.dumps(man))
    assert same_outputs.compare_runs(a, b) == []


def test_every_kind_of_difference_is_reported(tmp_path):
    a = _run_dir(tmp_path / "a", {"hm.csv": b"0.5\n", "extra.csv": b""},
                 _CONFIG, _SUMMARY)
    b = _run_dir(tmp_path / "b", {"hm.csv": b"0.50000001\n"},
                 {**_CONFIG, "seed": 1}, {**_SUMMARY, "value": 0.6})
    assert same_outputs.compare_runs(a, b) == [
        "only in one run: extra.csv", "hm.csv: sha256 differs",
        "manifest.json: config differs",
        "manifest.json: key config.seed: largest relative difference 1",
        "manifest.json: summary differs",
        "manifest.json: key summary.value: largest relative difference 0.167"]


def test_error_records_are_compared_and_a_missing_manifest_counts(tmp_path):
    err = b'{"error": "InputError", "message": "x"}\n'
    a = _run_dir(tmp_path / "a", {"error.json": err})
    b = _run_dir(tmp_path / "b", {"error.json": err})
    assert same_outputs.compare_runs(a, b) == []
    c = _run_dir(tmp_path / "c", {"error.json": err.replace(b"x", b"y")})
    assert same_outputs.compare_runs(a, c) == [
        "error.json: sha256 differs",
        "error.json: key message: largest relative difference inf"]
    d = _run_dir(tmp_path / "d", {"error.json": err}, _CONFIG, _SUMMARY)
    assert same_outputs.compare_runs(a, d) == [
        "only in one run: manifest.json"]


def test_rerun_configs_are_read_as_literals(tmp_path):
    module = tmp_path / "test_x.py"
    module.write_text(
        "import os\n"
        "_OTHER = os.getcwd()\n"
        "_RERUN_CONFIGS = {'hm': ({'seed': 1, 'h': [0.1, None]},\n"
        "                         ['hm.csv'])}\n")
    assert same_outputs.rerun_configs(module) == {
        "hm": ({"seed": 1, "h": [0.1, None]}, ["hm.csv"])}


def test_differing_columns_of_same_shape_csvs_are_named(tmp_path):
    head = b"name,value,bias,count\r\n"
    a = _run_dir(tmp_path / "a", {
        "c.csv": head + b"b0,0.5,1e-3,7\r\nb1,0.25,2e-3,8\r\n",
        "d.csv": b"x\n1\n"}, _CONFIG, _SUMMARY)
    b = _run_dir(tmp_path / "b", {
        "c.csv": head + b"b0,0.5,1.0000000000001e-3,7\r\nb1,0.25,2e-3,9\r\n",
        "d.csv": b"x\n1\n2\n"}, _CONFIG, _SUMMARY)
    got = same_outputs.compare_runs(a, b)
    assert got[:2] == ["c.csv: sha256 differs",
                       "c.csv: column bias: largest relative difference 1e-13"]
    assert got[2] == "c.csv: column count: largest relative difference 0.111"
    # another row count: the file is only reported as differing
    assert got[3:] == ["d.csv: sha256 differs"]
    e = _run_dir(tmp_path / "e", {"c.csv": b"name\r\nb0\r\n"})
    f = _run_dir(tmp_path / "f", {"c.csv": b"name\r\nb1\r\n"})
    assert same_outputs.compare_runs(e, f) == [
        "c.csv: sha256 differs",
        "c.csv: column name: largest relative difference inf"]


def test_differing_json_keys_are_named(tmp_path):
    """JSON artifacts and manifest sections are compared on dotted paths;
    a list value reports its largest entry-wise difference."""
    body = {"max_bias": 0.5, "per_ball": {"values": [1.0, 2.0], "n": 3},
            "kind": "gradient", "flag": None}
    other = {"max_bias": 0.5 * (1 + 5e-16), "kind": "gradient",
             "per_ball": {"values": [1.0, 2.2], "n": 3}, "extra": 1}
    a = _run_dir(tmp_path / "a", {"s.json": json.dumps(body).encode()},
                 _CONFIG, _SUMMARY)
    b = _run_dir(tmp_path / "b", {"s.json": json.dumps(other).encode()},
                 _CONFIG, {**_SUMMARY, "iterations": [3, 5]})
    assert same_outputs.compare_runs(a, b) == [
        "s.json: sha256 differs",
        "s.json: key max_bias: largest relative difference 4.44e-16",
        "s.json: key per_ball.values: largest relative difference 0.0909",
        "s.json: key flag: only in one run",
        "s.json: key extra: only in one run",
        "manifest.json: summary differs",
        "manifest.json: key summary.iterations: "
        "largest relative difference 0.2"]


def test_json_values_that_are_not_numbers(tmp_path):
    """Strings, nulls and lists of another length differ by inf; a JSON
    file that differs only in layout names no key."""
    assert same_outputs.key_diffs({"a": "x", "b": None, "c": [1]},
                                  {"a": "y", "b": 0.0, "c": [1, 2]}) == [
        "key a: largest relative difference inf",
        "key b: largest relative difference inf",
        "key c: largest relative difference inf"]
    a = _run_dir(tmp_path / "a", {"s.json": b'{"a": [1, 2]}'})
    b = _run_dir(tmp_path / "b", {"s.json": b'{\n  "a": [1, 2]\n}\n'})
    assert same_outputs.compare_runs(a, b) == ["s.json: sha256 differs"]


def test_sweep_sub_runs_are_compared_as_runs(tmp_path):
    """A sweep's sub-run directories are compared recursively, each
    difference prefixed with the sub-run's name."""
    sweep = b"sweep_value,square_sum\n0.2,1\n0.3,2\n"
    a = _run_dir(tmp_path / "a", {"sweep.csv": sweep}, _CONFIG, _SUMMARY)
    b = _run_dir(tmp_path / "b", {"sweep.csv": sweep}, _CONFIG, _SUMMARY)
    for i, tail in enumerate((b"1\n", b"2\n")):
        _run_dir(a / str(i), {"ur_sum.csv": b"square_sum\n" + tail},
                 _CONFIG, _SUMMARY)
    _run_dir(b / "0", {"ur_sum.csv": b"square_sum\n1\n"}, _CONFIG,
             _SUMMARY)
    _run_dir(b / "1", {"ur_sum.csv": b"square_sum\n2.5\n"},
             {**_CONFIG, "seed": 1}, _SUMMARY)
    assert same_outputs.compare_runs(a, b) == [
        "1/ur_sum.csv: sha256 differs",
        "1/ur_sum.csv: column square_sum: largest relative difference 0.2",
        "1/manifest.json: config differs",
        "1/manifest.json: key config.seed: largest relative difference 1"]
    (b / "1" / "ur_sum.csv").write_bytes(b"square_sum\n2\n")
    (b / "1" / "manifest.json").write_bytes((a / "1" / "manifest.json")
                                            .read_bytes())
    assert same_outputs.compare_runs(a, b) == []
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "0").write_bytes(b"")
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "0").mkdir()
    assert same_outputs.compare_runs(tmp_path / "c", tmp_path / "d") == [
        "0: a directory in one run only"]
