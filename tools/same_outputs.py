"""Check that the command line gives the same outputs at a git revision and
in the working tree.

Usage (from the repository root):

    python tools/same_outputs.py REV

``git archive REV src`` is extracted to a temporary directory.  Two sets of
configs then run on both trees, each in a fresh ``python -m urlab`` process
with one BLAS thread:

* every config of ``_RERUN_CONFIGS`` in tests/test_cli.py, read with
  ``ast.literal_eval`` rather than by importing the test module;
* every input variant of every workload in perfbench/workloads.py (seeds
  0 to VARIANTS - 1 of a seeded workload, one run of an unseeded one),
  imported without writing bytecode.

Two runs are the same when they leave the same files with the same sha256,
``manifest.json`` aside, and their manifests hold the same ``config``
(``outdir`` aside) and ``summary``.  One line is printed per run; the exit
status is 1 if any run differs, else 0.  When two differing CSVs share
their header and row count, each column that differs is named with its
largest relative difference (inf where a differing cell is not a number),
so a rounding-level change can be told from a real one.  Differing JSON
files and manifest sections are compared key by key on dotted paths
(``summary.envelopes.0.05``): each differing key is named with its largest
relative difference, taken over the entries of a list value.  A sweep's
sub-run directories (``0``, ``1``, ...) are compared as runs, each of their
differences prefixed with the directory name (``0/ur_sum.csv: ...``).
"""

from __future__ import annotations

import ast
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "manifest.json"


def rerun_configs(test_file: Path) -> dict:
    """``_RERUN_CONFIGS`` of a test module: name -> (config, artifacts)."""
    for node in ast.parse(test_file.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_RERUN_CONFIGS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no _RERUN_CONFIGS in {test_file}")


def workload_runs(workloads_file: Path) -> list[tuple[str, str, dict]]:
    """(run name, subcommand, config) of every workload variant."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("_workloads",
                                                  workloads_file)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod        # its dataclasses look it up
    spec.loader.exec_module(mod)
    runs = []
    for w in mod.WORKLOADS.values():
        for seed in range(mod.VARIANTS if w.seeded else 1):
            runs.append((f"{w.name}/seed={seed}", w.subcommand,
                         w.config(seed)))
    return runs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_view(run_dir: Path) -> dict | None:
    """The compared part of a run's manifest, None without a manifest."""
    path = run_dir / MANIFEST
    if not path.is_file():
        return None
    man = json.loads(path.read_text())
    config = dict(man.get("config", {}))
    config.pop("outdir", None)
    return {"config": config, "summary": man.get("summary")}


def _rel_diff(x, y) -> float:
    """Largest relative difference of two differing CSV cells or JSON
    values, lists entry by entry; inf where an entry is not a number or
    has no counterpart."""
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return math.inf
        return max((_rel_diff(a, b) for a, b in zip(x, y)), default=0.0)
    try:
        fx, fy = float(x), float(y)
    except (TypeError, ValueError):
        return 0.0 if x == y else math.inf
    if fx == fy or (math.isnan(fx) and math.isnan(fy)):
        return 0.0
    scale = max(abs(fx), abs(fy))
    return abs(fx - fy) / scale if math.isfinite(scale) else math.inf


def _flatten(obj, prefix: str = "") -> dict:
    """Nested JSON objects as one dict keyed by dotted paths."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def key_diffs(a, b) -> list[str]:
    """Each differing dotted key of two JSON values, with its largest
    relative difference."""
    flat_a, flat_b = _flatten(a), _flatten(b)
    out = []
    for key in [*flat_a, *(k for k in flat_b if k not in flat_a)]:
        if key not in flat_a or key not in flat_b:
            out.append(f"key {key}: only in one run")
        elif json.dumps(flat_a[key]) != json.dumps(flat_b[key]):
            out.append(f"key {key}: largest relative difference "
                       f"{_rel_diff(flat_a[key], flat_b[key]):.3g}")
    return out


def column_diffs(a: Path, b: Path) -> list[str]:
    """Each differing column of two CSVs with one header and row count,
    with its largest relative difference; empty when their shapes differ."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if (not rows_a or len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]
            or any(len(ra) != len(rb) for ra, rb in zip(rows_a, rows_b))):
        return []
    worst = {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for col, x, y in zip(rows_a[0], ra, rb):
            if x != y:
                worst[col] = max(worst.get(col, 0.0), _rel_diff(x, y))
    return [f"column {col}: largest relative difference {worst[col]:.3g}"
            for col in rows_a[0] if col in worst]


def compare_runs(a: Path, b: Path) -> list[str]:
    """The differences between two run directories, empty when the same;
    a directory within both is compared as a run of its own."""
    files_a = {p.name for p in a.iterdir() if p.name != MANIFEST}
    files_b = {p.name for p in b.iterdir() if p.name != MANIFEST}
    out = [f"only in one run: {name}" for name in sorted(files_a ^ files_b)]
    for name in sorted(files_a & files_b):
        dirs = (a / name).is_dir(), (b / name).is_dir()
        if all(dirs):
            out += [f"{name}/{d}" for d in compare_runs(a / name, b / name)]
        elif any(dirs):
            out.append(f"{name}: a directory in one run only")
        elif _sha256(a / name) != _sha256(b / name):
            out.append(f"{name}: sha256 differs")
            if name.endswith(".csv"):
                out += [f"{name}: {d}" for d in column_diffs(a / name,
                                                             b / name)]
            elif name.endswith(".json"):
                out += [f"{name}: {d}" for d in key_diffs(
                    json.loads((a / name).read_text()),
                    json.loads((b / name).read_text()))]
    view_a, view_b = _manifest_view(a), _manifest_view(b)
    if (view_a is None) != (view_b is None):
        out.append(f"only in one run: {MANIFEST}")
    elif view_a is not None:
        for key in ("config", "summary"):
            if view_a[key] != view_b[key]:
                out.append(f"{MANIFEST}: {key} differs")
                out += [f"{MANIFEST}: {d}" for d in key_diffs(
                    {key: view_a[key]}, {key: view_b[key]})]
    return out


def _run(src: Path, subcommand: str, config: dict, run_dir: Path) -> None:
    """One CLI run of the package under src in a fresh process."""
    run_dir.mkdir(parents=True)
    cfg_file = run_dir.parent / f"{run_dir.name}.json"
    cfg_file.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "urlab", subcommand, "-c",
                    str(cfg_file), "-o", str(run_dir)], cwd=run_dir.parent,
                   env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)


def main(argv: list[str], root: Path = ROOT) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = [(f"rerun/{name}", name, config) for name, (config, _)
            in sorted(rerun_configs(root / "tests/test_cli.py").items())]
    runs += workload_runs(root / "perfbench/workloads.py")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = tmp / "src.tar"
        with open(archive, "wb") as fh:
            subprocess.run(["git", "archive", argv[0], "src"], cwd=root,
                           stdout=fh, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp / "rev", filter="data")
        trees = {"rev": tmp / "rev" / "src", "tree": root / "src"}
        n_diff = 0
        for i, (name, subcommand, config) in enumerate(runs):
            dirs = {}
            for side, src in trees.items():
                dirs[side] = tmp / side / "runs" / str(i)
                _run(src, subcommand, config, dirs[side])
            diffs = compare_runs(dirs["rev"], dirs["tree"])
            n_diff += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'}  {name}"
                  + "".join(f"\n      {d}" for d in diffs), flush=True)
    print(f"{len(runs) - n_diff} of {len(runs)} runs the same")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
