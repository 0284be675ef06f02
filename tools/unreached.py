"""List the source lines that no test runs.

The tool runs pytest in a subprocess with a line tracer installed.  A
generated ``sitecustomize`` module, put first on the subprocess's
PYTHONPATH, sets ``sys.settrace`` and ``threading.settrace`` before
pytest starts, so lines run on pool threads (kernel sums, CG passes,
grid slabs) count too.  Only frames of files under the source root are
traced line by line.  At exit each traced process merges its hit lines
into one JSON file (under a file lock, since tests start processes of
their own).

The executable lines of a module are those of its code objects' line
tables (``co_lines``), nested code objects included.  Per module, the
tool prints each executable line that no test ran, with its text, and
marks a line that starts with ``raise`` as a guard.

Usage (from the repository root):

    python tools/unreached.py                  # pytest tests, src/urlab
    python tools/unreached.py --source src/urlab -- tests/test_cli.py -x

Everything after ``--`` is passed to pytest (default: ``tests``).  The
hit lines are written to ``--hits`` when given (a file there is
replaced), else to a temporary file.  The source root's parent directory
goes on the PYTHONPATH, so ``src/urlab`` imports as ``urlab``.
Tracing makes the suite several times slower.  The exit status is
pytest's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tracer, as the text of a sitecustomize module; it reads its source
# root and hits file from the environment
_SITECUSTOMIZE = '''\
import atexit
import fcntl
import json
import os
import sys
import threading

_ROOT = os.environ["UNREACHED_ROOT"]
_OUT = os.environ["UNREACHED_HITS"]
_hits = {}
_keep = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _keep.get(name)
    if keep is None:
        keep = _keep[name] = os.path.realpath(name).startswith(_ROOT)
        if keep:
            _hits.setdefault(name, set())
    return _local if keep else None


def _merge():
    sys.settrace(None)
    threading.settrace(None)
    with open(_OUT, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        text = fh.read()
        merged = json.loads(text) if text else {}
        for name, lines in _hits.items():
            path = os.path.realpath(name)
            merged[path] = sorted(set(merged.get(path, [])) | lines)
        fh.seek(0)
        fh.truncate()
        json.dump(merged, fh)


atexit.register(_merge)
threading.settrace(_call)
sys.settrace(_call)
'''


def run_traced(source: Path, hits: Path, pytest_args: list[str]) -> int:
    """Run pytest on ``pytest_args`` from the repository root under the
    tracer, merging the lines it runs under ``source`` into ``hits``;
    returns pytest's status."""
    with tempfile.TemporaryDirectory() as site:
        Path(site, "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (site, str(source.parent), env.get("PYTHONPATH"))
            if p)
        env["UNREACHED_ROOT"] = os.path.realpath(source) + os.sep
        env["UNREACHED_HITS"] = str(hits)
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *pytest_args], env=env, cwd=ROOT).returncode


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of a module's code objects."""
    out: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's RESUME sits on line 0, which no line event reports
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def unreached(source: Path, hits: dict) -> dict[Path, list[int]]:
    """Per module under ``source``, the sorted executable lines that
    ``hits`` (real path -> hit lines) does not hold."""
    out = {}
    for path in sorted(source.rglob("*.py")):
        ran = set(hits.get(os.path.realpath(path), ()))
        missed = sorted(executable_lines(path) - ran)
        if missed:
            out[path] = missed
    return out


def report(missed: dict[Path, list[int]]) -> list[str]:
    """One header line per module, one line per unreached line (``guard``
    marks a ``raise``), and a total."""
    lines, guards = [], 0
    for path, numbers in missed.items():
        text = path.read_text().splitlines()
        lines.append(f"{path}: {len(numbers)} line(s) never run")
        for i in numbers:
            body = text[i - 1].strip()
            guard = body.startswith("raise")
            guards += guard
            lines.append(f"  {i:5d}  {'guard' if guard else '     '}  "
                         f"{body}")
    total = sum(map(len, missed.values()))
    lines.append(f"total: {total} line(s) never run, {guards} of them "
                 f"raise guards")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        description="list the source lines that no test runs")
    parser.add_argument("--source", default="src/urlab",
                        help="source root to trace (default src/urlab)")
    parser.add_argument("--hits", default=None,
                        help="JSON file of the hit lines (default: a "
                             "temporary file)")
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1:] or ["tests"]
    source = (ROOT / args.source).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        hits = Path(args.hits) if args.hits else Path(tmp, "hits.json")
        hits = hits.resolve()
        hits.unlink(missing_ok=True)
        status = run_traced(source, hits, pytest_args)
        data = json.loads(hits.read_text()) if hits.is_file() else {}
    print("\n".join(report(unreached(source, data))))
    return status


if __name__ == "__main__":
    sys.exit(main())
