"""tools/unreached.py: the lines that no test runs, traced on a small
synthetic package with one function its test calls (on a thread) and one
it never calls."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "unreached", Path(__file__).resolve().parents[1] / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

_MOD = '''"""A module."""


def used(x):
    y = x + 1
    return y


def unused(x):
    if x < 0:
        raise ValueError("negative")
    return x
'''

_TEST = '''import threading

from demo import mod


def test_used_on_a_thread():
    out = []
    worker = threading.Thread(target=lambda: out.append(mod.used(1)))
    worker.start()
    worker.join()
    assert out == [2]
'''


def _package(tmp_path):
    pkg = tmp_path / "pkg" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(_MOD)
    tests = tmp_path / "checks"
    tests.mkdir()
    (tests / "test_demo.py").write_text(_TEST)
    return pkg, tests


def test_executable_lines_come_from_every_code_object(tmp_path):
    pkg, _ = _package(tmp_path)
    assert unreached.executable_lines(pkg / "mod.py") == {
        1, 4, 5, 6, 9, 10, 11, 12}
    assert unreached.executable_lines(pkg / "__init__.py") == set()


def test_lines_run_on_a_thread_are_hit_and_the_rest_reported(tmp_path,
                                                             capsys):
    pkg, tests = _package(tmp_path)
    hits = tmp_path / "hits.json"
    status = unreached.main(["--source", str(pkg), "--hits", str(hits),
                             "--", str(tests)])
    assert status == 0
    ran = json.loads(hits.read_text())
    # the body of `used` ran only on the worker thread
    assert set(ran[str((pkg / "mod.py").resolve())]) >= {1, 4, 5, 6, 9}
    assert capsys.readouterr().out.splitlines() == [
        f"{pkg / 'mod.py'}: 3 line(s) never run",
        "     10         if x < 0:",
        "     11  guard  raise ValueError(\"negative\")",
        "     12         return x",
        "total: 3 line(s) never run, 1 of them raise guards"]


def test_report_counts_guards():
    assert unreached.report({}) == [
        "total: 0 line(s) never run, 0 of them raise guards"]
