"""tools/loc.py: line kinds, public defaulted parameters, public names and
cli config keys, counted on a small synthetic package and diffed against a
git revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_GEOMETRY = '''"""A module."""


def build(n, d=1, *, spacing=0.1, tag=None):
    # a comment
    return n


def _helper(x, y=2):
    def inner(z=3):
        return z
    return inner()


class Shape:
    """A class."""

    def __init__(self, a, b=0):
        self.a = a

    def area(self, scale=1.0):
        return self.a * scale


class _Private:
    def method(self, q=1):
        return q
'''

_CLI = '''def _point(cfg, path, sigma):
    return cfg.get(path, kind=list)


def _cmd(cfg, sub, section):
    a = cfg.get("gen.kind", kind=str)
    b = cfg.get("gen.n", 3, int)
    c = sub.get("sub.only", 3, int)
    if cfg.has("probes.line"):
        d = _point(cfg, "probes.line.start", None)
    e = cfg.get(f"{section}.kind", "x", str)
    f = cfg.get("seed", 0, int)
    g = {"x.y": 1}.get("x.y")
    return a, b, c, d, e, f, g
'''


def _package(root, files):
    pkg = root / "src" / "urlab"
    pkg.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (pkg / name).write_text(text)


def test_counts_line_kinds_and_public_options():
    got = loc.count(_GEOMETRY)
    # build: d, spacing, tag; Shape.area: scale.  Private functions,
    # nested functions, dunder methods and private classes do not count.
    assert got["options"] == 4
    assert got["docstring"] == 2 and got["comment"] == 1
    assert sum(got[k] for k in loc.KINDS if k != "options") \
        == len(_GEOMETRY.splitlines())


def test_config_keys_are_the_distinct_keys_read():
    # "gen.n" is read twice and counts once; a key handed to a helper with
    # the config counts; a plain dict's get, or a read through another
    # name than cfg, does not
    assert loc.config_keys(_CLI) == {
        "gen.kind", "gen.n", "probes.line", "probes.line.start",
        "{section}.kind", "seed"}


def test_the_seed_reader_reads_a_key():
    source = 'def f(cfg):\n    return cfg.seed("scatter.seed")\n'
    assert loc.config_keys(source) == {"scatter.seed"}


def test_main_reports_deltas_against_a_revision(tmp_path, capsys):
    _package(tmp_path, {"geometry.py": _GEOMETRY, "cli.py": _CLI})

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    _package(tmp_path, {
        "geometry.py": _GEOMETRY.replace(", tag=None", ""),
        "cli.py": _CLI.replace('    f = cfg.get("seed", 0, int)\n', ""),
    })
    assert loc.main(["HEAD"], root=tmp_path) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["module", *loc.KINDS]
    geometry = next(line for line in out if line.startswith("geometry.py"))
    assert geometry.split()[-2:] == ["3", "(-1)"]
    assert out[-1].split()[-2:] == ["5", "(-1)"]
    assert loc.main([], root=tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "5"


def test_public_names_are_the_all_entries_a_module_defines():
    # a re-exported import and a dunder are not the module's own names
    source = ('from .geometry import Ball\n'
              '__all__ = ["Ball", "build", "Shape", "__version__"]\n')
    assert loc.public_names(source) == 2


def test_public_names_without_all_are_the_top_level_definitions():
    """A module without __all__ counts its public top-level classes and
    functions, as an error taxonomy that defines only classes."""
    source = ('class LabError(Exception):\n    """Base."""\n\n\n'
              'class InputError(LabError, ValueError):\n    pass\n\n\n'
              'class _Hidden(LabError):\n    pass\n')
    assert loc.public_names(source) == 2
    # build and Shape; _helper and _Private are private
    assert loc.public_names(_GEOMETRY) == 2


def test_main_reports_public_names_with_deltas(tmp_path, capsys):
    names = '__all__ = ["build", "Shape", "area"]\n'
    _package(tmp_path, {"geometry.py": _GEOMETRY + names,
                        "__init__.py": 'from .geometry import build\n'
                                       '__all__ = ["build"]\n'})
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "b"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)
    _package(tmp_path, {"geometry.py": _GEOMETRY + names.replace(
        ', "area"', "")})
    assert loc.main(["HEAD"], root=tmp_path) == 0
    out = capsys.readouterr().out.splitlines()
    start = out.index(f"{'module':16}{'public names':>16}")
    table = {line.split()[0]: line.split()[1:] for line in out[start + 1:-1]}
    assert table == {"__init__.py": ["0", "(+0)"],
                     "geometry.py": ["2", "(-1)"],
                     "total": ["2", "(-1)"]}


_CALLERS = '''from .geometry import Shape, build


def run(shape, opts):
    build(3, 2)
    build(3, tag="x")
    shape.area(2.0)
    shape.grow(*opts)
    return helper(verbose=True)


def helper(verbose=False, depth=0):
    return depth
'''


def test_unset_options_are_the_defaults_no_call_passes():
    """A call sets a parameter by keyword or by position (a method's
    receiver is not an argument); a call with *args sets them all."""
    shapes = _GEOMETRY.replace(
        "    def area(self, scale=1.0):",
        "    def grow(self, by=1, times=2):\n        return by\n\n"
        "    def area(self, scale=1.0, unit='m'):")
    got = loc.unset_options({"geometry.py": shapes, "cli.py": _CALLERS})
    assert sorted(got) == [("cli.py", "helper", "depth"),
                           ("geometry.py", "Shape.area", "unit"),
                           ("geometry.py", "build", "spacing")]


_DATACLASSES = '''import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    """Knobs."""

    tol: float
    beta: float = 2.0
    name: str = "x"

    def scaled(self, by=1.0):
        return self.beta * by


@dataclasses.dataclass
class Report:
    rows: list = field(default_factory=list)


@dataclass
class _Hidden:
    q: int = 1


class Plain:
    x: int = 1
'''


def test_defaulted_dataclass_fields_are_options():
    """A public dataclass's defaulted fields count as options, beside its
    methods' defaulted parameters; a private dataclass's, or a plain
    class's annotated attributes, do not.  A constructor call sets a
    field by keyword or by its position among all the fields."""
    # Config: beta, name and scaled's by; Report: rows
    assert loc.count(_DATACLASSES)["options"] == 4
    callers = ("def run(Config, Report):\n"
               "    Config(1e-3, 2.5).scaled(2.0)\n"
               "    return Report(rows=[])\n")
    got = loc.unset_options({"config.py": _DATACLASSES, "cli.py": callers})
    assert got == [("config.py", "Config", "name")]


def test_main_rejects_extra_arguments(capsys):
    assert loc.main(["a", "b"]) == 2
    assert "Usage" in capsys.readouterr().err


@pytest.mark.parametrize("source, want", [
    ("def f(a, *args, b=1, c, **kw):\n    pass\n", 1),
    ("async def g(x=1, y=2):\n    pass\n", 2),
])
def test_option_count_edge_cases(source, want):
    """Keyword-only defaults count, and so do async functions'."""
    assert loc.count(source)["options"] == want
