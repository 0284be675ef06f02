"""Line and option counts of the modules of src/urlab, with deltas against
a git revision when given.

Per module: code, docstring, comment and blank lines, and ``options``, the
defaulted parameters of public functions and methods and the defaulted
fields of public dataclasses (each field of a config object is an
option).  Docstrings are the module, class and function docstrings that
``ast`` finds; a line counts as a comment when its first non-blank
character is ``#``.  Every other non-blank line is code.  A function or
method is public when neither its name nor its class's name starts with
``_``; nested functions are not counted.  A dataclass is a top-level
class decorated with ``dataclass`` or ``dataclass(...)``; its fields are
its annotated class attributes, and a field is defaulted when it is
assigned a value.

A second table lists the options no run sets: each public defaulted
parameter or dataclass field that no call under src/urlab passes, by
keyword or by position.  Calls are matched to definitions by name alone
(``x.solve(...)`` is a call of every public ``solve``, and
``SolverConfig(...)`` sets the fields of the dataclass), and a call with
``*args`` or ``**kw`` sets every parameter, so the list is approximate.
It is a report of the working tree, not a gate.

A third table counts each module's public names: the ``__all__`` entries
it defines itself, or, in a module without ``__all__``, its public
top-level classes and functions.  Names it imports (re-exports such as
the package's ``__init__``) and dunders such as ``__version__`` are not
counted.

A last line counts the distinct config keys that ``cli`` reads: the first
argument of a reader call (``get``, ``has``, ``seed``) on the config (a
name in CONFIG_NAMES), and every dotted argument of another call that is
handed the config, such as ``_point(cfg, "ball.center", sigma)``.  Only
string literals and f-strings count; an f-string's fields read as
``{name}``, so ``f"{section}.kind"`` is one key.

Usage (from the repository root):

    python tools/loc.py              # counts of the working tree
    python tools/loc.py HEAD~1       # the same, with deltas against HEAD~1
"""

from __future__ import annotations

import ast
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/urlab"
KINDS = ("code", "docstring", "comment", "blank", "options")
CONFIG_NAMES = ("cfg",)
READERS = ("get", "has", "seed")


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_functions(tree: ast.Module):
    """(class name or None, function node) of each public function and
    method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            owner, members = node.name, node.body
        else:
            owner, members = None, [node]
        for f in members:
            if isinstance(f, _FUNCS) and not f.name.startswith("_"):
                yield owner, f


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a decorator is ``dataclass``, called or not, plain or as
    an attribute (``dataclasses.dataclass``)."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _field_defaults(node: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, position among the constructor's arguments) of each
    defaulted field of a dataclass."""
    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
              and isinstance(f.target, ast.Name)]
    return [(f.target.id, i) for i, f in enumerate(fields)
            if f.value is not None]


def _option_sets(tree: ast.Module):
    """(label, callee name, [(name, position or None if keyword-only)])
    of each public function, method and dataclass with its defaulted
    parameters or fields."""
    for owner, f in _public_functions(tree):
        label = f.name if owner is None else f"{owner}.{f.name}"
        yield label, f.name, _defaulted(owner, f)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") \
                and _is_dataclass(node):
            yield node.name, node.name, _field_defaults(node)


def _options(tree: ast.Module) -> int:
    """Defaulted parameters of the public functions and methods, and
    defaulted fields of the public dataclasses."""
    return sum(len(params) for _, _, params in _option_sets(tree))


def _defaulted(owner: str | None, f: ast.AST) -> list[tuple[str, int | None]]:
    """(name, position among the call's arguments, None if keyword-only)
    of each defaulted parameter; a method's first parameter is its
    receiver, which a call does not pass."""
    args = f.args
    positional = args.posonlyargs + args.args
    skip = 0 if owner is None else 1
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional)
           if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unset_options(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) of each option no run sets (see the
    module docstring)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            # f(...) or x.f(...); other callees never match a name
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            spread = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (math.inf if spread else len(node.args),
                 {k.arg for k in node.keywords}))
    out = []
    for module, tree in trees.items():
        for label, callee, params in _option_sets(tree):
            for param, pos in params:
                if not any(n == math.inf or param in kw
                           or (pos is not None and n > pos)
                           for n, kw in calls.get(callee, ())):
                    out.append((module, label, param))
    return out


def public_names(source: str) -> int:
    """The public names a module defines (see the module docstring)."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    names = [node.name for node in tree.body
             if isinstance(node, (ast.ClassDef, *_FUNCS))
             and not node.name.startswith("_")]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names = [e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)]
    return sum(not name.startswith("__") and name not in imported
               for name in names)


def count(source: str) -> dict[str, int]:
    """Line counts by kind and the option count of one module."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    tally = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if not text:
            tally["blank"] += 1
        elif i in docs:
            tally["docstring"] += 1
        elif text.startswith("#"):
            tally["comment"] += 1
        else:
            tally["code"] += 1
    tally["options"] = _options(tree)
    return tally


def _key_text(node: ast.AST) -> str | None:
    """A string literal, or an f-string with its fields as ``{name}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if not isinstance(node, ast.JoinedStr):
        return None
    parts = []
    for v in node.values:
        if isinstance(v, ast.Constant):
            parts.append(str(v.value))
        else:
            parts.append("{" + ast.unparse(v.value) + "}")
    return "".join(parts)


def config_keys(source: str) -> set[str]:
    """The distinct config keys a module reads (see the module docstring)."""
    keys: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in READERS \
                and isinstance(func.value, ast.Name) \
                and func.value.id in CONFIG_NAMES and node.args:
            key = _key_text(node.args[0])
            if key is not None:
                keys.add(key)
        elif any(isinstance(a, ast.Name) and a.id in CONFIG_NAMES
                 for a in node.args):
            keys.update(k for k in map(_key_text, node.args)
                        if k is not None and "." in k)
    return keys


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def sources_at(rev: str | None, root: Path = ROOT) -> dict[str, str]:
    """Module sources of the working tree (rev None) or of a revision."""
    if rev is None:
        return {p.name: p.read_text()
                for p in sorted((root / PACKAGE).glob("*.py"))}
    names = _git(root, "ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(n).name: _git(root, "show", f"{rev}:{n}")
            for n in names if n.endswith(".py")}


def _cell(now: int, then: int | None) -> str:
    return str(now) + ("" if then is None else f" ({now - then:+d})")


def main(argv: list[str], root: Path = ROOT) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0] if argv else None
    now_src = sources_at(None, root)
    then_src = sources_at(rev, root) if rev is not None else None
    now = {name: count(text) for name, text in now_src.items()}
    then = None if then_src is None else {
        name: count(text) for name, text in then_src.items()}
    zero = dict.fromkeys(KINDS, 0)
    print(f"{'module':16}" + "".join(f"{k:>16}" for k in KINDS))
    total_now, total_then = dict(zero), dict(zero)
    for name in sorted(set(now) | set(then or {})):
        a = now.get(name, zero)
        b = None if then is None else then.get(name, zero)
        for k in KINDS:
            total_now[k] += a[k]
            total_then[k] += 0 if b is None else b[k]
        print(f"{name:16}" + "".join(
            f"{_cell(a[k], None if b is None else b[k]):>16}" for k in KINDS))
    print(f"{'total':16}" + "".join(
        f"{_cell(total_now[k], None if then is None else total_then[k]):>16}"
        for k in KINDS))
    unset = unset_options(now_src)
    print(f"{'module':16}{'function':28}unset option")
    for module, function, param in unset:
        print(f"{module:16}{function:28}{param}")
    print(f"{'total':16}{len(unset)}")
    names_now = {name: public_names(text) for name, text in now_src.items()}
    names_then = None if then_src is None else {
        name: public_names(text) for name, text in then_src.items()}
    print(f"{'module':16}{'public names':>16}")
    for name in sorted(set(names_now) | set(names_then or {})):
        b = None if names_then is None else names_then.get(name, 0)
        print(f"{name:16}{_cell(names_now.get(name, 0), b):>16}")
    b = None if names_then is None else sum(names_then.values())
    print(f"{'total':16}{_cell(sum(names_now.values()), b):>16}")
    keys_now = len(config_keys(now_src.get("cli.py", "")))
    keys_then = None if then_src is None else len(
        config_keys(then_src.get("cli.py", "")))
    print(f"{'cli config keys':16}{_cell(keys_now, keys_then):>16}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
