"""Line counts of the modules of src/urlab: code, docstring, comment and
blank lines per module, with deltas against a git revision when given.

Docstrings are the module, class and function docstrings that ``ast``
finds; a line counts as a comment when its first non-blank character is
``#``.  Every other non-blank line is code.

Usage (from the repository root):

    python tools/loc.py              # counts of the working tree
    python tools/loc.py HEAD~1       # the same, with deltas against HEAD~1
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/urlab"
KINDS = ("code", "docstring", "comment", "blank")


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


def count(source: str) -> dict[str, int]:
    """Code, docstring, comment and blank line counts of one module."""
    docs = _docstring_lines(ast.parse(source))
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
    return tally


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def counts_at(rev: str | None) -> dict[str, dict[str, int]]:
    """Per-module counts of the working tree (rev None) or of a revision."""
    if rev is None:
        files = {p.name: p.read_text()
                 for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    else:
        names = _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
        files = {Path(n).name: _git("show", f"{rev}:{n}")
                 for n in names if n.endswith(".py")}
    return {name: count(text) for name, text in files.items()}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0] if argv else None
    now = counts_at(None)
    then = counts_at(rev) if rev is not None else None
    zero = dict.fromkeys(KINDS, 0)
    print(f"{'module':16}" + "".join(f"{k:>16}" for k in KINDS))
    total_now, total_then = dict(zero), dict(zero)
    for name in sorted(set(now) | set(then or {})):
        a = now.get(name, zero)
        cells = []
        for k in KINDS:
            total_now[k] += a[k]
            cell = str(a[k])
            if then is not None:
                b = then.get(name, zero)
                total_then[k] += b[k]
                cell += f" ({a[k] - b[k]:+d})"
            cells.append(cell)
        print(f"{name:16}" + "".join(f"{c:>16}" for c in cells))
    cells = [str(total_now[k]) + ("" if then is None else
                                  f" ({total_now[k] - total_then[k]:+d})")
             for k in KINDS]
    print(f"{'total':16}" + "".join(f"{c:>16}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
