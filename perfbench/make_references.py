"""Write references.json: the checked result columns of every workload
variant, from one run each of the code in ./src.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run from the root of the checkout, and only when a change to the program
is meant to change its results; say so in the change.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env
from workloads import VARIANTS, WORKLOADS, read_row

if __name__ == "__main__":
    root = Path.cwd()
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    names = sys.argv[1:] or sorted(WORKLOADS)
    for name in names:
        w = WORKLOADS[name]
        refs[name] = {}
        for v in range(VARIANTS if w.seeded else 1):
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps(w.config(v)))
                subprocess.run([sys.executable, "-m", "urlab", w.subcommand,
                                "-c", str(cfg), "-o", tmp],
                               env=child_env(root), check=True)
                row = read_row((Path(tmp) / w.csv).read_text())
            refs[name][str(v)] = {col: row[col] for col in w.checks}
            print(name, v, refs[name][str(v)], flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
