"""The output check: reference tolerances and the re-run CSV contract."""

import json

import pytest

import run
from workloads import VARIANTS, WORKLOADS, check_row, read_row


def test_references_cover_every_variant():
    refs = json.loads((run.HERE / "references.json").read_text())
    for w in WORKLOADS.values():
        variants = VARIANTS if w.seeded else 1
        assert sorted(refs[w.name], key=int) == [str(v)
                                                 for v in range(variants)]
        for ref in refs[w.name].values():
            assert set(ref) == set(w.checks)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_and_perturbed_value_fails(name):
    w = WORKLOADS[name]
    ref = json.loads((run.HERE / "references.json").read_text())[name]["0"]
    assert check_row(dict(ref), ref, w.checks) == []
    for col, tol in w.checks.items():
        bad = dict(ref)
        step = {"exact": 1.0, "abs": 2.0 * tol.tol}.get(
            tol.kind, 2.0 * tol.tol * abs(float(ref[col])))
        bad[col] = repr(float(ref[col]) + step)
        problems = check_row(bad, ref, w.checks)
        assert len(problems) == 1 and problems[0].startswith(col)


def _write_run(out, header, row):
    out.mkdir()
    (out / "alpha.csv").write_text(",".join(header) + "\n"
                                   + ",".join(row) + "\n")


def test_changed_csv_byte_fails_the_rerun_contract(tmp_path):
    w = WORKLOADS["alpha_cantor"]
    runner = run.Runner(tmp_path, w, 0, tmp_path)
    ref = runner.reference
    header = ["ball", "center0", "alpha", "initial", "truncated"]
    row = ["0", "0.5", ref["alpha"], ref["initial"], ref["truncated"]]
    _write_run(tmp_path / "a", header, row)
    assert runner.check(tmp_path / "a") == []
    _write_run(tmp_path / "b", header, row)
    assert runner.check(tmp_path / "b") == []
    row[1] = "0.50"                     # same value, one byte more
    _write_run(tmp_path / "c", header, row)
    assert runner.check(tmp_path / "c") == [
        "alpha.csv differs from the first run's bytes"]
    runner.log.close()


def test_read_row_wants_exactly_one_row():
    assert read_row("a,b\n1,2\n") == {"a": "1", "b": "2"}
    with pytest.raises(ValueError):
        read_row("a,b\n1,2\n3,4\n")
