"""tools/layers.py: the per-layer rows, on a coarse sawtooth."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "layers", Path(__file__).resolve().parents[1] / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_rows_count_the_work_of_each_layer():
    sigma = layers.workload_measure(0.01)
    got = layers.rows(sigma, depths=(5, 9), query=layers.QUERY, repeats=1)
    assert [name for name, _, _ in got] == [
        "decompose depth 5", "decompose depth 9 focus r=0.1", "transport_lp"]
    assert all(count > 0 and secs > 0 for _, count, secs in got)
    # one LP per distinct anchor ball the sum prices
    deco = layers.whitney.decompose(sigma, None, 9, focus=layers.QUERY)
    want = layers.whitney.ur_square_sum(deco, *layers.QUERY, lam=layers.LAM)
    assert got[1][1] == len(deco)
    assert got[2][1] == want.n_anchors == len(deco.alpha_cache)
    line = layers.format_row(*got[2])
    assert line.startswith("transport_lp") and line.endswith("LPs/s")
