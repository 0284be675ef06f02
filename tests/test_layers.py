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


def test_cantor_row_counts_the_lps_of_one_alpha():
    name, count, secs = layers.cantor_row(m=4, repeats=1)
    assert name == "transport_lp cantor m=4" and secs > 0
    # the PCA start, then Nelder-Mead over 5 parameters (tilt and offset
    # in the 2 normal directions, log-density): more than one simplex
    assert count > 6
    assert layers.format_row(name, count, secs).endswith("LPs/s")


def test_sn_rows_time_kernel_sums_and_cg_at_each_worker_count():
    sigma = layers.sn_measure()
    workers = layers.distances._WORKERS
    got = layers.sn_rows(sigma, box=(layers.SN_BOX[0], 0.64), h=0.04,
                         repeats=1, workers=(1, 2))
    assert layers.distances._WORKERS == workers
    assert [name for name, _, _ in got] == [
        "kernel sums, 1 worker(s)", "cg, 1 worker(s)",
        "kernel sums, 2 worker(s)", "cg, 2 worker(s)"]
    assert all(count > 0 and secs > 0 for _, count, secs in got)
    # the same faces and the same iterations at either worker count
    assert got[0][1] == got[2][1] and got[1][1] == got[3][1]
    assert got[0][1] % len(sigma) == 0
    assert layers.format_row(*got[0]).endswith("pairs/s")
    assert layers.format_row(*got[1]).endswith("ms/iter")
