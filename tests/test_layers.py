"""tools/layers.py: the per-layer rows, on a coarse sawtooth."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "layers", Path(__file__).resolve().parents[1] / "tools" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_rows_count_the_work_of_each_layer():
    sigma = layers.workload_measure(0.01)
    got = layers.rows(sigma, depths=(5, 9), query=layers.QUERY,
                      wide=(10, layers.WIDE[1]), repeats=1)
    assert [row[0] for row in got] == [
        "decompose depth 5", "decompose depth 9 focus r=0.1",
        "ur_square_sum scan", "transport_lp",
        "decompose depth 10 focus r=0.2"]
    assert all(count > 0 and secs > 0 for _, count, secs, *_ in got)
    # the decompose rows carry a traced peak that holds their output
    deco = layers.whitney.decompose(sigma, None, 9, focus=layers.QUERY,
                                    lam=layers.LAM)
    out = sum(lev.packed.nbytes + lev.anchor_idx.nbytes
              for lev in deco.levels.values()) / 2 ** 20
    assert [len(row) for row in got] == [4, 4, 4, 3, 4]
    assert got[1][1] == len(deco) and got[1][3] >= out
    assert layers.format_row(*got[1]).endswith("MiB peak")
    # the scan row sweeps every cube of that decomposition
    assert got[2][1] == len(deco) and got[2][3] > 0
    line = layers.format_row(*got[2])
    assert "cubes/s" in line and line.endswith("MiB peak")
    # one LP per distinct anchor ball the sum prices
    want = layers.whitney.ur_square_sum(deco, *layers.QUERY)
    assert got[3][1] == want.n_anchors == len(deco.alpha_cache)
    line = layers.format_row(*got[3])
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
    system = layers.sn_system(sigma, box=(layers.SN_BOX[0], 0.64), h=0.04)
    got = layers.sn_rows(system, repeats=1, workers=(1, 2))
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


def test_sn_check_rows_time_sn_check_at_each_worker_count():
    """On the workload's 128^3 grid, the smallest an r/32 ball's 2B fits;
    zero data spare the solve but not the sweep."""
    sigma = layers.sn_measure()
    system = layers.sn_system(sigma)
    solution = system.solve(np.zeros(len(sigma)))
    got = layers.sn_check_rows(system, layers.sn_ball(sigma), solution,
                               repeats=1, workers=(1, 2))
    assert [row[0] for row in got] == ["sn_check, 1 worker(s)",
                                       "sn_check, 2 worker(s)"]
    assert all(count == 128 ** 3 and secs > 0 and peak > 0
               for _, count, secs, peak in got)
    line = layers.format_row(*got[0])
    assert "cells/s" in line and line.endswith("MiB peak")


def test_vector_rows_time_distance_gradients_at_each_worker_count():
    sigma = layers.carleson_measure()
    ball = layers.carleson_ball(sigma)
    workers = layers.distances._WORKERS
    got = layers.vector_rows(sigma, ball, h=0.025, repeats=1,
                             workers=(1, 2))
    assert layers.distances._WORKERS == workers
    assert [name for name, _, _ in got] == [
        "vector kernel sums, 1 worker(s)", "vector kernel sums, 2 worker(s)"]
    assert all(count > 0 and secs > 0 for _, count, secs in got)
    cells = layers.far_cells(sigma, ball, 0.025)
    _, _, skipped, used = layers.carleson._ball_value(
        lambda p: np.ones(p.shape[0]), sigma, ball, 0.025)
    assert cells.shape[0] == skipped + used and used > 0
    assert got[0][1] == got[1][1] == cells.shape[0] * len(sigma)
    assert layers.format_row(*got[0]).endswith("pairs/s")


def test_sweep_rows_count_the_cells_of_one_ball():
    sigma = layers.carleson_measure()
    ball = layers.carleson_ball(sigma)
    got = layers.sweep_rows([("r/8", sigma, ball, 0.025)], repeats=1,
                            workers=(1, 2))
    assert [row[0] for row in got] == ["carleson sweep r/8, 1 worker(s)",
                                       "carleson sweep r/8, 2 worker(s)"]
    cells = layers.far_cells(sigma, ball, 0.025).shape[0]
    assert all(count == cells and secs > 0 and peak > 0
               for _, count, secs, peak in got)
    line = layers.format_row(*got[0])
    assert "cells/s" in line and line.endswith("MiB peak")
