"""Span recording, self-time arithmetic and restoring the originals."""

import importlib
import itertools
import types

import pytest

import spans


def _span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "counts": counts}


def test_self_time_subtracts_the_union_of_children():
    trace = [
        _span("cli.run", 0.0, 10.0),
        _span("whitney.ur_sum", 1.0, 3.0, 0),
        _span("whitney.ur_sum", 2.0, 5.0, 0),       # overlaps its sibling
        _span("whitney.ur_sum", 8.0, 12.0, 0),      # runs past the parent
        _span("wasserstein.lp", 1.5, 2.5, 1),       # grandchild of 0
    ]
    assert spans.self_times(trace) == pytest.approx(
        [10.0 - (4.0 + 2.0), 2.0 - 1.0, 3.0, 4.0, 1.0])


def test_layer_metrics_sum_spans_and_zero_absent_layers():
    trace = [
        _span("cli.run", 0.0, 10.0),
        _span("whitney.ur_sum", 1.0, 9.0, 0, anchors=4),
        _span("wasserstein.alpha", 2.0, 4.0, 1),
        _span("wasserstein.lp", 2.5, 3.5, 2, m=10, rows=90, highs_iters=7),
        _span("wasserstein.alpha", 5.0, 8.0, 1),
        _span("wasserstein.lp", 5.0, 7.0, 4, m=30, rows=870, highs_iters=9),
    ]
    m = spans.layer_metrics(trace)
    assert set(m) == set(spans.PER_LAYER)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["whitney.ur_sum.self_s"] == pytest.approx(3.0)
    assert m["wasserstein.alpha.calls"] == 2
    assert m["wasserstein.alpha.self_s"] == pytest.approx(2.0)
    assert m["wasserstein.lp.count"] == 2
    assert m["wasserstein.lp.s"] == pytest.approx(3.0)
    assert m["wasserstein.lp.ms_per_lp"] == pytest.approx(1500.0)
    assert m["wasserstein.lp.m_mean"] == 20
    assert m["wasserstein.lp.m_max"] == 30
    assert m["wasserstein.lp.rows"] == 960
    assert m["wasserstein.lp.highs_iters"] == 16
    assert m["whitney.alpha_cache.hit_ratio"] == pytest.approx(0.5)
    assert m["elliptic.solve.s"] == 0 and m["distances.scalar.pairs"] == 0


def test_wrapper_records_nesting_counts_and_errors():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    def fail():
        raise ValueError("boom")
    mod.fail = fail
    originals = dict(vars(mod))
    tracer.wrap(mod, "inner", "inner", lambda a, k, r: {"result": r})
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "fail", "fail")
    assert mod.outer(1) == 4
    with pytest.raises(ValueError):
        mod.fail()
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("fail", None)]
    assert tracer.spans[1]["counts"] == {"result": 2}
    assert all(s["end"] > s["start"] for s in tracer.spans)
    tracer.restore()
    assert vars(mod) == originals


def test_traced_cli_run_restores_every_original(tmp_path):
    targets = ["urlab.cli", "urlab.geometry", "urlab.distances",
               "urlab.wasserstein", "urlab.whitney", "urlab.carleson",
               "urlab.elliptic"]
    owners = [importlib.import_module(t) for t in targets]
    owners += [owners[1].DiscreteMeasure, owners[6].EllipticSystem]
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer()
    spans.install(tracer)
    cli = owners[0]
    try:
        assert cli.main(["alpha", "-o", str(tmp_path),
                         "-s", "generator.kind=cantor",
                         "-s", "generator.m=3",
                         "-s", "balls.count=1", "-s", "balls.radii=[0.3]",
                         "-s", "wasserstein.refine=false"]) == 0
    finally:
        tracer.restore()
    assert [dict(vars(o)) for o in owners] == before
    m = spans.layer_metrics(tracer.spans)
    assert m["wasserstein.alpha.calls"] == 1
    assert m["wasserstein.lp.count"] == 1
    assert m["geometry.build_s"] > 0
    assert m["cli.self_s"] > 0
