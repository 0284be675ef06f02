"""tools/aliasing.py: the item-12 probe, on a coarse grid."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "aliasing", Path(__file__).resolve().parents[1] / "tools" / "aliasing.py")
aliasing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(aliasing)


def test_probe_reports_zero_weights_and_spreads():
    sigma = aliasing.standard_line()
    system = aliasing.ainfty_system(sigma, r=0.25, cells=32)
    assert system.shape == (32,) * 3 and system.h == 7.5 * 0.25 / 32
    out = aliasing.probe(sigma, system)
    assert out["n_atoms"] == 200 and 0 <= out["zero_atoms"] < 200
    assert out["iterations"] > 0
    # reflecting walls: the weights are the exact adjoint of a solve that
    # keeps constants, so they sum to 1 up to the CG tolerance
    assert abs(out["weight_sum"] - 1.0) <= 1e-6
    spreads = out["spreads"]
    assert list(spreads) == list(aliasing.RADII_CELLS)
    assert all(np.isfinite(v) and v >= 1.0 for v in spreads.values())
    # weights proportional to mass leave only the density's own swing,
    # P(0) / P(0.3) = 1 + 0.3^2 / t^2
    flat = sigma.weights / sigma.total_mass
    assert np.isclose(aliasing.spread(sigma, flat, 0.1),
                      1.0 + 0.3 ** 2 / 0.25 ** 2, rtol=1e-12)
