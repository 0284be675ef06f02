"""Degenerate-weight Dirichlet solver on a grid truncated around the support.

The continuum problem is a divergence-form equation whose coefficient is a
power of the regularized distance to the support, so the operator degenerates
exactly on the support.  On a discrete measure we solve a finite-volume
truncation instead:

* the support is thickened into a *collar* of grid cells (every cell whose
  center lies within ``collar * h`` of the support); collar cells are pinned
  to the boundary data carried by their nearest support atom;
* every face between two non-collar cells gets the conductance
  ``D(face midpoint) ** (d + 1 + gamma - n)`` scaled by ``h ** (n - 2)``,
  where ``D`` is the kernel-regularized distance; faces into the collar
  couple the unknowns to the pinned data;
* the outer box walls are either reflecting (``outer="neumann"``, the
  default, which preserves the exact constant solution for constant data) or
  absorbing (``outer="dirichlet0"``, which measures the truncation bias).

The resulting matrix A is symmetric positive definite and block-diagonal
between pinned and free cells, so one conjugate-gradient solve per boundary
datum suffices.  The system stores it Jacobi-scaled, as
A~ = D^-1/2 A D^-1/2 = I - W~ with D its diagonal, and its CG is plain CG
on A~, which is Jacobi-preconditioned CG on A.  The per-atom data g enter
only through the right-hand side C g of one sparse boundary-coupling list
C (see ``EllipticSystem``).
Symmetry then gives a *representer*: a value s . A^-1 C g observed through
the interpolation stencil s of a pole X equals (C^T v) . g with v = A^-1 s.
That v is the discrete Green function G(X, .) (``EllipticSystem.green``),
and C^T v holds, for every support atom at once, the weight with which its
datum enters the value at X (``EllipticSystem.pole_weights``).  A hitting
probability is a sum of those weights, so one solve per pole prices every
subset of the support: ``harmonic_measure`` and ``ainfty_scatter`` both read
it, and no indicator-data solve is made for them.

Resolution contract: collar pinning keeps every evaluated face midpoint at
distance at least ``(collar - 0.5) * h`` from the support, and the distance
kernel refuses probes below twice the atom spacing, so ``assemble`` requires
``(collar - 0.5) * h >= 2 * spacing`` up front (``SolverConfig.min_h``).

Memory: an assembled system keeps about 4.3 float64 grid arrays resident
(``diag``, the unscaled diagonal, one padded array of scaled conductances
per axis, and the int8 mask with its collar flags) plus the
boundary-coupling list, whose length follows the collar, not the grid;
after its first ``harmonic_measure`` call it also holds the solution for
the constant datum, one more grid array with an int8 copy of the mask.
Work that touches every cell (face midpoints and their kernel sums,
warm-start interpolation) runs in slabs of ``_EVAL_SLAB`` cells, and the
in-place scaling of the conductances in ``_BLOCK``-cell blocks; the face
loop finds its faces with ``np.flatnonzero`` of bool masks, so it keeps
no int64 index grid; the collar search only visits cells within a few
cells of an atom; ``sn_check`` reads its window once, in slabs of
leading-axis planes of ``_SN_SLAB`` cells, at most four in flight, and
takes the maxima of the slabs' cone maxima, so it builds no array over
all of 2B's cells.  So the largest transient is the conjugate-gradient
working set of four grid vectors, the iterate x, the residual r, the
direction p and A~ p (``_cg`` reuses the right-hand side and the initial
guess it is given, and maps them into and out of the scaled variables in
place), plus one 256 KB ``_BLOCK``-cell buffer per partial-sum block in
flight, and the peak of assemble, solve and sn_check stays near the
system plus a few grid arrays.

Threads: the kernel sums, every CG pass and ``sn_check``'s slabs run on
all usable CPUs through ``distances._run_tasks``, over work split into
fixed blocks (whole kernel chunks; ``_RED``-cell partial-sum blocks and
``_SN_SLAB``-cell slabs, both mapped one unit at a time by
``distances._run_units``, the slabs as at most
``distances._SLAB_TASKS`` tasks), so no result depends on the worker
count, and the buffers the tasks hold do not grow with it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

from . import carleson, distances
from .exceptions import (DegenerateInputError, DomainError, InputError,
                         NumericError, ParameterError, ResolutionError,
                         TopologyError)
from .geometry import (Ball, CorkscrewResult, DiscreteMeasure, _as_box,
                       _finite_point, corkscrew_point)

__all__ = [
    "MASK_INTERIOR", "MASK_COLLAR", "MASK_OUTER",
    "SolverConfig", "GridField", "SolveResult", "PoleWeights",
    "HarmonicMeasureResult", "ScatterResult", "SNResult",
    "EllipticSystem", "assemble", "harmonic_measure", "ainfty_scatter",
    "sn_check", "write_field", "read_field", "write_scatter",
]

MASK_INTERIOR = 0
MASK_COLLAR = 1
MASK_OUTER = 2

_MAX_CELLS = 2 ** 31 - 1
_EVAL_SLAB = 1 << 18            # cells per evaluation slab: 6 MB of 3-D probes
_SN_SLAB = _EVAL_SLAB // 4      # cells per sn_check slab task
_BLOCK = 1 << 15                # cells per matvec block: 256 KB per array
_RED = 1 << 18                  # cells per partial-sum block: 8 _BLOCKs


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v of two 1-D blocks by ``einsum``, which calls no BLAS."""
    return float(np.einsum("i,i->", u, v))


def _blocks(lo: int, hi: int):
    """The _BLOCK-cell blocks [b_lo, b_hi) of [lo, hi), in order."""
    for b_lo in range(lo, hi, _BLOCK):
        yield b_lo, min(b_lo + _BLOCK, hi)


def _axis_slice(n: int, axis: int, sl) -> tuple:
    out = [slice(None)] * n
    out[axis] = sl
    return tuple(out)


# -- grid geometry ------------------------------------------------------------


def _cell_centers(box_lo, h: float, shape: tuple, cells: np.ndarray,
                  axis: int | None = None, shift: float = 0.0) -> np.ndarray:
    """Coordinates of the given flat (C-order) cells of a grid, one row
    each, moved by ``shift * h`` along ``axis`` when given (shift 0.5: the
    midpoint of the face to the forward neighbour, -0.5: the backward one).
    """
    pts = np.empty((len(cells), len(shape)))
    for a, idx in enumerate(np.unravel_index(cells, shape)):
        pts[:, a] = (box_lo[a] + (np.arange(shape[a]) + 0.5) * h)[idx]
    if axis is not None:
        pts[:, axis] += shift * h
    return pts


def _stencil(box_lo, h: float, shape: tuple, points: np.ndarray):
    """Multilinear interpolation stencil of points on a grid: an iterator
    over the 2**n cell corners, in itertools.product order, of (flat cell
    index, weight) arrays with one entry per point.  Raises DomainError
    unless every point lies in the cell-center hull."""
    t = (points - box_lo) / h - 0.5
    base = np.floor(t).astype(np.int64)
    frac = t - base
    if (base < 0).any() or (base >= np.asarray(shape) - 1).any():
        raise DomainError("interpolation point outside the cell-center hull")

    def corner(offsets):
        wt = np.ones(points.shape[0])
        flat = np.zeros(points.shape[0], dtype=np.int64)
        for a, c in enumerate(offsets):
            wt *= frac[:, a] if c else 1.0 - frac[:, a]
            flat = flat * shape[a] + (base[:, a] + c)
        return flat, wt

    return map(corner, itertools.product((0, 1), repeat=len(shape)))


def _conductance(sigma: DiscreteMeasure, points: np.ndarray, beta: float,
                 expo: float, what: str) -> np.ndarray:
    """Unscaled degenerate weight D_beta(points) ** expo; a refused probe
    or a non-finite weight is a NumericError naming the ``what`` weight."""
    try:
        dval = distances.regularized_distance(sigma, points, beta)
    except ResolutionError as exc:
        raise NumericError(f"{what}-weight evaluation refused: {exc}") from None
    out = dval ** expo
    if not np.all(np.isfinite(out)):
        raise NumericError(f"non-finite {what} weight encountered")
    return out


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the truncated solver.

    ``collar`` is the pinning half-width in cell units; widening it trades
    boundary resolution for kernel robustness.  ``outer`` picks the wall
    closure.  ``tol`` is the relative CG tolerance.
    """

    beta: float = 2.0
    gamma: float = 0.0
    tol: float = 1e-8
    maxiter: int | None = None
    collar: float = 1.5
    outer: str = "neumann"

    def __post_init__(self):
        if not self.beta > 0:
            raise ParameterError("beta must be positive")
        if not -1.0 < self.gamma < 1.0:
            raise ParameterError("gamma must lie strictly between -1 and 1")
        if not self.tol >= np.finfo(float).eps:
            raise ParameterError(
                f"tol must be at least the float64 precision "
                f"{np.finfo(float).eps:.3g}; got {self.tol!r}")
        if not self.collar >= 1.0:
            raise ParameterError("collar must be at least one cell")
        if self.outer not in ("neumann", "dirichlet0"):
            raise ParameterError("outer must be 'neumann' or 'dirichlet0'")
        if self.maxiter is not None and self.maxiter < 1:
            raise ParameterError("maxiter must be positive when given")

    def min_h(self, spacing: float) -> float:
        """Smallest cell size the collar allows on a support of the given
        atom spacing: face midpoints stay ``(collar - 0.5) * h`` from the
        support, and the distance kernel needs them two spacings away."""
        return 2.0 * spacing / (self.collar - 0.5)


@dataclass
class GridField:
    """Cell-centered scalar field on a cubic grid with a cell-role mask."""

    box_lo: np.ndarray
    h: float
    values: np.ndarray
    mask: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ambient_dim(self) -> int:
        return self.values.ndim

    def axes(self) -> list[np.ndarray]:
        return [_cell_centers(self.box_lo[a:a + 1], self.h, (m,),
                              np.arange(m))[:, 0]
                for a, m in enumerate(self.shape)]

    def cell_centers(self) -> np.ndarray:
        return _cell_centers(self.box_lo, self.h, self.shape,
                             np.arange(self.values.size))

    def interp(self, x) -> np.ndarray:
        """Multilinear interpolation at an (m, n) batch of points strictly
        inside the cell-center hull; one value per point."""
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.ambient_dim:
            raise InputError("points must be an (m, n) batch matching the "
                             "grid dimension")
        vals = self.values.ravel()
        out = np.zeros(pts.shape[0])
        for flat, wt in _stencil(self.box_lo, self.h, self.shape, pts):
            out += wt * vals[flat]
        return out


@dataclass(frozen=True)
class SolveResult:
    field: GridField
    iterations: int
    residual: float
    n_unknowns: int


@dataclass(frozen=True)
class PoleWeights:
    """Per-atom weights of the boundary data in the value at one point."""

    pole: np.ndarray
    weights: np.ndarray
    iterations: int
    residual: float

    def value(self, e) -> float:
        """Hitting weight of the atom set e: a boolean mask over the atoms
        or atom indices, read as a set (``_e_mask``: each atom counts once,
        and an index outside the atoms is an InputError)."""
        return float(self.weights[_e_mask(e, self.weights.size)].sum())


@dataclass(frozen=True)
class HarmonicMeasureResult:
    value: float
    complement_value: float
    mass_gap: float
    pole: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class ScatterResult:
    """Hitting-probability ratio vs mass ratio for sampled subsets."""

    pairs: np.ndarray            # (n_sets + 1, 2): (omega_ratio, sigma_ratio)
    descriptors: list
    ball: Ball
    pole: CorkscrewResult
    omega_ball: float
    sigma_ball: float
    n_atoms: int
    iterations: int
    residual: float

    def envelope(self, delta: float) -> float:
        """Largest mass ratio among rows with hitting ratio below delta;
        NaN when no row qualifies (no data, not a zero envelope)."""
        sel = self.pairs[:, 0] < delta
        if not sel.any():
            return math.nan
        return float(self.pairs[sel, 1].max())


@dataclass(frozen=True)
class SNResult:
    """Square-function mass vs pointwise and cone suprema on one ball."""

    square_fn: float
    sup_sq: float
    nt_sq: float
    sup: float
    ball: Ball
    h: float
    iterations: int
    residual: float
    n_cells: int
    n_empty_cones: int
    field: GridField

    def sup_ratio(self) -> float:
        return _ratio(self.square_fn, self.sup_sq)

    def nt_ratio(self) -> float:
        return _ratio(self.square_fn, self.nt_sq)


def _ratio(num: float, bound: float) -> float:
    """num / bound for a nonnegative bound; over a zero bound the ratio is
    inf, or NaN when num vanishes too (no data, not a perfect 0)."""
    if bound > 0:
        return num / bound
    return math.nan if num == 0 else math.inf


class EllipticSystem:
    """Assembled truncated system on one box; reusable across data.

    State over the flat (C-order) grid cells: ``mask`` (int8 cell roles),
    ``diag`` (the diagonal d of A, 1 on pinned collar rows), ``w_pad``
    (per axis, the scaled conductances w / sqrt(d_i d_{i+s}) of faces
    between cells i and i + s that are both unknowns, zero-padded; see
    ``_matvec``), so that the stored operator is A~ = D^-1/2 A D^-1/2 =
    I - W~, and ``coupling``, the boundary-coupling list ``(cell,
    atom, weight)``: a unit entry per collar cell at its nearest atom, and
    per face between an unknown and a collar cell an entry (unknown cell,
    the collar cell's nearest atom, face weight).  ``_rhs`` and
    ``_collar_functional`` are the two transposes of that one list;
    ``pole_weights`` relies on this to be the exact adjoint of ``solve``.
    The unscaled conductances are w~ sqrt(d_i d_{i+s}) and A x is
    sqrt(d) A~ (sqrt(d) x); ``_cg`` solves A x = b through A~.
    """

    def __init__(self, sigma: DiscreteMeasure, config: SolverConfig,
                 box_lo: np.ndarray, h: float, shape: tuple,
                 mask: np.ndarray, diag: np.ndarray, w_pad: list,
                 coupling: tuple):
        self.sigma = sigma
        self.config = config
        self.box_lo = box_lo
        self.h = h
        self.shape = shape
        self.mask = mask
        self.diag = diag
        self.w_pad = w_pad
        self.w_faces = [                      # face-shaped views of w_pad
            w.reshape(shape)[_axis_slice(len(shape), a, np.s_[:-1])]
            for a, w in enumerate(w_pad)]
        self.coupling = coupling
        self.n_cells = int(np.prod(shape))
        self.collar = mask == MASK_COLLAR
        self.n_collar = int(self.collar.sum())
        self.n_unknowns = self.n_cells - self.n_collar
        self._pole_cache: dict = {}
        self._unit: GridField | None = None
        self._strides = [int(np.prod(shape[a + 1:]))
                         for a in range(len(shape))]

    # -- linear algebra ---------------------------------------------------

    def _blockwise(self, fn) -> list:
        """[fn(lo, hi) for each partial-sum block [lo, hi) of _RED cells],
        in block order, run as one task per worker over a contiguous run
        of whole blocks (``distances._run_units``)."""
        nc = self.n_cells
        return distances._run_units(
            -(-nc // _RED), lambda b: fn(b * _RED, min((b + 1) * _RED, nc)))

    def _inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """u . v, from one ``einsum`` per partial-sum block (no BLAS)
        combined by ``math.fsum``: the same bits at any worker count."""
        return math.fsum(self._blockwise(lambda lo, hi: _dot(u[lo:hi],
                                                               v[lo:hi])))

    def _matvec_cells(self, x: np.ndarray, out: np.ndarray, lo: int,
                      hi: int) -> None:
        """out[lo:hi] = (A~ x)[lo:hi], in _BLOCK-cell blocks through one
        _BLOCK-cell buffer."""
        nc = self.n_cells
        buf = np.empty(min(_BLOCK, hi - lo))
        for b_lo, b_hi in _blocks(lo, hi):
            out[b_lo:b_hi] = x[b_lo:b_hi]
            for w, s in zip(self.w_pad, self._strides):
                f_hi = min(b_hi, nc - s)
                if f_hi > b_lo:
                    t = buf[:f_hi - b_lo]
                    np.multiply(w[b_lo:f_hi], x[b_lo + s:f_hi + s], out=t)
                    np.subtract(out[b_lo:f_hi], t, out=out[b_lo:f_hi])
                k_lo = max(b_lo, s)
                if b_hi > k_lo:
                    t = buf[:b_hi - k_lo]
                    np.multiply(w[k_lo - s:b_hi - s], x[k_lo - s:b_hi - s],
                                out=t)
                    np.subtract(out[k_lo:b_hi], t, out=out[k_lo:b_hi])

    def _matvec(self, x: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """y = A~ x, the stored scaled operator, one blocked pass over the
        flat arrays.

        ``w_pad[a]`` holds axis a's scaled conductances on the full grid,
        zero in the last layer along a, so the face between cells i and
        i + s (s the flat stride of axis a) is entry i of one contiguous
        array.  Each block of _BLOCK cells copies x and then, axis by
        axis, subtracts the forward term w[i]*x[i+s] and the backward term
        w[i-s]*x[i-s].  Those are the products, in the same order, of a
        sweep of whole-grid slices over the face-shaped ``w_faces`` (the
        padding only subtracts exact zeros), so the result is bit-identical
        to that sweep, whatever the blocks and however many workers share
        them (``_blockwise``), but every array streams through the cache
        once and the only temporary is one _BLOCK-cell buffer per
        partial-sum block in flight.
        ``out`` must not alias ``x``.
        """
        if out is None:
            out = np.empty(self.n_cells)
        self._blockwise(lambda lo, hi: self._matvec_cells(x, out, lo, hi))
        return out

    def _cg(self, b: np.ndarray, x0: np.ndarray) -> tuple:
        """Jacobi-preconditioned conjugate gradients on A, run as plain CG
        on the stored A~ = D^-1/2 A D^-1/2 (Saad, Iterative Methods for
        Sparse Linear Systems, 2nd ed. 2003, section 9.2): the same
        iterates in exact arithmetic, and no diagonal to apply per
        iteration.  Hand-rolled so the stencil matvec is the only
        per-iteration cost.

        Takes ownership of both arguments, which must be contiguous
        float64 grid vectors.  One pass maps in: p = sqrt(d) x0, and
        b / sqrt(d) overwrites ``b``, which then holds the scaled residual
        r = D^-1/2 (b - A x).  If x0 already meets the tolerance it is
        returned untouched with 0 iterations, so constant data stay
        bit-exact.  Otherwise the scaled iterate sqrt(d) x runs in p's
        buffer, x0's buffer becomes the search direction p, and a last
        pass maps out x = x~ / sqrt(d) in place.  So the working set is
        four grid vectors: x, r, p and A~ p.

        Each iteration is three passes over the fixed partial-sum blocks,
        one task per worker (``_blockwise``): A~ p with p . A~ p; then
        x += alpha p and r -= alpha A~ p through a _BLOCK-cell buffer,
        r . r and r . (d r) = |b - A x|^2; then p = r + beta p.  A sum is
        one ``einsum`` per block, which calls no BLAS, and the blocks'
        partial sums are combined by ``math.fsum``.  So no pass allocates
        more than one _BLOCK-cell buffer per block in flight, and the
        iterates, the iteration count and the residual are the same bits
        at any worker count and any BLAS thread count.  Stops once
        |b - A x| <= tol * |b|, both norms of the unscaled system.
        """
        maxiter = self.config.maxiter
        if maxiter is None:
            maxiter = max(2000, 60 * max(self.shape))
        diag = self.diag
        bnorm = math.sqrt(self._inner(b, b))
        stop = self.config.tol * bnorm
        r = b
        p = np.empty(self.n_cells)
        ap = np.empty(self.n_cells)

        def root_diag(lo, hi):
            """(b_lo, b_hi, sqrt(d) on the block) for each _BLOCK-cell
            block of [lo, hi), the roots formed in one buffer."""
            buf = np.empty(min(_BLOCK, hi - lo))
            for b_lo, b_hi in _blocks(lo, hi):
                yield b_lo, b_hi, np.sqrt(diag[b_lo:b_hi],
                                          out=buf[:b_hi - b_lo])

        def map_in(lo, hi):
            for b_lo, b_hi, root in root_diag(lo, hi):
                np.multiply(x0[b_lo:b_hi], root, out=p[b_lo:b_hi])
                np.divide(r[b_lo:b_hi], root, out=r[b_lo:b_hi])

        def map_out(lo, hi):
            for b_lo, b_hi, root in root_diag(lo, hi):
                np.divide(x[b_lo:b_hi], root, out=x[b_lo:b_hi])

        def sums(lo, hi):
            """(r . r, r . (d r)) on the block [lo, hi)."""
            rb = r[lo:hi]
            return _dot(rb, rb), float(np.einsum("i,i,i->", diag[lo:hi],
                                                 rb, rb))

        def first_residual(lo, hi):
            self._matvec_cells(p, ap, lo, hi)
            np.subtract(r[lo:hi], ap[lo:hi], out=r[lo:hi])
            return sums(lo, hi)

        def p_ap(lo, hi):
            self._matvec_cells(p, ap, lo, hi)
            return _dot(p[lo:hi], ap[lo:hi])

        def step(lo, hi):
            buf = np.empty(min(_BLOCK, hi - lo))
            for b_lo, b_hi in _blocks(lo, hi):
                t = buf[:b_hi - b_lo]
                xb, rb = x[b_lo:b_hi], r[b_lo:b_hi]
                np.add(xb, np.multiply(p[b_lo:b_hi], alpha, out=t), out=xb)
                np.subtract(rb, np.multiply(ap[b_lo:b_hi], alpha, out=t),
                            out=rb)
            return sums(lo, hi)

        def new_p(lo, hi):
            pb = p[lo:hi]
            np.multiply(pb, beta, out=pb)
            np.add(pb, r[lo:hi], out=pb)

        self._blockwise(map_in)
        rr, rd = zip(*self._blockwise(first_residual))
        rnorm = math.sqrt(math.fsum(rd))
        iters = 0
        x = x0
        if rnorm > stop:
            x, p = p, x0
            self._blockwise(lambda lo, hi: np.copyto(p[lo:hi], r[lo:hi]))
            rr = math.fsum(rr)
            for iters in range(1, maxiter + 1):
                alpha = rr / math.fsum(self._blockwise(p_ap))
                rr_new, rd = zip(*self._blockwise(step))
                rnorm = math.sqrt(math.fsum(rd))
                if rnorm <= stop:
                    break
                rr_new = math.fsum(rr_new)
                beta = rr_new / rr
                self._blockwise(new_p)
                rr = rr_new
            self._blockwise(map_out)
        residual = rnorm / bnorm if bnorm > 0 else rnorm
        if rnorm > stop and bnorm > 0:
            raise NumericError(
                f"conjugate gradients stopped after {iters} iterations "
                f"with relative residual {residual:.3g}")
        return x, iters, residual

    # -- data plumbing ----------------------------------------------------

    def _g_support(self, g) -> np.ndarray:
        npts = self.sigma.points.shape[0]
        if np.isscalar(g):
            vals = np.full(npts, float(g))
        else:
            vals = np.asarray(g, dtype=np.float64)
        if vals.shape != (npts,):
            raise InputError(
                f"boundary data must give one value per support atom "
                f"({npts}); got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InputError("boundary data contains non-finite values")
        return vals

    def _rhs(self, g: np.ndarray) -> np.ndarray:
        """Right-hand side C g of the per-atom data g."""
        cell, atom, w = self.coupling
        return np.bincount(cell, weights=w * g[atom], minlength=self.n_cells)

    def _collar_functional(self, v: np.ndarray) -> np.ndarray:
        """C^T v, one weight per support atom."""
        cell, atom, w = self.coupling
        return np.bincount(atom, weights=w * v[cell],
                           minlength=self.sigma.points.shape[0])

    # -- public operations --------------------------------------------------

    def same_grid(self, fld: GridField) -> bool:
        """Whether the field lives on this system's grid: the same shape,
        cell size and lower box corner, exactly."""
        return (fld.shape == tuple(self.shape) and fld.h == self.h
                and np.array_equal(fld.box_lo, self.box_lo))

    def _warm_start(self, fld: GridField) -> np.ndarray:
        """Previous solution interpolated at this grid's cell centers,
        clamped to the source hull (it only seeds the iteration)."""
        if self.same_grid(fld):
            return fld.values.ravel().copy()
        hull_lo = fld.box_lo + (0.5 + 1e-9) * fld.h
        hull_hi = fld.box_lo + (np.asarray(fld.shape) - 0.5 - 1e-9) * fld.h
        out = np.empty(self.n_cells)
        for c0 in range(0, self.n_cells, _EVAL_SLAB):
            c1 = min(c0 + _EVAL_SLAB, self.n_cells)
            pts = _cell_centers(self.box_lo, self.h, self.shape,
                                np.arange(c0, c1))
            np.clip(pts, hull_lo[None, :], hull_hi[None, :], out=pts)
            out[c0:c1] = fld.interp(pts)
        return out

    def solve(self, g, warm_start: GridField | None = None) -> SolveResult:
        """Solve for the field with the boundary data g: one value per
        support atom, or a scalar for constant data.

        ``warm_start`` seeds the iteration with another field (typically a
        coarser solve of the same data); it never changes the answer."""
        gs = self._g_support(g)
        b = self._rhs(gs)
        if warm_start is not None:
            x0 = self._warm_start(warm_start)
            x0[self.collar] = b[self.collar]
        else:
            x0 = b.copy()
            x0[~self.collar] = float(gs.mean())
        return self._solve_result(*self._cg(b, x0))

    def _solve_result(self, x: np.ndarray, iters: int,
                      residual: float) -> SolveResult:
        fld = GridField(self.box_lo.copy(), self.h,
                        x.reshape(self.shape),
                        self.mask.reshape(self.shape).copy())
        return SolveResult(fld, iters, residual, self.n_unknowns)

    def _unit_field(self) -> GridField:
        """The solution for the constant datum 1, solved once per system
        and cached."""
        if self._unit is None:
            self._unit = self.solve(1.0).field
        return self._unit

    def check_pole(self, pole) -> np.ndarray:
        pole = _finite_point(pole, len(self.shape), "pole")
        gap = float(self.sigma.dist_to_support(pole))
        if gap < 4.0 * self.h:
            raise DomainError(
                f"pole must clear the support by four cells "
                f"(gap {gap:.3g} < {4 * self.h:.3g})")
        return pole

    def green(self, pole) -> SolveResult:
        """The discrete Green function G(pole, .): the representer solve
        A v = s with the pole's interpolation stencil s as right-hand side.

        Not cached, so a family of poles holds no grid array per pole.  It
        is zero on collar cells, and the field at Y read from G(X, .)
        equals the one at X read from G(Y, .) up to the CG tolerance.
        """
        pole = self.check_pole(pole)
        b = np.zeros(self.n_cells)
        for flat, wt in _stencil(self.box_lo, self.h, self.shape,
                                 pole[None, :]):
            b[flat] += wt
        return self._solve_result(*self._cg(b, np.zeros(self.n_cells)))

    def pole_weights(self, pole) -> PoleWeights:
        """Weights of each atom's datum in the solution value at the pole:
        C^T of ``green(pole)``, cached per pole, so afterwards any subset's
        hitting probability is a plain sum.
        """
        pole = self.check_pole(pole)
        key = pole.tobytes()
        hit = self._pole_cache.get(key)
        if hit is not None:
            return hit
        g = self.green(pole)
        out = PoleWeights(pole, self._collar_functional(g.field.values.ravel()),
                          g.iterations, g.residual)
        self._pole_cache[key] = out
        return out


# -- assembly ---------------------------------------------------------------


def _collar_cells(sigma: DiscreteMeasure, lo: np.ndarray, h: float,
                  shape: tuple, collar: float) -> tuple:
    """(ascending flat collar cells, nearest atom of each): the cells whose
    center lies within ``collar * h`` of the support.

    Only cells near an atom are searched.  Each atom marks its cell,
    clipped to the box (atoms more than rad = ceil(collar) + 1 cells
    outside the box are dropped), and a (2 rad + 1)^n box dilation of the
    marks gives the candidates.  A cell within collar * h of an atom lies
    within collar + 0.5 cells of it on every axis, so no collar cell is
    missed; the bounded kd query then decides each candidate exactly.
    """
    m = np.asarray(shape)
    rad = math.ceil(collar) + 1
    at = np.floor((sigma.points - lo) / h).astype(np.int64)
    keep = np.all((at >= -rad) & (at < m + rad), axis=1)
    marks = np.zeros(shape, dtype=bool)
    marks[tuple(np.clip(at[keep], 0, m - 1).T)] = True
    cand = np.flatnonzero(ndimage.maximum_filter(marks, size=2 * rad + 1,
                                                 mode="constant"))
    reach = collar * h
    bound = np.nextafter(reach, np.inf)
    dist = np.empty(cand.size)
    near = np.empty(cand.size, dtype=np.int32)
    for c0 in range(0, cand.size, _EVAL_SLAB):
        c1 = min(c0 + _EVAL_SLAB, cand.size)
        dist[c0:c1], near[c0:c1] = sigma.tree.query(
            _cell_centers(lo, h, shape, cand[c0:c1]), workers=-1,
            distance_upper_bound=bound)
    hit = dist <= reach
    return cand[hit], near[hit]


def assemble(sigma: DiscreteMeasure, box, h: float,
             config: SolverConfig | None = None) -> EllipticSystem:
    """Build the truncated system on a cubic box of cell size h.

    The box side is rounded up to a whole number of cells.  Requires
    codimension at least 2 so the complement of the collar stays connected,
    and ``(collar - 0.5) * h >= 2 * spacing`` so every face midpoint is far
    enough from the support for the distance kernel.
    """
    if config is None:
        config = SolverConfig()
    n = sigma.ambient_dim
    d = sigma.intrinsic_dim
    if n > 4:
        raise ParameterError("ambient dimension above 4 is not supported")
    if d >= n - 1:
        raise ParameterError(
            "support must have codimension at least 2 for the truncated "
            f"solver (got d={d}, n={n})")
    if not h > 0:
        raise ParameterError("cell size h must be positive")
    floor_h = config.min_h(sigma.spacing)
    if h < floor_h * (1.0 - 1e-9):
        raise ResolutionError(
            f"face midpoints would sit closer than two spacings to the "
            f"support; need h >= {floor_h:.4g} at collar={config.collar:g}")
    center, side = _as_box(box, n)
    m = max(8, int(math.ceil(side / h - 1e-9)))
    if m ** n > _MAX_CELLS:
        raise ParameterError(f"grid of {m}^{n} cells is too large")
    lo = center - 0.5 * m * h
    shape = (m,) * n
    ncells = m ** n

    coll_cells, coll_near = _collar_cells(sigma, lo, h, shape, config.collar)
    if not coll_cells.size:
        raise DomainError("the box does not reach the support: no collar cells")

    def near(cells):
        """Nearest atoms of the given collar cells."""
        return coll_near[np.searchsorted(coll_cells, cells)]

    mask = np.zeros(ncells, dtype=np.int8)
    mask[coll_cells] = MASK_COLLAR
    maskn = mask.reshape(shape)
    for a in range(n):
        for edge in (0, m - 1):
            layer = maskn[_axis_slice(n, a, edge)]
            layer[layer == MASK_INTERIOR] = MASK_OUTER

    unknown = (maskn != MASK_COLLAR)
    if not unknown.any():
        raise DomainError("the collar fills the whole box; enlarge the box")
    ncomp = ndimage.label(unknown)[1]           # the label grid is not kept
    if ncomp > 1:
        raise TopologyError(
            f"the collar splits the box into {ncomp} components; enlarge "
            "the box or refine h")

    expo = d + 1.0 + config.gamma - n
    scale = h ** (n - 2)
    diag = np.zeros(ncells)
    pinned = ~unknown
    w_pad = []
    # boundary-coupling list (cell, atom, weight), see EllipticSystem
    coupling = [(coll_cells, coll_near, np.ones(coll_cells.size))]

    def _face_weights(flat_idx, axis, shift=0.5, what="face"):
        """Conductances of the faces from the given flat cells to their
        neighbours along axis, forward for shift 0.5, backward for -0.5."""
        out = np.empty(flat_idx.size)
        for s0 in range(0, flat_idx.size, _EVAL_SLAB):
            sl = flat_idx[s0:s0 + _EVAL_SLAB]
            out[s0:s0 + sl.size] = _conductance(
                sigma, _cell_centers(lo, h, shape, sl, axis, shift),
                config.beta, expo, what)
        out *= scale
        return out

    def _cells(sl, where) -> np.ndarray:
        """Ascending flat indices of the cells in the slice ``sl`` of the
        grid at which the ``sl``-shaped bool array ``where`` holds."""
        pad = np.zeros(shape, dtype=bool)
        pad[sl] = where
        return np.flatnonzero(pad)

    for a in range(n):
        fr = _axis_slice(n, a, np.s_[:-1])
        bk = _axis_slice(n, a, np.s_[1:])
        # face (cell, cell + e_a) lives at the front cell's flat index f,
        # its back cell is f + stride; the last layer along a has no face
        # and stays zero
        stride = ncells // m ** (a + 1)
        wp = np.zeros(ncells)
        nz = _cells(fr, ~(pinned[fr] & pinned[bk]))
        if nz.size:
            wp[nz] = _face_weights(nz, a)
        del nz
        uu = _cells(fr, unknown[fr] & unknown[bk])
        uc = _cells(fr, unknown[fr] & pinned[bk])
        cu = _cells(fr, pinned[fr] & unknown[bk])
        # the cells of one call are distinct, so each add is the bincount's
        w = wp[uu]
        np.add.at(diag, uu, w)
        np.add.at(diag, uu + stride, w)
        del w
        np.add.at(diag, uc, wp[uc])
        np.add.at(diag, cu + stride, wp[cu])
        coupling += [(uc, near(uc + stride), wp[uc]),
                     (cu + stride, near(cu), wp[cu])]
        del uu
        wp[uc] = 0.0
        wp[cu] = 0.0
        w_pad.append(wp)

    if config.outer == "dirichlet0":
        # an absorbing wall is a face to a ghost cell held at zero
        for a in range(n):
            for edge, shift in ((0, -0.5), (m - 1, 0.5)):
                sl = _axis_slice(n, a, edge)
                cells = _cells(sl, unknown[sl])
                if cells.size:
                    np.add.at(diag, cells,
                              _face_weights(cells, a, shift, "wall"))

    diag[coll_cells] = 1.0
    if np.any(diag <= 0):
        raise NumericError("isolated cell with no conductance; refine h")
    # store A~ = D^-1/2 A D^-1/2: w[i] / sqrt(d_i d_{i+s}), block by
    # block; the last layer along each axis has no face and stays zero
    buf = np.empty(min(_BLOCK, ncells))
    for a, wp in enumerate(w_pad):
        stride = ncells // m ** (a + 1)
        for s0, s1 in _blocks(0, ncells - stride):
            t = np.multiply(diag[s0:s1], diag[s0 + stride:s1 + stride],
                            out=buf[:s1 - s0])
            np.sqrt(t, out=t)
            np.divide(wp[s0:s1], t, out=wp[s0:s1])

    coupling = tuple(map(np.concatenate, zip(*coupling)))
    return EllipticSystem(sigma, config, lo, h, shape, mask, diag, w_pad,
                          coupling)


# -- harmonic measure --------------------------------------------------------


def _e_mask(e, npts: int) -> np.ndarray:
    e = np.asarray(e)
    if e.dtype == bool:
        if e.shape != (npts,):
            raise InputError(f"set mask must have length {npts}")
        return e
    out = np.zeros(npts, dtype=bool)
    idx = np.asarray(e, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= npts):
        raise InputError("set indices out of range")
    out[idx] = True
    return out


def harmonic_measure(system: EllipticSystem, e, pole
                     ) -> HarmonicMeasureResult:
    """Hitting probability of the atom set e of ``system.sigma`` seen from
    the pole, on the system's grid and solver.

    ``value`` and ``complement_value`` are the pole weights of e and of its
    complement (``EllipticSystem.pole_weights``), so a system makes one
    representer solve per pole, however many sets are priced there.
    ``iterations`` and ``residual`` are that solve's.  ``mass_gap`` is the
    mass the walls absorb, 1 - u(pole) with u the solution for the
    constant datum 1, solved once per system.  Under reflecting walls
    that solve takes no iteration and the gap is 0 up to the rounding of
    the interpolation; under absorbing walls it is the truncation bias.
    The representer's own accuracy is its ``residual``.
    """
    emask = _e_mask(e, system.sigma.points.shape[0])
    pw = system.pole_weights(pole)
    return HarmonicMeasureResult(
        value=pw.value(emask), complement_value=pw.value(~emask),
        mass_gap=1.0 - system._unit_field().interp(pw.pole[None, :])[0],
        pole=pw.pole, iterations=pw.iterations, residual=pw.residual)


# -- scatter diagnostic ------------------------------------------------------


def ainfty_scatter(system: EllipticSystem, ball: Ball, n_sets: int,
                   seed: int, *,
                   extra_sets: Sequence | None = None) -> ScatterResult:
    """Hitting-probability ratio vs mass ratio for random subsets of a ball
    on ``system.sigma``, priced on the system's grid and solver.

    The pole is a deep interior point of the ball.  Row 0 is the full ball,
    exactly (1, 1); the remaining rows are unions of one to five sub-balls
    with radii between r/20 and r/4, seeded for reproducibility.  All rows
    come from a single representer solve, so many balls and seeds share
    one assembled system.
    """
    if n_sets < 1:
        raise ParameterError("n_sets must be at least 1")
    sigma = system.sigma
    npts = sigma.points.shape[0]
    gap = np.linalg.norm(sigma.points - ball.center[None, :], axis=1)
    in_ball = gap <= ball.radius
    atoms_in = np.flatnonzero(in_ball)
    if atoms_in.size < 2:
        raise DegenerateInputError(
            "ball holds fewer than two support atoms; nothing to sample")

    pole = corkscrew_point(sigma, ball, ball.radius / 16.0)
    pw = system.pole_weights(pole.point)
    sigma_ball = float(sigma.weights[in_ball].sum())
    omega_ball = pw.value(in_ball)
    if sigma_ball <= 0 or omega_ball <= 0:
        raise DegenerateInputError(
            "ball carries no mass or no hitting weight; move or enlarge it")

    def ratios(sub) -> tuple:
        """(omega ratio, sigma ratio) of an atom set inside the ball."""
        return (pw.value(sub) / omega_ball,
                float(sigma.weights[sub].sum()) / sigma_ball)

    rng = np.random.default_rng(seed)
    pairs = [(1.0, 1.0)]
    descriptors = ["full"]
    pts_in = sigma.points[atoms_in]
    for _ in range(n_sets):
        k = int(rng.integers(1, 6))
        centers = pts_in[rng.integers(0, atoms_in.size, size=k)]
        radii = rng.uniform(ball.radius / 20.0, ball.radius / 4.0, size=k)
        member = np.zeros(atoms_in.size, dtype=bool)
        for c, r in zip(centers, radii):
            member |= np.linalg.norm(pts_in - c[None, :], axis=1) <= r
        sub = atoms_in[member]
        pairs.append(ratios(sub))
        descriptors.append(f"union,k={k},atoms={sub.size}")
    if extra_sets is not None:
        for i, e in enumerate(extra_sets):
            sub = _e_mask(e, npts) & in_ball
            pairs.append(ratios(sub))
            descriptors.append(f"extra,i={i},atoms={np.count_nonzero(sub)}")
    return ScatterResult(np.asarray(pairs), descriptors, ball, pole,
                         omega_ball, sigma_ball, int(atoms_in.size),
                         pw.iterations, pw.residual)


# -- square function vs suprema ----------------------------------------------


def _masked_gradient_sq(field: GridField) -> np.ndarray:
    """Squared gradient magnitude, one-sided where a neighbor is pinned."""
    u = field.values
    n = u.ndim
    valid = field.mask != MASK_COLLAR
    h = field.h
    total = np.zeros_like(u)
    for a in range(n):
        fr = _axis_slice(n, a, np.s_[:-1])
        bk = _axis_slice(n, a, np.s_[1:])
        vp = np.zeros_like(u)
        hp = np.zeros(u.shape, dtype=bool)
        vm = np.zeros_like(u)
        hm = np.zeros(u.shape, dtype=bool)
        vp[fr] = u[bk]
        hp[fr] = valid[bk]
        vm[bk] = u[fr]
        hm[bk] = valid[fr]
        both = hp & hm
        g = np.where(both, (vp - vm) / (2.0 * h),
                     np.where(hp, (vp - u) / h,
                              np.where(hm, (u - vm) / h, 0.0)))
        total += g * g
    return total


def sn_check(system: EllipticSystem, ball: Ball,
             solution: SolveResult) -> SNResult:
    """Square-function mass on a ball against pointwise and cone suprema
    of one solution on the system's grid.

    Sums the weighted squared gradient over non-pinned cells of B, and
    compares with (sup over 2B)^2 times the ball's mass and with the
    mass-weighted squared cone suprema over the atoms in 2B.  Both
    comparisons hold per ball for one fixed solution, so one solve may be
    shared across balls: only the ball-local sums are computed here.

    The window around 2B is read once, in slabs of leading-axis planes
    of ``_SN_SLAB`` cells, run as at most four tasks
    (``distances._run_units``) so that the memory is a few slabs at any
    worker count.  Each slab returns its B cells' squared gradients, the
    cone maxima of its 2B cells (``carleson.ntmax_family``, over the
    atoms in 2B, which takes the support distances from its own vertex
    distances and queries the support only for the cells where an atom
    outside 2B might be nearer) and their sup of |u|; the maxima
    are maxima over the slabs, and the square function is one C-order sum
    over B's cells, so no result depends on the slabs or the workers and
    no array spans all of 2B's cells.

    Refused: a system coarser than r/32 (``ResolutionError``), a solution
    that does not live on the system's grid (``EllipticSystem.same_grid``;
    ``InputError``) and a grid that does not cover 2B (``DomainError``).
    The gradient weight D_beta^{d+2-n}, beta from the system, is applied
    at every (n, d); at d + 2 = n it is exactly 1.
    """
    sigma = system.sigma
    r = ball.radius
    if system.h > r / 32.0 * (1.0 + 1e-9):
        raise ResolutionError(
            f"ball must be resolved by at least 32 cells per radius "
            f"(h {system.h:g} > r/32 = {r / 32:g})")
    if not system.same_grid(solution.field):
        raise InputError("solution does not match the system's grid")
    fld = solution.field
    box_lo = system.box_lo
    box_hi = system.box_lo + np.asarray(system.shape) * system.h
    if np.any(ball.center - 2.0 * r < box_lo - 1e-9 * system.h) or \
            np.any(ball.center + 2.0 * r > box_hi + 1e-9 * system.h):
        raise DomainError("the grid does not cover the doubled ball")
    n = sigma.ambient_dim
    d = sigma.intrinsic_dim
    verts = np.flatnonzero(
        np.linalg.norm(sigma.points - ball.center[None, :], axis=1) <= 2.0 * r)
    if not verts.size:
        raise DomainError("no support atoms inside 2B")
    cones = carleson.ConeFamily(sigma.points[verts], 2.0,
                                Ball(ball.center, 2.0 * r))

    # restrict to the sub-grid spanning 2B (plus one neighbor layer for
    # the differences) so sharing one big solve across balls stays cheap
    full_ax = fld.axes()
    win = []
    for a in range(n):
        i0 = int(np.searchsorted(full_ax[a], ball.center[a] - 2.0 * r - fld.h))
        i1 = int(np.searchsorted(full_ax[a], ball.center[a] + 2.0 * r + fld.h))
        win.append(slice(max(0, i0 - 1), min(fld.shape[a], i1 + 1)))
    win = tuple(win)
    sub = GridField(np.array([full_ax[a][win[a]][0] - 0.5 * fld.h
                              for a in range(n)]),
                    fld.h, fld.values[win], fld.mask[win])
    sq_off = [(x - c) ** 2 for x, c in zip(sub.axes(), ball.center)]

    # walk the window in slabs of leading-axis planes; with one halo plane
    # on each side a slab's masked gradient equals the whole window's, and
    # the suprema over 2B are maxima of the slabs' own
    plane = int(np.prod(sub.shape[1:]))
    step = max(1, _SN_SLAB // plane)

    def slab(k: int) -> tuple:
        """(squared gradients and window indices of B's cells, sup |u|
        over 2B, cone maxima, empty-cone flags) of slab k's planes."""
        i0, i1 = k * step, min((k + 1) * step, sub.shape[0])
        h0, h1 = max(0, i0 - 1), min(sub.shape[0], i1 + 1)
        grad2 = _masked_gradient_sq(GridField(
            sub.box_lo, sub.h, sub.values[h0:h1], sub.mask[h0:h1]))
        grad2 = grad2[i0 - h0:i1 - h0]
        vals = sub.values[i0:i1]
        dist2 = np.zeros(vals.shape)
        for a in range(n):
            sh = [1] * n
            sh[a] = -1
            dist2 += (sq_off[a][i0:i1] if a == 0 else sq_off[a]).reshape(sh)
        in_b = (dist2 <= r * r) & (sub.mask[i0:i1] != MASK_COLLAR)
        in_2b = dist2 <= 4.0 * r * r
        u_2b = vals[in_2b]
        cells = _cell_centers(sub.box_lo, sub.h, sub.shape,
                              np.flatnonzero(in_2b) + i0 * plane)
        return ((grad2[in_b], np.flatnonzero(in_b) + i0 * plane,
                 float(np.abs(u_2b).max(initial=0.0)))
                + carleson.ntmax_family((cells, u_2b), sigma, cones))

    g2_b, idx_b, sups, nvals, empty = zip(*distances._run_units(
        -(-sub.shape[0] // step), slab, distances._SLAB_TASKS))
    sup = max(sups)
    nvals = np.max(nvals, axis=0)
    empty = np.logical_and.reduce(empty)

    # one sum over B's cells in C order keeps the whole-window bits
    idx_b = np.concatenate(idx_b)
    if idx_b.size:
        wgt = _conductance(
            sigma, _cell_centers(sub.box_lo, sub.h, sub.shape, idx_b),
            system.config.beta, d + 2.0 - n, "gradient")
        square_fn = float(np.sum(np.concatenate(g2_b) * wgt) * fld.h ** n)
    else:
        square_fn = 0.0

    sup_sq = sup * sup * sigma.mass_in_ball(ball.center, r)
    nt_sq = float(np.sum(sigma.weights[verts] * nvals ** 2))

    return SNResult(square_fn, sup_sq, nt_sq, sup, ball,
                    float(system.h), solution.iterations, solution.residual,
                    int(idx_b.size), int(empty.sum()), fld)


# -- persistence -------------------------------------------------------------


def write_field(fld: GridField, bin_path, json_path, mask_path):
    """Flat float64 dump of the values plus an int8 mask dump and a JSON
    sidecar describing the grid."""
    fld.values.astype("<f8").ravel().tofile(bin_path)
    fld.mask.astype("int8").ravel().tofile(mask_path)
    base = os.path.dirname(os.path.abspath(json_path))
    sidecar = {
        "dims": list(fld.shape),
        "box_lo": [float(v) for v in fld.box_lo],
        "h": fld.h,
        "order": "C",
        "dtype": "<f8",
        "values_file": os.path.relpath(os.path.abspath(bin_path), base),
        "mask_file": os.path.relpath(os.path.abspath(mask_path), base),
        "mask_dtype": "int8",
        "mask_encoding": {"0": "interior", "1": "collar", "2": "outer"},
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_field(json_path) -> GridField:
    """Load a field written by write_field; data files resolve relative to
    the sidecar."""
    with open(json_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    base = os.path.dirname(os.path.abspath(str(json_path)))
    shape = tuple(meta["dims"])
    values = np.fromfile(os.path.join(base, meta["values_file"]),
                         dtype=meta["dtype"]).reshape(shape)
    mask = np.fromfile(os.path.join(base, meta["mask_file"]),
                       dtype=meta["mask_dtype"]).reshape(shape)
    return GridField(np.asarray(meta["box_lo"]), float(meta["h"]),
                     values, mask)


def write_scatter(result: ScatterResult, csv_path):
    """CSV dump of the ratio pairs, one row per sampled set.

    Descriptors hold commas, so the csv writer quotes them; each line ends
    in a bare newline.
    """
    with open(str(csv_path), "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["omega_ratio", "sigma_ratio", "descriptor"])
        for (om, sg), desc in zip(result.pairs, result.descriptors):
            wr.writerow([f"{om:.17g}", f"{sg:.17g}", desc])
