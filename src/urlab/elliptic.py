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
datum suffices.  The per-atom data g enter only through the right-hand side
C g of one sparse boundary-coupling list C (see ``EllipticSystem``).
Symmetry then gives a *representer* shortcut: a value s . A^-1 C g observed
through an interpolation stencil s equals (C^T A^-1 s) . g, so one solve
with s as right-hand side, then C^T, yields for every support atom at once
the weight with which its datum enters the observed value.  Those weights
evaluate hitting probabilities of arbitrary subsets of the support without
further solves, which is what the scatter diagnostic exploits.

Resolution contract: collar pinning keeps every evaluated face midpoint at
distance at least ``(collar - 0.5) * h`` from the support, and the distance
kernel refuses probes below twice the atom spacing, so ``assemble`` requires
``(collar - 0.5) * h >= 2 * spacing`` up front.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage
from scipy.linalg.blas import daxpy

from . import carleson, distances
from .exceptions import (DegenerateInputError, DomainError, InputError,
                         NumericError, ParameterError, ResolutionError,
                         TopologyError)
from .geometry import Ball, CorkscrewResult, DiscreteMeasure, corkscrew_point

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
_EVAL_SLAB = 2_000_000
_BLOCK = 1 << 15                # cells per matvec block: 256 KB per array


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
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if not -1.0 < self.gamma < 1.0:
            raise ParameterError("gamma must lie strictly between -1 and 1")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        if self.collar < 1.0:
            raise ParameterError("collar must be at least one cell")
        if self.outer not in ("neumann", "dirichlet0"):
            raise ParameterError("outer must be 'neumann' or 'dirichlet0'")
        if self.maxiter is not None and self.maxiter < 1:
            raise ParameterError("maxiter must be positive when given")


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

    def interp(self, x):
        """Multilinear interpolation at points strictly inside the
        cell-center hull."""
        pts = np.asarray(x, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.ambient_dim:
            raise InputError("point dimension does not match the grid")
        vals = self.values.ravel()
        out = np.zeros(pts.shape[0])
        for flat, wt in _stencil(self.box_lo, self.h, self.shape, pts):
            out += wt * vals[flat]
        return float(out[0]) if single else out


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
        e = np.asarray(e)
        if e.dtype == bool:
            return float(self.weights[e].sum())
        return float(self.weights[np.asarray(e, dtype=np.int64)].sum())


@dataclass(frozen=True)
class HarmonicMeasureResult:
    value: float
    complement_value: float
    mass_gap: float
    pole: np.ndarray
    iterations: tuple
    residual: float
    field: GridField


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
        sel = self.pairs[:, 0] < delta
        if not sel.any():
            return 0.0
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
        if self.sup_sq > 0:
            return self.square_fn / self.sup_sq
        return 0.0 if self.square_fn == 0 else math.inf

    def nt_ratio(self) -> float:
        if self.nt_sq > 0:
            return self.square_fn / self.nt_sq
        return 0.0 if self.square_fn == 0 else math.inf


class EllipticSystem:
    """Assembled truncated system on one box; reusable across data.

    State over the flat (C-order) grid cells: ``mask`` (int8 cell roles),
    ``diag`` (the diagonal, 1 on pinned collar rows), ``w_pad`` (per axis,
    the conductances of faces between two unknowns, zero-padded; see
    ``_matvec``) and ``coupling``, the boundary-coupling list ``(cell,
    atom, weight)``: a unit entry per collar cell at its nearest atom, and
    per face between an unknown and a collar cell an entry (unknown cell,
    the collar cell's nearest atom, face weight).  ``_rhs`` and
    ``_collar_functional`` are the two transposes of that one list;
    ``pole_weights`` relies on this to be the exact adjoint of ``solve``.
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
        self._inv_diag = 1.0 / diag
        self._pole_cache: dict = {}
        self._strides = [int(np.prod(shape[a + 1:]))
                         for a in range(len(shape))]
        self._work = np.empty(min(_BLOCK, self.n_cells))

    # -- linear algebra ---------------------------------------------------

    def _matvec(self, x: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """y = A x, one blocked pass over the flat arrays.

        ``w_pad[a]`` holds axis a's conductances on the full grid, zero in
        the last layer along a, so the face between cells i and i + s (s
        the flat stride of axis a) is entry i of one contiguous array.
        Each block of _BLOCK cells computes diag*x and then, axis by axis,
        subtracts the forward term w[i]*x[i+s] and the backward term
        w[i-s]*x[i-s].  Those are the products, in the same order, of a
        sweep of whole-grid slices over the face-shaped ``w_faces`` (the
        padding only subtracts exact zeros), so the result is bit-identical
        to that sweep, but every array streams through the cache once and
        the only temporary is one block-sized buffer.  ``out`` must not
        alias ``x``.
        """
        nc = self.n_cells
        if out is None:
            out = np.empty(nc)
        for lo in range(0, nc, _BLOCK):
            hi = min(lo + _BLOCK, nc)
            np.multiply(self.diag[lo:hi], x[lo:hi], out=out[lo:hi])
            for w, s in zip(self.w_pad, self._strides):
                f_hi = min(hi, nc - s)
                if f_hi > lo:
                    t = self._work[:f_hi - lo]
                    np.multiply(w[lo:f_hi], x[lo + s:f_hi + s], out=t)
                    np.subtract(out[lo:f_hi], t, out=out[lo:f_hi])
                b_lo = max(lo, s)
                if hi > b_lo:
                    t = self._work[:hi - b_lo]
                    np.multiply(w[b_lo - s:hi - s], x[b_lo - s:hi - s], out=t)
                    np.subtract(out[b_lo:hi], t, out=out[b_lo:hi])
        return out

    def _cg(self, b: np.ndarray, x0: np.ndarray) -> tuple:
        """Jacobi-preconditioned conjugate gradients, hand-rolled so the
        stencil matvec is the only per-iteration cost.

        Allocation-free after set-up: A p goes into one preallocated array,
        the x and r updates are in-place BLAS axpy calls, and z and p are
        updated in place.  Stops once |r| <= tol * |b|.
        """
        maxiter = self.config.maxiter
        if maxiter is None:
            maxiter = max(2000, 60 * max(self.shape))
        bnorm = math.sqrt(float(b @ b))
        stop = self.config.tol * bnorm
        x = x0.copy()
        ap = self._matvec(x)
        r = b - ap
        iters = 0
        rnorm = math.sqrt(float(r @ r))
        if rnorm > stop:
            z = r * self._inv_diag
            p = z.copy()
            rz = float(r @ z)
            for iters in range(1, maxiter + 1):
                self._matvec(p, out=ap)
                alpha = rz / float(p @ ap)
                x = daxpy(p, x, a=alpha)
                r = daxpy(ap, r, a=-alpha)
                rnorm = math.sqrt(float(r @ r))
                if rnorm <= stop:
                    break
                np.multiply(r, self._inv_diag, out=z)
                rz_new = float(r @ z)
                np.multiply(p, rz_new / rz, out=p)
                p += z
                rz = rz_new
        residual = rnorm / bnorm if bnorm > 0 else rnorm
        if rnorm > stop and bnorm > 0:
            raise NumericError(
                f"conjugate gradients stopped after {iters} iterations "
                f"with relative residual {residual:.3g}")
        return x, iters, residual

    # -- data plumbing ----------------------------------------------------

    def _g_support(self, g) -> np.ndarray:
        npts = self.sigma.points.shape[0]
        if callable(g):
            vals = np.asarray(g(self.sigma.points), dtype=np.float64)
        elif np.isscalar(g):
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

    def _warm_start(self, fld: GridField) -> np.ndarray:
        """Previous solution interpolated at this grid's cell centers,
        clamped to the source hull (it only seeds the iteration)."""
        if fld.shape == tuple(self.shape) and fld.h == self.h \
                and np.array_equal(fld.box_lo, self.box_lo):
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
        """Solve for the field with the given per-atom boundary data.

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
        x, iters, residual = self._cg(b, x0)
        fld = GridField(self.box_lo.copy(), self.h,
                        x.reshape(self.shape),
                        self.mask.reshape(self.shape).copy())
        return SolveResult(fld, iters, residual, self.n_unknowns)

    def check_pole(self, pole) -> np.ndarray:
        pole = np.asarray(pole, dtype=np.float64)
        if pole.shape != (len(self.shape),):
            raise InputError("pole dimension does not match the grid")
        gap = float(self.sigma.dist_to_support(pole))
        if gap < 4.0 * self.h:
            raise DomainError(
                f"pole must clear the support by four cells "
                f"(gap {gap:.3g} < {4 * self.h:.3g})")
        return pole

    def pole_weights(self, pole) -> PoleWeights:
        """Weights of each atom's datum in the solution value at the pole.

        One symmetric solve with the interpolation stencil as right-hand
        side; afterwards any subset's hitting probability is a plain sum.
        """
        pole = self.check_pole(pole)
        key = pole.tobytes()
        hit = self._pole_cache.get(key)
        if hit is not None:
            return hit
        b = np.zeros(self.n_cells)
        for flat, wt in _stencil(self.box_lo, self.h, self.shape,
                                 pole[None, :]):
            b[flat] += wt
        v, iters, residual = self._cg(b, np.zeros(self.n_cells))
        out = PoleWeights(pole, self._collar_functional(v), iters, residual)
        self._pole_cache[key] = out
        return out


# -- assembly ---------------------------------------------------------------


def _normalize_box(box, n: int) -> tuple:
    try:
        center, side = box
    except (TypeError, ValueError):
        raise InputError("box must be a (center, side) pair") from None
    center = np.asarray(center, dtype=np.float64)
    side = float(side)
    if center.shape != (n,):
        raise InputError(f"box center must have dimension {n}")
    if side <= 0:
        raise ParameterError("box side must be positive")
    return center, side


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
    if h <= 0:
        raise ParameterError("cell size h must be positive")
    floor_h = 2.0 * sigma.spacing / (config.collar - 0.5)
    if (config.collar - 0.5) * h < 2.0 * sigma.spacing * (1.0 - 1e-9):
        raise ResolutionError(
            f"face midpoints would sit closer than two spacings to the "
            f"support; need h >= {floor_h:.4g} at collar={config.collar:g}")
    center, side = _normalize_box(box, n)
    m = max(8, int(math.ceil(side / h - 1e-9)))
    if m ** n > _MAX_CELLS:
        raise ParameterError(f"grid of {m}^{n} cells is too large")
    lo = center - 0.5 * m * h
    shape = (m,) * n
    ncells = m ** n

    # cell-center distances and nearest atoms, slabbed to bound memory;
    # only collar cells read them, so the search stops at the collar radius
    # (misses come back as dist=inf)
    reach = config.collar * h
    bound = np.nextafter(reach, np.inf)
    dist = np.empty(ncells)
    near = np.empty(ncells, dtype=np.int32)
    for c0 in range(0, ncells, _EVAL_SLAB):
        c1 = min(c0 + _EVAL_SLAB, ncells)
        dist[c0:c1], near[c0:c1] = sigma.tree.query(
            _cell_centers(lo, h, shape, np.arange(c0, c1)), workers=-1,
            distance_upper_bound=bound)

    mask = np.zeros(ncells, dtype=np.int8)
    coll = dist <= reach
    if not coll.any():
        raise DomainError("the box does not reach the support: no collar cells")
    mask[coll] = MASK_COLLAR
    maskn = mask.reshape(shape)
    for a in range(n):
        for edge in (0, m - 1):
            layer = maskn[_axis_slice(n, a, edge)]
            layer[layer == MASK_INTERIOR] = MASK_OUTER

    unknown = (maskn != MASK_COLLAR)
    if not unknown.any():
        raise DomainError("the collar fills the whole box; enlarge the box")
    _, ncomp = ndimage.label(unknown)
    if ncomp > 1:
        raise TopologyError(
            f"the collar splits the box into {ncomp} components; enlarge "
            "the box or refine h")

    expo = d + 1.0 + config.gamma - n
    scale = h ** (n - 2)
    diag = np.zeros(ncells)
    idx3 = np.arange(ncells, dtype=np.int64).reshape(shape)
    w_pad = []
    # boundary-coupling list (cell, atom, weight), see EllipticSystem
    coll_cells = np.flatnonzero(coll)
    coupling = [(coll_cells, near[coll_cells], np.ones(coll_cells.size))]

    def _face_weights(flat_idx, axis, shift=0.5, what="face"):
        """Conductances of the faces from the given flat cells to their
        neighbours along axis, forward for shift 0.5, backward for -0.5."""
        out = np.empty(flat_idx.size)
        for s0 in range(0, flat_idx.size, _EVAL_SLAB):
            sl = flat_idx[s0:s0 + _EVAL_SLAB]
            out[s0:s0 + sl.size] = _conductance(
                sigma, _cell_centers(lo, h, shape, sl, axis, shift),
                config.beta, expo, what)
        return out * scale

    for a in range(n):
        fr = _axis_slice(n, a, np.s_[:-1])
        bk = _axis_slice(n, a, np.s_[1:])
        uu = unknown[fr] & unknown[bk]
        uc = unknown[fr] & ~unknown[bk]
        cu = ~unknown[fr] & unknown[bk]
        # face (cell, cell + e_a) lives at the cell's flat index; the last
        # layer along a has no face and stays zero
        i_fr = idx3[fr]
        i_bk = idx3[bk]
        wp = np.zeros(ncells)
        w = wp.reshape(shape)[fr]
        nz = i_fr[uu | uc | cu]
        if nz.size:
            wp[nz] = _face_weights(nz, a)
        diag += np.bincount(i_fr[uu], weights=w[uu], minlength=ncells)
        diag += np.bincount(i_bk[uu], weights=w[uu], minlength=ncells)
        if uc.any():
            diag += np.bincount(i_fr[uc], weights=w[uc], minlength=ncells)
        if cu.any():
            diag += np.bincount(i_bk[cu], weights=w[cu], minlength=ncells)
        coupling += [(i_fr[uc], near[i_bk[uc]], w[uc]),
                     (i_bk[cu], near[i_fr[cu]], w[cu])]
        w[~uu] = 0.0
        w_pad.append(wp)

    if config.outer == "dirichlet0":
        # an absorbing wall is a face to a ghost cell held at zero
        for a in range(n):
            for edge, shift in ((0, -0.5), (m - 1, 0.5)):
                sl = _axis_slice(n, a, edge)
                cells = idx3[sl][unknown[sl]].ravel()
                if cells.size:
                    diag += np.bincount(
                        cells, weights=_face_weights(cells, a, shift, "wall"),
                        minlength=ncells)

    diag[coll] = 1.0
    if np.any(diag <= 0):
        raise NumericError("isolated cell with no conductance; refine h")

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


def _default_box(sigma: DiscreteMeasure) -> tuple:
    span = sigma.points.max(axis=0) - sigma.points.min(axis=0)
    center = 0.5 * (sigma.points.max(axis=0) + sigma.points.min(axis=0))
    side = 1.5 * float(span.max())
    return center, side


def _system_for(sigma: DiscreteMeasure, system: EllipticSystem | None,
                config: SolverConfig | None, box, default_box,
                h: float | None) -> EllipticSystem:
    """The given system, checked to belong to sigma, or else a fresh one
    assembled on ``box`` (else ``default_box``) with cell size h, by
    default the box side / 96."""
    if system is not None:
        if system.sigma is not sigma:
            raise InputError("system was assembled for a different measure")
        return system
    if box is None:
        box = default_box
    if h is None:
        h = _normalize_box(box, sigma.ambient_dim)[1] / 96.0
    return assemble(sigma, box, h, config)


def harmonic_measure(sigma: DiscreteMeasure, e, pole,
                     config: SolverConfig | None = None, *,
                     box=None, h: float | None = None,
                     system: EllipticSystem | None = None
                     ) -> HarmonicMeasureResult:
    """Hitting probability of the atom set e seen from the pole.

    Solves with indicator data for e and for its complement; the two values
    summing to one (under reflecting walls) is reported as ``mass_gap``.
    """
    system = _system_for(sigma, system, config, box, _default_box(sigma), h)
    npts = sigma.points.shape[0]
    emask = _e_mask(e, npts)
    pole = system.check_pole(pole)
    res_e = system.solve(emask.astype(np.float64))
    res_c = system.solve((~emask).astype(np.float64))
    value = res_e.field.interp(pole)
    cvalue = res_c.field.interp(pole)
    return HarmonicMeasureResult(
        value=float(value), complement_value=float(cvalue),
        mass_gap=abs(value + cvalue - 1.0), pole=pole,
        iterations=(res_e.iterations, res_c.iterations),
        residual=max(res_e.residual, res_c.residual),
        field=res_e.field)


# -- scatter diagnostic ------------------------------------------------------


def ainfty_scatter(sigma: DiscreteMeasure, ball: Ball,
                   config: SolverConfig | None = None,
                   n_sets: int = 64, seed: int = 0, *,
                   box=None, h: float | None = None,
                   system: EllipticSystem | None = None,
                   extra_sets: Sequence | None = None) -> ScatterResult:
    """Hitting-probability ratio vs mass ratio for random subsets of a ball.

    The pole is a deep interior point of the ball.  Row 0 is the full ball,
    exactly (1, 1); the remaining rows are unions of one to five sub-balls
    with radii between r/20 and r/4, seeded for reproducibility.  All rows
    come from a single representer solve.
    """
    if n_sets < 1:
        raise ParameterError("n_sets must be at least 1")
    npts = sigma.points.shape[0]
    gap = np.linalg.norm(sigma.points - ball.center[None, :], axis=1)
    atoms_in = np.flatnonzero(gap <= ball.radius)
    if atoms_in.size < 2:
        raise DegenerateInputError(
            "ball holds fewer than two support atoms; nothing to sample")
    system = _system_for(sigma, system, config, box,
                         (ball.center, 7.5 * ball.radius), h)

    pole = corkscrew_point(sigma, ball, ball.radius / 16.0)
    pw = system.pole_weights(pole.point)
    sigma_ball = float(sigma.weights[atoms_in].sum())
    omega_ball = float(pw.weights[atoms_in].sum())
    if sigma_ball <= 0 or omega_ball <= 0:
        raise DegenerateInputError(
            "ball carries no mass or no hitting weight; move or enlarge it")

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
        pairs.append((float(pw.weights[sub].sum()) / omega_ball,
                      float(sigma.weights[sub].sum()) / sigma_ball))
        descriptors.append(f"union,k={k},atoms={sub.size}")
    if extra_sets is not None:
        for i, e in enumerate(extra_sets):
            emask = _e_mask(e, npts)
            emask = emask & np.isin(np.arange(npts), atoms_in)
            sub = np.flatnonzero(emask)
            pairs.append((float(pw.weights[sub].sum()) / omega_ball,
                          float(sigma.weights[sub].sum()) / sigma_ball))
            descriptors.append(f"extra,i={i},atoms={sub.size}")
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


def sn_check(sigma: DiscreteMeasure, ball: Ball,
             config: SolverConfig | None = None, g=None, *,
             h: float | None = None, box=None,
             system: EllipticSystem | None = None,
             solution: SolveResult | None = None) -> SNResult:
    """Square-function mass on a ball against pointwise and cone suprema.

    Solves on a box around 2B, sums the weighted squared gradient over
    non-pinned cells of B, and compares with (sup over 2B)^2 times the
    ball's mass and with the mass-weighted squared cone suprema over the
    atoms in 2B.  Requires at least 32 cells per ball radius.

    Both comparisons hold per ball for one fixed solution, so a solve may
    be shared across balls: pass the assembled ``system`` together with its
    ``solution``, and only the ball-local sums are recomputed.  The grid
    must still cover 2B.  The gradient weight takes beta from the system.
    """
    if g is None and solution is None:
        raise InputError("boundary data g is required")
    r = ball.radius
    if h is None:
        h = system.h if system is not None else r / 32.0
    if h > r / 32.0 * (1.0 + 1e-9):
        raise ResolutionError(
            f"ball must be resolved by at least 32 cells per radius "
            f"(h {h:g} > r/32 = {r / 32:g})")
    system = _system_for(sigma, system, config, box,
                         (ball.center, 4.0 * r + 8.0 * h), h)

    if solution is None:
        sol = system.solve(g)
    else:
        if solution.field.shape != tuple(system.shape) or \
                not np.allclose(solution.field.box_lo, system.box_lo):
            raise InputError("solution does not match the system's grid")
        sol = solution
    fld = sol.field
    box_lo = system.box_lo
    box_hi = system.box_lo + np.asarray(system.shape) * system.h
    if np.any(ball.center - 2.0 * r < box_lo - 1e-9 * system.h) or \
            np.any(ball.center + 2.0 * r > box_hi + 1e-9 * system.h):
        raise DomainError("the grid does not cover the doubled ball")
    n = sigma.ambient_dim
    d = sigma.intrinsic_dim

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
    grad2 = _masked_gradient_sq(sub)

    ax = sub.axes()
    dist2 = np.zeros(sub.shape)
    for a in range(n):
        sh = [1] * n
        sh[a] = -1
        dist2 = dist2 + ((ax[a] - ball.center[a]) ** 2).reshape(sh)
    noncollar = sub.mask != MASK_COLLAR
    in_b = (dist2 <= r * r) & noncollar
    expo2 = d + 2.0 - n
    if np.any(in_b):
        if expo2 == 0.0:
            wgt = 1.0
        else:
            wgt = _conductance(
                sigma, _cell_centers(sub.box_lo, sub.h, sub.shape,
                                     np.flatnonzero(in_b)),
                system.config.beta, expo2, "gradient")
        square_fn = float(np.sum(grad2[in_b] * wgt) * fld.h ** n)
    else:
        square_fn = 0.0

    in_2b = dist2 <= 4.0 * r * r
    sup = float(np.abs(sub.values[in_2b]).max()) if in_2b.any() else 0.0
    mass_b = sigma.mass_in_ball(ball.center, r)
    sup_sq = sup * sup * mass_b

    cells_2b = _cell_centers(sub.box_lo, sub.h, sub.shape,
                             np.flatnonzero(in_2b))
    u_2b = sub.values[in_2b]
    vert_gap = np.linalg.norm(sigma.points - ball.center[None, :], axis=1)
    verts = np.flatnonzero(vert_gap <= 2.0 * r)
    if not verts.size:
        raise DomainError("no support atoms inside 2B")
    cones = carleson.ConeFamily(sigma.points[verts], 2.0,
                                Ball(ball.center, 2.0 * r))
    nvals, empty = carleson.ntmax_family((cells_2b, u_2b), sigma, cones)
    nt_sq = float(np.sum(sigma.weights[verts] * nvals ** 2))

    return SNResult(square_fn, float(sup_sq), nt_sq, sup, ball, float(h),
                    sol.iterations, sol.residual, int(in_b.sum()),
                    int(empty.sum()), fld)


# -- persistence -------------------------------------------------------------


def write_field(fld: GridField, bin_path, json_path=None, mask_path=None):
    """Flat float64 dump of the values plus an int8 mask dump and a JSON
    sidecar describing the grid."""
    bin_path = str(bin_path)
    if json_path is None:
        json_path = bin_path + ".json"
    json_path = str(json_path)
    if mask_path is None:
        mask_path = bin_path + ".mask"
    mask_path = str(mask_path)
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
    """CSV dump of the ratio pairs, one row per sampled set."""
    lines = ["omega_ratio,sigma_ratio,descriptor"]
    for (om, sg), desc in zip(result.pairs, result.descriptors):
        lines.append(f"{om:.17g},{sg:.17g},{desc}")
    with open(str(csv_path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
