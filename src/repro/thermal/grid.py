"""3-D finite-difference steady-state thermal solver.

Replaces Ansys IcePak for the paper's thermal study: the package is
voxelized into a ``nz x ny x nx`` grid of cells, each with its own
thermal conductivity; heat sources are volumetric per cell; the top and
bottom surfaces lose heat by convection to ambient.  Conduction between
adjacent cells uses harmonic-mean conductances (exact for layered
stacks), and the resulting sparse linear system is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


@dataclass
class ThermalSolution:
    """Solved temperature field.

    Attributes:
        temperature_c: Cell temperatures, shape (nz, ny, nx).
        ambient_c: Ambient used.
        total_power_w: Injected power.
    """

    temperature_c: np.ndarray
    ambient_c: float
    total_power_w: float

    def peak(self) -> float:
        """Peak temperature anywhere."""
        return float(self.temperature_c.max())

    def layer(self, z: int) -> np.ndarray:
        """Temperature map of one z layer."""
        return self.temperature_c[z]

    def peak_in(self, z: int, y0: int, y1: int, x0: int,
                x1: int) -> float:
        """Peak temperature in a box of one layer."""
        return float(self.temperature_c[z, y0:y1, x0:x1].max())


class ThermalGrid:
    """Voxel model of a package for FD thermal analysis.

    Args:
        nx: Lateral cells in x.
        ny: Lateral cells in y.
        layer_thickness_m: Thickness of each z layer (bottom first).
        cell_w_m: Cell width (x pitch).
        cell_h_m: Cell height (y pitch).
        ambient_c: Ambient temperature.
    """

    def __init__(self, nx: int, ny: int,
                 layer_thickness_m: Sequence[float],
                 cell_w_m: float, cell_h_m: float,
                 ambient_c: float = 22.0):
        if nx < 2 or ny < 2 or not layer_thickness_m:
            raise ValueError("grid too small")
        if min(layer_thickness_m) <= 0 or cell_w_m <= 0 or cell_h_m <= 0:
            raise ValueError("dimensions must be positive")
        self.nx = nx
        self.ny = ny
        self.nz = len(layer_thickness_m)
        self.dz = np.asarray(layer_thickness_m, dtype=float)
        self.dx = cell_w_m
        self.dy = cell_h_m
        self.ambient_c = ambient_c
        #: Per-cell conductivity (W/mK); default: still air.
        self.k = np.full((self.nz, ny, nx), 0.026)
        #: Per-cell heat source (W).
        self.q = np.zeros((self.nz, ny, nx))
        #: Convection coefficient on the top face of the top layer.
        self.h_top = 10.0
        #: Convection coefficient on the bottom face (board side).
        self.h_bottom = 150.0

    # ------------------------------------------------------------------ #

    def set_region_k(self, z: int, y0: int, y1: int, x0: int, x1: int,
                     k: float) -> None:
        """Set conductivity in a box of one layer."""
        if k <= 0:
            raise ValueError("conductivity must be positive")
        self.k[z, y0:y1, x0:x1] = k

    def set_layer_k(self, z: int, k: float) -> None:
        """Set conductivity of an entire layer."""
        self.set_region_k(z, 0, self.ny, 0, self.nx, k)

    def add_power(self, z: int, y0: int, y1: int, x0: int, x1: int,
                  power_w: float,
                  pattern: Optional[np.ndarray] = None) -> None:
        """Inject power into a box, optionally shaped by a pattern map.

        Args:
            z: Layer index.
            y0: Box bounds (cell indices).
            y1: Box bounds.
            x0: Box bounds.
            x1: Box bounds.
            power_w: Total power to inject.
            pattern: Optional relative-density map resampled to the box
                (e.g. the 8x8 chiplet power map of Fig. 16).
        """
        ny_, nx_ = y1 - y0, x1 - x0
        if ny_ <= 0 or nx_ <= 0:
            raise ValueError("empty power region")
        if pattern is None:
            self.q[z, y0:y1, x0:x1] += power_w / (ny_ * nx_)
            return
        pat = np.asarray(pattern, dtype=float)
        if pat.min() < 0 or pat.sum() <= 0:
            raise ValueError("pattern must be non-negative and non-zero")
        # Nearest-neighbour resample of the pattern onto the box.
        yy = (np.arange(ny_) * pat.shape[0] // ny_).clip(0, pat.shape[0] - 1)
        xx = (np.arange(nx_) * pat.shape[1] // nx_).clip(0, pat.shape[1] - 1)
        resampled = pat[np.ix_(yy, xx)]
        resampled = resampled / resampled.sum() * power_w
        self.q[z, y0:y1, x0:x1] += resampled

    # ------------------------------------------------------------------ #

    def assemble(self) -> Tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """The conduction system ``(A, rhs)`` of :meth:`solve`.

        Cells are numbered ``(z * ny + y) * nx + x``.  Each pair of
        face neighbours couples through ``kh * area / pitch`` with the
        harmonic-mean conductivity ``kh``; the top and bottom layers
        also convect to ambient.  Every diagonal entry is summed in the
        order a cell-by-cell walk in index order adds its terms — the
        couplings to the -z, -y and -x neighbours, then to +x, +y and
        +z, then top convection, then bottom — so the system is
        byte-identical to the one that walk assembles.
        """
        k = self.k
        nz, ny, nx = k.shape
        n = nz * ny * nx
        idx = np.arange(n).reshape(nz, ny, nx)
        dz = self.dz[:, None, None]
        area_z = self.dx * self.dy
        gx = _hmean(k[:, :, :-1], k[:, :, 1:]) * (self.dy * dz) / self.dx
        gy = _hmean(k[:, :-1, :], k[:, 1:, :]) * (self.dx * dz) / self.dy
        gz = (_hmean(k[:-1], k[1:]) * area_z
              / ((dz[:-1] + dz[1:]) / 2.0))

        diag = np.zeros((nz, ny, nx))
        diag[1:] += gz
        diag[:, 1:, :] += gy
        diag[:, :, 1:] += gx
        diag[:, :, :-1] += gx
        diag[:, :-1, :] += gy
        diag[:-1] += gz
        # Convection boundaries (top of top layer, bottom of bottom).
        rhs = np.zeros((nz, ny, nx))
        diag[-1] += self.h_top * area_z
        rhs[-1] += self.h_top * area_z * self.ambient_c
        diag[0] += self.h_bottom * area_z
        rhs[0] += self.h_bottom * area_z * self.ambient_c

        pairs = [(idx[:, :, :-1], idx[:, :, 1:], gx),
                 (idx[:, :-1, :], idx[:, 1:, :], gy),
                 (idx[:-1], idx[1:], gz)]
        a = np.concatenate([p[0].ravel() for p in pairs])
        b = np.concatenate([p[1].ravel() for p in pairs])
        g = np.concatenate([p[2].ravel() for p in pairs])
        rows = np.concatenate([a, b, idx.ravel()])
        cols = np.concatenate([b, a, idx.ravel()])
        vals = np.concatenate([-g, -g, diag.ravel()])
        A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return A, rhs.ravel() + self.q.ravel()

    def solve(self) -> ThermalSolution:
        """Assemble and solve the steady-state conduction problem."""
        A, rhs = self.assemble()
        t = scipy.sparse.linalg.spsolve(A, rhs)
        return ThermalSolution(
            temperature_c=t.reshape(self.nz, self.ny, self.nx),
            ambient_c=self.ambient_c,
            total_power_w=float(self.q.sum()))


def _hmean(a, b):
    """Harmonic mean of two conductivities (series interface);
    elementwise on arrays."""
    return 2.0 * a * b / (a + b)
