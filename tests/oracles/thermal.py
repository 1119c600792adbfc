"""Cell-by-cell reference assembly of the FD thermal system.

This is the Python triple loop :meth:`repro.thermal.grid.ThermalGrid.solve`
used before its assembly moved onto array expressions
(:meth:`~repro.thermal.grid.ThermalGrid.assemble`).  The package must
reproduce its matrix and right-hand side byte for byte.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse

from repro.thermal.grid import ThermalGrid


def _hmean(a: float, b: float) -> float:
    """Harmonic mean of two conductivities (series interface)."""
    return 2.0 * a * b / (a + b)


def assemble_loop(grid: ThermalGrid
                  ) -> Tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """The conduction system ``(A, rhs)``, assembled one cell at a time."""
    nx, ny, nz = grid.nx, grid.ny, grid.nz

    def index(z: int, y: int, x: int) -> int:
        return (z * ny + y) * nx + x

    n = nz * ny * nx
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(n)
    rhs = np.zeros(n)

    def couple(a: int, b: int, g: float) -> None:
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-g, -g])
        diag[a] += g
        diag[b] += g

    k = grid.k
    for z in range(nz):
        tz = grid.dz[z]
        area_x = grid.dy * tz
        area_y = grid.dx * tz
        area_z = grid.dx * grid.dy
        for y in range(ny):
            for x in range(nx):
                a = index(z, y, x)
                if x + 1 < nx:
                    kh = _hmean(k[z, y, x], k[z, y, x + 1])
                    couple(a, a + 1, kh * area_x / grid.dx)
                if y + 1 < ny:
                    kh = _hmean(k[z, y, x], k[z, y + 1, x])
                    couple(a, index(z, y + 1, x), kh * area_y / grid.dy)
                if z + 1 < nz:
                    dz_pair = (tz + grid.dz[z + 1]) / 2.0
                    kh = _hmean(k[z, y, x], k[z + 1, y, x])
                    couple(a, index(z + 1, y, x), kh * area_z / dz_pair)

    # Convection boundaries (top of top layer, bottom of bottom).
    area_z = grid.dx * grid.dy
    for y in range(ny):
        for x in range(nx):
            top = index(nz - 1, y, x)
            diag[top] += grid.h_top * area_z
            rhs[top] += grid.h_top * area_z * grid.ambient_c
            bot = index(0, y, x)
            diag[bot] += grid.h_bottom * area_z
            rhs[bot] += grid.h_bottom * area_z * grid.ambient_c

    rhs += grid.q.ravel()
    for i, d in enumerate(diag):
        rows.append(i)
        cols.append(i)
        vals.append(d)
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return A, rhs
