"""The package's runtime-compiled C kernels: one library, one loader.

All C entry points live in one translation unit, compiled into one
shared object and loaded through :mod:`ctypes`:

* ``maze_dial`` — Manhattan maze grids.  The distance-field oracle in
  :mod:`repro.interposer.routing` reduces each congestion-aware A* maze
  call to one single-source shortest-path sweep over the A*-reweighted
  grid.  All reweighted edge costs are small integers (lateral 0/2,
  via 3, overflow +12, max 15), which makes a *dial* (bucket-queue)
  Dijkstra the right engine: a circular array of ``max_weight + 1``
  doubly-linked buckets gives O(1) push, pop and decrease-key, so the
  sweep runs in O(V + E·C) with a tiny constant.  Because the kernel
  drains bucket levels in order, it can stop as soon as the goal's
  distance level is fully drained: exactly the states with
  ``dist <= dist(goal)`` are finalized, which is precisely the set the
  oracle's expansion-count and path-reconstruction formulas need.
* ``maze_astar_diag`` — diagonal (organic-interposer) maze grids.  Their
  costs involve sqrt(2) steps and a fractional heuristic, so there is
  no integer reweighting; instead the kernel is a line-for-line port of
  the scalar heap A* (``RoutingGrid.maze_route_scalar``) with the same
  ``(f, g, index)`` keys and the same double arithmetic, returning the
  same path and expansion count.
* ``trap_run`` — the whole time loop of one fixed-step trapezoidal
  transient (:func:`repro.circuit.transient.simulate`), byte-identical
  to its numpy loop: the same operations in the same order, solved
  through the LAPACK ``dgetrs`` that ``scipy.linalg.lu_solve`` calls
  (see :func:`lapack_dgetrs`).

The source is compiled once per toolchain with the system C compiler
into ``<repo>/.build_cache/`` (the file name hashes the source and the
compiler flags, so stale objects are never reused).  Anything going
wrong — no compiler, sandboxed filesystem, exotic platform — degrades
silently to ``None``: Manhattan grids then use the router's scipy
engine, diagonal grids the scalar A* and transients the numpy loop.
Set ``REPRO_NO_CCOMPILE=1`` to disable every kernel explicitly (tests
use this to pin the fallback chains).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

_LOG = logging.getLogger(__name__)

#: Environment switch that disables compilation and loading entirely.
ENV_DISABLE = "REPRO_NO_CCOMPILE"

#: Compiler flags.  ``-ffp-contract=off`` forbids fusing ``a + b * c``
#: into an FMA, which would round differently from the Python and numpy
#: references the kernels must match bit for bit.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_MAZE_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define NB 16  /* circular buckets; > max edge weight (15) */

/* Dial Dijkstra over the maze grid, A*-reweighted toward (ty, tx).
 *
 * State encoding matches the oracle: index = (y * L + l) * nx + x.
 * Even layers route in x, odd layers in y, single-layer grids in both;
 * vias step between adjacent layers.  Edge weight into state u:
 *     lateral: 1 + (coordinate moves toward target ? -1 : +1)
 *              + over_cost * over[u]
 *     via:     via + over_cost * over[u]
 * (the +-1 term is the Manhattan-heuristic reweighting, telescoped).
 *
 * dist/done/nxt/prv/touched are caller-owned scratch arrays of length
 * n; dist must be -1 and done 0 on the first call, and the kernel
 * resets the states it touched at the START of the next call (the
 * caller reads the dist field between calls), passing the previous
 * touched count back in via n_touched_prev.
 *
 * Outputs: out[0] = goal distance (-1 if unreachable),
 *          out[1] = number of finalized states (all with dist <= s),
 *          out[2] = touched count to hand back next call.
 * Returns 0 on success.
 */
int64_t maze_dial(const uint8_t *over,
                  int32_t *dist, uint8_t *done,
                  int32_t *nxt, int32_t *prv, int32_t *touched,
                  int64_t n_touched_prev,
                  int64_t n, int32_t L, int32_t ny, int32_t nx,
                  int32_t start, int32_t ty, int32_t tx,
                  int32_t via, int32_t over_cost,
                  int64_t *out)
{
    int32_t head[NB];
    int64_t nt = 0, pending = 0, finalized = 0, goal_s = -1;
    int64_t level = 0;
    const int32_t nxL = nx * L;
    const int32_t goal = (ty * L) * nx + tx;
    int64_t i;

    for (i = 0; i < n_touched_prev; i++) {
        const int32_t v = touched[i];
        dist[v] = -1;
        done[v] = 0;
    }
    for (i = 0; i < NB; i++)
        head[i] = -1;

#define PUSH(u, d) do { \
        const int32_t b_ = (int32_t)((d) & (NB - 1)); \
        nxt[u] = head[b_]; \
        prv[u] = -1; \
        if (head[b_] >= 0) prv[head[b_]] = (u); \
        head[b_] = (u); \
    } while (0)

#define UNLINK(u, d) do { \
        const int32_t b_ = (int32_t)((d) & (NB - 1)); \
        if (prv[u] >= 0) nxt[prv[u]] = nxt[u]; \
        else head[b_] = nxt[u]; \
        if (nxt[u] >= 0) prv[nxt[u]] = prv[u]; \
    } while (0)

#define RELAX(u, nd) do { \
        const int32_t u_ = (u); \
        if (!done[u_]) { \
            const int32_t d_ = dist[u_]; \
            const int32_t nd_ = (int32_t)(nd); \
            if (d_ < 0) { \
                dist[u_] = nd_; \
                touched[nt++] = u_; \
                PUSH(u_, nd_); \
                pending++; \
            } else if (nd_ < d_) { \
                UNLINK(u_, d_); \
                dist[u_] = nd_; \
                PUSH(u_, nd_); \
            } \
        } \
    } while (0)

    dist[start] = 0;
    touched[nt++] = start;
    PUSH(start, 0);
    pending = 1;

    while (pending > 0) {
        const int32_t b = (int32_t)(level & (NB - 1));
        while (head[b] >= 0) {
            const int32_t v = head[b];
            head[b] = nxt[v];
            if (nxt[v] >= 0) prv[nxt[v]] = -1;
            done[v] = 1;
            pending--;
            finalized++;
            if (v == goal)
                goal_s = level;
            {
                const int32_t x = v % nx;
                const int32_t r = v / nx;
                const int32_t l = r % L;
                const int32_t y = r / L;
                const int lat_x = (L == 1) || (l % 2 == 0);
                const int lat_y = (L == 1) || (l % 2 == 1);
                if (lat_x) {
                    if (x + 1 < nx) {
                        const int32_t u = v + 1;
                        const int64_t w = (x >= tx ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                    if (x > 0) {
                        const int32_t u = v - 1;
                        const int64_t w = (x <= tx ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                }
                if (lat_y) {
                    if (y + 1 < ny) {
                        const int32_t u = v + nxL;
                        const int64_t w = (y >= ty ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                    if (y > 0) {
                        const int32_t u = v - nxL;
                        const int64_t w = (y <= ty ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                }
                if (l + 1 < L) {
                    const int32_t u = v + nx;
                    const int64_t w = via + (over[u] ? over_cost : 0);
                    RELAX(u, level + w);
                }
                if (l > 0) {
                    const int32_t u = v - nx;
                    const int64_t w = via + (over[u] ? over_cost : 0);
                    RELAX(u, level + w);
                }
            }
        }
        if (goal_s >= 0)
            break;
        level++;
    }

    out[0] = goal_s;
    out[1] = finalized;
    out[2] = nt;
    return 0;
}

/* Diagonal-grid A*: a port of the diagonal branch of the scalar
 * reference search (RoutingGrid.maze_route_scalar).
 *
 * State encoding matches the reference: index = (l * ny + y) * nx + x.
 * Every layer moves in all 8 lateral directions (step 1 or sqrt(2));
 * vias step between adjacent layers.  Entering an over-capacity state
 * adds over_cost.  The heuristic is the octile-style
 * h = max(ay, ax) + 0.41421 * min(ay, ax), and every double operation
 * (cost sums, heuristic, f = g + h) is evaluated in the reference's
 * order, so keys agree bit for bit.  The open list is a binary
 * min-heap keyed by (f, g, index) with lazy deletion; a state is only
 * re-pushed with a strictly smaller g, so keys are unique and the pop
 * order -- hence the path and the expansion count -- equals the
 * reference's heapq order.
 *
 * dist (+inf), done (0) and prev are caller-owned scratch arrays of
 * length n; touched records every state whose dist was written, and
 * the kernel restores dist/done for exactly those states before it
 * returns, so the scratch is clean for the next call.  The heap is
 * malloc'd per call and grows on demand.
 *
 * Outputs: path[0 .. out[0]) = goal path from start (out[0] = 0 when
 *          no path was returned: unreachable or budget exhausted),
 *          out[1] = expansions (pops of fresh states, as the reference
 *          counts them; max_nodes + 1 on budget exhaustion).
 * Returns 0 on success, -1 when the heap could not be allocated.
 */
typedef struct { double f, g; int32_t s; } hent_t;

static int hless(const hent_t *a, const hent_t *b)
{
    if (a->f != b->f) return a->f < b->f;
    if (a->g != b->g) return a->g < b->g;
    return a->s < b->s;
}

static double heur(int32_t y, int32_t x, int32_t ty, int32_t tx)
{
    const int32_t ay = y >= ty ? y - ty : ty - y;
    const int32_t ax = x >= tx ? x - tx : tx - x;
    return (double)(ay > ax ? ay : ax)
        + 0.41421 * (double)(ay < ax ? ay : ax);
}

int64_t maze_astar_diag(const uint8_t *over,
                        double *dist, uint8_t *done, int32_t *prev,
                        int32_t *touched, int32_t *path,
                        int32_t L, int32_t ny, int32_t nx,
                        int32_t sy, int32_t sx, int32_t ty, int32_t tx,
                        double via_cost, double over_cost,
                        int64_t max_nodes, int64_t *out)
{
    static const int32_t DY[8] = {0, 0, 1, -1, 1, 1, -1, -1};
    static const int32_t DX[8] = {1, -1, 0, 0, 1, -1, 1, -1};
    const double SQ2 = 1.4142135623730951;  /* math.sqrt(2.0) */
    const int32_t plane = ny * nx;
    const int32_t start = sy * nx + sx;
    const int32_t goal = ty * nx + tx;
    const double via_over = via_cost + over_cost;
    double wlat[8], wlat_over[8];
    int64_t cap = 1024, hn = 0, nt = 0, expansions = 0, plen = 0;
    int64_t i;
    int rc = 0;
    hent_t *heap = (hent_t *)malloc((size_t)cap * sizeof(hent_t));

    if (heap == NULL)
        return -1;
    for (i = 0; i < 8; i++) {
        wlat[i] = (DY[i] && DX[i]) ? SQ2 : 1.0;
        wlat_over[i] = wlat[i] + over_cost;
    }

#define HPUSH(ff, gg, ss) do { \
        hent_t e_; int64_t c_; \
        if (hn == cap) { \
            hent_t *grown_ = (hent_t *)realloc( \
                heap, (size_t)(2 * cap) * sizeof(hent_t)); \
            if (grown_ == NULL) { rc = -1; goto done_; } \
            heap = grown_; \
            cap *= 2; \
        } \
        e_.f = (ff); e_.g = (gg); e_.s = (ss); \
        c_ = hn++; \
        while (c_ > 0) { \
            const int64_t p_ = (c_ - 1) >> 1; \
            if (!hless(&e_, &heap[p_])) break; \
            heap[c_] = heap[p_]; \
            c_ = p_; \
        } \
        heap[c_] = e_; \
    } while (0)

#define HRELAX(u, ng, hh) do { \
        const int32_t u_ = (u); \
        const double ng_ = (ng); \
        if (ng_ < dist[u_]) { \
            if (dist[u_] == INFINITY) touched[nt++] = u_; \
            dist[u_] = ng_; \
            prev[u_] = v; \
            HPUSH(ng_ + (hh), ng_, u_); \
        } \
    } while (0)

    dist[start] = 0.0;
    prev[start] = -1;
    touched[nt++] = start;
    HPUSH(heur(sy, sx, ty, tx), 0.0, start);

    while (hn > 0) {
        const hent_t top = heap[0];
        const int32_t v = top.s;
        const double g = top.g;
        /* pop: sift the last entry down from the root */
        if (--hn > 0) {
            const hent_t last = heap[hn];
            int64_t c = 0;
            for (;;) {
                int64_t k = 2 * c + 1;
                if (k >= hn) break;
                if (k + 1 < hn && hless(&heap[k + 1], &heap[k])) k++;
                if (!hless(&heap[k], &last)) break;
                heap[c] = heap[k];
                c = k;
            }
            heap[c] = last;
        }
        if (done[v])
            continue;
        done[v] = 1;
        expansions++;
        if (expansions > max_nodes)
            break;
        if (v == goal) {
            int32_t s = v;
            while (s >= 0) {
                path[plen++] = s;
                s = prev[s];
            }
            for (i = 0; i < plen / 2; i++) {
                const int32_t t = path[i];
                path[i] = path[plen - 1 - i];
                path[plen - 1 - i] = t;
            }
            break;
        }
        {
            const int32_t l = v / plane;
            const int32_t r = v - l * plane;
            const int32_t y = r / nx;
            const int32_t x = r - y * nx;
            int d;
            for (d = 0; d < 8; d++) {
                const int32_t yy = y + DY[d];
                const int32_t xx = x + DX[d];
                if (yy >= 0 && yy < ny && xx >= 0 && xx < nx) {
                    const int32_t u = v + DY[d] * nx + DX[d];
                    const double w = over[u] ? wlat_over[d] : wlat[d];
                    HRELAX(u, g + w, heur(yy, xx, ty, tx));
                }
            }
            if (l > 0 || l < L - 1) {
                const double hh = heur(y, x, ty, tx);
                if (l > 0) {
                    const int32_t u = v - plane;
                    HRELAX(u, g + (over[u] ? via_over : via_cost), hh);
                }
                if (l < L - 1) {
                    const int32_t u = v + plane;
                    HRELAX(u, g + (over[u] ? via_over : via_cost), hh);
                }
            }
        }
    }

done_:
    for (i = 0; i < nt; i++) {
        dist[touched[i]] = INFINITY;
        done[touched[i]] = 0;
    }
    free(heap);
    out[0] = plen;
    out[1] = expansions;
    return rc;
}
"""

_TRAP_SOURCE = r"""
/* Fixed-step trapezoidal transient stepping: the loop of
 * repro.circuit.transient.simulate for one circuit without mutual
 * inductors, operation for operation.
 *
 * Per step:
 *   z = 0; z[vsrc_rows] = v-source samples
 *   z = z + (isrc_inc @ i-source samples)     (zeroed temporary t)
 *   z = z + (cap_inc @ (cap_g * cap_v + cap_i))
 *   z[ind_rows] = (-ind_g) * ind_i - ind_v
 *   reject a non-finite z (scipy.linalg.lu_solve's check_finite)
 *   x = dgetrs(lu, ipiv, z)                   (in place, in xa)
 *   v_new = cap_diff @ x; cap_i = cap_g * (v_new - cap_v) - cap_i;
 *   cap_v = v_new; ind_v = ind_diff @ x; ind_i = x[ind_rows]
 *   record xa[rec_idx] (xa[n] is the ground slot, always 0) and
 *   x[cur_idx]
 * Each CSR product runs in scipy's csr_matvec order (sum = 0.0, then
 * sum += data[jj] * x[indices[jj]] along the row).
 *
 * Returns 0 on success, the step whose RHS was non-finite (> 0), -1
 * when the scratch could not be allocated, -2 when dgetrs reported an
 * illegal argument.
 */
typedef void (*dgetrs_t)(char *trans, int *n, int *nrhs, double *a,
                         int *lda, int *ipiv, double *b, int *ldb,
                         int *info);

typedef struct {
    const int32_t *indptr;
    const int32_t *indices;
    const double *data;
} csr_t;

typedef struct {
    void *getrs;                /* scipy.linalg.cython_lapack dgetrs */
    int64_t n, steps;
    double *lu;                 /* n x n, Fortran order (lu_factor) */
    int *ipiv;                  /* 1-based pivots (lu_factor's + 1) */
    int64_t n_vsrc;
    const int64_t *vsrc_rows;
    const double *vsrc_samples; /* n_vsrc x steps */
    int64_t n_isrc;
    csr_t isrc_inc;             /* n x n_isrc */
    const double *isrc_samples; /* n_isrc x steps */
    int64_t n_cap;
    csr_t cap_inc;              /* n x n_cap */
    csr_t cap_diff;             /* n_cap x n */
    const double *cap_g;
    double *cap_v, *cap_i;
    int64_t n_ind;
    const int64_t *ind_rows;
    csr_t ind_diff;             /* n_ind x n */
    const double *ind_g;
    double *ind_i, *ind_v;
    int64_t n_rec;
    const int64_t *rec_idx;
    double *v_out;              /* steps x n_rec */
    int64_t n_cur;
    const int64_t *cur_idx;
    double *i_out;              /* steps x n_cur */
} trap_t;

/* y = A @ x for a rows-row CSR matrix; x[k] is read at x[k * stride]. */
static void csr_matvec(const csr_t *a, int64_t rows, const double *x,
                       int64_t stride, double *y)
{
    int64_t i, jj;
    for (i = 0; i < rows; i++) {
        double sum = 0.0;
        for (jj = a->indptr[i]; jj < a->indptr[i + 1]; jj++)
            sum += a->data[jj] * x[(int64_t)a->indices[jj] * stride];
        y[i] = sum;
    }
}

int64_t trap_run(const trap_t *a)
{
    const dgetrs_t getrs = (dgetrs_t)a->getrs;
    const int64_t n = a->n, steps = a->steps;
    int ni = (int)n, nrhs = 1, info = 0;
    char trans = 'N';
    int64_t step, i, k, rc = 0;
    /* xa: solution + ground slot; t: product temporary; h: cap
     * history terms, then the new cap voltages. */
    double *xa = (double *)calloc((size_t)(2 * n + 1 + a->n_cap),
                                  sizeof(double));
    double *t, *h;

    if (xa == NULL)
        return -1;
    t = xa + n + 1;
    h = t + n;
    for (step = 1; step < steps; step++) {
        for (i = 0; i < n; i++)
            xa[i] = 0.0;
        for (k = 0; k < a->n_vsrc; k++)
            xa[a->vsrc_rows[k]] = a->vsrc_samples[k * steps + step];
        if (a->n_isrc) {
            csr_matvec(&a->isrc_inc, n, a->isrc_samples + step, steps, t);
            for (i = 0; i < n; i++)
                xa[i] = xa[i] + t[i];
        }
        if (a->n_cap) {
            for (k = 0; k < a->n_cap; k++)
                h[k] = a->cap_g[k] * a->cap_v[k] + a->cap_i[k];
            csr_matvec(&a->cap_inc, n, h, 1, t);
            for (i = 0; i < n; i++)
                xa[i] = xa[i] + t[i];
        }
        for (k = 0; k < a->n_ind; k++)
            xa[a->ind_rows[k]] = (-a->ind_g[k]) * a->ind_i[k] - a->ind_v[k];
        for (i = 0; i < n; i++) {
            if (!isfinite(xa[i])) {
                rc = step;
                goto done;
            }
        }
        getrs(&trans, &ni, &nrhs, a->lu, &ni, a->ipiv, xa, &ni, &info);
        if (info != 0) {
            rc = -2;
            goto done;
        }
        if (a->n_cap) {
            csr_matvec(&a->cap_diff, a->n_cap, xa, 1, h);
            for (k = 0; k < a->n_cap; k++) {
                a->cap_i[k] = a->cap_g[k] * (h[k] - a->cap_v[k])
                    - a->cap_i[k];
                a->cap_v[k] = h[k];
            }
        }
        if (a->n_ind) {
            csr_matvec(&a->ind_diff, a->n_ind, xa, 1, a->ind_v);
            for (k = 0; k < a->n_ind; k++)
                a->ind_i[k] = xa[a->ind_rows[k]];
        }
        for (k = 0; k < a->n_rec; k++)
            a->v_out[step * a->n_rec + k] = xa[a->rec_idx[k]];
        for (k = 0; k < a->n_cur; k++)
            a->i_out[step * a->n_cur + k] = xa[a->cur_idx[k]];
    }
done:
    free(xa);
    return rc;
}
"""

_SOURCE = _MAZE_SOURCE + _TRAP_SOURCE


class CsrArg(ctypes.Structure):
    """ctypes mirror of the C ``csr_t`` (raw numpy buffer addresses)."""

    _fields_ = [("indptr", ctypes.c_void_p), ("indices", ctypes.c_void_p),
                ("data", ctypes.c_void_p)]


class TrapArgs(ctypes.Structure):
    """ctypes mirror of the C ``trap_t`` argument block of ``trap_run``.

    Pointer fields hold raw addresses of numpy buffers the caller keeps
    alive for the duration of the call.
    """

    _fields_ = [
        ("getrs", ctypes.c_void_p),
        ("n", ctypes.c_int64), ("steps", ctypes.c_int64),
        ("lu", ctypes.c_void_p), ("ipiv", ctypes.c_void_p),
        ("n_vsrc", ctypes.c_int64), ("vsrc_rows", ctypes.c_void_p),
        ("vsrc_samples", ctypes.c_void_p),
        ("n_isrc", ctypes.c_int64), ("isrc_inc", CsrArg),
        ("isrc_samples", ctypes.c_void_p),
        ("n_cap", ctypes.c_int64), ("cap_inc", CsrArg),
        ("cap_diff", CsrArg), ("cap_g", ctypes.c_void_p),
        ("cap_v", ctypes.c_void_p), ("cap_i", ctypes.c_void_p),
        ("n_ind", ctypes.c_int64), ("ind_rows", ctypes.c_void_p),
        ("ind_diff", CsrArg), ("ind_g", ctypes.c_void_p),
        ("ind_i", ctypes.c_void_p), ("ind_v", ctypes.c_void_p),
        ("n_rec", ctypes.c_int64), ("rec_idx", ctypes.c_void_p),
        ("v_out", ctypes.c_void_p),
        ("n_cur", ctypes.c_int64), ("cur_idx", ctypes.c_void_p),
        ("i_out", ctypes.c_void_p),
    ]


_kernel: Optional[ctypes.CDLL] = None
_kernel_tried = False
_dgetrs: Optional[int] = None
_dgetrs_tried = False


def _build_cache_dir() -> Path:
    """Compiled-object cache directory (inside the repository)."""
    return Path(__file__).resolve().parents[2] / ".build_cache"


def _so_name() -> str:
    """Object file name: a hash of the source and the compiler flags.

    The ``mazekernel_`` prefix predates the transient kernel; the
    benchmark harness's priming step looks for it.
    """
    key = "\0".join([_SOURCE] + _CFLAGS)
    return f"mazekernel_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _compile(cache_dir: Path, so_path: Path) -> bool:
    """Compile the kernel source into ``so_path``; False on any failure."""
    compiler = os.environ.get("CC", "cc")
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cache_dir)
        with os.fdopen(fd, "w") as fh:
            fh.write(_SOURCE)
        tmp_so = tmp_c[:-2] + ".so"
        try:
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_so, tmp_c],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                _LOG.debug("C kernel compile failed: %s",
                           proc.stderr.decode(errors="replace"))
                return False
            os.replace(tmp_so, so_path)  # atomic vs concurrent builders
            return True
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    except (OSError, subprocess.SubprocessError):
        return False


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None``.

    The library exposes ``maze_dial``, ``maze_astar_diag`` and
    ``trap_run`` with their ctypes signatures set.  Compiles on first
    use (hashed cache under ``<repo>/.build_cache/``), memoizes the
    library for the process, and returns ``None`` — never raises — when
    the kernels are unavailable for any reason.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if os.environ.get(ENV_DISABLE, "") not in ("", "0"):
        return None
    try:
        cache_dir = _build_cache_dir()
        so_path = cache_dir / _so_name()
        if not so_path.exists() and not _compile(cache_dir, so_path):
            return None
        lib = ctypes.CDLL(str(so_path))
        i32p = ctypes.POINTER(ctypes.c_int32)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        i64p = ctypes.POINTER(ctypes.c_int64)
        lib.maze_dial.restype = ctypes.c_int64
        lib.maze_dial.argtypes = [
            u8p,                                       # over
            i32p, u8p,                                 # dist, done
            i32p, i32p, i32p,                          # nxt, prv, touched
            ctypes.c_int64,                            # n_touched_prev
            ctypes.c_int64, ctypes.c_int32,            # n, L
            ctypes.c_int32, ctypes.c_int32,            # ny, nx
            ctypes.c_int32, ctypes.c_int32,            # start, ty
            ctypes.c_int32,                            # tx
            ctypes.c_int32, ctypes.c_int32,            # via, over_cost
            i64p,                                      # out
        ]
        # Pointer arguments of the diagonal search are raw addresses of
        # persistent numpy buffers (see routing._DiagonalAStar).
        ptr = ctypes.c_void_p
        lib.maze_astar_diag.restype = ctypes.c_int64
        lib.maze_astar_diag.argtypes = [
            ptr,                                       # over
            ptr, ptr, ptr,                             # dist, done, prev
            ptr, ptr,                                  # touched, path
            ctypes.c_int32, ctypes.c_int32,            # L, ny
            ctypes.c_int32,                            # nx
            ctypes.c_int32, ctypes.c_int32,            # sy, sx
            ctypes.c_int32, ctypes.c_int32,            # ty, tx
            ctypes.c_double, ctypes.c_double,          # via, over_cost
            ctypes.c_int64, ptr,                       # max_nodes, out
        ]
        lib.trap_run.restype = ctypes.c_int64
        lib.trap_run.argtypes = [ctypes.POINTER(TrapArgs)]
        _kernel = lib
    except (OSError, AttributeError):
        _kernel = None
    return _kernel


def lapack_dgetrs() -> Optional[int]:
    """Address of the ``dgetrs`` that ``scipy.linalg.lu_solve`` runs.

    ``scipy.linalg.cython_lapack`` exports its LAPACK wrappers as
    PyCapsules; its ``dgetrs`` and the f2py ``getrs`` behind
    ``lu_solve`` call the same routine of scipy's bundled LAPACK, so a
    C loop solving through this pointer reproduces ``lu_solve`` bit for
    bit.  Memoized; ``None`` when the capsule cannot be read.
    """
    global _dgetrs, _dgetrs_tried
    if _dgetrs_tried:
        return _dgetrs
    _dgetrs_tried = True
    try:
        from scipy.linalg import cython_lapack
        capsule = cython_lapack.__pyx_capi__["dgetrs"]
        api = ctypes.pythonapi
        api.PyCapsule_GetName.restype = ctypes.c_char_p
        api.PyCapsule_GetName.argtypes = [ctypes.py_object]
        api.PyCapsule_GetPointer.restype = ctypes.c_void_p
        api.PyCapsule_GetPointer.argtypes = [ctypes.py_object,
                                             ctypes.c_char_p]
        _dgetrs = api.PyCapsule_GetPointer(
            capsule, api.PyCapsule_GetName(capsule)) or None
    except (ImportError, AttributeError, KeyError, ValueError):
        _dgetrs = None
    return _dgetrs


def _reset_for_tests() -> None:
    """Forget the memoized kernel (so env-var gates can be re-tested)."""
    global _kernel, _kernel_tried
    _kernel = None
    _kernel_tried = False
