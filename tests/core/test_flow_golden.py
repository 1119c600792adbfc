"""Golden digests: every flow path pinned to fixed result bytes.

Each digest is the sha256 of a design result's canonical pickle (see
:func:`canonical_result_bytes`) with run-to-run observability stripped.
The six paper packages run the default 2-chiplet topology; the three
N-chiplet points cover the hexagonal packing, the embedded stack and
the TSV column.  A refactor of the flow must leave every digest as it
is; a change that moves results on purpose updates them and says why.
"""

import dataclasses
import hashlib

import pytest

from repro.core.flow import run_design
from repro.serve.protocol import canonical_dumps

SEED = 7

#: Paper packages at the default topology (scale 0.012, eyes+thermal).
PAPER_SCALE = 0.012
PAPER_DIGESTS = {
    "glass_25d": "6894dc85daa8a592",
    "glass_3d": "78c21499581bf3bb",
    "silicon_25d": "5ae67ddc88888bfc",
    "silicon_3d": "e1199d43e37ffe6b",
    "shinko": "0e7615f050a08156",
    "apx": "55d200564fafbefc",
}

#: N-chiplet points (scale 0.02, eyes+thermal).
NCHIPLET_SCALE = 0.02
NCHIPLET_DIGESTS = {
    ("glass_25d", 9, "hexagonal"): "83389d04caa78037",
    ("glass_3d", 4, "stacked"): "c419f2b1847f573c",
    ("silicon_3d", 4, "grid"): "3662640be4c57024",
}


def canonical_result_bytes(result) -> bytes:
    """Canonical pickle of a result without wall times, solver counters
    and router timing stats — everything left must be a pure function
    of the design point."""
    route = result.route
    if route is not None and route.stats is not None:
        route = dataclasses.replace(route, stats=None)
    return canonical_dumps(dataclasses.replace(
        result, route=route, stage_times=None, solver_stats=None,
        stage_solver_stats=None))


def _digest(result) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()[:16]


@pytest.mark.parametrize("design", sorted(PAPER_DIGESTS))
def test_paper_design_digest(design):
    result = run_design(design, scale=PAPER_SCALE, seed=SEED,
                        use_cache=False)
    assert _digest(result) == PAPER_DIGESTS[design]
    assert result.chiplets is None  # the paper's logic/memory pair
    assert result.num_chiplets == 2
    assert result.arrangement == "grid"


@pytest.mark.parametrize("design,count,arrangement",
                         sorted(NCHIPLET_DIGESTS))
def test_nchiplet_digest(design, count, arrangement):
    result = run_design(design, scale=NCHIPLET_SCALE, seed=SEED,
                        num_chiplets=count, arrangement=arrangement,
                        use_cache=False)
    assert _digest(result) == NCHIPLET_DIGESTS[(design, count, arrangement)]
    assert result.chiplets is not None and len(result.chiplets) == count
    assert result.num_chiplets == count
    assert result.arrangement == arrangement
