"""Superposition eye engine pinned to the stepping reference.

The acceptance bar for the pulse-response engine: on every design's
channels, ``simulate_eye`` (auto engine) must match
``simulate_eye_scalar`` (full trapezoidal stepping, ``tests/oracles``) to ≤1e-9 — on the
folded envelopes, not just the scalar metrics.
"""

import numpy as np
import pytest

from repro.core.flow import _channels_for
from repro.interposer.placement import place_dies
from repro.interposer.routing import route_interposer
from repro.si.crosstalk import coupled_line_for_spec
from repro.si.eye import simulate_eye
from repro.tech.interposer import IntegrationStyle, get_spec, spec_names
from tests.oracles.eye import simulate_eye_scalar


def _design_channels(name):
    """The design's L2M/L2L channels at a small test scale."""
    from repro.chiplet.design import build_chiplet

    spec = get_spec(name)
    route = None
    if spec.style is not IntegrationStyle.TSV_STACK:
        logic = build_chiplet("logic", spec, scale=0.015, seed=2023)
        memory = build_chiplet("memory", spec, scale=0.015, seed=2023)
        placement = place_dies(spec, logic.bump_plan, memory.bump_plan)
        route = route_interposer(placement,
                                 logic.bump_plan.signal_positions(),
                                 memory.bump_plan.signal_positions())
    return spec, _channels_for(spec, route)


def _envelope_diff(a, b):
    """Max abs difference between two envelopes, NaN-pattern checked."""
    assert np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a[mask] - b[mask])))


@pytest.mark.parametrize("name", spec_names())
def test_auto_engine_matches_scalar_on_design_channels(name):
    spec, (l2m, l2l) = _design_channels(name)
    coupled = coupled_line_for_spec(spec)
    for ch in (l2m, l2l):
        kwargs = dict(line=ch.line, length_um=ch.length_um,
                      lumped=ch.lumped, coupled=coupled, num_bits=24)
        auto = simulate_eye(**kwargs)
        ref = simulate_eye_scalar(**kwargs)
        assert _envelope_diff(auto.high_min, ref.high_min) <= 1e-9
        assert _envelope_diff(auto.low_max, ref.low_max) <= 1e-9
        assert auto.eye_width_ns == pytest.approx(ref.eye_width_ns,
                                                  abs=1e-9)
        assert auto.eye_height_v == pytest.approx(ref.eye_height_v,
                                                  abs=1e-9)


def test_scalar_wrapper_rejects_engine_kwarg():
    with pytest.raises(TypeError, match="engine"):
        simulate_eye_scalar(lumped=None, engine="auto")


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="engine"):
        simulate_eye(length_um=100.0, engine="banana")
