"""Step-every-bit reference for the superposition eye engine.

``simulate_eye`` synthesizes the received waveform from a cached
pulse-response bank; this reference forces its full trapezoidal run
(``engine="step"``).  The equivalence tests pin the two at 1e-9.
"""

from __future__ import annotations

from repro.si.eye import EyeResult, simulate_eye


def simulate_eye_scalar(*args, **kwargs) -> EyeResult:
    """Step-every-bit reference for :func:`simulate_eye`.

    Same signature as :func:`simulate_eye` (minus ``engine``); always
    runs the full trapezoidal simulation.
    """
    if "engine" in kwargs:
        raise TypeError("simulate_eye_scalar always uses the stepping "
                        "engine; it takes no 'engine' argument")
    return simulate_eye(*args, engine="step", **kwargs)
