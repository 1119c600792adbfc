"""The compiled ``trap_run`` stepper against the numpy stepping loop.

Both engines of :func:`repro.circuit.transient.simulate` must produce
the same bytes: every recorded voltage, every source current, and the
same solver counters.  Each case runs once on the kernel (asserting it
really ran) and once on the numpy loop, on freshly built circuits so
both pay their own factorization.
"""

import copy
import math
from unittest import mock

import numpy as np
import pytest

import repro._ckernel as ckernel
from repro.chiplet.bumps import plan_for_design
from repro.circuit import transient as tr
from repro.circuit.elements import Circuit
from repro.circuit.mna import reset_solver_counters, solver_counters
from repro.circuit.waveforms import dc, pulse, step
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.pi import transient as pi_transient
from repro.si import channel as si_channel
from repro.si.channel import Channel, measure_channel
from repro.si.tline import line_for_spec
from repro.tech.interconnect3d import (cascade, microbump_model,
                                       stacked_via_model, tsv_model)
from repro.tech.interposer import (APX, GLASS_25D, GLASS_3D, SHINKO,
                                   SILICON_25D, get_spec)

_REAL_STEP_COMPILED = tr._TransientSystem.step_compiled


@pytest.fixture
def kernel():
    """The compiled library; skips where no C compiler is available."""
    ckernel._reset_for_tests()
    if ckernel.load_kernel() is None or ckernel.lapack_dgetrs() is None:
        pytest.skip("compiled kernels unavailable")
    yield
    ckernel._reset_for_tests()


def _run(engine, fn, *args, **kwargs):
    """Call ``fn`` with every transient run on one engine.

    ``engine`` is ``"kernel"`` or ``"numpy"``; returns ``(fn's result,
    per-run list of whether the kernel stepped it)``.
    """
    ran = []

    def step_compiled(self, lu, steps):
        ok = engine == "kernel" and _REAL_STEP_COMPILED(self, lu, steps)
        ran.append(ok)
        return ok

    with mock.patch.object(tr._TransientSystem, "step_compiled",
                           step_compiled):
        return fn(*args, **kwargs), ran


def _assert_same_bytes(a, b):
    assert a.time.tobytes() == b.time.tobytes()
    assert list(a.voltages) == list(b.voltages)
    assert list(a.vsource_currents) == list(b.vsource_currents)
    for node in a.voltages:
        assert a.voltages[node].tobytes() == b.voltages[node].tobytes(), \
            node
    for name in a.vsource_currents:
        assert (a.vsource_currents[name].tobytes()
                == b.vsource_currents[name].tobytes()), name


def _compare(build, *args, **kwargs):
    """Kernel vs numpy loop on fresh circuits: bytes and counters."""
    out = {}
    for engine in ("kernel", "numpy"):
        reset_solver_counters()
        res, ran = _run(engine, tr.simulate, build(), *args, **kwargs)
        assert ran == [engine == "kernel"]
        out[engine] = (res, solver_counters())
    _assert_same_bytes(out["kernel"][0], out["numpy"][0])
    assert out["kernel"][1] == out["numpy"][1]
    return out["kernel"][0]


# --------------------------------------------------------------------- #
# Random RLC circuits.
# --------------------------------------------------------------------- #

def _wave(rng):
    kind = rng.integers(3)
    amp = float(rng.uniform(-2.0, 2.0))
    if kind == 0:
        return dc(amp)
    if kind == 1:
        return step(amp, t_start=float(rng.uniform(0, 5e-9)),
                    rise_time=float(rng.uniform(1e-11, 1e-9)))
    return pulse(0.0, amp, float(rng.uniform(0, 2e-9)), 1e-10, 1e-10,
                 float(rng.uniform(1e-9, 4e-9)), 1e-8)


def random_circuit(seed, with_isources):
    """A DC-regular random RLC circuit.

    A resistive spanning tree ties every node to ground; inductors sit
    in series with a resistor (some straight to ground), v-sources drive
    through a source resistor, and capacitors (several per node, some to
    ground) and i-sources land anywhere.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(int(rng.integers(2, 9)))]
    ckt = Circuit(f"rand{seed}")

    def node(ground_p=0.25):
        return "0" if rng.random() < ground_p else \
            nodes[int(rng.integers(len(nodes)))]

    def pair():
        a = node()
        b = node()
        while b == a:
            b = node()
        return a, b

    for i, n in enumerate(nodes):
        other = "0" if i == 0 or rng.random() < 0.3 else \
            nodes[int(rng.integers(i))]
        ckt.add_resistor(f"Rt{i}", n, other, float(rng.uniform(1, 1e3)))
    for k in range(int(rng.integers(1, 4))):
        ckt.add_vsource(f"V{k}", f"s{k}", "0", _wave(rng))
        ckt.add_resistor(f"Rs{k}", f"s{k}", node(0.0),
                         float(rng.uniform(5, 100)))
    for k in range(int(rng.integers(1, 7))):
        ckt.add_capacitor(f"C{k}", *pair(),
                          float(rng.uniform(1e-12, 1e-9)))
    for k in range(int(rng.integers(0, 4))):
        a, b = pair()
        r = float(rng.uniform(0.1, 50))
        l_h = float(rng.uniform(1e-10, 1e-7))
        if rng.random() < 0.5:
            ckt.add_inductor(f"L{k}", a, f"m{k}", l_h)
            ckt.add_resistor(f"Rl{k}", f"m{k}", b, r)
        else:
            ckt.add_resistor(f"Rl{k}", a, f"m{k}", r)
            ckt.add_inductor(f"L{k}", f"m{k}", b, l_h)
    if with_isources:
        for k in range(int(rng.integers(1, 3))):
            ckt.add_isource(f"I{k}", *pair(), _wave(rng))
    return ckt


@pytest.mark.parametrize("seed", range(24))
def test_random_circuits_byte_identical(kernel, seed):
    rng = np.random.default_rng(1000 + seed)
    with_isources = bool(seed % 2)
    probe = random_circuit(seed, with_isources)
    record = None
    if rng.random() < 0.7:
        names = list(probe.nodes)
        record = list(rng.choice(names, size=int(rng.integers(
            1, len(names) + 1)), replace=False)) + ["0"]
    currents = [v.name for v in probe.vsources if rng.random() < 0.6]
    dt = float(rng.uniform(1e-11, 1e-10))
    steps = int(rng.integers(2, 600))
    _compare(lambda: random_circuit(seed, with_isources), dt * steps, dt,
             record=record, record_currents=currents,
             use_ic=bool(rng.random() < 0.5))


@pytest.mark.parametrize("use_ic", [True, False])
def test_two_steps(kernel, use_ic):
    res = _compare(lambda: random_circuit(3, True), 1.2e-10, 1e-10,
                   use_ic=use_ic)
    assert len(res.time) == 2


def test_recorded_ground_reads_zero(kernel):
    res = _compare(lambda: random_circuit(5, True), 5e-8, 1e-10,
                   record=["0", "n0"])
    assert not res.voltage("0").any()


# --------------------------------------------------------------------- #
# The flow's transient circuits.
# --------------------------------------------------------------------- #

def _both_engines(fn):
    """A stand-in for ``simulate`` that runs both engines on copies of
    the circuit, checks bytes and counter deltas, and returns the
    kernel's result."""
    def spy(ckt, *args, **kwargs):
        out = {}
        for engine in ("kernel", "numpy"):
            before = solver_counters()
            res, ran = _run(engine, fn, copy.deepcopy(ckt), *args,
                            **kwargs)
            after = solver_counters()
            assert ran == [engine == "kernel"]
            out[engine] = (res, {k: after[k] - before[k] for k in after})
        _assert_same_bytes(out["kernel"][0], out["numpy"][0])
        assert out["kernel"][1] == out["numpy"][1]
        spy.calls += 1
        return out["kernel"][0]
    spy.calls = 0
    return spy


def test_pi_ladders_byte_identical(kernel, monkeypatch):
    spy = _both_engines(tr.simulate)
    monkeypatch.setattr(pi_transient, "simulate", spy)
    for spec in (GLASS_25D, GLASS_3D, SILICON_25D, SHINKO, APX):
        lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
        mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
        pi_transient.analyze_power_transient(
            build_pdn(place_dies(spec, lp, mp)), 0.376)
    assert spy.calls == 5


def test_channels_byte_identical(kernel, monkeypatch):
    spy = _both_engines(tr.simulate)
    monkeypatch.setattr(si_channel, "simulate", spy)
    monkeypatch.setattr(si_channel, "_CHANNEL_SIM_CACHE", {})
    monkeypatch.setattr(si_channel, "_PADS_REF_CACHE", {})
    spec_3d = get_spec("glass_3d")
    channels = [Channel(f"{s.name}/line", line=line_for_spec(s),
                        length_um=length)
                for s, length in ((GLASS_25D, 3100.0),
                                  (SILICON_25D, 1800.0),
                                  (SHINKO, 4200.0), (APX, 900.0))]
    channels += [
        Channel("ubump", lumped=microbump_model()),
        Channel("tsv2", lumped=cascade(tsv_model(), tsv_model())),
        Channel("svia", lumped=stacked_via_model(
            via_size_um=spec_3d.via_size_um,
            dielectric_thickness_um=spec_3d.dielectric_thickness_um,
            num_layers=spec_3d.metal_layers)),
    ]
    for ch in channels:
        measure_channel(ch)
    # Seven channels plus the one shared pads-only reference.
    assert spy.calls == len(channels) + 1


# --------------------------------------------------------------------- #
# Numpy-loop fallbacks.
# --------------------------------------------------------------------- #

def _mutual_circuit():
    ckt = Circuit("mutual")
    ckt.add_vsource("V", "p", "0",
                    pulse(0, 1, 1e-9, 1e-10, 1e-10, 5e-9, 20e-9))
    ckt.add_resistor("Rp", "p", "a", 10.0)
    ckt.add_inductor("L1", "a", "0", 1e-8)
    ckt.add_inductor("L2", "s", "0", 1e-8)
    ckt.add_mutual("K", "L1", "L2", 0.9)
    ckt.add_resistor("Rs", "s", "0", 50.0)
    ckt.add_capacitor("Cs", "s", "0", 1e-12)
    return ckt


def test_mutual_inductors_take_numpy_loop(kernel):
    res, ran = _run("kernel", tr.simulate, _mutual_circuit(), 40e-9,
                    2e-11, record_currents=["V"])
    assert ran == [False]
    ref, _ = _run("numpy", tr.simulate, _mutual_circuit(), 40e-9, 2e-11,
                  record_currents=["V"])
    _assert_same_bytes(res, ref)


def test_disabled_compiler_takes_numpy_loop(kernel, monkeypatch):
    args = (5e-8, 1e-10)
    compiled, ran = _run("kernel", tr.simulate, random_circuit(7, True),
                         *args, record_currents=["V0"])
    assert ran == [True]
    monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
    ckernel._reset_for_tests()
    fallback, ran = _run("kernel", tr.simulate, random_circuit(7, True),
                         *args, record_currents=["V0"])
    assert ran == [False]
    _assert_same_bytes(compiled, fallback)


# --------------------------------------------------------------------- #
# lu_solve's finiteness check.
# --------------------------------------------------------------------- #

def _turns_bad(value):
    def wave(t):
        return 1.0 if t < 2e-9 else value
    return wave


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["vsource", "isource"])
def test_non_finite_source_raises_in_both(kernel, bad, where):
    def build():
        ckt = random_circuit(11, False)
        if where == "vsource":
            ckt.add_vsource("Vbad", "sb", "0", _turns_bad(bad))
            ckt.add_resistor("Rb", "sb", "n0", 10.0)
        else:
            ckt.add_isource("Ibad", "n0", "0", _turns_bad(bad))
        return ckt

    for engine in ("kernel", "numpy"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _run(engine, tr.simulate, build(), 1e-8, 1e-10)


def test_one_library_behind_both_loaders(kernel):
    from repro.interposer import _mazekernel

    lib = ckernel.load_kernel()
    assert _mazekernel.load_kernel() is lib
    for entry in ("maze_dial", "maze_astar_diag", "trap_run"):
        assert hasattr(lib, entry)
