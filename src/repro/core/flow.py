"""The chiplet/interposer co-design flow (paper Fig. 4).

:func:`run_design` executes the full flow for one design point:
chipletization, interposer die placement and RDL routing, PDN
construction, SI (worst-net channels + eye diagrams), PI (impedance
profile, IR drop, regulator transient), thermal analysis, and the
full-chip roll-up.  One flow body serves every topology; only the
chipletize step branches — the paper's logic/memory pair
(:func:`build_chiplet` twice, :func:`place_dies`,
:func:`route_interposer`) at the default ``(2, "grid")`` topology, an
N-way partition of the monolithic netlist
(:func:`nway_partition`, :func:`build_chiplet_from_netlist`,
:func:`place_chiplets`, :func:`route_interposer_pins`) otherwise.

Every stage is deterministic, so results are cached.  Every cache — the
in-process one, the persistent disk cache of :func:`run_flow_task` and
:func:`run_designs`, and the serve tier's content store — addresses a
result by one content token: the sha256 of the canonical task JSON plus
:func:`code_version` (:meth:`FlowTaskSpec.cache_token`).

:func:`run_monolithic` implements the 2D-monolithic baseline column of
Table IV: both tiles on a single die, no SerDes/AIB, no interposer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..arch.generate import generate_monolithic_netlist
from ..arch.topology import is_default_topology, validate_topology
from ..chiplet.design import (ChipletResult, build_chiplet,
                              build_chiplet_from_netlist)
from ..chiplet.floorplan import floorplan
from ..chiplet.place import place
from ..chiplet.power import analyze_power, power_density_map
from ..chiplet.route import global_route
from ..chiplet.timing import analyze_timing
from ..circuit.mna import reset_solver_counters, solver_counters
from ..interposer.pdn import PdnStackup, build_pdn
from ..interposer.placement import (InterposerPlacement, place_chiplets,
                                    place_dies)
from ..interposer.routing import (InterposerRoute, PinLink,
                                  route_interposer, route_interposer_pins)
from ..partition.multiway import nway_partition, pairwise_cut_links
from ..pi.impedance import PdnImpedanceReport, analyze_pdn_impedance
from ..pi.irdrop import IrDropReport, solve_plane_ir_drop
from ..pi.transient import PowerTransientReport, analyze_power_transient
from ..si.channel import Channel, ChannelReport, measure_channel
from ..si.crosstalk import coupled_line_for_spec
from ..si.eye import EyeResult, simulate_eye
from ..si.tline import line_for_spec
from ..tech.interconnect3d import (cascade, microbump_model,
                                   stacked_via_model, tsv_model)
from ..tech.interposer import (IntegrationStyle, InterposerSpec, get_spec)
from ..thermal.model import PackageThermalReport, analyze_package_thermal
from .fullchip import (FullChipSummary, full_chip_summary,
                       full_chip_summary_nway)
from .pool import imap_retry


@dataclass
class DesignResult:
    """Everything the flow produced for one design point.

    Attributes mirror the paper's per-design artifacts; the per-table
    accessors format them the way the evaluation section reports them.
    """

    spec: InterposerSpec
    logic: ChipletResult
    memory: ChipletResult
    placement: InterposerPlacement
    route: Optional[InterposerRoute]
    pdn: Optional[PdnStackup]
    pdn_impedance: Optional[PdnImpedanceReport]
    ir_drop: Optional[IrDropReport]
    power_transient: Optional[PowerTransientReport]
    l2m_channel: ChannelReport
    l2l_channel: ChannelReport
    l2m_eye: Optional[EyeResult]
    l2l_eye: Optional[EyeResult]
    thermal: Optional[PackageThermalReport]
    fullchip: FullChipSummary
    #: Wall time per flow stage in seconds (perf harness input); not part
    #: of the design point itself, so it is excluded from comparisons.
    stage_times: Optional[Dict[str, float]] = None
    #: Circuit-solver counters for this run (``mna_factorizations``,
    #: ``mna_solves``, ``transient_factorizations``, ``transient_solves``,
    #: ``robust_fallbacks``); observability only, like ``stage_times``.
    solver_stats: Optional[Dict[str, int]] = None
    #: Per-stage solver-counter deltas (stage name → counter dict), the
    #: breakdown behind ``solver_stats``; observability only.
    stage_solver_stats: Optional[Dict[str, Dict[str, int]]] = None
    #: All implemented parts of an N-chiplet run.  ``None`` at the
    #: default topology, whose chipletize step builds the paper's
    #: logic/memory pair: there ``logic``/``memory`` are the whole
    #: story.  On N-chiplet runs those two fields alias representative
    #: parts out of this tuple.
    chiplets: Optional[Tuple[ChipletResult, ...]] = None
    #: The topology axes this point was run at (see
    #: :mod:`repro.arch.topology`).
    num_chiplets: int = 2
    arrangement: str = "grid"

    def table4_row(self) -> Dict[str, object]:
        """One column of Table IV (interposer design results)."""
        row: Dict[str, object] = {
            "design": self.spec.display_name,
            "footprint_mm": (round(self.placement.width_mm, 2),
                             round(self.placement.height_mm, 2)),
            "area_mm2": round(self.placement.area_mm2, 2),
            "power_mw": round(self.fullchip.total_power_mw, 2),
        }
        if self.route is not None and self.route.routed_nets():
            routed = self.route.routed_nets()
            lengths = [n.length_mm for n in routed]
            row.update({
                "signal_layers": self.route.signal_layers_used,
                "total_wl_mm": round(sum(lengths), 2),
                "min_wl_mm": round(min(lengths), 2),
                "avg_wl_mm": round(sum(lengths) / len(lengths), 2),
                "max_wl_mm": round(max(lengths), 2),
                "via_usage": self.route.total_vias(),
            })
        if self.pdn_impedance is not None:
            row["pdn_impedance_ohm"] = round(
                self.pdn_impedance.z_at_1ghz_ohm, 2)
        if self.power_transient is not None:
            row["settling_time_us"] = round(
                self.power_transient.settling_time_us, 2)
        if self.ir_drop is not None:
            row["ir_drop_mv"] = round(self.ir_drop.worst_drop_mv, 1)
        return row

    def table5_rows(self) -> Dict[str, Dict[str, float]]:
        """The design's two Table V rows (L2M and L2L links)."""
        out = {}
        for label, rep in (("logic_to_mem", self.l2m_channel),
                           ("logic_to_logic", self.l2l_channel)):
            out[label] = {
                "io_delay_ps": round(rep.driver_delay_ps, 2),
                "interconnect_delay_ps": round(
                    rep.interconnect_delay_ps, 2),
                "total_delay_ps": round(rep.total_delay_ps, 2),
                "io_power_uw": round(rep.driver_power_uw, 2),
                "interconnect_power_uw": round(
                    rep.interconnect_power_uw, 2),
                "total_power_uw": round(rep.total_power_uw, 2),
            }
        return out


#: Spec fields that may not be perturbed through ``spec_overrides``
#: (identity/enum fields; sweeping them would not mean anything).
_PROTECTED_SPEC_FIELDS = frozenset({"name", "display_name", "style",
                                    "routing"})

#: Canonical form of a ``spec_overrides`` mapping: a sorted item tuple.
OverridesKey = Tuple[Tuple[str, object], ...]


def _apply_overrides(spec: InterposerSpec,
                     spec_overrides: Mapping[str, object]) -> InterposerSpec:
    """A validated copy of ``spec`` with some fields replaced.

    Raises:
        AttributeError: If an override names a field the spec lacks.
        ValueError: If an override targets an identity field or the
            resulting spec fails validation.
    """
    for field_name in spec_overrides:
        if field_name in _PROTECTED_SPEC_FIELDS:
            raise ValueError(
                f"spec field {field_name!r} cannot be overridden")
        if field_name not in InterposerSpec.__dataclass_fields__:
            raise AttributeError(
                f"InterposerSpec has no field {field_name!r}")
    out = dataclasses.replace(spec, **dict(spec_overrides))
    out.validate()
    return out


# --------------------------------------------------------------------- #
# Content tokens and the two cache tiers.
# --------------------------------------------------------------------- #

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package source.

    Any source edit changes the hash, which invalidates every on-disk
    cache entry written by older code — results can never go stale.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        pkg_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha1()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def content_token(data: Mapping[str, object]) -> str:
    """Content address of a canonical, JSON-safe task description.

    The sha256 of the canonical JSON (sorted keys, no whitespace) and
    the package :func:`code_version`, so a source edit invalidates
    every address.  :meth:`FlowTaskSpec.cache_token` and the serve
    tier's ``EvalRequest.cache_token`` are both this function.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(data, sort_keys=True,
                             separators=(",", ":")).encode())
    digest.update(code_version().encode())
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class FlowTaskSpec:
    """Picklable description of one :func:`run_design` invocation.

    This is the unit of work the multi-design fan-out and the
    design-space explorer ship to worker processes, and the one cache
    address of its result (:meth:`cache_token`).  ``spec_overrides``
    is canonicalized to a sorted item tuple and a registered design
    alias to its canonical name, so equal tasks compare (and hash)
    equal regardless of how they were spelled.
    """

    design: str
    scale: float = 1.0
    seed: int = 2023
    target_frequency_mhz: float = 700.0
    with_eyes: bool = True
    with_thermal: bool = True
    spec_overrides: OverridesKey = ()
    num_chiplets: int = 2
    arrangement: str = "grid"

    def __post_init__(self):
        try:
            object.__setattr__(self, "design", get_spec(self.design).name)
        except KeyError:
            pass  # unknown names stay as given; the flow reports them
        canonical = tuple(sorted(tuple(self.spec_overrides)))
        object.__setattr__(self, "spec_overrides", canonical)
        count, arr = validate_topology(self.num_chiplets, self.arrangement)
        object.__setattr__(self, "num_chiplets", count)
        object.__setattr__(self, "arrangement", arr)

    def cache_token(self) -> str:
        """The content address of this task's result in every cache
        tier (see :func:`content_token`)."""
        return content_token(self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form (round-trips through :meth:`from_dict`).

        This is the wire format the evaluation service
        (:mod:`repro.serve`) submits tasks in; ``spec_overrides``
        becomes a plain mapping, everything else stays scalar.
        """
        return {
            "design": self.design,
            "scale": float(self.scale),
            "seed": int(self.seed),
            "target_frequency_mhz": float(self.target_frequency_mhz),
            "with_eyes": bool(self.with_eyes),
            "with_thermal": bool(self.with_thermal),
            "spec_overrides": dict(self.spec_overrides),
            "num_chiplets": int(self.num_chiplets),
            "arrangement": str(self.arrangement),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowTaskSpec":
        """Build a task from the dict form; unknown keys raise."""
        known = {"design", "scale", "seed", "target_frequency_mhz",
                 "with_eyes", "with_thermal", "spec_overrides",
                 "num_chiplets", "arrangement"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown flow task keys: {', '.join(sorted(unknown))}")
        if "design" not in data:
            raise ValueError("flow task needs a 'design'")
        overrides = data.get("spec_overrides", ())
        if hasattr(overrides, "items"):
            overrides = tuple(sorted(overrides.items()))
        return cls(
            design=str(data["design"]),
            scale=float(data.get("scale", 1.0)),
            seed=int(data.get("seed", 2023)),
            target_frequency_mhz=float(
                data.get("target_frequency_mhz", 700.0)),
            with_eyes=bool(data.get("with_eyes", True)),
            with_thermal=bool(data.get("with_thermal", True)),
            spec_overrides=tuple(overrides),
            num_chiplets=data.get("num_chiplets", 2),
            arrangement=data.get("arrangement", "grid"))


#: In-process result cache: :meth:`FlowTaskSpec.cache_token` →
#: :class:`DesignResult`.
_CACHE: Dict[str, DesignResult] = {}


def clear_cache() -> None:
    """Drop all cached design results (tests use this)."""
    _CACHE.clear()


def flow_cache_dir() -> Optional[Path]:
    """Directory of the persistent result cache, or ``None`` if disabled.

    Defaults to ``results/.flow_cache`` at the repository root; override
    with the ``REPRO_FLOW_CACHE`` environment variable (set it to ``0``
    or an empty string to disable the disk cache entirely).
    """
    env = os.environ.get("REPRO_FLOW_CACHE")
    if env is not None:
        return Path(env) if env not in ("", "0") else None
    return Path(__file__).resolve().parents[3] / "results" / ".flow_cache"


def _disk_path(cache_dir: Path, token: str) -> Path:
    return cache_dir / f"flow-{token}.pkl"


def _disk_load(token: str) -> Optional[DesignResult]:
    cache_dir = flow_cache_dir()
    if cache_dir is None:
        return None
    try:
        with open(_disk_path(cache_dir, token), "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError):
        return None


def _disk_store(token: str, result: DesignResult) -> None:
    cache_dir = flow_cache_dir()
    if cache_dir is None:
        return
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f".{token}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(_disk_path(cache_dir, token))
    except OSError:
        pass  # cache is best-effort; never fail the flow over it


def clear_disk_cache() -> int:
    """Delete all persisted results; returns the number removed."""
    cache_dir = flow_cache_dir()
    removed = 0
    if cache_dir is not None and cache_dir.is_dir():
        for path in cache_dir.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def _cached(task: FlowTaskSpec, disk: bool) -> Optional[DesignResult]:
    """The cached result for ``task``, or ``None``.

    The one lookup rule: the task's exact entry, else — for a partial
    request (eyes or thermal off) — the full run's entry at the same
    point, which supersedes it.  The in-process tier is consulted
    first; with ``disk`` the persistent tier next, and a disk hit is
    remembered in-process under the task's own token.
    """
    tokens = [task.cache_token()]
    if not (task.with_eyes and task.with_thermal):
        tokens.append(dataclasses.replace(
            task, with_eyes=True, with_thermal=True).cache_token())
    for token in tokens:
        hit = _CACHE.get(token)
        if hit is not None:
            return hit
    if disk:
        for token in tokens:
            hit = _disk_load(token)
            if hit is not None:
                _CACHE[tokens[0]] = hit
                return hit
    return None


# --------------------------------------------------------------------- #
# The flow body.
# --------------------------------------------------------------------- #


class _StageClock:
    """Wall time and solver-counter deltas per flow stage.

    Creating one resets the process-wide solver counters, so
    ``solver_counters()`` at the end of a run is that run's total.
    """

    def __init__(self):
        reset_solver_counters()
        self.times: Dict[str, float] = {}
        self.solver: Dict[str, Dict[str, int]] = {}

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Record the enclosed block as stage ``name``."""
        t0 = time.perf_counter()
        before = solver_counters()
        yield
        self.times[name] = time.perf_counter() - t0
        after = solver_counters()
        self.solver[name] = {k: after[k] - before.get(k, 0)
                             for k in after}


def _longest_um(route: InterposerRoute, kind: str) -> Optional[float]:
    """Longest routed length of one net kind in um, or ``None``."""
    lengths = [n.length_mm for n in route.nets if n.kind == kind]
    if not lengths:
        return None
    return max(lengths) * 1000.0


def _channels_for(spec: InterposerSpec,
                  route: Optional[InterposerRoute]
                  ) -> Tuple[Channel, Channel]:
    """Worst-case mixed-kind (l2m) and same-kind (l2l) channels.

    Lengths come from the actual routed interposer (longest net per
    class); 3D designs use the vertical interconnect models.  A link
    class the partition lacks borrows the other's worst length (the
    electrical worst case on the same interposer), and a route whose
    mixed-kind links are all stacked falls back to the vertical via
    model.
    """
    if spec.style is IntegrationStyle.TSV_STACK:
        l2m = Channel(f"{spec.name}/l2m", lumped=microbump_model())
        l2l = Channel(f"{spec.name}/l2l",
                      lumped=cascade(tsv_model(), tsv_model()))
        return l2m, l2l
    assert route is not None
    line = line_for_spec(spec)
    l2m_len = _longest_um(route, "l2m")
    l2l_len = _longest_um(route, "l2l")
    stacked = any(n.kind == "stacked_via" for n in route.nets)
    lateral_worst = max(l2m_len or 0.0, l2l_len or 0.0)

    l2l = Channel(f"{spec.name}/l2l", line=line,
                  length_um=max(l2l_len or lateral_worst, 10.0))
    if l2m_len is None and stacked:
        l2m = Channel(f"{spec.name}/l2m",
                      lumped=stacked_via_model(
                          via_size_um=spec.via_size_um,
                          dielectric_thickness_um=spec.dielectric_thickness_um,
                          num_layers=spec.metal_layers))
    else:
        l2m = Channel(f"{spec.name}/l2m", line=line,
                      length_um=max(l2m_len or lateral_worst, 10.0))
    return l2m, l2l


def _run_flow(task: FlowTaskSpec) -> DesignResult:
    """The flow body behind :func:`run_design`, for every topology.

    Only the chipletize step branches.  The default topology implements
    the paper's logic and memory chiplets, places them per tile and
    routes the paper's fixed link bundles.  Any other topology
    partitions the monolithic two-tile netlist ``num_chiplets`` ways
    (min-cut, see :func:`repro.partition.multiway.nway_partition`),
    implements each part, packs the dies per ``arrangement`` and routes
    the link bundles the partition's pairwise cut counts imply.  Every
    later stage — PDN, PI, SI, thermal, roll-up — is shared.
    """
    clock = _StageClock()
    t_total = time.perf_counter()
    spec = get_spec(task.design)
    if task.spec_overrides:
        spec = _apply_overrides(spec, dict(task.spec_overrides))
    f_mhz = task.target_frequency_mhz

    chiplets: Optional[Tuple[ChipletResult, ...]] = None
    with clock.stage("chiplets"):
        if is_default_topology(task.num_chiplets, task.arrangement):
            logic = build_chiplet("logic", spec, scale=task.scale,
                                  seed=task.seed, target_frequency_mhz=f_mhz)
            memory = build_chiplet("memory", spec, scale=task.scale,
                                   seed=task.seed, target_frequency_mhz=f_mhz)
            placement = place_dies(spec, logic.bump_plan, memory.bump_plan)
            parts = {d.name: logic if d.kind == "logic" else memory
                     for d in placement.dies}
            route_step = functools.partial(
                route_interposer, placement,
                logic.bump_plan.signal_positions(),
                memory.bump_plan.signal_positions())
            rollup = functools.partial(full_chip_summary, logic, memory)
        else:
            system = generate_monolithic_netlist(scale=task.scale,
                                                 seed=task.seed)
            part = nway_partition(system, task.num_chiplets, seed=task.seed)
            chiplets = tuple(
                build_chiplet_from_netlist(
                    system.subset(part.part(i), name=f"chiplet{i}"), spec,
                    target_frequency_mhz=f_mhz)
                for i in range(part.k))
            kinds = [c.kind for c in chiplets]
            placement = place_chiplets(spec, [c.bump_plan for c in chiplets],
                                       kinds, task.arrangement)
            parts = {d.name: chiplets[d.tile] for d in placement.dies}
            links: List[PinLink] = []
            for (i, j), count in sorted(pairwise_cut_links(
                    system, part.assignment).items()):
                kind = "l2m" if kinds[i] != kinds[j] else "l2l"
                links.append((f"chiplet{i}", f"chiplet{j}", kind, count))
            pin_map = {f"chiplet{i}": c.bump_plan.signal_positions()
                       for i, c in enumerate(chiplets)}
            route_step = functools.partial(route_interposer_pins, placement,
                                           pin_map, links)
            rollup = functools.partial(
                full_chip_summary_nway, chiplets,
                l2m_signals=sum(c for _, _, k, c in links if k == "l2m"),
                l2l_signals=sum(c for _, _, k, c in links if k == "l2l"))
            # Representative parts keep the 2-chiplet accessors (tables,
            # sweep metrics) meaningful on N-chiplet results.
            logic = next((c for c in chiplets if c.kind == "logic"),
                         chiplets[0])
            memory = next((c for c in chiplets if c.kind == "memory"),
                          chiplets[-1])
    powers = {name: c.power.total_mw * 1e-3 for name, c in parts.items()}

    route = pdn = pdn_imp = ir = transient = None
    if spec.style is not IntegrationStyle.TSV_STACK:
        with clock.stage("routing"):
            route = route_step()
        if route.stats is not None:
            # Sub-keys ("stage/phase") break the routing stage down;
            # they are excluded from whole-stage accounting sums.
            clock.times["routing/pattern"] = route.stats.pattern_time_s
            clock.times["routing/rrr"] = route.stats.rrr_time_s
            clock.times["routing/maze"] = route.stats.maze_time_s
        with clock.stage("pdn"):
            pdn = build_pdn(placement)
            pdn_imp = analyze_pdn_impedance(pdn)
            ir = solve_plane_ir_drop(placement, pdn, powers)
            transient = analyze_power_transient(pdn, sum(powers.values()))

    with clock.stage("channels"):
        l2m_ch, l2l_ch = _channels_for(spec, route)
        l2m_rep = measure_channel(l2m_ch, f_mhz * 1e6)
        l2l_rep = measure_channel(l2l_ch, f_mhz * 1e6)

    l2m_eye = l2l_eye = None
    if task.with_eyes:
        with clock.stage("eyes"):
            coupled = coupled_line_for_spec(spec)
            l2m_eye, l2l_eye = (
                simulate_eye(line=ch.line, length_um=ch.length_um,
                             lumped=ch.lumped, coupled=coupled, num_bits=64)
                for ch in (l2m_ch, l2l_ch))

    thermal = None
    if task.with_thermal:
        with clock.stage("thermal"):
            maps = {name: power_density_map(c.route, c.power)
                    for name, c in parts.items()}
            thermal = analyze_package_thermal(placement, powers, maps)

    fullchip = rollup(l2m_rep, l2l_rep)
    clock.times["total"] = time.perf_counter() - t_total
    return DesignResult(
        spec=spec, logic=logic, memory=memory, placement=placement,
        route=route, pdn=pdn, pdn_impedance=pdn_imp, ir_drop=ir,
        power_transient=transient, l2m_channel=l2m_rep,
        l2l_channel=l2l_rep, l2m_eye=l2m_eye, l2l_eye=l2l_eye,
        thermal=thermal, fullchip=fullchip, stage_times=clock.times,
        solver_stats=solver_counters(), stage_solver_stats=clock.solver,
        chiplets=chiplets, num_chiplets=task.num_chiplets,
        arrangement=task.arrangement)


def run_design(name: str, scale: float = 1.0, seed: int = 2023,
               target_frequency_mhz: float = 700.0,
               with_eyes: bool = True,
               with_thermal: bool = True,
               use_cache: bool = True,
               spec_overrides: Optional[Mapping[str, object]] = None,
               num_chiplets: int = 2,
               arrangement: str = "grid") -> DesignResult:
    """Run the complete co-design flow for one design point.

    Args:
        name: Design-point name (``"glass_3d"``, ``"silicon_25d"``...);
            registered aliases (``"glass-2.5d"``) name the same point.
        scale: Netlist scale (1.0 = paper-size, tests use small values).
        seed: Determinism seed.
        target_frequency_mhz: Chiplet timing target.
        with_eyes: Run the PRBS eye simulations (the slowest SI step).
        with_thermal: Run the FD thermal solve.
        use_cache: Reuse/populate the in-process result cache.
        spec_overrides: Optional ``InterposerSpec`` field perturbations
            (e.g. ``{"microbump_pitch_um": 50.0}``) applied on top of the
            registered spec — the hook the design-space explorer sweeps
            through.  Identity fields (name/style/routing) are protected.
        num_chiplets: How many chiplets to partition the system into
            (see :mod:`repro.arch.topology`).  The default ``2`` runs
            the paper's logic/memory split; other values N-way-partition
            the monolithic netlist.
        arrangement: Die packing for the N-chiplet path (``grid``,
            ``row``, ``hexagonal``, or ``stacked``).

    Returns:
        A fully populated :class:`DesignResult`.
    """
    task = FlowTaskSpec(
        design=name, scale=scale, seed=seed,
        target_frequency_mhz=target_frequency_mhz, with_eyes=with_eyes,
        with_thermal=with_thermal,
        spec_overrides=tuple((spec_overrides or {}).items()),
        num_chiplets=num_chiplets, arrangement=arrangement)
    if use_cache:
        hit = _cached(task, disk=False)
        if hit is not None:
            return hit
    result = _run_flow(task)
    if use_cache:
        _CACHE[task.cache_token()] = result
    return result


# --------------------------------------------------------------------- #
# Single-point task API (structured error capture).
# --------------------------------------------------------------------- #


@dataclass
class FlowTaskResult:
    """Outcome of one flow task: a result *or* a structured failure.

    Attributes:
        task: The task that produced this outcome.
        result: The design result; ``None`` when the task failed.
        error_type: Exception class name on failure (``None`` on success).
        error_message: ``str(exception)`` on failure.
        error_traceback: Full formatted traceback on failure.
        wall_s: Wall time spent on this task (0 for cache hits).
        cached: Whether the result came from a cache rather than compute.
    """

    task: FlowTaskSpec
    result: Optional[DesignResult] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    error_traceback: Optional[str] = None
    wall_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the task produced a result."""
        return self.error_type is None



def run_flow_task(task: FlowTaskSpec,
                  use_cache: bool = True) -> FlowTaskResult:
    """Execute one flow task; never raises.

    Consults the in-process cache, then the persistent disk cache, then
    computes (and populates both).  Any exception — unknown design,
    invalid override, a numerical failure deep in a flow stage — is
    captured as a structured failure row instead of propagating, so a
    batch of tasks always runs to completion.
    """
    t0 = time.perf_counter()
    try:
        if use_cache:
            hit = _cached(task, disk=True)
            if hit is not None:
                return FlowTaskResult(
                    task=task, result=hit, cached=True,
                    wall_s=time.perf_counter() - t0)
        result = run_design(
            task.design, scale=task.scale, seed=task.seed,
            target_frequency_mhz=task.target_frequency_mhz,
            with_eyes=task.with_eyes, with_thermal=task.with_thermal,
            use_cache=use_cache,
            spec_overrides=dict(task.spec_overrides) or None,
            num_chiplets=task.num_chiplets,
            arrangement=task.arrangement)
        if use_cache:
            _disk_store(task.cache_token(), result)
        return FlowTaskResult(task=task, result=result,
                              wall_s=time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 — the point is to capture
        return FlowTaskResult(
            task=task, error_type=type(exc).__name__,
            error_message=str(exc),
            error_traceback=traceback_module.format_exc(),
            wall_s=time.perf_counter() - t0)


def _run_flow_task_args(args: Tuple[FlowTaskSpec, bool]) -> FlowTaskResult:
    """Worker-process entry point for :func:`run_designs`."""
    task, use_cache = args
    return run_flow_task(task, use_cache=use_cache)


class FlowBatchError(RuntimeError):
    """One or more tasks of a multi-design batch failed.

    Raised only after every task has run, so the completed results (and
    the caches they populated) are never lost to one bad design point.

    Attributes:
        failures: design name → failed :class:`FlowTaskResult`.
        results: design name → completed :class:`DesignResult`.
    """

    def __init__(self, failures: Dict[str, FlowTaskResult],
                 results: Dict[str, DesignResult]):
        self.failures = failures
        self.results = results
        summary = "; ".join(
            f"{name}: {out.error_type}: {out.error_message}"
            for name, out in failures.items())
        super().__init__(
            f"{len(failures)} of {len(failures) + len(results)} design "
            f"task(s) failed ({summary})")


def run_designs(names: Sequence[str], scale: float = 1.0, seed: int = 2023,
                target_frequency_mhz: float = 700.0,
                with_eyes: bool = True, with_thermal: bool = True,
                jobs: int = 1,
                use_cache: bool = True,
                num_chiplets: int = 2,
                arrangement: str = "grid") -> Dict[str, DesignResult]:
    """Run several design points, optionally in parallel worker processes.

    Results are identical to calling :func:`run_design` per name; the
    fan-out only changes wall-clock time.  Design points already in the
    in-process cache or the persistent disk cache (see
    :func:`flow_cache_dir`) are not recomputed.

    A failure in one worker no longer aborts the batch: every task runs
    to completion and the failures are raised afterwards as one
    :class:`FlowBatchError` carrying both the errors and the completed
    results.

    Args:
        names: Design-point names (duplicates are deduplicated).
        scale: Netlist scale shared by all points.
        seed: Determinism seed shared by all points.
        target_frequency_mhz: Chiplet timing target.
        with_eyes: Run the PRBS eye simulations.
        with_thermal: Run the FD thermal solve.
        jobs: Worker processes for cache misses (1 = run serially in
            this process).
        use_cache: Reuse/populate the in-process and disk caches.
        num_chiplets: Chiplet count shared by all points (see
            :func:`run_design`).
        arrangement: Die packing shared by all points.

    Returns:
        Mapping from design name to its :class:`DesignResult`.

    Raises:
        FlowBatchError: If any task failed (after all tasks finished).
    """
    tasks = {n: FlowTaskSpec(design=n, scale=scale, seed=seed,
                             target_frequency_mhz=target_frequency_mhz,
                             with_eyes=with_eyes, with_thermal=with_thermal,
                             num_chiplets=num_chiplets,
                             arrangement=arrangement)
             for n in dict.fromkeys(names)}
    results: Dict[str, DesignResult] = {}
    if use_cache:
        for n, task in tasks.items():
            hit = _cached(task, disk=True)
            if hit is not None:
                results[n] = hit
    misses = [n for n in tasks if n not in results]

    # The persistent pool outlives this call: later fan-outs (and every
    # point of a DSE sweep) reuse the same warm workers.  A worker death
    # mid-batch costs one bounded resubmit of the unfinished suffix, not
    # the whole batch (imap_retry).  Each task persists its own result.
    failures: Dict[str, FlowTaskResult] = {}
    outcomes = imap_retry(_run_flow_task_args,
                          [(tasks[n], use_cache) for n in misses], jobs)
    for n, out in zip(misses, outcomes):
        if not out.ok:
            failures[n] = out
            continue
        results[n] = out.result
        if use_cache:
            _CACHE[tasks[n].cache_token()] = out.result

    if failures:
        raise FlowBatchError(failures, results)
    return {n: results[n] for n in tasks}


@dataclass
class MonolithicResult:
    """The 2D-monolithic baseline (Table IV's first column).

    Attributes:
        footprint_mm: Die edge length.
        area_mm2: Die area.
        total_power_mw: Sign-off power at the target clock.
        fmax_mhz: Achieved frequency.
        cell_count: Netlist size.
        wirelength_m: Routed wirelength.
    """

    footprint_mm: float
    area_mm2: float
    total_power_mw: float
    fmax_mhz: float
    cell_count: int
    wirelength_m: float


def run_monolithic(scale: float = 1.0, seed: int = 2023,
                   target_frequency_mhz: float = 700.0,
                   max_utilization: float = 0.725) -> MonolithicResult:
    """Implement the single-die baseline (no chipletization).

    Die size comes from total cell area at the utilization the paper's
    1.6 x 1.6 mm monolithic floorplan implies.
    """
    netlist = generate_monolithic_netlist(scale=scale, seed=seed)
    core_margin_um = 20.0
    width_um = (math.sqrt(netlist.total_cell_area_um2() / max_utilization)
                + 2 * core_margin_um)
    width_um = max(width_um, 200.0)
    fp = floorplan(netlist, width_um, width_um,
                   core_margin_um=core_margin_um)
    placement = place(netlist, fp)
    route = global_route(placement)
    timing = analyze_timing(route, target_frequency_mhz)
    power = analyze_power(route, frequency_mhz=target_frequency_mhz)
    return MonolithicResult(
        footprint_mm=round(width_um / 1000.0, 2),
        area_mm2=round((width_um / 1000.0) ** 2, 2),
        total_power_mw=power.total_mw,
        fmax_mhz=timing.fmax_mhz,
        cell_count=len(netlist),
        wirelength_m=route.total_wirelength_m())
