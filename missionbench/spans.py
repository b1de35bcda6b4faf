"""Outside-in span recording around the payload stack's layer entry points.

The benchmark times layers without touching ``src/``: while a
:class:`SpanRecorder` is installed, each public entry point named in
:data:`LAYERS` is replaced, *where callers look it up*, by a wrapper
that records one span ``[layer, start, end, parent, attrs]``.  Spans
stay in memory; :meth:`SpanRecorder.dump` writes them out at the end.

A layer's self time is its span time minus the time of its direct child
spans.  The mission root span belongs to ``scenarios.runner``, so that
layer's self time is the residual of ``run_scenario`` (frame loop, noise
synthesis, payload glue, sim kernel, trace hashing), and the self times
of all layers add up to the mission wall time exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

RUNNER = "scenarios.runner"


@dataclass(frozen=True)
class Layer:
    """One traced layer: where to wrap it and what it should move."""

    name: str
    #: ``("module", "Class.method")`` or ``("module", "function")``
    entry_points: Tuple[Tuple[str, str], ...]
    #: end-to-end metrics a change to this layer should move
    moves: Tuple[str, ...]
    #: workloads on which the layer carries that weight
    workloads: Tuple[str, ...]
    #: extra per-layer metrics ``(name, unit, numerator, denominator)``
    #: over summed span attrs; the denominator ``"calls"`` counts spans
    #: and ``None`` divides by the number of missions
    extras: Tuple[Tuple[str, str, str, Optional[str]], ...] = ()


E2E_THROUGHPUT = ("carrier_frames_per_s",)
E2E_MISSION = ("mission_s.p50",)

#: the layer -> end-to-end metric -> workload map the benchmark predicts
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "robustness.fdir.world",
        (("repro.robustness.fdir.chaos", "build_traffic_world"),),
        ("setup_s",),
        ("golden-corpus",),
    ),
    Layer(
        "fpga.memory",
        (
            ("repro.fpga.memory", "OnboardMemory.store"),
            ("repro.fpga.memory", "OnboardMemory.load"),
        ),
        ("setup_s", "mission_s.p50"),
        ("golden-corpus",),
        (("bytes", "bytes/mission", "bytes", None),),
    ),
    Layer(
        "coding.encode",
        (("repro.coding.umts", "TransportChain.encode"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
    ),
    Layer(
        "dsp.tdma.transmit",
        (("repro.dsp.tdma", "TdmaModem.transmit"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
    ),
    Layer(
        "dsp.demux.multiplex",
        (("repro.dsp.demux", "multiplex_carriers"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
    ),
    Layer(
        "dsp.adc",
        (("repro.dsp.adc", "Adc.convert"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
    ),
    Layer(
        "dsp.demux.channelizer",
        (("repro.dsp.demux", "PolyphaseChannelizer.process"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
    ),
    Layer(
        "dsp.tdma.receive",
        (("repro.dsp.tdma", "TdmaModem.receive"),),
        E2E_THROUGHPUT,
        ("uplink-wide", "golden-corpus"),
        (("sync_ok_ratio", "ratio", "ok", "calls"),),
    ),
    Layer(
        "coding.decode.conv",
        (("repro.coding.umts", "TransportChain.decode_batch"),),
        E2E_THROUGHPUT,
        ("uplink-wide",),
        (
            ("blocks", "blocks/mission", "blocks", None),
            ("crc_ok_ratio", "ratio", "crc_ok", "blocks"),
        ),
    ),
    Layer(
        "coding.decode.turbo",
        (),  # shares the conv entry point; tagged by the chain's scheme
        E2E_THROUGHPUT + E2E_MISSION,
        ("turbo-uplink",),
        (
            ("blocks", "blocks/mission", "blocks", None),
            ("crc_ok_ratio", "ratio", "crc_ok", "blocks"),
        ),
    ),
    Layer(
        "robustness.fdir",
        (
            ("repro.robustness.fdir.arbiter", "FdirArbiter.step"),
            ("repro.robustness.fdir.degraded", "DegradedModePolicy.update"),
            ("repro.robustness.fdir.health", "HealthMonitorBank.observe_burst"),
            ("repro.robustness.fdir.health", "HealthMonitorBank.observe_decode"),
        ),
        E2E_MISSION,
        ("golden-corpus",),
    ),
    Layer(
        "robustness.overload",
        (
            ("repro.robustness.overload.admission", "AdmissionController.admit"),
            ("repro.robustness.overload.queues", "CoDelQueue.offer"),
            ("repro.robustness.overload.queues", "CoDelQueue.poll_with_sojourn"),
            ("repro.robustness.overload.brownout", "BrownoutLadder.update"),
        ),
        E2E_MISSION,
        ("golden-corpus",),
        (("admit_ratio", "ratio", "admitted", "admits"),),
    ),
    Layer(
        "core.reconfig",
        (("repro.core.reconfig", "ReconfigurationManager.execute"),),
        E2E_MISSION,
        ("golden-corpus", "turbo-uplink"),
        (("ok_ratio", "ratio", "ok", "calls"),),
    ),
    Layer(
        "net.simnet",
        (("repro.net.simnet", "Link.transmit"),),
        E2E_MISSION,
        ("golden-corpus",),
        (("bytes", "bytes/mission", "bytes", None),),
    ),
    Layer(RUNNER, (), ("carrier_frames_per_s", "mission_s.p50"), ("*",)),
)

def _attrs_for(layer: str, qualname: str) -> Callable:
    """``(args, result) -> attrs`` for the counts a layer's extras need."""
    if layer == "fpga.memory":
        if qualname.endswith(".store"):
            return lambda args, out: {"bytes": len(args[2])}
        return lambda args, out: {"bytes": len(out)}
    if layer == "dsp.tdma.receive":
        return lambda args, out: {"ok": 1}
    if layer == "coding.decode.conv":
        def decode_attrs(args, out):
            crc = out["crc_ok"]
            blocks = len(out["bits"])
            return {"blocks": blocks, "crc_ok": blocks if crc is None else int(crc.sum())}
        return decode_attrs
    if qualname == "AdmissionController.admit":
        return lambda args, out: {"admits": 1, "admitted": int(bool(out))}
    if layer == "core.reconfig":
        return lambda args, out: {"ok": int(bool(out.success))}
    if layer == "net.simnet":
        return lambda args, out: {"bytes": len(args[2])}
    return lambda args, out: None


def _layer_of(layer: str, qualname: str) -> Callable:
    """``(args) -> layer name``; tags the decoder by the chain's scheme."""
    if qualname == "TransportChain.decode_batch":
        return lambda args: (
            "coding.decode.turbo"
            if args[0].scheme.value == "turbo"
            else "coding.decode.conv"
        )
    return lambda args: layer


class SpanRecorder:
    """In-memory span log plus the patches that feed it.

    Use as a context manager: entering wraps every entry point in
    :data:`LAYERS`, leaving restores the originals.  Spans recorded
    across several installs accumulate in :attr:`spans`.
    """

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index, attrs]`` in start order
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def span(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
             attrs_of: Callable = lambda args, out: None):
        """Call ``fn(*args, **kwargs)`` inside one span of ``layer``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [layer, 0.0, 0.0, parent, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[2] = perf_counter()
            rec[4] = {"raised": 1}
            raise
        finally:
            self._stack.pop()
        rec[2] = perf_counter()
        rec[4] = attrs_of(args, out)
        return out

    def mission(self, name: str, fn: Callable, *args):
        """Run one mission under a root span of the runner layer."""
        return self.span(RUNNER, fn, args, {}, lambda a, out: {"mission": name})

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        attrs_of = _attrs_for(layer, qualname)
        layer_of = _layer_of(layer, qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer_of(args), fn, args, kwargs, attrs_of)

        return traced

    # -- patching ----------------------------------------------------------
    def __enter__(self) -> "SpanRecorder":
        for layer in LAYERS:
            for module_name, qualname in layer.entry_points:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__.get(attr)
                    fn = getattr(cls, attr)
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(layer.name, qualname, fn))
                else:
                    self._patch_function(layer.name, qualname, getattr(module, qualname))
        return self

    def _patch_function(self, layer: str, name: str, fn: Callable) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that imported it."""
        traced = self._wrap(layer, name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(module, name, None) is fn:
                self._undo.append((module, name, fn))
                setattr(module, name, traced)

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every span as gzipped JSON (one list per span)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    self_t = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t


def mission_of(spans: List[list]) -> List[str]:
    """Name of the mission whose root span encloses each span."""
    out: List[str] = []
    for _layer, _start, _end, parent, attrs in spans:
        out.append(attrs["mission"] if parent < 0 else out[parent])
    return out


def layer_totals(spans: List[list], self_t: List[float],
                 keep: Optional[Callable[[int], bool]] = None) -> Dict[str, dict]:
    """Per layer: calls, summed self time and summed attrs."""
    out = {layer.name: {"calls": 0, "self_s": 0.0, "attrs": {}} for layer in LAYERS}
    for i, (layer, _start, _end, _parent, attrs) in enumerate(spans):
        if keep is not None and not keep(i):
            continue
        row = out[layer]
        row["calls"] += 1
        row["self_s"] += self_t[i]
        for key, val in (attrs or {}).items():
            if key != "mission":
                row["attrs"][key] = row["attrs"].get(key, 0) + val
    return out


def per_layer_metrics(totals: Dict[str, dict], missions: int,
                      wall_s: float) -> Dict[str, dict]:
    """The ``per_layer`` metric dict: calls and self time per mission,
    share of mission wall time, and each layer's extras."""
    m: Dict[str, dict] = {}
    for layer in LAYERS:
        row = totals[layer.name]
        m[f"{layer.name}.calls"] = {"value": row["calls"] / missions, "unit": "calls/mission"}
        m[f"{layer.name}.self_s"] = {"value": row["self_s"] / missions, "unit": "s/mission"}
        m[f"{layer.name}.share"] = {"value": row["self_s"] / wall_s, "unit": "ratio"}
        for name, unit, num, den in layer.extras:
            top = row["attrs"].get(num, 0)
            if den is None:
                value = top / missions
            else:
                bottom = row["calls"] if den == "calls" else row["attrs"].get(den, 0)
                value = top / bottom if bottom else 0.0
            m[f"{layer.name}.{name}"] = {"value": value, "unit": unit}
    return m


def format_table(totals: Dict[str, dict], missions: int, wall_s: float) -> str:
    """Human-readable per-layer table: calls and self time per mission,
    share of wall time, and the end-to-end metrics each layer should move."""
    lines = [f"  {'layer':24} {'calls/mission':>13} {'self ms/mission':>15} "
             f"{'share':>7}  moves"]
    for layer in LAYERS:
        row = totals[layer.name]
        lines.append(
            f"  {layer.name:24} {row['calls'] / missions:13.1f} "
            f"{1e3 * row['self_s'] / missions:15.2f} "
            f"{row['self_s'] / wall_s:7.1%}  {', '.join(layer.moves)}"
        )
    return "\n".join(lines)
