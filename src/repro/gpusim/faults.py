"""Deterministic fault injection for the simulated device.

A real multi-device deployment of the paper's solver does not only hit
OOM and wall-clock walls (Table I, Fig. 6) -- devices fall off the
bus, kernels fail sporadically, allocations glitch. This module models
those *device-level* failures the same way the rest of :mod:`gpusim`
models time and memory: deterministically.

A :class:`FaultPlan` is materialized **up front** from a seed (or from
explicit events); nothing random happens at solve time. A
:class:`FaultInjector` is installed on one
:class:`~repro.gpusim.device.Device` and raises at planned *ordinals*:
the Nth charged kernel launch or the Nth allocation on that device.
Three fault kinds exist:

==================  =============================================  ==========
kind                raises                                         hook
==================  =============================================  ==========
``transient-kernel``  :class:`~repro.errors.TransientKernelError`  launch
``flaky-alloc``       :class:`~repro.errors.FlakyAllocError`       alloc
``device-lost``       :class:`~repro.errors.DeviceLostError`       either
==================  =============================================  ==========

``device-lost`` additionally marks the device lost: every subsequent
launch/alloc raises :class:`~repro.errors.DeviceLostError` until the
pool replaces the device (see ``repro.service.pool.DevicePool``).

Injection is zero-overhead by default: a device without an injector
performs exactly the charges it performs today, so model times are
bit-identical with the feature compiled in but unused.

Both fault-plan formats, this module's ``repro-fault-plan/1`` and the
wire layer's ``repro-net-fault-plan/1`` (:mod:`repro.netchaos.plan`),
subclass :class:`BaseFaultPlan`: one class parses, checks and
serializes them and answers :meth:`~BaseFaultPlan.event_for` at both
injection points.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type, Union

import numpy as np

from ..errors import (
    DeviceLostError,
    FaultPlanError,
    FlakyAllocError,
    ReproError,
    TransientKernelError,
    read_json,
)

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "FAULT_KINDS",
    "FaultEvent",
    "BaseFaultPlan",
    "FaultPlan",
    "FaultInjector",
    "MAX_PLAN_DRAWS",
    "load_fault_plan",
]

#: schema identifier stamped into serialized fault plans
FAULT_PLAN_SCHEMA = "repro-fault-plan/1"

KIND_TRANSIENT_KERNEL = "transient-kernel"
KIND_FLAKY_ALLOC = "flaky-alloc"
KIND_DEVICE_LOST = "device-lost"

#: every injectable fault kind
FAULT_KINDS = (KIND_TRANSIENT_KERNEL, KIND_FLAKY_ALLOC, KIND_DEVICE_LOST)

HOOK_LAUNCH = "launch"
HOOK_ALLOC = "alloc"

#: cap on the draws of one rates plan (``devices x horizon``, or
#: ``2 x conns x frames`` for a network plan): the default horizon on
#: 10 devices, or the default frames on 512 connections
MAX_PLAN_DRAWS = 1 << 20


def is_index(value: Any) -> bool:
    """Whether ``value`` is a non-negative integer (a bool is not): what
    a fault event's device, ordinal, connection, frame and split offset
    must be, since the injector and the proxy index by them."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


#: which hook each kind may fire on
_VALID_HOOKS = {
    KIND_TRANSIENT_KERNEL: (HOOK_LAUNCH,),
    KIND_FLAKY_ALLOC: (HOOK_ALLOC,),
    KIND_DEVICE_LOST: (HOOK_LAUNCH, HOOK_ALLOC),
}


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault: device + hook + ordinal + kind.

    ``ordinal`` counts *charged* kernel launches (empty launches charge
    nothing and do not advance it) or allocations on the target device,
    from 0, for the device's lifetime -- the same ordering the trace
    records, so an event can be aimed at a specific kernel seen in a
    trace.
    """

    device: int
    on: str  # "launch" | "alloc"
    ordinal: int
    kind: str  # see FAULT_KINDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.on not in _VALID_HOOKS[self.kind]:
            raise FaultPlanError(
                f"fault kind {self.kind!r} cannot fire on {self.on!r} "
                f"(valid hooks: {_VALID_HOOKS[self.kind]})"
            )
        if not (is_index(self.device) and is_index(self.ordinal)):
            raise FaultPlanError("device and ordinal must be non-negative integers")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class BaseFaultPlan:
    """A fully materialized fault schedule: what both plan formats share.

    A subclass names its ``schema``, its ``error`` class, its
    ``event_type``, the ``noun`` its refusals call one event, and the
    event's three ``address`` fields (a stream, a hook or direction, a
    position on the stream), and supplies :meth:`from_rates`. This class
    parses explicit events (instances or dicts of their fields) and
    refuses two at one address, answers :meth:`event_for` at both
    injection points, checks rates and documents, and serializes.

    Build a plan from failure *rates* with :meth:`from_rates` -- the
    randomness happens there, once, so two runs given the same plan
    inject byte-identical fault sequences. ``seed`` is provenance once
    materialized, kept for serialization.
    """

    schema: str
    error: Type[ReproError]
    event_type: type
    noun: str
    address: Tuple[str, str, str]
    #: the document's lists of objects; each after ``events`` is also a
    #: keyword of the constructor
    lists: Tuple[str, ...] = ("events",)
    #: draw streams per stream :meth:`from_rates` counts (a wire plan
    #: draws both directions of each connection)
    ways = 1

    def __init__(self, events: Iterable[Any] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self.events: List[Any] = []
        self._index: Dict[Tuple[Any, ...], Any] = {}
        for e in events:
            e = self._entry(self.event_type, e, self.noun)
            key = tuple(getattr(e, name) for name in self.address)
            if key in self._index:
                stream, _, position = self.address
                raise self.error(
                    f"duplicate {self.noun} at {stream} {key[0]} "
                    f"{key[1]} {position} {key[2]}"
                )
            self._index[key] = e
            self.events.append(e)

    def _entry(self, kind: type, entry: Any, noun: str) -> Any:
        """``entry`` as a ``kind``, built from its fields if it is a dict."""
        if not isinstance(entry, dict):
            return entry
        try:
            return kind(**entry)
        except TypeError as exc:
            raise self.error(f"bad {noun} {entry!r}: {exc}")

    def __len__(self) -> int:
        return len(self.events)

    def event_for(self, *address: Any) -> Optional[Any]:
        """The planned event at one address (its ``address`` field values), or None."""
        return self._index.get(address)

    @classmethod
    def _check_rates(
        cls, streams: Tuple[str, int], length: Tuple[str, int], **rates: float
    ) -> None:
        """Refuse what :meth:`from_rates` cannot draw.

        ``streams`` and ``length`` name and give its two counts: at
        least one stream, a non-negative length, and at most
        :data:`MAX_PLAN_DRAWS` draws (``ways`` per stream counted);
        every rate must lie in [0, 1].
        """
        (streams_name, count), (length_name, size) = streams, length
        if count < 1:
            raise cls.error(f"{streams_name} must be at least 1")
        if size < 0:
            raise cls.error(f"{length_name} must be non-negative")
        draws = cls.ways * count * size
        if draws > MAX_PLAN_DRAWS:
            ways = f"{cls.ways} x " if cls.ways > 1 else ""
            raise cls.error(
                f"{ways}{streams_name} x {length_name} is {draws} draws, "
                f"past the cap of {MAX_PLAN_DRAWS}"
            )
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise cls.error(f"{name} rate must be in [0, 1]")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"schema": self.schema, "seed": self.seed}
        for name in self.lists:
            out[name] = [entry.to_dict() for entry in getattr(self, name)]
        return out

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(cls, payload: Any, source: str = "<plan>") -> Any:
        """Parse a serialized plan (explicit events and/or seeded rates).

        A plan is an object with an optional ``schema`` (which must be
        the class's), a non-negative integer ``seed``, the ``lists`` --
        each of objects -- and an optional ``rates`` object mapping
        :meth:`from_rates` keywords to finite numbers, integers where
        the keyword's default is one. The rates are materialized and
        merged with the explicit events. Every refusal raises ``error``
        prefixed with ``source``.
        """
        def refuse(message: str) -> ReproError:
            return cls.error(f"{source}: {message}")

        if not isinstance(payload, dict):
            raise refuse("expected an object at top level")
        unknown = set(payload) - {"schema", "seed", "rates", *cls.lists}
        if unknown:
            raise refuse(f"unknown key(s) {sorted(unknown)}")
        found = payload.get("schema", cls.schema)
        if found != cls.schema:
            raise refuse(f"unsupported schema {found!r} (expected {cls.schema!r})")
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise refuse("'seed' must be a non-negative integer")
        lists = {}
        for name in cls.lists:
            lists[name] = payload.get(name, [])
            if not isinstance(lists[name], list):
                raise refuse(f"{name!r} must be a list")
            if not all(isinstance(e, dict) for e in lists[name]):
                raise refuse(f"{name} must be objects")
        events = lists.pop("events")
        rates = payload.get("rates")
        if rates is not None:
            if not isinstance(rates, dict):
                raise refuse("'rates' must be an object")
            defaults = {
                name: p.default
                for name, p in inspect.signature(cls.from_rates).parameters.items()
                if isinstance(p.default, (int, float))
            }
            bad = set(rates) - set(defaults)
            if bad:
                raise refuse(f"unknown rates key(s) {sorted(bad)}")
            for key, value in rates.items():
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (number and -math.inf < value < math.inf):
                    raise refuse(f"rates {key!r} must be a finite number")
                if isinstance(defaults[key], int) and not isinstance(value, int):
                    raise refuse(f"rates {key!r} must be an integer")
            rates = {
                key: value if isinstance(defaults[key], int) else float(value)
                for key, value in rates.items()
            }
        try:
            if rates is not None:
                events = events + cls.from_rates(seed, **rates).events
            return cls(events, seed=seed, **lists)
        except cls.error as exc:
            raise refuse(str(exc)) from exc


class FaultPlan(BaseFaultPlan):
    """A pool-wide, fully materialized device fault schedule.

    Events are :class:`FaultEvent` entries (or dicts with the same
    keys) at ``(device, on, ordinal)`` addresses, one per address.
    """

    schema = FAULT_PLAN_SCHEMA
    error = FaultPlanError
    event_type = FaultEvent
    noun = "fault event"
    address = ("device", "on", "ordinal")

    @classmethod
    def from_rates(
        cls,
        seed: int,
        devices: int = 1,
        horizon: int = 100_000,
        transient_kernel: float = 0.0,
        device_lost: float = 0.0,
        flaky_alloc: float = 0.0,
    ) -> "FaultPlan":
        """Materialize a plan from per-operation failure rates.

        Each of the first ``horizon`` launch/alloc ordinals on each
        device independently faults with the given probability, drawn
        once here from ``seed`` (per-device substreams, so adding a
        device never reshuffles the others). Ordinals past the horizon
        never fault. More than :data:`MAX_PLAN_DRAWS` draws are refused.
        """
        cls._check_rates(
            ("devices", devices), ("horizon", horizon),
            transient_kernel=transient_kernel, device_lost=device_lost,
            flaky_alloc=flaky_alloc,
        )
        events: List[FaultEvent] = []
        for d in range(devices):
            rng = np.random.default_rng([int(seed), d])
            # one draw per (hook, ordinal); device-lost competes with the
            # transient kinds and wins ties (drawn first)
            lost_launch = rng.random(horizon) < device_lost
            transient = rng.random(horizon) < transient_kernel
            flaky = rng.random(horizon) < flaky_alloc
            for ordinal in np.flatnonzero(lost_launch):
                events.append(
                    FaultEvent(d, HOOK_LAUNCH, int(ordinal), KIND_DEVICE_LOST)
                )
            for ordinal in np.flatnonzero(transient & ~lost_launch):
                events.append(
                    FaultEvent(d, HOOK_LAUNCH, int(ordinal), KIND_TRANSIENT_KERNEL)
                )
            for ordinal in np.flatnonzero(flaky):
                events.append(
                    FaultEvent(d, HOOK_ALLOC, int(ordinal), KIND_FLAKY_ALLOC)
                )
        return cls(events, seed=seed)

    def injector_for(self, device_index: int) -> Optional["FaultInjector"]:
        """An injector for one pool device, or None when it has no events."""
        if not any(e.device == device_index for e in self.events):
            return None
        return FaultInjector(self, device_index)


class FaultInjector:
    """Per-device fault trigger, hooked into launch and alloc.

    Keeps its own launch/alloc ordinal counters (they advance only
    while the injector is installed, matching a plan aimed at the
    device's trace from ordinal 0), looks each ordinal up in its plan,
    and tallies injected faults per kind. Ordinals survive device
    replacement: the pool re-installs the same injector on the
    replacement device, so a plan's later events still land.
    """

    def __init__(self, plan: FaultPlan, device_index: int) -> None:
        self._plan = plan
        self._device_index = device_index
        self._ordinals = {HOOK_LAUNCH: 0, HOOK_ALLOC: 0}
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def _step(self, device: "Any", on: str) -> None:
        ordinal = self._ordinals[on]
        self._ordinals[on] += 1
        event = self._plan.event_for(self._device_index, on, ordinal)
        if event is None:
            return
        self.injected[event.kind] += 1
        where = f"{on} ordinal {ordinal}"
        if event.kind == KIND_DEVICE_LOST:
            device.mark_lost()
            raise DeviceLostError(f"injected device loss at {where}")
        if event.kind == KIND_TRANSIENT_KERNEL:
            raise TransientKernelError(f"injected transient fault at {where}")
        raise FlakyAllocError(f"injected flaky allocation at {where}")

    def on_launch(self, device: "Any") -> None:
        """Called by the device before charging each non-empty launch."""
        self._step(device, HOOK_LAUNCH)

    def on_alloc(self, device: "Any") -> None:
        """Called by the device before reserving each allocation."""
        self._step(device, HOOK_ALLOC)


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read and parse a fault-plan file (JSON, ``repro-fault-plan/1``)."""
    payload = read_json(path, FaultPlanError, "fault plan")
    return FaultPlan.from_dict(payload, source=str(path))
