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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "FaultPlan",
    "FaultInjector",
    "MAX_PLAN_DRAWS",
    "load_fault_plan",
    "parse_plan_document",
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
        if self.device < 0 or self.ordinal < 0:
            raise FaultPlanError("device and ordinal must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "on": self.on,
            "ordinal": self.ordinal,
            "kind": self.kind,
        }


class FaultPlan:
    """A pool-wide, fully materialized fault schedule.

    Parameters
    ----------
    events:
        Explicit :class:`FaultEvent` entries (or dicts with the same
        keys). Duplicate ``(device, on, ordinal)`` entries raise.
    seed:
        Provenance only once materialized; kept for serialization.

    Build one from failure *rates* with :meth:`from_rates` -- the
    randomness happens there, once, so two services given the same
    plan inject byte-identical fault sequences.
    """

    def __init__(
        self,
        events: Iterable[Union[FaultEvent, Dict[str, Any]]] = (),
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.events: List[FaultEvent] = []
        seen: set = set()
        for e in events:
            if isinstance(e, dict):
                try:
                    e = FaultEvent(**e)
                except TypeError as exc:
                    raise FaultPlanError(f"bad fault event {e!r}: {exc}")
            key = (e.device, e.on, e.ordinal)
            if key in seen:
                raise FaultPlanError(
                    f"duplicate fault event at device {e.device} "
                    f"{e.on} ordinal {e.ordinal}"
                )
            seen.add(key)
            self.events.append(e)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
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
        if devices < 1:
            raise FaultPlanError("devices must be at least 1")
        if horizon < 0:
            raise FaultPlanError("horizon must be non-negative")
        if devices * horizon > MAX_PLAN_DRAWS:
            raise FaultPlanError(
                f"devices x horizon is {devices * horizon} draws, "
                f"past the cap of {MAX_PLAN_DRAWS}"
            )
        for name, rate in (
            ("transient_kernel", transient_kernel),
            ("device_lost", device_lost),
            ("flaky_alloc", flaky_alloc),
        ):
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} rate must be in [0, 1]")
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

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], source: str = "<plan>") -> "FaultPlan":
        """Parse a serialized plan (explicit events and/or seeded rates).

        Accepted keys: ``schema`` (must match), ``seed``, ``events``
        (explicit list), and ``rates`` -- an object with
        ``transient_kernel`` / ``device_lost`` / ``flaky_alloc`` plus
        optional ``devices`` / ``horizon`` -- which is materialized via
        :meth:`from_rates` and merged with the explicit events.
        """
        seed, lists, rates = parse_plan_document(
            payload, source, FaultPlanError, FAULT_PLAN_SCHEMA, ("events",),
            ("transient_kernel", "device_lost", "flaky_alloc", "devices", "horizon"),
            counts=("devices", "horizon"),
        )
        merged: List[Union[FaultEvent, Dict[str, Any]]] = list(lists["events"])
        try:
            if rates is not None:
                generated = cls.from_rates(
                    seed,
                    devices=rates.get("devices", 1),
                    horizon=rates.get("horizon", 100_000),
                    transient_kernel=float(rates.get("transient_kernel", 0.0)),
                    device_lost=float(rates.get("device_lost", 0.0)),
                    flaky_alloc=float(rates.get("flaky_alloc", 0.0)),
                )
                merged.extend(generated.events)
            return cls(merged, seed=seed)
        except FaultPlanError as exc:
            raise FaultPlanError(f"{source}: {exc}") from exc

    # ------------------------------------------------------------------
    def injector_for(self, device_index: int) -> Optional["FaultInjector"]:
        """An injector for one pool device, or None when it has no events."""
        launch: Dict[int, str] = {}
        alloc: Dict[int, str] = {}
        for e in self.events:
            if e.device != device_index:
                continue
            (launch if e.on == HOOK_LAUNCH else alloc)[e.ordinal] = e.kind
        if not launch and not alloc:
            return None
        return FaultInjector(launch, alloc)


class FaultInjector:
    """Per-device fault trigger, hooked into launch and alloc.

    Keeps its own launch/alloc ordinal counters (they advance only
    while the injector is installed, matching a plan aimed at the
    device's trace from ordinal 0) and a tally of injected faults per
    kind. Ordinals survive device replacement: the pool re-installs the
    same injector on the replacement device, so a plan's later events
    still land.
    """

    def __init__(
        self,
        launch_faults: Dict[int, str],
        alloc_faults: Dict[int, str],
    ) -> None:
        self._launch_faults = dict(launch_faults)
        self._alloc_faults = dict(alloc_faults)
        self._launch_ordinal = 0
        self._alloc_ordinal = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def _fire(self, device: "Any", kind: str, where: str) -> None:
        self.injected[kind] += 1
        if kind == KIND_DEVICE_LOST:
            device.mark_lost()
            raise DeviceLostError(f"injected device loss at {where}")
        if kind == KIND_TRANSIENT_KERNEL:
            raise TransientKernelError(f"injected transient fault at {where}")
        raise FlakyAllocError(f"injected flaky allocation at {where}")

    def on_launch(self, device: "Any") -> None:
        """Called by the device before charging each non-empty launch."""
        ordinal = self._launch_ordinal
        self._launch_ordinal += 1
        kind = self._launch_faults.get(ordinal)
        if kind is not None:
            self._fire(device, kind, f"launch ordinal {ordinal}")

    def on_alloc(self, device: "Any") -> None:
        """Called by the device before reserving each allocation."""
        ordinal = self._alloc_ordinal
        self._alloc_ordinal += 1
        kind = self._alloc_faults.get(ordinal)
        if kind is not None:
            self._fire(device, kind, f"alloc ordinal {ordinal}")


def parse_plan_document(
    payload: Any,
    source: str,
    error: Type[ReproError],
    schema: str,
    lists: Tuple[str, ...],
    rate_keys: Tuple[str, ...],
    counts: Tuple[str, ...] = (),
) -> Tuple[int, Dict[str, List[Dict[str, Any]]], Optional[Dict[str, Any]]]:
    """Check the shape every fault-plan document shares.

    A plan is an object with an optional ``schema`` (which must equal
    ``schema``), a non-negative integer ``seed``, the lists named in
    ``lists`` -- each of objects -- and an optional ``rates`` object
    mapping keys of ``rate_keys`` to finite numbers, integers for the
    keys in ``counts``. Anything else raises ``error``. Returns
    ``(seed, {list name: entries}, rates)``.
    """
    if not isinstance(payload, dict):
        raise error(f"{source}: expected an object at top level")
    unknown = set(payload) - {"schema", "seed", "rates", *lists}
    if unknown:
        raise error(f"{source}: unknown key(s) {sorted(unknown)}")
    found = payload.get("schema", schema)
    if found != schema:
        raise error(
            f"{source}: unsupported schema {found!r} (expected {schema!r})"
        )
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise error(f"{source}: 'seed' must be a non-negative integer")
    entries = {}
    for name in lists:
        entries[name] = payload.get(name, [])
        if not isinstance(entries[name], list):
            raise error(f"{source}: {name!r} must be a list")
        if not all(isinstance(e, dict) for e in entries[name]):
            raise error(f"{source}: {name} must be objects")
    rates = payload.get("rates")
    if rates is not None:
        if not isinstance(rates, dict):
            raise error(f"{source}: 'rates' must be an object")
        bad = set(rates) - set(rate_keys)
        if bad:
            raise error(f"{source}: unknown rates key(s) {sorted(bad)}")
        for key, value in rates.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and -math.inf < value < math.inf):
                raise error(f"{source}: rates {key!r} must be a finite number")
            if key in counts and not isinstance(value, int):
                raise error(f"{source}: rates {key!r} must be an integer")
    return seed, entries, rates


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read and parse a fault-plan file (JSON, ``repro-fault-plan/1``)."""
    payload = read_json(path, FaultPlanError, "fault plan")
    return FaultPlan.from_dict(payload, source=str(path))
