"""Deterministic network fault plans (``repro-net-fault-plan/1``).

The wire-layer sibling of :mod:`repro.gpusim.faults`: where a device
:class:`~repro.gpusim.faults.FaultPlan` schedules kernel/alloc faults
at per-device ordinals, a :class:`NetFaultPlan` schedules *wire*
faults at per-connection frame ordinals. The same discipline applies
-- a plan is materialized **up front** from a seed (or from explicit
events); nothing random happens while traffic flows, so two chaos runs
from the same plan damage the byte stream identically and the parity
harness (tests/netchaos/) can assert chaos runs byte-equal fault-free
runs.

A plan addresses faults by ``(conn, direction, frame)``:

* ``conn`` -- the proxy-assigned connection ordinal, counted in accept
  order from 0;
* ``direction`` -- ``"c2s"`` (client-to-server frames: requests) or
  ``"s2c"`` (server-to-client frames: replies);
* ``frame`` -- the newline-delimited frame ordinal on that stream,
  from 0.

Five fault kinds exist, mirroring what flaky real networks do to a
newline-framed protocol:

==============  ====================================================
kind            effect at the planned frame
==============  ====================================================
``delay``       hold the whole frame for ``delay_s`` before forwarding
``stall``       forward the first ``at_byte`` bytes, stall mid-frame
                for ``delay_s``, then forward the rest
``duplicate``   deliver the frame twice, back to back
``truncate``    forward only ``at_byte`` bytes, then close the
                connection cleanly (FIN mid-frame)
``cut``         forward ``at_byte`` bytes, then abort the connection
                (RST mid-frame, both directions)
==============  ====================================================

Plans may additionally carry **partitions**: ``[start_s, duration_s]``
windows on the proxy clock during which every proxied connection is
severed and new ones are refused -- the tool for cutting a router off
from one backend for a bounded time.

:meth:`NetFaultPlan.from_rates` draws events from per-stream rng
substreams (``np.random.default_rng([seed, conn, dir])``), so adding a
connection or a direction never reshuffles the faults of the others --
exactly the substream convention ``repro-fault-plan/1`` uses per
device.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..errors import NetFaultPlanError, read_json
from ..gpusim.faults import MAX_PLAN_DRAWS, parse_plan_document

__all__ = [
    "NET_FAULT_PLAN_SCHEMA",
    "NET_FAULT_KINDS",
    "DIRECTIONS",
    "NetFaultEvent",
    "Partition",
    "NetFaultPlan",
    "load_net_fault_plan",
]

#: schema identifier stamped into serialized network fault plans
NET_FAULT_PLAN_SCHEMA = "repro-net-fault-plan/1"

KIND_DELAY = "delay"
KIND_STALL = "stall"
KIND_DUPLICATE = "duplicate"
KIND_TRUNCATE = "truncate"
KIND_CUT = "cut"

#: every injectable wire fault kind
NET_FAULT_KINDS = (
    KIND_DELAY, KIND_STALL, KIND_DUPLICATE, KIND_TRUNCATE, KIND_CUT,
)

DIR_C2S = "c2s"
DIR_S2C = "s2c"

#: frame directions a plan may address
DIRECTIONS = (DIR_C2S, DIR_S2C)

#: kinds that hold traffic and therefore need a positive ``delay_s``
_TIMED_KINDS = (KIND_DELAY, KIND_STALL)

#: kinds that split a frame and therefore carry an ``at_byte`` offset
_SPLIT_KINDS = (KIND_STALL, KIND_TRUNCATE, KIND_CUT)


@dataclass(frozen=True)
class NetFaultEvent:
    """One planned wire fault: stream address + kind + parameters.

    ``at_byte`` is clamped at apply time to the actual frame length
    (the plan cannot know how long frame N will be), so a generated
    offset is always meaningful.
    """

    conn: int
    direction: str  # "c2s" | "s2c"
    frame: int
    kind: str  # see NET_FAULT_KINDS
    delay_s: float = 0.0
    at_byte: int = 0

    def __post_init__(self) -> None:
        if self.kind not in NET_FAULT_KINDS:
            raise NetFaultPlanError(
                f"unknown net fault kind {self.kind!r}; "
                f"expected one of {NET_FAULT_KINDS}"
            )
        if self.direction not in DIRECTIONS:
            raise NetFaultPlanError(
                f"unknown direction {self.direction!r}; "
                f"expected one of {DIRECTIONS}"
            )
        if self.conn < 0 or self.frame < 0:
            raise NetFaultPlanError("conn and frame must be non-negative")
        if self.kind in _TIMED_KINDS and not self.delay_s > 0.0:
            raise NetFaultPlanError(
                f"fault kind {self.kind!r} needs a positive delay_s"
            )
        if self.delay_s < 0.0:
            raise NetFaultPlanError("delay_s must be non-negative")
        if self.at_byte < 0:
            raise NetFaultPlanError("at_byte must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "conn": self.conn,
            "direction": self.direction,
            "frame": self.frame,
            "kind": self.kind,
        }
        if self.kind in _TIMED_KINDS:
            out["delay_s"] = self.delay_s
        if self.kind in _SPLIT_KINDS:
            out["at_byte"] = self.at_byte
        return out


@dataclass(frozen=True)
class Partition:
    """A timed total partition on the proxy clock.

    While ``start_s <= elapsed < start_s + duration_s`` every proxied
    connection is aborted and new connections are refused -- the peer
    behind the proxy is unreachable, exactly as if a switch between
    the two dropped its link for ``duration_s``.
    """

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise NetFaultPlanError("partition start_s must be non-negative")
        if not self.duration_s > 0.0:
            raise NetFaultPlanError("partition duration_s must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        return {"start_s": self.start_s, "duration_s": self.duration_s}


class NetFaultPlan:
    """A fully materialized wire-fault schedule for one chaos proxy.

    Parameters
    ----------
    events:
        Explicit :class:`NetFaultEvent` entries (or dicts with the same
        keys). Duplicate ``(conn, direction, frame)`` addresses raise
        -- one frame suffers at most one fault.
    partitions:
        Timed :class:`Partition` windows (or ``{start_s, duration_s}``
        dicts).
    seed:
        Provenance once materialized; kept for serialization.

    Build one from failure *rates* with :meth:`from_rates` -- the
    randomness happens there, once, so two proxies given the same plan
    damage the byte stream identically.
    """

    def __init__(
        self,
        events: Iterable[Union[NetFaultEvent, Dict[str, Any]]] = (),
        partitions: Iterable[Union[Partition, Dict[str, Any]]] = (),
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.events: List[NetFaultEvent] = []
        self.partitions: List[Partition] = []
        seen: set = set()
        for e in events:
            if isinstance(e, dict):
                try:
                    e = NetFaultEvent(**e)
                except TypeError as exc:
                    raise NetFaultPlanError(f"bad net fault event {e!r}: {exc}")
            key = (e.conn, e.direction, e.frame)
            if key in seen:
                raise NetFaultPlanError(
                    f"duplicate net fault event at conn {e.conn} "
                    f"{e.direction} frame {e.frame}"
                )
            seen.add(key)
            self.events.append(e)
        for p in partitions:
            if isinstance(p, dict):
                try:
                    p = Partition(**p)
                except TypeError as exc:
                    raise NetFaultPlanError(f"bad partition {p!r}: {exc}")
            self.partitions.append(p)
        self.partitions.sort(key=lambda p: p.start_s)
        self._index: Dict[Tuple[int, str, int], NetFaultEvent] = {
            (e.conn, e.direction, e.frame): e for e in self.events
        }

    def __len__(self) -> int:
        return len(self.events)

    def event_for(
        self, conn: int, direction: str, frame: int
    ) -> Optional[NetFaultEvent]:
        """The planned fault for one frame of one stream, or None."""
        return self._index.get((conn, direction, frame))

    def partition_at(self, elapsed_s: float) -> Optional[Partition]:
        """The partition window covering ``elapsed_s``, or None."""
        for p in self.partitions:
            if p.start_s <= elapsed_s < p.end_s:
                return p
        return None

    # ------------------------------------------------------------------
    @classmethod
    def from_rates(
        cls,
        seed: int,
        conns: int = 4,
        frames: int = 1024,
        delay: float = 0.0,
        stall: float = 0.0,
        duplicate: float = 0.0,
        truncate: float = 0.0,
        cut: float = 0.0,
        delay_s: float = 0.02,
        partitions: Iterable[Union[Partition, Dict[str, Any]]] = (),
    ) -> "NetFaultPlan":
        """Materialize a plan from per-frame fault rates.

        Each of the first ``frames`` frame ordinals on each of the
        first ``conns`` connections (both directions) independently
        faults with the given probability, drawn once here from
        per-stream substreams ``default_rng([seed, conn, dir])`` --
        adding a connection never reshuffles the others. When several
        kinds hit the same frame the most destructive wins:
        ``cut > truncate > stall > delay > duplicate``. ``delay_s`` is
        the hold applied by ``delay``/``stall`` events; split offsets
        (``at_byte``) are drawn in ``[1, 64]`` and clamped to the real
        frame length at apply time. Frames past the horizon are never
        faulted. More than :data:`~repro.gpusim.faults.MAX_PLAN_DRAWS`
        draws are refused.
        """
        if conns < 1:
            raise NetFaultPlanError("conns must be at least 1")
        if frames < 0:
            raise NetFaultPlanError("frames must be non-negative")
        if 2 * conns * frames > MAX_PLAN_DRAWS:
            raise NetFaultPlanError(
                f"2 x conns x frames is {2 * conns * frames} draws, "
                f"past the cap of {MAX_PLAN_DRAWS}"
            )
        for name, rate in (
            ("delay", delay), ("stall", stall), ("duplicate", duplicate),
            ("truncate", truncate), ("cut", cut),
        ):
            if not 0.0 <= rate <= 1.0:
                raise NetFaultPlanError(f"{name} rate must be in [0, 1]")
        if not delay_s > 0.0:
            raise NetFaultPlanError("delay_s must be positive")
        events: List[NetFaultEvent] = []
        for conn in range(conns):
            for d, direction in enumerate(DIRECTIONS):
                rng = np.random.default_rng([int(seed), conn, d])
                # one draw per (kind, frame), most destructive first so
                # precedence is independent of the rates
                hit_cut = rng.random(frames) < cut
                hit_trunc = rng.random(frames) < truncate
                hit_stall = rng.random(frames) < stall
                hit_delay = rng.random(frames) < delay
                hit_dup = rng.random(frames) < duplicate
                offsets = rng.integers(1, 65, size=frames)
                taken = np.zeros(frames, dtype=bool)
                for kind, hits in (
                    (KIND_CUT, hit_cut),
                    (KIND_TRUNCATE, hit_trunc),
                    (KIND_STALL, hit_stall),
                    (KIND_DELAY, hit_delay),
                    (KIND_DUPLICATE, hit_dup),
                ):
                    fresh = hits & ~taken
                    taken |= hits
                    for frame in np.flatnonzero(fresh):
                        events.append(
                            NetFaultEvent(
                                conn=conn,
                                direction=direction,
                                frame=int(frame),
                                kind=kind,
                                delay_s=(
                                    delay_s if kind in _TIMED_KINDS else 0.0
                                ),
                                at_byte=(
                                    int(offsets[frame])
                                    if kind in _SPLIT_KINDS else 0
                                ),
                            )
                        )
        return cls(events, partitions=partitions, seed=seed)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": NET_FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
            "partitions": [p.to_dict() for p in self.partitions],
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], source: str = "<plan>"
    ) -> "NetFaultPlan":
        """Parse a serialized plan (explicit events and/or seeded rates).

        Accepted keys: ``schema`` (must match), ``seed``, ``events``,
        ``partitions``, and ``rates`` -- an object with the
        :meth:`from_rates` keyword arguments (minus ``partitions``)
        which is materialized and merged with the explicit events.
        """
        seed, lists, rates = parse_plan_document(
            payload, source, NetFaultPlanError, NET_FAULT_PLAN_SCHEMA,
            ("events", "partitions"),
            ("conns", "frames", "delay", "stall", "duplicate", "truncate",
             "cut", "delay_s"),
            counts=("conns", "frames"),
        )
        merged: List[Union[NetFaultEvent, Dict[str, Any]]] = list(lists["events"])
        try:
            if rates is not None:
                generated = cls.from_rates(
                    seed,
                    conns=rates.get("conns", 4),
                    frames=rates.get("frames", 1024),
                    delay=float(rates.get("delay", 0.0)),
                    stall=float(rates.get("stall", 0.0)),
                    duplicate=float(rates.get("duplicate", 0.0)),
                    truncate=float(rates.get("truncate", 0.0)),
                    cut=float(rates.get("cut", 0.0)),
                    delay_s=float(rates.get("delay_s", 0.02)),
                )
                merged.extend(generated.events)
            return cls(merged, partitions=lists["partitions"], seed=seed)
        except NetFaultPlanError as exc:
            raise NetFaultPlanError(f"{source}: {exc}") from exc


def load_net_fault_plan(path: Union[str, Path]) -> NetFaultPlan:
    """Read and parse a net-fault-plan file (JSON, ``repro-net-fault-plan/1``)."""
    payload = read_json(path, NetFaultPlanError, "net fault plan")
    return NetFaultPlan.from_dict(payload, source=str(path))
