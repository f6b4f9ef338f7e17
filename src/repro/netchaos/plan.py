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
device. Both plans share one class,
:class:`~repro.gpusim.faults.BaseFaultPlan`: its event parsing, document
and rate checks, serialization and :meth:`~NetFaultPlan.event_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

import numpy as np

from ..errors import NetFaultPlanError, read_json
from ..gpusim.faults import BaseFaultPlan, is_index

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
        if not (is_index(self.conn) and is_index(self.frame)):
            raise NetFaultPlanError("conn and frame must be non-negative integers")
        if self.kind in _TIMED_KINDS and not self.delay_s > 0.0:
            raise NetFaultPlanError(
                f"fault kind {self.kind!r} needs a positive delay_s"
            )
        if self.delay_s < 0.0:
            raise NetFaultPlanError("delay_s must be non-negative")
        if not is_index(self.at_byte):
            raise NetFaultPlanError("at_byte must be a non-negative integer")

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


class NetFaultPlan(BaseFaultPlan):
    """A fully materialized wire-fault schedule for one chaos proxy.

    Events are :class:`NetFaultEvent` entries (or dicts with the same
    keys) at ``(conn, direction, frame)`` addresses -- one frame
    suffers at most one fault. ``partitions`` are timed
    :class:`Partition` windows (or ``{start_s, duration_s}`` dicts).
    """

    schema = NET_FAULT_PLAN_SCHEMA
    error = NetFaultPlanError
    event_type = NetFaultEvent
    noun = "net fault event"
    address = ("conn", "direction", "frame")
    lists = ("events", "partitions")
    ways = len(DIRECTIONS)

    def __init__(
        self,
        events: Iterable[Union[NetFaultEvent, Dict[str, Any]]] = (),
        partitions: Iterable[Union[Partition, Dict[str, Any]]] = (),
        seed: int = 0,
    ) -> None:
        super().__init__(events, seed)
        self.partitions: List[Partition] = sorted(
            (self._entry(Partition, p, "partition") for p in partitions),
            key=lambda p: p.start_s,
        )

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
        cls._check_rates(
            ("conns", conns), ("frames", frames), delay=delay, stall=stall,
            duplicate=duplicate, truncate=truncate, cut=cut,
        )
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


def load_net_fault_plan(path: Union[str, Path]) -> NetFaultPlan:
    """Read and parse a net-fault-plan file (JSON, ``repro-net-fault-plan/1``)."""
    payload = read_json(path, NetFaultPlanError, "net fault plan")
    return NetFaultPlan.from_dict(payload, source=str(path))
