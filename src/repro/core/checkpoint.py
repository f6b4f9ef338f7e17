"""Checkpoint/resume for the windowed search.

The windowed sweep (paper Section IV-E) is naturally resumable: its
whole progress is the best clique found so far, the carried lower
bound ω̄, and which ``(a, b)`` window ranges of the ordered 2-clique
list remain. A :class:`SearchCheckpoint` captures exactly that state
after every *completed* window, so a solve interrupted by device loss
restarts from the last completed window instead of from scratch (an
interrupted window is re-run whole -- BFS levels cannot be resumed
mid-level soundly, and windows are small by construction).

A checkpoint is only valid against the graph and configuration it was
taken under: both are stamped as fingerprints and verified on resume
(:func:`~repro.core.config.config_fingerprint` excludes host-only
knobs, so changing ``chunk_pairs`` or the time limit does not
invalidate a checkpoint -- changing anything that could alter the
answer does).

Serialized form is versioned JSON (``repro-checkpoint/1``) for the
``repro solve --checkpoint PATH`` round trip; in-process the service
passes live objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..errors import CheckpointError, read_json

__all__ = ["CHECKPOINT_SCHEMA", "SearchCheckpoint", "load_checkpoint"]

#: schema identifier stamped into serialized checkpoints
CHECKPOINT_SCHEMA = "repro-checkpoint/1"


@dataclass
class SearchCheckpoint:
    """Resumable state of one windowed search.

    Attributes
    ----------
    graph_fingerprint / config_fingerprint:
        Identity of the solve this checkpoint belongs to; verified on
        resume. The core search layer leaves them empty (it has no
        notion of fingerprints) -- the pipeline stage stamps them.
    omega:
        Best clique size found so far (the carried lower bound ω̄
        floor for remaining windows).
    best_clique:
        Witness vertices of the best clique found so far.
    pending:
        Remaining ``(a, b)`` half-open ranges of the *ordered* 2-clique
        list, in processing order (the interrupted window first).
        Ranges index the list after window-order reordering, which is
        deterministic for a fixed config -- hence the config
        fingerprint check.
    windows_done:
        Completed-window count (resumes window statistics numbering).
    total_windows:
        Completed + pending count at capture time (progress reporting;
        adaptive splits grow it).
    """

    graph_fingerprint: str = ""
    config_fingerprint: str = ""
    omega: int = 0
    best_clique: List[int] = field(default_factory=list)
    pending: List[Tuple[int, int]] = field(default_factory=list)
    windows_done: int = 0
    total_windows: int = 0

    @property
    def exhausted(self) -> bool:
        """True when no windows remain (the search finished)."""
        return not self.pending

    def validate_for(
        self, graph_fingerprint: str, config_fingerprint: str
    ) -> None:
        """Raise :class:`~repro.errors.CheckpointError` on identity mismatch."""
        if self.graph_fingerprint and self.graph_fingerprint != graph_fingerprint:
            raise CheckpointError(
                "checkpoint was taken against a different graph "
                f"(checkpoint {self.graph_fingerprint[:12]}…, "
                f"request {graph_fingerprint[:12]}…)"
            )
        if self.config_fingerprint and self.config_fingerprint != config_fingerprint:
            raise CheckpointError(
                "checkpoint was taken under a different solver configuration; "
                "resuming would change the answer"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "graph_fingerprint": self.graph_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "omega": int(self.omega),
            "best_clique": [int(v) for v in self.best_clique],
            "pending": [[int(a), int(b)] for a, b in self.pending],
            "windows_done": int(self.windows_done),
            "total_windows": int(self.total_windows),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], source: str = "<checkpoint>"
    ) -> "SearchCheckpoint":
        if not isinstance(payload, dict):
            raise CheckpointError(f"{source}: expected an object at top level")
        schema = payload.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{source}: unsupported schema {schema!r} "
                f"(expected {CHECKPOINT_SCHEMA!r})"
            )
        unknown = set(payload) - {
            "schema",
            "graph_fingerprint",
            "config_fingerprint",
            "omega",
            "best_clique",
            "pending",
            "windows_done",
            "total_windows",
        }
        if unknown:
            raise CheckpointError(f"{source}: unknown key(s) {sorted(unknown)}")
        pending_raw = payload.get("pending", [])
        if not isinstance(pending_raw, list):
            raise CheckpointError(f"{source}: 'pending' must be a list")
        pending: List[Tuple[int, int]] = []
        for i, entry in enumerate(pending_raw):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(isinstance(x, int) for x in entry)
            ):
                raise CheckpointError(
                    f"{source}: pending[{i}] must be an [a, b] integer pair"
                )
            a, b = int(entry[0]), int(entry[1])
            if a < 0 or b < a:
                raise CheckpointError(
                    f"{source}: pending[{i}] = [{a}, {b}] is not a valid range"
                )
            pending.append((a, b))
        best = payload.get("best_clique", [])
        if not isinstance(best, list) or not all(
            isinstance(v, int) for v in best
        ):
            raise CheckpointError(
                f"{source}: 'best_clique' must be a list of integers"
            )
        try:
            return cls(
                graph_fingerprint=str(payload.get("graph_fingerprint", "")),
                config_fingerprint=str(payload.get("config_fingerprint", "")),
                omega=int(payload.get("omega", 0)),
                best_clique=[int(v) for v in best],
                pending=pending,
                windows_done=int(payload.get("windows_done", 0)),
                total_windows=int(payload.get("total_windows", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{source}: invalid field value: {exc}")


def load_checkpoint(path: Union[str, Path]) -> SearchCheckpoint:
    """Read and parse a checkpoint file (JSON, ``repro-checkpoint/1``)."""
    payload = read_json(path, CheckpointError, "checkpoint")
    return SearchCheckpoint.from_dict(payload, source=str(path))
