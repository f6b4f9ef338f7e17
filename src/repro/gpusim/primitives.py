"""CUB-style data-parallel primitives on the simulated device.

The paper composes both the heuristic (Algorithm 1) and the exact
search (Algorithm 2) from NVIDIA CUB's scan / reduce / select /
sort / segmented-reduce primitives. This module provides the same
vocabulary: every function computes its result with vectorised NumPy
and charges the :class:`~repro.gpusim.device.Device` a kernel launch
with a realistic per-element op cost, so primitive-heavy phases (e.g.
the multi-run heuristic's select/scan loop) show up in model time with
the right relative weight.

Cost constants are per element and deliberately coarse -- they model a
work-efficient implementation (scan: up+down sweep, select: scan +
scatter, radix sort: four 8-bit digit passes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .device import Device

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "reduce_sum",
    "reduce_max",
    "select_flagged",
    "select_if_nonzero",
    "radix_sort",
    "radix_sort_pairs",
    "segmented_max",
    "segmented_argmax",
    "segmented_sum",
]

#: per-element op costs of each primitive (work-efficient implementations)
SCAN_OPS = 2.0
REDUCE_OPS = 2.0
SELECT_OPS = 3.0
SORT_OPS = 30.0
SEGREDUCE_OPS = 3.0


def exclusive_scan(device: Device, values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Exclusive prefix sum; returns ``(offsets, total)``.

    ``offsets`` has the same length as ``values``; ``total`` is the
    grand sum (what CUB returns through the last element + reduction).
    """
    device.launch(SCAN_OPS, n_threads=values.size, name="exclusive_scan")
    out = np.zeros(values.size, dtype=np.int64)
    if values.size:
        np.cumsum(values[:-1], out=out[1:])
        total = int(out[-1]) + int(values[-1])
    else:
        total = 0
    return out, total


def inclusive_scan(device: Device, values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum."""
    device.launch(SCAN_OPS, n_threads=values.size, name="inclusive_scan")
    return np.cumsum(values, dtype=np.int64)


def reduce_sum(device: Device, values: np.ndarray) -> float:
    """Sum reduction."""
    device.launch(REDUCE_OPS, n_threads=values.size, name="reduce_sum")
    return float(values.sum()) if values.size else 0.0


def reduce_max(device: Device, values: np.ndarray) -> float:
    """Max reduction; returns ``-inf`` for empty input."""
    device.launch(REDUCE_OPS, n_threads=values.size, name="reduce_max")
    return float(values.max()) if values.size else float("-inf")


def select_flagged(device: Device, values: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Stream compaction: keep ``values[i]`` where ``flags[i]`` is true."""
    if values.shape != flags.shape:
        raise ValueError("values and flags must have the same shape")
    device.launch(SELECT_OPS, n_threads=values.size, name="select_flagged")
    return values[flags.astype(bool)]


def select_if_nonzero(device: Device, values: np.ndarray) -> np.ndarray:
    """Stream compaction keeping non-zero values (CUB ``SelectIf``)."""
    device.launch(SELECT_OPS, n_threads=values.size, name="select_if_nonzero")
    return values[values != 0]


def radix_sort(
    device: Device, keys: np.ndarray, descending: bool = False
) -> np.ndarray:
    """Stable radix sort of ``keys``."""
    device.launch(SORT_OPS, n_threads=keys.size, name="radix_sort")
    out = np.sort(keys, kind="stable")
    return out[::-1].copy() if descending else out


def radix_sort_pairs(
    device: Device,
    keys: np.ndarray,
    values: np.ndarray,
    descending: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable key-value radix sort; returns ``(sorted_keys, permuted_values)``."""
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same shape")
    device.launch(SORT_OPS, n_threads=keys.size, name="radix_sort_pairs")
    order = np.argsort(keys, kind="stable")
    if descending:
        order = order[::-1]
    return keys[order], values[order]


def _check_offsets(values: np.ndarray, seg_offsets: np.ndarray) -> None:
    if seg_offsets.size == 0:
        raise ValueError("seg_offsets must contain at least one entry")
    if int(seg_offsets[0]) != 0 or int(seg_offsets[-1]) != values.size:
        raise ValueError(
            "seg_offsets must start at 0 and end at len(values); got "
            f"[{seg_offsets[0]}, ..., {seg_offsets[-1]}] for {values.size} values"
        )


def segmented_max(
    device: Device, values: np.ndarray, seg_offsets: np.ndarray
) -> np.ndarray:
    """Per-segment max. Empty segments yield the dtype's minimum.

    ``seg_offsets`` is a CSR-style boundary array of length
    ``num_segments + 1``.
    """
    _check_offsets(values, seg_offsets)
    device.launch(SEGREDUCE_OPS, n_threads=values.size, name="segmented_max")
    nseg = seg_offsets.size - 1
    lo = np.iinfo(values.dtype).min if values.dtype.kind in "iu" else -np.inf
    out = np.full(nseg, lo, dtype=values.dtype)
    nonempty = seg_offsets[:-1] < seg_offsets[1:]
    if values.size and nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, seg_offsets[:-1][nonempty])
    return out


def segmented_argmax(
    device: Device, values: np.ndarray, seg_offsets: np.ndarray
) -> np.ndarray:
    """Global index of the first max of each segment; -1 for empty segments.

    Implemented the way a GPU would: encode ``(value, position)`` into
    one sortable key and run a segmented max over the keys.
    """
    _check_offsets(values, seg_offsets)
    device.launch(SEGREDUCE_OPS + 1, n_threads=values.size, name="segmented_argmax")
    nseg = seg_offsets.size - 1
    out = np.full(nseg, -1, dtype=np.int64)
    if values.size == 0:
        return out
    n = values.size
    # key = value * n + (n - 1 - index): ties resolve to the earliest index
    keys = values.astype(np.int64) * n + (n - 1 - np.arange(n, dtype=np.int64))
    nonempty = seg_offsets[:-1] < seg_offsets[1:]
    if nonempty.any():
        seg_best = np.maximum.reduceat(keys, seg_offsets[:-1][nonempty])
        out[nonempty] = (n - 1) - (seg_best % n)
    return out


def segmented_sum(
    device: Device, values: np.ndarray, seg_offsets: np.ndarray
) -> np.ndarray:
    """Per-segment sum; empty segments yield 0."""
    _check_offsets(values, seg_offsets)
    device.launch(SEGREDUCE_OPS, n_threads=values.size, name="segmented_sum")
    nseg = seg_offsets.size - 1
    out = np.zeros(nseg, dtype=np.int64)
    nonempty = seg_offsets[:-1] < seg_offsets[1:]
    if values.size and nonempty.any():
        out[nonempty] = np.add.reduceat(values.astype(np.int64), seg_offsets[:-1][nonempty])
    return out

