"""Device memory allocator and device arrays.

Real GPU implementations of the paper's algorithm live or die by
device memory: the breadth-first clique list must hold *every*
candidate clique of the current level at once (Section II-D). We model
that constraint with an explicit allocator that enforces a byte budget
and tracks the high-water mark, so experiments can report peak memory
(Figure 6) and OOM outcomes (Table I) deterministically.

Only *persistent* structures are charged: the CSR graph, clique-list
nodes, heuristic working sets, and primitive outputs. Host-side NumPy
temporaries used to vectorise a kernel's inner loop are deliberately
not charged -- on the real device those values live in registers, not
global memory.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..errors import DeviceOOMError, DeviceStateError

__all__ = ["DeviceArray", "MemoryPool"]

ShapeLike = Union[int, Tuple[int, ...]]


class MemoryPool:
    """Byte-budgeted allocator with peak tracking.

    Parameters
    ----------
    budget_bytes:
        Hard limit on simultaneously live bytes. ``None`` disables the
        limit (useful for oracle runs in tests).
    """

    def __init__(self, budget_bytes: Optional[int]) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive or None")
        self._budget = budget_bytes
        self._in_use = 0
        self._peak = 0

    @property
    def budget_bytes(self) -> Optional[int]:
        return self._budget

    @property
    def in_use_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._in_use

    @property
    def peak_bytes(self) -> int:
        """High-water mark of simultaneously allocated bytes."""
        return self._peak

    def reserve(self, nbytes: int) -> None:
        """Charge ``nbytes`` to the pool, raising on budget overflow."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._budget is not None and self._in_use + nbytes > self._budget:
            raise DeviceOOMError(nbytes, self._in_use, self._budget)
        self._in_use += nbytes
        if self._in_use > self._peak:
            self._peak = self._in_use

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes > self._in_use:
            raise DeviceStateError(
                f"releasing {nbytes} B but only {self._in_use} B are in use"
            )
        self._in_use -= nbytes

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._peak = self._in_use


class DeviceArray:
    """A NumPy-backed array whose storage is charged to a device pool.

    The wrapped buffer is exposed as :attr:`a` for vectorised compute;
    algorithms treat it as device-resident data. Arrays must be
    explicitly freed (or used as context managers) so that peak-memory
    tracking reflects the algorithm's true live set, exactly as
    ``cudaFree`` discipline would on hardware.
    """

    __slots__ = ("_array", "_pool", "_nbytes", "_freed", "label")

    def __init__(self, array: np.ndarray, pool: MemoryPool, label: str = "") -> None:
        pool.reserve(array.nbytes)
        self._array = array
        self._pool = pool
        self._nbytes = array.nbytes
        self._freed = False
        self.label = label

    # -- accessors ---------------------------------------------------------
    @property
    def a(self) -> np.ndarray:
        """The underlying ndarray (device buffer view)."""
        if self._freed:
            raise DeviceStateError(f"use after free of device array {self.label!r}")
        return self._array

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def freed(self) -> bool:
        return self._freed

    @property
    def dtype(self) -> np.dtype:
        return self.a.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.a.shape

    @property
    def size(self) -> int:
        return self.a.size

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self) -> Iterator:
        return iter(self.a)

    def to_host(self) -> np.ndarray:
        """Copy the contents back to a plain host ndarray."""
        return np.array(self.a, copy=True)

    # -- lifetime ----------------------------------------------------------
    def free(self) -> None:
        """Release the device allocation. Idempotent."""
        if not self._freed:
            self._pool.release(self._nbytes)
            self._freed = True
            self._array = np.empty(0, dtype=self._array.dtype)

    def __enter__(self) -> "DeviceArray":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"shape={self._array.shape}, dtype={self._array.dtype}"
        return f"DeviceArray({self.label!r}, {state})"
