"""Completion queues."""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.verbs.errors import CQOverflowError, ResourceError
from repro.verbs.wr import WorkCompletion


class CompletionQueue:
    """A completion queue polled with :meth:`poll` (``ibv_poll_cq``).

    An optional ``on_completion`` callback supports event-driven clients
    (the covert-channel receivers use it to timestamp CQEs without a
    polling loop).
    """

    def __init__(self, capacity: int, handle: int = 0) -> None:
        if capacity <= 0:
            raise ResourceError(f"CQ capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.handle = handle
        self._entries: deque[WorkCompletion] = deque()
        self.on_completion: Optional[Callable[[WorkCompletion], None]] = None
        self._destroyed = False
        #: Total completions ever pushed (telemetry).
        self.total_completions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def push(self, wc: WorkCompletion) -> None:
        """Engine-side: deliver a completion."""
        if self._destroyed:
            raise ResourceError("push to destroyed CQ")
        if len(self._entries) >= self.capacity:
            raise CQOverflowError(
                f"CQ {self.handle} overflow (capacity {self.capacity})"
            )
        self._entries.append(wc)
        self.total_completions += 1
        if self.on_completion is not None:
            self.on_completion(wc)

    def poll(self, max_entries: int = 1) -> list[WorkCompletion]:
        """Pop up to ``max_entries`` completions (``ibv_poll_cq``)."""
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        out = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def drain(self) -> list[WorkCompletion]:
        """Pop every queued completion."""
        out = list(self._entries)
        self._entries.clear()
        return out

    def destroy(self) -> None:
        if self._destroyed:
            raise ResourceError("CQ already destroyed")
        self._destroyed = True
