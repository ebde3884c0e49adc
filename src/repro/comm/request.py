"""Communication records and buffer accounting.

A :class:`CommNode` is Uintah's ``CommunicationRecord``: one
outstanding MPI request plus the buffer that must be released exactly
once when the message is processed. The :class:`BufferLedger` is the
measurable stand-in for nodal heap usage — the Section IV.A race
manifested as buffers allocated by losing threads and never freed, and
the ledger makes that leak (and double-frees) directly observable.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional



class BufferLedger:
    """Thread-safe allocation accounting for message buffers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.allocated = 0
        self.freed = 0
        self.bytes_allocated = 0
        self.bytes_freed = 0
        self.double_frees = 0

    def allocate(self, nbytes: int) -> None:
        with self._lock:
            self.allocated += 1
            self.bytes_allocated += int(nbytes)

    def free(self, nbytes: int) -> None:
        with self._lock:
            self.freed += 1
            self.bytes_freed += int(nbytes)
            if self.freed > self.allocated:
                self.double_frees += 1

    @property
    def outstanding(self) -> int:
        """Buffers allocated but never freed — the leak counter."""
        with self._lock:
            return self.allocated - self.freed

    @property
    def outstanding_bytes(self) -> int:
        with self._lock:
            return self.bytes_allocated - self.bytes_freed


class CommNode:
    """One outstanding request + its completion callback.

    ``finish_communication`` is idempotent-checked: a second invocation
    (the double-processing race) raises unless ``count_only`` is set,
    in which case it increments ``double_processed`` on the ledger owner
    — the mode the legacy racy pool uses so the experiment can count
    races instead of crashing.
    """

    def __init__(
        self,
        request,  # a repro.runtime.mpi Request (duck-typed: .test()/.data)
        nbytes: int = 0,
        on_finish: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.request = request
        self.nbytes = int(nbytes)
        self.on_finish = on_finish
        self._finished = False
        self._finish_lock = threading.Lock()

    def test(self) -> bool:
        """Non-destructive completion poll (cf. MPI_Test)."""
        return self.request.test()

    def finish_communication(self, ledger: Optional[BufferLedger] = None) -> bool:
        """Process the completed message exactly once.

        Returns True if this call did the processing, False if another
        thread already had (the double-processing the wait-free pool
        makes impossible by construction).
        """
        with self._finish_lock:
            if self._finished:
                return False
            self._finished = True
        if self.on_finish is not None:
            self.on_finish(self.request.data)
        if ledger is not None:
            ledger.free(self.nbytes)
        return True

    @property
    def ctx(self):
        """The sender's causal trace context, if the underlying request
        carried one (see :mod:`repro.perf.tracectx`); pools count these
        so causal coverage is measurable."""
        return getattr(self.request, "ctx", None)
