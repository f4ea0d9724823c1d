"""Miss-status holding registers.

MSHRs track in-flight line fills.  A second miss to a pending line is a
*secondary* miss: it merges into the existing MSHR and shares its fill
time instead of issuing a new memory transaction.  iCFP additionally
hangs its poison-vector bit assignment off the MSHR (one bit per MSHR,
round-robin — Section 3.4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class MSHR:
    """One outstanding line fill."""

    line_addr: int
    issue_cycle: int
    ready_cycle: int
    #: Poison-vector bit index assigned by the iCFP engine (None elsewhere).
    poison_bit: int | None = None
    #: Demand merges observed while in flight (secondary-miss count).
    merges: int = 0
    #: True if the fill was initiated by a prefetch, not a demand access.
    is_prefetch: bool = False
    #: True if the fill also missed in the L2 (drives 'L2-only' advance
    #: triggers in the Figure 6 configurations).
    is_l2: bool = False


class MSHRFull(Exception):
    """Raised when allocation is attempted with no free MSHR."""


@dataclass
class MSHRFile:
    """A bounded file of MSHRs indexed by line address.

    The file tracks its own *event horizon* — the earliest pending fill
    time, ``_next_ready`` — incrementally, so the every-cycle retire
    sweep and the leap engine's horizon scan (through
    :meth:`MemoryHierarchy.next_event_cycle`) are O(1) on the (dominant)
    cycles where nothing completes.  ``ready_cycle`` is immutable after
    allocation, which is what makes the cached minimum sound.
    """

    capacity: int
    _pending: dict[int, MSHR] = field(default_factory=dict)
    allocations: int = 0
    merges: int = 0
    full_stalls: int = 0
    #: Cached min(ready_cycle) over pending fills; None when empty.
    _next_ready: int | None = None

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    def get(self, line_addr: int) -> MSHR | None:
        """The pending MSHR for ``line_addr``, or None."""
        return self._pending.get(line_addr)

    def allocate(self, line_addr: int, issue_cycle: int, ready_cycle: int,
                 is_prefetch: bool = False, is_l2: bool = False) -> MSHR:
        """Allocate an MSHR for a new line fill."""
        if line_addr in self._pending:
            raise ValueError(f"line {line_addr:#x} already pending")
        if self.full:
            self.full_stalls += 1
            raise MSHRFull(f"no free MSHR for line {line_addr:#x}")
        mshr = MSHR(line_addr, issue_cycle, ready_cycle,
                    is_prefetch=is_prefetch, is_l2=is_l2)
        self._pending[line_addr] = mshr
        self.allocations += 1
        next_ready = self._next_ready
        if next_ready is None or ready_cycle < next_ready:
            self._next_ready = ready_cycle
        return mshr

    def merge(self, line_addr: int) -> MSHR:
        """Record a secondary miss on a pending line."""
        mshr = self._pending[line_addr]
        mshr.merges += 1
        self.merges += 1
        return mshr

    def retire_complete(self, cycle: int) -> list[MSHR]:
        """Remove and return all MSHRs whose fills completed by ``cycle``."""
        next_ready = self._next_ready
        if next_ready is None or cycle < next_ready:
            return []  # every-cycle fast path: nothing can have finished
        pending = self._pending
        done = [m for m in pending.values() if m.ready_cycle <= cycle]
        for mshr in done:
            del pending[mshr.line_addr]
        self._next_ready = (min(m.ready_cycle for m in pending.values())
                            if pending else None)
        return done

    def pending(self) -> list[MSHR]:
        return list(self._pending.values())

    def outstanding_demand(self, cycle: int) -> int:
        """Number of demand fills still in flight at ``cycle``."""
        return sum(
            1
            for m in self._pending.values()
            if not m.is_prefetch and m.ready_cycle > cycle
        )
