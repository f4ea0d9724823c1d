""""Flea-flicker" Multipass pipelining (Barnes, Ryoo & Hwu, MICRO 2005).

Multipass extends Runahead with a *result buffer*: advance passes save
the results of miss-independent instructions, and later passes over the
same region reuse them — a reused instruction's consumers need not wait
on its latency, so each pass runs faster ("breaking data-dependences
and increasing ILP").  Unlike SLTP/iCFP, every post-miss instruction is
still re-processed on every pass; reuse accelerates but does not skip.

Configuration per Section 5.1: advances under all L2 misses and under
*primary* data-cache misses; blocks on secondary data-cache misses.
"""

from __future__ import annotations

from ..engine.base import ISSUED, STALLED
from ..functional.trace import DynInst
from .runahead import RUNAHEAD, RunaheadCore


class MultipassCore(RunaheadCore):
    """Runahead with result reuse across passes."""

    name = "multipass"

    def __init__(self, trace, config=None, hierarchy=None, predictor=None,
                 advance_on: str = "l2_d1", result_buffer_entries: int = 128,
                 **kwargs) -> None:
        super().__init__(trace, config=config, hierarchy=hierarchy,
                         predictor=predictor, advance_on=advance_on, **kwargs)
        self.result_buffer_entries = result_buffer_entries
        #: dyn.index -> completion latency class reuse marker.
        self._results: set[int] = set()
        self.result_reuses = 0

    # ------------------------------------------------------------------
    def _head_wakeup(self, idx: int) -> int:
        """A reusable head waits for nothing but decode: the saved
        result breaks its data dependences (:meth:`_issue_reused` checks
        only port availability, which the leap never waits on)."""
        if idx in self._results:
            return self._decode_ready[idx]
        return super()._head_wakeup(idx)

    def _cycles(self, steps: int) -> None:
        # RunaheadCore._cycles with the result-reuse check inlined ahead
        # of the mode-bound issue path.  ``_results`` is re-read per
        # cycle: a runahead exit rebinds it.
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        data_mshrs = hierarchy.mshrs
        ports = self.ports
        int_capacity = ports.int_capacity
        mem_capacity = ports.mem_capacity
        width = self._width
        insts = self._insts
        decode_ready = self._decode_ready
        fq_depth = self._fq_depth
        trace_len = self._trace_len
        max_cycles = self._max_cycles
        issue_reused = self._issue_reused
        do_fetch = self.do_fetch
        store_queue = self.store_queue
        committed_memory = self.committed_memory
        leap_to_horizon = self._leap_to_horizon
        done = self.done
        while steps:
            steps -= 1
            cycle = self.cycle
            if cycle > max_cycles:
                raise self._diverged()
            cycle += 1
            self.cycle = cycle
            # Fill returns (the body of MemoryHierarchy.retire_mshrs).
            if (ifetch_mshrs._next_ready is not None
                    and cycle >= ifetch_mshrs._next_ready):
                ifetch_mshrs.retire_complete(cycle)
            if (data_mshrs._next_ready is not None
                    and cycle >= data_mshrs._next_ready):
                data_mshrs.retire_complete(cycle)
            if self.mode == RUNAHEAD and cycle >= self._trigger_ready:
                self._exit_runahead()
            # Issue (with result reuse).
            ports.int_free = int_capacity
            ports.mem_free = mem_capacity
            progress = False
            head = self.fq_head
            cursor = self.cursor
            results = self._results
            slots = width
            while slots > 0 and head < cursor and decode_ready[head] <= cycle:
                if head in results:
                    status = issue_reused(insts[head])
                else:
                    status = self._mode_issue(insts[head])
                if status is not ISSUED:
                    break
                head += 1
                progress = True
                slots -= 1
            self.fq_head = head
            # Fetch (the guard saves the call when the front end is idle).
            if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                    and cursor < trace_len and cursor - head < fq_depth
                    and do_fetch()):
                progress = True
            # Store drain.
            if store_queue._queue and store_queue.drain_step(
                    hierarchy, cycle, committed_memory):
                progress = True
            if not progress:
                leap_to_horizon()
            if self.cursor >= trace_len and done():
                break

    def _issue_reused(self, dyn: DynInst) -> str:
        """Replay an instruction whose result a previous pass recorded.

        The saved result breaks the data dependence: no source wait, no
        cache access, single-cycle completion.  It still occupies an
        issue slot and port (Multipass re-processes everything).
        """
        idx = dyn.index
        ports = self.ports
        if self._port_int[idx]:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
            ports.int_free -= 1
        else:
            if ports.mem_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
            ports.mem_free -= 1
        completion = self.cycle + 1
        self.result_reuses += 1
        if self.mode == RUNAHEAD:
            dst = dyn.dst
            if dst is not None:
                self._shadow_poison.discard(dst)
                self.reg_ready[dst] = completion
            self.stats.advance_instructions += 1
            if self._phase_of is not None:
                self._phase_advance(idx)
            if dyn.is_control:
                self.predictor.update(dyn)
                if not self._predicted_ok[idx]:
                    self.fetch_blocked = False
                    self.fetch_resume_cycle = completion
                    self._last_fetch_line = -1
        else:
            # Architectural pass: the instruction commits with its saved
            # result; stores still enter the store queue for real.
            if dyn.is_store:
                if self.store_queue.full:
                    self.stats.stalls.store_buffer_full += 1
                    return STALLED
                self.store_queue.push(dyn.addr, dyn.store_val, self.cycle)
            dst = dyn.dst
            if dst is not None:
                self.reg_ready[dst] = completion
            self._results.discard(idx)  # consumed architecturally
            self.commit(dyn, completion)
        return ISSUED

    # ------------------------------------------------------------------
    def _runahead_writeback(self, dyn: DynInst, poisoned: bool,
                            completion: int) -> None:
        # Flattened parent body (this runs once per runahead instruction).
        dst = dyn.dst
        if dst is not None:
            if poisoned:
                self._shadow_poison.add(dst)
                self.reg_ready[dst] = self.cycle
            else:
                self._shadow_poison.discard(dst)
                self.reg_ready[dst] = completion
        self.stats.advance_instructions += 1
        if self._phase_of is not None:
            self._phase_advance(dyn.index)
        if not poisoned and not dyn.is_store:
            results = self._results
            if (dyn.index not in results
                    and len(results) < self.result_buffer_entries):
                results.add(dyn.index)

    def _exit_runahead(self) -> None:
        super()._exit_runahead()
        # Results for instructions older than the restart point can never
        # be replayed again; free their buffer slots.
        self._results = {i for i in self._results if i >= self.cursor}
