"""Which implementation of the dispatch core is running.

The engine's run loop (:meth:`repro.sim.engine.Engine.run_until`) and
the heap pops it calls (:meth:`repro.sim.event_queue.EventQueue.pop_ready`)
are plain interpreted Python; there is no compiled variant.
:data:`ACTIVE_IMPL` names that implementation so benchmark results can
record it alongside the interpreter and library versions.
"""

ACTIVE_IMPL = "interpreted"

__all__ = ["ACTIVE_IMPL"]
