"""Tests for the dispatch-core implementation marker.

:mod:`repro.sim.fastloop` names the implementation of the engine's run
loop so benchmark results can record it; the loop is plain Python.
"""

from __future__ import annotations

from repro.sim import fastloop


def test_active_impl_is_a_known_value():
    assert fastloop.ACTIVE_IMPL == "interpreted"
