"""Shared fixtures: compiled workload programs, cached per session.

Also registers the ``nightly`` hypothesis profile: property tests that
set no ``max_examples`` of their own run 1,000 examples under it
(``pytest --hypothesis-profile=nightly``) instead of the default 100.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import compile_source
from repro.workloads import CASES, PROGRAMS

settings.register_profile("nightly", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def compiled_programs():
    """All five benchmark programs, compiled once."""
    return {name: compile_source(src) for name, src in PROGRAMS.items()}


@pytest.fixture(scope="session")
def compiled_case_olds():
    """Old versions of every update case, compiled once."""
    return {cid: compile_source(case.old_source) for cid, case in CASES.items()}


SIMPLE_PROGRAM = """
u16 counter = 0;
u8 mask = 7;

u16 bump(u16 x, u8 step) {
    u16 r = x + step;
    if (r > 100 && step != 0) { r = 0; }
    return r;
}

void main() {
    u8 i;
    for (i = 0; i < 20; i++) {
        counter = bump(counter, i & mask);
        if (timer_fired()) { led_set(counter & 7); radio_send(counter); }
    }
    halt();
}
"""


@pytest.fixture(scope="session")
def simple_program():
    return compile_source(SIMPLE_PROGRAM)


@pytest.fixture(scope="session")
def simple_source():
    return SIMPLE_PROGRAM
