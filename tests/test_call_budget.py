"""A host-independent record of the detector's work: Python calls per run.

Wall time on a shared host moves by more than most changes do; the number
of calls the detector makes into its own functions does not.  Two runs are
profiled with the stdlib ``cProfile``:

* the hot path: two quanta of ``build_tw_trace`` (seed 7) at q=3200, the
  ``lib-hotpath`` benchmark's configuration;
* Table 2: ``build_es_trace`` (seed 11) asked for 12,000 messages under
  the paper's parameters (q=160); the generator returns 13,834, which is
  86 quanta.

Counted are calls into functions defined under ``src/repro``.
Comprehension, generator-expression and lambda frames are left out: Python
3.12 inlines comprehensions (PEP 709), so counting them would make the
figure depend on the interpreter.  C functions and numpy's own Python code
are not counted either.  The counts do not depend on the hash seed.

A run fails when its count exceeds the committed budget by more than 1%.
A change that lowers a count commits the lower number; one that raises it
re-pins and says why in CHANGES.md.
"""

import cProfile
import os
import pstats

import pytest

import repro
from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.traces import build_es_trace, build_tw_trace

SRC = os.path.dirname(repro.__file__) + os.sep

HOTPATH = dict(
    quantum_size=3200,
    window_quanta=6,
    high_state_threshold=80,
    ec_threshold=0.2,
    node_grace_quanta=2,
)
TABLE2 = dict(
    quantum_size=160,
    window_quanta=30,
    high_state_threshold=4,
    ec_threshold=0.2,
    node_grace_quanta=1,
)

RUNS = {
    "hot-path": (lambda: build_tw_trace(total_messages=6400, seed=7), HOTPATH),
    "table2": (lambda: build_es_trace(total_messages=12_000, seed=11), TABLE2),
}

#: Calls into ``src/repro`` functions per run (see the module docstring).
BUDGET = {
    "hot-path": 7_997,  # 3,999 per quantum
    "table2": 170_605,  # 1,984 per quantum
}


def detector_calls(messages, config):
    """``(calls, quanta)``: calls into ``src/repro`` functions while a fresh
    session processes ``messages``."""
    profile = cProfile.Profile()
    profile.enable()
    session = open_session(DetectorConfig(**config))
    quanta = sum(1 for _ in session.ingest_many(messages))
    session.close()
    profile.disable()
    calls = sum(
        ncalls
        for (filename, _, name), (_, ncalls, *_) in
        pstats.Stats(profile).stats.items()
        if filename.startswith(SRC) and not name.startswith("<")
    )
    return calls, quanta


@pytest.mark.parametrize("run", sorted(RUNS))
def test_calls_within_budget(run):
    build, config = RUNS[run]
    calls, quanta = detector_calls(build().messages, config)
    assert quanta == {"hot-path": 2, "table2": 86}[run]
    assert calls <= BUDGET[run] * 1.01, (
        f"{run}: {calls} calls ({calls / quanta:.0f} per quantum) against a "
        f"budget of {BUDGET[run]}"
    )
