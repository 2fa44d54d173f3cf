"""Seed-pinned golden parity of the default keyword path.

The fingerprints below were generated against the **pre-refactor** tree
(PR 4 head, before the ``repro.extract`` package existed) with::

    PYTHONPATH=src:tests python tests/test_extractor_parity.py

Each hash covers one full session pass over one seed-pinned stream regime:
every consumer-visible field of every ``QuantumReport``, every sink
notification, every event history, and the normalized checkpoint state
(see ``tests/golden.py`` for the canonicalization).  The refactored
``KeywordExtractor`` path must reproduce them bit for bit — this is the
acceptance gate that the multi-layer extractor refactor did not move a
single reported rank, lifecycle transition, or checkpointed window entry on
the existing workload.

If a hash ever changes, that is a *semantic* change to the keyword
pipeline; do not re-pin without understanding exactly which record moved.
"""

from __future__ import annotations

import pytest

from repro.config import DetectorConfig

from golden import (
    bursty_stream,
    fingerprint,
    reentry_stream,
    run_structure,
    uniform_stream,
)


def make_config(**overrides):
    base = dict(
        quantum_size=20,
        window_quanta=3,
        high_state_threshold=3,
        ec_threshold=0.2,
        node_grace_quanta=1,
        require_noun=False,
    )
    base.update(overrides)
    return DetectorConfig(**base)


def regime(name):
    """(messages, config) for one golden regime — all inputs seed-pinned."""
    if name == "bursty":
        # require_noun=True: the noun filter must survive the refactor too.
        return bursty_stream(11, 700), make_config(require_noun=True)
    if name == "uniform":
        return uniform_stream(13, 700), make_config()
    config = make_config()
    period = config.quantum_size * config.window_quanta
    return reentry_stream(17, 700, period), config


GOLDEN = {
    ("bursty", "serial"): "58c1c44c2bd0d7bd6eadb0de19e21fd420ba24fb2c7c6c584c63c6e0d6ec6ca6",
    ("uniform", "serial"): "447d06d45ec782a5f3f775d138d0550f80c836e2708f1017c7eeda9dc10c5aa0",
    ("reentry", "serial"): "35f0494de5e6c06cb57acde736619a8bd359eca90b5a510973e9e94796865652",
}


@pytest.mark.parametrize("name", ["bursty", "uniform", "reentry"])
@pytest.mark.parametrize("mode", ["serial"])  # the one execution mode
def test_keyword_path_matches_pre_refactor_golden(name, mode, tmp_path):
    messages, config = regime(name)
    structure = run_structure(messages, config, tmp_path / "golden.ckpt")
    assert fingerprint(structure) == GOLDEN[(name, mode)], (
        f"keyword-path fingerprint diverged from the pre-refactor pipeline "
        f"({name}, {mode})"
    )


def _generate():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("bursty", "uniform", "reentry"):
            messages, config = regime(name)
            structure = run_structure(messages, config, Path(tmp) / "g.ckpt")
            print(f'    ("{name}", "serial"): "{fingerprint(structure)}",')


if __name__ == "__main__":
    _generate()
