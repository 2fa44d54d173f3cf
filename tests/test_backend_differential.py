"""The one engine against its golden fingerprints and its one referee.

The column engine (DESIGN.md Section 9) is the only production hot path;
what it must reproduce was pinned while a per-message object pipeline still
existed beside it, and the constants below have not moved since:

* golden fingerprints over the three stream regimes — reports, sink
  notes, event histories, and normalized checkpoints;
* the from-scratch AKG referee (``oracles.oracle_session``) as the
  differential reference: everything it is specified to share with the
  fast path — reported/suppressed events, ranks, notes, histories — is
  identical (its ``removal_candidates`` work counter differs by design: it
  sweeps every node);
* there is no engine switch left to set: ``backend`` is an unknown config
  field.
"""

import pytest

from golden import (
    bursty_stream,
    fingerprint,
    reentry_stream,
    run_structure,
    uniform_stream,
)
from oracles import oracle_session
from repro.config import DetectorConfig
from repro.errors import ConfigError

BASE = dict(
    quantum_size=20,
    window_quanta=3,
    high_state_threshold=3,
    ec_threshold=0.2,
    node_grace_quanta=1,
)

REGIMES = {
    "bursty": lambda: bursty_stream(11, 600),
    "uniform": lambda: uniform_stream(13, 600),
    "reentry": lambda: reentry_stream(17, 600, 120),
}

# Golden fingerprints over the three regimes, generated against the
# per-message object pipeline this repo started from.  Any drift in ranks,
# supports, lifecycle events, AKG counters, or checkpoint layout flips a
# hash.
GOLDEN = {
    "bursty": "5395aedf79f7276c296c0442bed9fe9e96e52ffad46470ee90ec080536a56e83",
    "uniform": "b3f772d72dfa5692a88ec31c2c1f6183017538223f88734e9f66d10039b593fd",
    "reentry": "ff3614f2a4416ce4b3112a904b98194dab8f48764464d96e743463616357f119",
}


def _shared_with_oracle(structure):
    """The part of a run structure the oracle is specified to reproduce."""
    reports = []
    for record in structure["reports"]:
        record = dict(record)
        akg = list(record["akg"])
        akg[10] = None  # removal_candidates: the oracle sweeps every node
        record["akg"] = akg
        reports.append(record)
    return {
        "reports": reports,
        "notes": structure["notes"],
        "histories": structure["histories"],
    }


class TestGoldenParity:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_default_path_matches_golden_fingerprint(self, regime, tmp_path):
        structure = run_structure(
            REGIMES[regime](), DetectorConfig(**BASE), str(tmp_path / "ck")
        )
        assert fingerprint(structure) == GOLDEN[regime], (
            f"the default path drifted from the golden structure on the "
            f"{regime} regime"
        )

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_oracle_akg_agrees_with_the_default_path(self, regime):
        config = DetectorConfig(**BASE)
        fast = run_structure(REGIMES[regime](), config)
        oracle = run_structure(REGIMES[regime](), config, opener=oracle_session)
        assert _shared_with_oracle(oracle) == _shared_with_oracle(fast)


class TestBackendConfig:
    def test_unknown_backend_rejected(self):
        """Every value is unknown now: the field itself is gone."""
        with pytest.raises(ConfigError, match="unknown config fields: backend"):
            DetectorConfig.from_dict({"backend": "batched"})
        with pytest.raises(TypeError):
            DetectorConfig(backend="reference")
