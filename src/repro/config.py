"""Configuration for the event-detection pipeline.

The tunable parameters mirror Table 2 of the paper:

============================  =======================  =================
Parameter                     Paper symbol             Nominal value
============================  =======================  =================
``quantum_size``              |Delta| (quantum)        160 messages
``high_state_threshold``      |theta| (HST)            4 user ids/quantum
``ec_threshold``              |gamma| (EC threshold)   0.20
``window_quanta``             ``w``                    30 quanta
============================  =======================  =================

The number of MinHash values kept per keyword follows Section 3.2.2:
``p = min(theta / 2, 1 / gamma)`` (at least 1).

Every field is a detection parameter; none selects an engine.  The
from-scratch referees of the AKG and rank stages are built by the
differential tests around the same stage classes (DESIGN.md Section 5).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping

from repro.errors import ConfigError
from repro.extract import make_extractor


@dataclass(frozen=True)
class DetectorConfig:
    """Immutable parameter bundle for a detector session
    (:func:`repro.api.open_session`).

    Parameters
    ----------
    quantum_size:
        Number of messages per quantum (the unit at which the sliding window
        advances).  The paper's experiments define quanta in message counts.
    window_quanta:
        Number of quanta retained in the sliding window (``w``).
    high_state_threshold:
        Minimum number of *distinct users* that must use a keyword within one
        quantum for the keyword to enter the high state (``theta``).
    ec_threshold:
        Minimum edge correlation (Jaccard coefficient of the window user-id
        sets) for an AKG edge (``gamma``).
    use_minhash_filter:
        When True (default), new-edge candidate pairs must share at least one
        of their ``p`` MinHash values before the exact EC is computed.  When
        False, EC is computed for every pair of newly bursty keywords (the
        exact, slower variant used as an ablation baseline).
    node_grace_quanta:
        A non-clustered AKG node is lazily dropped once it has not been bursty
        for this many consecutive quanta.  ``1`` reproduces the paper's lazy
        update; larger values add hysteresis.
    require_noun:
        Drop clusters containing no noun keyword (Section 7.2.2, filter 2).
    max_tokens_per_message:
        Entities beyond this per record are ignored.  Microblog posts are
        length-capped (a 140-character tweet holds ~25 words), and the cap
        also bounds the per-record pair fan-out a hostile flooder could
        inject into the graph.  Applies to every extractor.
    extractor:
        Name of the registered :class:`~repro.extract.base.EntityExtractor`
        the ingestion stage runs (:mod:`repro.extract`).  ``"keyword"``
        (default) tokenizes message text — the paper's workload, proven
        bit-identical to the pre-extractor pipeline; ``"fields"`` reads
        categorical fields of structured records; ``"edges"`` passes raw
        actor–entity interaction records through verbatim.  Validated
        against the registry (including ``extractor_options``) at
        construction.
    extractor_options:
        Keyword options handed to the extractor factory (e.g.
        ``{"fields": ["tags"]}`` for the structured-field extractor).  Must
        be JSON-serializable: the pair ``(extractor, extractor_options)``
        is the extractor's checkpoint identity, the spec a resumed session
        rebuilds it from.

    The MinHash sketch size is not a field: it is always the paper's
    derivation from ``theta`` and ``gamma`` (:attr:`effective_minhash_size`),
    and the hash salt is the constant :data:`repro.akg.minhash.HASH_SEED`.
    Nor is the Section 7.2.2 report rule: its rank floor is
    :func:`~repro.core.ranking.minimum_rank` of ``theta`` and ``gamma``.
    """

    quantum_size: int = 160
    window_quanta: int = 30
    high_state_threshold: int = 4
    ec_threshold: float = 0.20
    use_minhash_filter: bool = True
    node_grace_quanta: int = 1
    require_noun: bool = True
    max_tokens_per_message: int = 32
    extractor: str = "keyword"
    # hash=False: the options dict would break the frozen dataclass's
    # generated __hash__; configs differing only here hash alike (legal),
    # equality still compares the full options.
    extractor_options: Mapping[str, Any] = field(
        default_factory=dict, hash=False
    )

    def __post_init__(self) -> None:
        if self.quantum_size < 1:
            raise ConfigError(f"quantum_size must be >= 1, got {self.quantum_size}")
        if self.window_quanta < 1:
            raise ConfigError(f"window_quanta must be >= 1, got {self.window_quanta}")
        if self.high_state_threshold < 1:
            raise ConfigError(
                "high_state_threshold must be >= 1, got "
                f"{self.high_state_threshold}"
            )
        if not 0.0 < self.ec_threshold <= 1.0:
            raise ConfigError(
                f"ec_threshold must be in (0, 1], got {self.ec_threshold}"
            )
        if self.node_grace_quanta < 0:
            raise ConfigError(
                f"node_grace_quanta must be >= 0, got {self.node_grace_quanta}"
            )
        if self.max_tokens_per_message < 1:
            raise ConfigError(
                "max_tokens_per_message must be >= 1, got "
                f"{self.max_tokens_per_message}"
            )
        if not isinstance(self.extractor_options, Mapping):
            raise ConfigError(
                "extractor_options must be a mapping, got "
                f"{self.extractor_options!r}"
            )
        # Normalize to a private deep copy via a JSON round trip: the spec
        # is the extractor's checkpoint identity, so it must be both
        # JSON-serializable (proven here) and immune to the caller later
        # mutating a shared nested list/dict.  Then prove the spec actually
        # constructs: an unknown name or rejected options must fail at
        # config time, not mid-stream.
        try:
            options = json.loads(json.dumps(dict(self.extractor_options)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"extractor_options must be JSON-serializable: {exc}"
            ) from exc
        object.__setattr__(self, "extractor_options", options)
        make_extractor(self.extractor, self.extractor_options)

    @property
    def effective_minhash_size(self) -> int:
        """Number of MinHash values per keyword (``p`` of Section 3.2.2)."""
        derived = min(
            self.high_state_threshold // 2,
            int(math.ceil(1.0 / self.ec_threshold)),
        )
        return max(1, derived)

    @property
    def window_messages(self) -> int:
        """Total messages covered by the sliding window."""
        return self.quantum_size * self.window_quanta

    def with_overrides(self, **overrides: Any) -> "DetectorConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable mapping of every field.

        The inverse of :meth:`from_dict`; session checkpoints embed this so
        a resumed stream runs under the identical parameters.  The options
        mapping is deep-copied so callers cannot mutate the frozen config
        through the returned dict.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["extractor_options"] = json.loads(
            json.dumps(data["extractor_options"])
        )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectorConfig":
        """Build a config from :meth:`to_dict` output (validated again).

        Unknown keys raise :class:`~repro.errors.ConfigError` — a checkpoint
        written by a newer version with new parameters must fail loudly, not
        silently drop semantics.  Missing keys fall back to the defaults so
        older checkpoints keep loading.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**dict(data))


NOMINAL_CONFIG = DetectorConfig()
"""The Table 2 nominal parameter setting."""


__all__ = ["DetectorConfig", "NOMINAL_CONFIG"]
