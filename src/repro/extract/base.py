"""The entity-extractor contract and the extractor registry.

The detection engine is *entity-agnostic*: every layer downstream of
ingestion — the windowed id sets, burstiness automaton, MinHash sketches,
the AKG builder, cluster maintenance, ranking, tracking — operates on
**opaque entity tokens** correlated by the actors that produced them.  The
Twitter-keyword workload of the source paper is one instantiation: entities
are tokenized keywords, actors are tweet authors.  Co-purchase streams
(actor = buyer, entities = products), citation streams (actor = citing
paper, entities = cited works) or categorical log records (actor = client,
entities = tagged field values) run through the identical engine; only the
first pipeline stage — *extraction* — differs.

An :class:`EntityExtractor` maps one stream record
(:class:`~repro.stream.messages.Message`: ``user_id`` is the actor id, the
payload is ``text`` / ``tokens`` / ``fields``) to a tuple of entity
tokens.  The contract an implementation must honour (DESIGN.md Section 8):

purity / determinism
    ``entities(message)`` must be a pure function of the message (and the
    extractor's *construction options*): no I/O, no clocks, no mutable
    state.  Every differential guarantee of the engine — oracle
    equivalence, bit-identical resume — quantifies over re-running
    extraction on the same records.

string entities
    Entities must be ``str``.  Checkpoints serialize them sorted, which
    needs one canonical string form per entity.

checkpoint identity
    A registered extractor is reconstructed on resume from its
    ``(name, options())`` spec recorded in the checkpoint; ``options()``
    must therefore return a JSON-serializable mapping that rebuilds an
    extractor with identical behaviour.  Extractors that close over
    function-valued state (e.g. a custom tokenizer callable) set
    ``custom = True``: sessions still checkpoint, but resuming demands the
    same object back, exactly like custom noun taggers.

The registry maps extractor names to factories so configs and checkpoints
can both resolve an extractor by value (:func:`make_extractor`).  Built-ins
register on package import; client code may :func:`register_extractor` its
own before opening sessions.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import ConfigError

Entity = str
"""One opaque entity token — a graph-node candidate.  Always a string
(checkpoints sort by it)."""


@runtime_checkable
class EntityExtractor(Protocol):
    """Stage-1 contract: one stream record in, entity tokens out."""

    name: str
    """Registry identity; recorded in checkpoints for reconstruction."""

    textual: bool
    """Whether entities are natural-language words.  The Section 7.2.2
    noun filter only applies to textual extractors — a product id or a
    tagged field value has no part of speech."""

    custom: bool
    """True when the extractor holds function-valued state the registry
    cannot reconstruct (sessions then demand the same object on resume)."""

    def entities(self, message) -> Tuple[Entity, ...]:
        """Entity tokens of one record, in payload order (may repeat)."""
        ...

    def options(self) -> Dict[str, Any]:
        """JSON-serializable construction options; with ``name`` this is
        the spec that rebuilds the extractor on resume."""
        ...


_REGISTRY: Dict[str, Callable[..., EntityExtractor]] = {}


def register_extractor(name: str, factory: Callable[..., EntityExtractor]) -> None:
    """Register ``factory`` under ``name`` (``factory(**options)``).

    Re-registering a name replaces the factory — deliberate, so tests and
    applications can shadow a built-in with an instrumented variant.
    """
    if not name or not isinstance(name, str):
        raise ConfigError(f"extractor name must be a non-empty string: {name!r}")
    _REGISTRY[name] = factory


def extractor_names() -> List[str]:
    """Registered extractor names, sorted (CLI choices, error messages)."""
    return sorted(_REGISTRY)


def make_extractor(
    name: str, options: Optional[Mapping[str, Any]] = None
) -> EntityExtractor:
    """Build a registered extractor from its ``(name, options)`` spec.

    Raises :class:`~repro.errors.ConfigError` for an unknown name or
    options the factory rejects — config validation and checkpoint restore
    both funnel through here, so the error message names the valid
    choices.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown extractor {name!r}; registered extractors: "
            f"{', '.join(extractor_names()) or '(none)'}"
        )
    try:
        return factory(**dict(options or {}))
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(
            f"invalid options for extractor {name!r}: {exc}"
        ) from exc


def extractor_spec(extractor: EntityExtractor) -> Dict[str, Any]:
    """The ``{"name", "options"}`` spec that reconstructs ``extractor``."""
    return {"name": extractor.name, "options": dict(extractor.options())}


def is_reconstructible(extractor: EntityExtractor) -> bool:
    """Whether ``extractor`` can be rebuilt by value from its spec.

    True for registered, non-``custom`` extractors — the precondition for
    recording it in checkpoints.
    """
    return not getattr(extractor, "custom", False) and extractor.name in _REGISTRY


__all__ = [
    "Entity",
    "EntityExtractor",
    "register_extractor",
    "extractor_names",
    "make_extractor",
    "extractor_spec",
    "is_reconstructible",
]
