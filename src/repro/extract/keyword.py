"""The default extractor: microblog text tokenized into keywords.

This is the paper's original ingestion path, unchanged in behaviour: a
message's pre-extracted ``tokens`` pass through untouched, raw ``text`` is
tokenized by :func:`repro.text.tokenize.tokenize` (or a caller-supplied
tokenizer, e.g. a :class:`repro.text.synonyms.SynonymNormalizer`-wrapped
one).  The golden parity suite (``tests/test_extractor_parity.py``) pins
this extractor's end-to-end output to the pre-refactor pipeline bit for
bit.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.text.tokenize import tokenize


class KeywordExtractor:
    """Tokenize message text into keyword entities (the classic path)."""

    name = "keyword"
    textual = True

    def __init__(self, tokenizer=None) -> None:
        """``tokenizer`` overrides the default text tokenizer.  Callables
        cannot be checkpointed, so a custom tokenizer marks the extractor
        ``custom`` — the session demands the same object back on resume."""
        self.custom = tokenizer is not None
        self.tokenizer = tokenizer if tokenizer is not None else tokenize

    def entities(self, message) -> Tuple[str, ...]:
        return message.keyword_tuple(self.tokenizer)

    def options(self) -> Dict[str, Any]:
        return {}


__all__ = ["KeywordExtractor"]
