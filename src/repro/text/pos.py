"""Noun identification for the spurious-event filter (Section 7.2.2).

The paper drops clusters containing no noun keyword ("there must be at least
one noun keyword in real world events") using the Stanford POS tagger.  A
full statistical tagger is out of scope offline, so this module substitutes:

* an optional **lexicon** (word -> part-of-speech) — the synthetic dataset
  generator supplies ground-truth tags for its whole vocabulary, making the
  filter exact on synthetic traces;
* a **suffix heuristic** fallback for out-of-lexicon words, tuned for the
  precision filter's actual question ("could this possibly be a noun?").

DESIGN.md records this substitution.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

_NON_NOUN_SUFFIXES = (
    "ly",       # adverbs
    "ing",      # gerunds/participles (often verbs in microblog text)
    "ed",       # past participles
    "ful", "ous", "ive", "able", "ible", "ish",  # adjectives
)

_CLOSED_CLASS_NON_NOUNS = frozenset(
    """
    very really quite almost maybe perhaps soon later never always often
    said says going gonna wanna watch watching breaking live massive huge
    moderate awesome amazing terrible horrible great good bad big small
    many much says today tonight tomorrow yesterday now
    """.split()
)


class NounTagger:
    """Binary noun/non-noun classifier with lexicon override."""

    def __init__(self, lexicon: Optional[Mapping[str, str]] = None) -> None:
        """``lexicon`` maps word -> POS tag; any tag starting with "n"
        (case-insensitive: "n", "noun", "NN", "NNP"...) counts as a noun."""
        self._lexicon = dict(lexicon) if lexicon else {}

    def is_noun(self, word: str) -> bool:
        token = word.lower().lstrip("#@")
        tag = self._lexicon.get(token)
        if tag is not None:
            return tag.lower().startswith("n")
        if not token:
            return False
        if token[0].isdigit():
            # Bare numerals ("5.9") qualify an event cluster only together
            # with a real noun, so they do not count as nouns themselves.
            return False
        if token in _CLOSED_CLASS_NON_NOUNS:
            return False
        return not token.endswith(_NON_NOUN_SUFFIXES)

    def has_noun(self, words: Iterable[str]) -> bool:
        """True iff at least one word is (possibly) a noun — the filter the
        precision analysis applies to whole clusters."""
        return any(self.is_noun(word) for word in words)


__all__ = ["NounTagger"]
