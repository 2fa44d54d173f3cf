"""Synthetic vocabulary with ground-truth part-of-speech tags.

Words are pronounceable syllable compounds ("datorin", "velkun") so traces
are human-readable when debugging.  Background word frequencies follow a
Zipf law — the skew is what produces *accidental* keyword co-occurrence in
the CKG, which is exactly the noise source the paper's burstiness and EC
thresholds must reject.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError

_ONSETS = "b d f g k l m n p r s t v z br dr gr kr pl st tr".split()
_NUCLEI = "a e i o u ai ea io ou".split()
_CODAS = ["", "n", "r", "s", "t", "l", "k"]


def _word_from_index(index: int) -> str:
    """Deterministic distinct pronounceable word for an integer index."""
    parts: List[str] = []
    i = index
    for _ in range(2):
        onset = _ONSETS[i % len(_ONSETS)]
        i //= len(_ONSETS)
        nucleus = _NUCLEI[i % len(_NUCLEI)]
        i //= len(_NUCLEI)
        parts.append(onset + nucleus)
    coda = _CODAS[i % len(_CODAS)]
    i //= len(_CODAS)
    suffix = str(i) if i else ""
    return "".join(parts) + coda + suffix


class Vocabulary:
    """Zipf-weighted background vocabulary plus reserved event words.

    Parameters
    ----------
    size:
        Number of background words.
    zipf_exponent:
        Skew of the background frequency law (1.0–1.3 is Twitter-like).
    noun_fraction / verb_fraction:
        POS mix; the remainder are adjectives.  Tags feed the
        :class:`repro.text.pos.NounTagger` lexicon, making the noun filter
        exact on synthetic traces.
    seed:
        Drives POS assignment only; word shapes are index-deterministic.
    """

    def __init__(
        self,
        size: int = 5000,
        zipf_exponent: float = 1.1,
        noun_fraction: float = 0.55,
        verb_fraction: float = 0.30,
        seed: int = 0,
    ) -> None:
        if size < 10:
            raise ConfigError(f"vocabulary size must be >= 10, got {size}")
        if not 0 < zipf_exponent:
            raise ConfigError(f"zipf_exponent must be > 0, got {zipf_exponent}")
        if noun_fraction + verb_fraction > 1.0:
            raise ConfigError("noun_fraction + verb_fraction must be <= 1")
        self.size = size
        rng = np.random.default_rng(seed)
        self.words: List[str] = [_word_from_index(i) for i in range(size)]
        ranks = np.arange(1, size + 1, dtype=float)
        weights = ranks ** (-zipf_exponent)
        self._probs = weights / weights.sum()
        tags = rng.choice(
            ["noun", "verb", "adj"],
            size=size,
            p=[
                noun_fraction,
                verb_fraction,
                1.0 - noun_fraction - verb_fraction,
            ],
        )
        self.pos_tags: Dict[str, str] = dict(zip(self.words, tags))
        self._event_word_count = 0

    # ----------------------------------------------------------- sampling

    def sample_background(
        self, rng: np.random.Generator, count: int
    ) -> List[str]:
        """Draw ``count`` background words by Zipf weight (with repetition)."""
        idx = rng.choice(self.size, size=count, p=self._probs)
        return [self.words[i] for i in idx]

    def sample_background_batch(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Vectorised index batch (callers map indexes to words lazily)."""
        return rng.choice(self.size, size=count, p=self._probs)

    # -------------------------------------------------------- event words

    def make_event_keywords(self, count: int, tag: str = "noun") -> List[str]:
        """Mint fresh event keywords disjoint from the background vocabulary.

        Event keywords get distinct shapes ("evt12kw3"-free: they reuse the
        syllable generator at offsets beyond the background range) so ground
        truth attribution is unambiguous.
        """
        words = []
        for _ in range(count):
            index = self.size + self._event_word_count
            self._event_word_count += 1
            word = _word_from_index(index * 7 + 3)  # decorrelate shapes
            while word in self.pos_tags:
                self._event_word_count += 1
                index = self.size + self._event_word_count
                word = _word_from_index(index * 7 + 3)
            self.pos_tags[word] = tag
            words.append(word)
        return words

    def lexicon(self) -> Dict[str, str]:
        """word -> POS tag for every word minted so far."""
        return dict(self.pos_tags)


__all__ = ["Vocabulary"]
