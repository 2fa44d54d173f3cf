"""Tokenisation, stop words, and the noun tagger."""

import pytest

from repro.text.pos import NounTagger
from repro.text.stopwords import STOP_WORDS, is_stop_word
from repro.text.tokenize import tokenize


class TestTokenize:
    def test_figure1_example(self):
        tokens = tokenize("Earthquake of 5.9 struck Eastern Turkey! http://t.co/x")
        assert tokens == ["earthquake", "5.9", "struck", "eastern", "turkey"]

    def test_stop_words_removed(self):
        assert tokenize("the quick and the dead") == ["quick", "dead"]

    def test_urls_removed(self):
        assert tokenize("see https://example.com/page now") == ["see"]
        assert tokenize("see www.example.com now") == ["see"]

    def test_hashtags_preserved(self):
        assert "#jobs" in tokenize("new #jobs alert")

    def test_mentions_preserved(self):
        assert "@nasa" in tokenize("via @NASA tonight")

    def test_decimal_numbers_survive(self):
        assert "5.9" in tokenize("magnitude 5.9 quake")
        assert "150" in tokenize("plane crash kills 150 passengers")

    def test_single_characters_dropped(self):
        assert tokenize("a b c word") == ["word"]

    def test_case_folding(self):
        assert tokenize("TURKEY Turkey turkey") == ["turkey"] * 3

    def test_apostrophes_trimmed(self):
        assert tokenize("'quoted' word") == ["quoted", "word"]

    def test_empty_text(self):
        assert tokenize("") == []


class TestStopWords:
    def test_common_words_included(self):
        for word in ("the", "and", "is", "rt", "via"):
            assert is_stop_word(word)

    def test_content_words_excluded(self):
        for word in ("earthquake", "turkey", "storm"):
            assert not is_stop_word(word)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            STOP_WORDS.add("new")


class TestNounTagger:
    def test_lexicon_takes_priority(self):
        tagger = NounTagger({"running": "noun", "storm": "verb"})
        assert tagger.is_noun("running")
        assert not tagger.is_noun("storm")

    def test_lexicon_tag_variants(self):
        tagger = NounTagger({"a": "NN", "b": "NNP", "c": "Noun", "d": "VB"})
        assert tagger.is_noun("a") and tagger.is_noun("b") and tagger.is_noun("c")
        assert not tagger.is_noun("d")

    def test_heuristic_suffixes(self):
        tagger = NounTagger()
        assert not tagger.is_noun("quickly")
        assert not tagger.is_noun("running")
        assert not tagger.is_noun("wonderful")
        assert tagger.is_noun("earthquake")
        assert tagger.is_noun("tornado")

    def test_numerals_not_nouns(self):
        tagger = NounTagger()
        assert not tagger.is_noun("5.9")
        assert not tagger.is_noun("150")

    def test_hashtag_stripped(self):
        tagger = NounTagger({"jobs": "noun"})
        assert tagger.is_noun("#jobs")

    def test_has_noun(self):
        tagger = NounTagger()
        assert tagger.has_noun(["quickly", "earthquake"])
        assert not tagger.has_noun(["quickly", "running"])
        assert not tagger.has_noun([])

    def test_closed_class_words(self):
        tagger = NounTagger()
        assert not tagger.is_noun("massive")
        assert not tagger.is_noun("tonight")
