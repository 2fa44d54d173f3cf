"""Stateful model check of the sliding-window id-set index.

A hypothesis state machine feeds arbitrary quantum contents into
:class:`~repro.akg.idsets.IdSetIndex` (through ``helpers.MappingIdSetIndex``)
alongside a naive model (a plain list of the quanta fed so far, windowed by
quantum number) and asserts support, membership, Jaccard, what each slide
moved — supports and live users before and after it, and its support
columns, which also name the keywords it emptied — and the interner
populations agree after every step.  The quantum counter may jump, so one slide can expire several blocks
at once — a pair recurring across them must be subtracted once per block —
and users and keywords that leave the window release interner slots the
next newcomers reuse.  Sketches are checked against the paper's definition
over the model's id sets, and a snapshot restored into a fresh index must
answer every query identically (restore and slide share ``_rebuild``).
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oracles import MinHasher
from helpers import MappingIdSetIndex

WINDOW = 3
SKETCH_SIZE = 3
KEYWORDS = ["alpha", "beta", "gamma"]
PAIRS = [(kw1, kw2) for kw1 in KEYWORDS for kw2 in KEYWORDS]

CONTENT = st.dictionaries(
    st.sampled_from(KEYWORDS),
    st.sets(st.integers(0, 15), min_size=0, max_size=6),
    max_size=len(KEYWORDS),
)


class IdSetModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = MappingIdSetIndex(window_quanta=WINDOW)
        self.history = []  # list of (quantum, {keyword: set(users)})
        self.quantum = -1

    def _slide(self, content, step):
        model_before = {kw: len(self._model_users(kw)) for kw in KEYWORDS}
        model_users_before = self._model_window_users()
        support_before = {kw: self.index.support(kw) for kw in KEYWORDS}
        users_before = self.index.window_users()
        assert support_before == model_before
        assert users_before == model_users_before
        eids = {kw: self.index.ents.ids.get(kw) for kw in KEYWORDS}
        self.quantum += step
        delta = self.index.add_quantum(self.quantum, content)
        self.history.append((self.quantum, content))
        support_after = {kw: self.index.support(kw) for kw in KEYWORDS}
        # The slide's supports, before and after, equal the model's.
        expected = {
            kw: (model_before[kw], after)
            for kw in KEYWORDS
            if (after := len(self._model_users(kw))) != model_before[kw]
        }
        assert {
            kw: (support_before[kw], support_after[kw])
            for kw in KEYWORDS
            if support_after[kw] != support_before[kw]
        } == expected
        # So do the delta's support columns, read at every keyword's id —
        # the id it held before the slide (which released it if the
        # keyword emptied) or the one the entering quantum interned.
        for kw in KEYWORDS:
            eid = eids[kw]
            if eid is None:
                eid = self.index.ents.ids.get(kw)
            if eid is not None:
                assert (int(delta.before[eid]), int(delta.after[eid])) == (
                    support_before[kw],
                    support_after[kw],
                )
        # The keywords the columns show emptied (read at the ids they held
        # before the slide) are the model's.
        assert {
            kw
            for kw, eid in eids.items()
            if eid is not None and delta.before[eid] and not delta.after[eid]
        } == {kw for kw, (_, after) in expected.items() if after == 0}
        # The users that left the window are the model's.
        assert users_before - self.index.window_users() == (
            model_users_before - self._model_window_users()
        )

    @rule(content=CONTENT)
    def add_quantum(self, content):
        self._slide(content, 1)

    @rule(content=CONTENT, skipped=st.integers(1, WINDOW + 1))
    def add_quantum_after_a_gap(self, content, skipped):
        """Nothing arrives for ``skipped`` quanta: the next slide expires
        every block that fell out of the window in between, together."""
        self._slide(content, 1 + skipped)

    @rule()
    def restore_into_a_fresh_index(self):
        """``to_state`` -> ``from_state`` on a new index: same answers, and
        the restored index carries on from here."""
        restored = MappingIdSetIndex(window_quanta=WINDOW)
        restored.from_state(self.index.to_state())
        for keyword in KEYWORDS:
            assert restored.support(keyword) == self.index.support(keyword)
        assert restored.jaccard_many(PAIRS) == self.index.jaccard_many(PAIRS)
        assert restored.sketch_many(
            KEYWORDS, SKETCH_SIZE
        ) == self.index.sketch_many(KEYWORDS, SKETCH_SIZE)
        assert restored.window_users() == self.index.window_users()
        self.index = restored

    def _live(self):
        cutoff = self.quantum - WINDOW
        return [content for q, content in self.history if q > cutoff]

    def _model_users(self, keyword):
        users = set()
        for content in self._live():
            users |= content.get(keyword, set())
        return users

    def _model_window_users(self):
        users = set()
        for keyword in KEYWORDS:
            users |= self._model_users(keyword)
        return users

    @invariant()
    def support_matches_model(self):
        for keyword in KEYWORDS:
            expected = self._model_users(keyword)
            assert self.index.support(keyword) == len(expected)
            assert self.index.users(keyword) == expected
            assert (keyword in self.index) == bool(expected)

    @invariant()
    def jaccard_matches_model(self):
        for i, kw1 in enumerate(KEYWORDS):
            for kw2 in KEYWORDS[i + 1 :]:
                a, b = self._model_users(kw1), self._model_users(kw2)
                if not a or not b:
                    expected = 0.0
                else:
                    expected = len(a & b) / len(a | b)
                assert abs(self.index.jaccard(kw1, kw2) - expected) < 1e-12

    @invariant()
    def sketch_matches_model(self):
        sketch = MinHasher(SKETCH_SIZE).sketch
        assert self.index.sketch_many(KEYWORDS, SKETCH_SIZE) == {
            keyword: sketch(self._model_users(keyword)) for keyword in KEYWORDS
        }

    @invariant()
    def interners_hold_exactly_the_window_population(self):
        """Released slots are reused, never leaked or freed early: the
        interned population *is* the model's window population, and the
        slot tables never outgrow the most that was ever live at once."""
        users = self._model_window_users()
        keywords = {kw for kw in KEYWORDS if self._model_users(kw)}
        assert set(self.index.acts.ids) == users
        assert set(self.index.ents.ids) == keywords
        assert self.index.window_users() == users
        assert set(self.index.keywords()) == keywords
        assert self.index.num_keywords == len(keywords)
        assert self.index.ents.capacity <= len(KEYWORDS)
        assert self.index.acts.capacity <= 16


IdSetModelMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestIdSetModel = IdSetModelMachine.TestCase
