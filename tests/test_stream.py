"""Message records, quantum batching, and trace I/O."""

import pytest

from helpers import quantum_mappings
from repro.errors import StreamError
from repro.extract.keyword import KeywordExtractor
from repro.stream.messages import Message
from repro.stream.sources import (
    TraceReadStats,
    read_jsonl_trace,
    write_jsonl_trace,
)
from repro.stream.window import QuantumBatcher
from repro.text.tokenize import tokenize


class TestMessage:
    def test_needs_tokens_or_text(self):
        with pytest.raises(StreamError):
            Message(user_id=1)

    def test_pretokenized_fast_path(self):
        message = Message(1, tokens=("a", "b"))
        assert message.keyword_tuple(tokenize) == ("a", "b")

    def test_text_tokenised_on_demand(self):
        message = Message(1, text="Earthquake struck Turkey!")
        assert message.keyword_tuple(tokenize) == (
            "earthquake",
            "struck",
            "turkey",
        )

    def test_frozen(self):
        message = Message(1, tokens=("a",))
        with pytest.raises(AttributeError):
            message.user_id = 2


class TestQuantumBatcher:
    def test_push_emits_full_quantum(self):
        batcher = QuantumBatcher(3)
        m = Message(1, tokens=("a",))
        assert batcher.push(m) is None
        assert batcher.push(m) is None
        batch = batcher.push(m)
        assert batch is not None and len(batch) == 3
        assert batcher.pending == 0

    def test_flush_partial(self):
        batcher = QuantumBatcher(3)
        batcher.push(Message(1, tokens=("a",)))
        assert len(batcher.flush()) == 1
        assert batcher.flush() == []

    def test_fill_then_flush_yields_trailing_partial(self):
        batcher = QuantumBatcher(4)
        stream = iter([Message(i, tokens=("a",)) for i in range(10)])
        sizes = []
        while (quantum := batcher.fill(stream)) is not None:
            sizes.append(len(quantum))
        assert batcher.pending == 2
        sizes.append(len(batcher.flush()))
        assert sizes == [4, 4, 2]

    def test_invalid_size(self):
        with pytest.raises(StreamError):
            QuantumBatcher(0)


class TestAggregation:
    """Per-quantum aggregation, read back from the pair columns."""

    MESSAGES = [
        Message("u1", tokens=("storm", "coast")),
        Message("u1", tokens=("storm", "warning")),
        Message("u2", tokens=("storm",)),
    ]

    def test_user_keywords(self):
        result, _ = quantum_mappings(self.MESSAGES, KeywordExtractor())
        assert result == {
            "u1": {"storm", "coast", "warning"},
            "u2": {"storm"},
        }

    def test_keyword_users(self):
        _, result = quantum_mappings(self.MESSAGES, KeywordExtractor())
        assert result["storm"] == {"u1", "u2"}
        assert result["coast"] == {"u1"}

    def test_inversion_consistent(self):
        by_user, by_keyword = quantum_mappings(
            self.MESSAGES, KeywordExtractor()
        )
        assert {(u, kw) for u, kws in by_user.items() for kw in kws} == {
            (u, kw) for kw, users in by_keyword.items() for u in users
        }

    def test_empty_messages_skipped(self):
        by_user, by_keyword = quantum_mappings(
            [Message("u1", tokens=()), Message("u2", tokens=("a",))],
            KeywordExtractor(),
        )
        assert by_user == {"u2": {"a"}}
        assert by_keyword == {"a": {"u2"}}


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        messages = [
            Message("u1", tokens=("a", "b"), timestamp=1.5),
            Message("u2", text="hello world message"),
            Message(3, tokens=("c",)),
        ]
        count = write_jsonl_trace(path, messages)
        assert count == 3
        loaded = list(read_jsonl_trace(path))
        assert loaded[0].user_id == "u1"
        assert loaded[0].tokens == ("a", "b")
        assert loaded[0].timestamp == 1.5
        assert loaded[1].text == "hello world message"
        assert loaded[2].user_id == 3

    def test_invalid_json_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        stats = TraceReadStats()
        assert list(read_jsonl_trace(path, stats=stats)) == []
        assert stats.errors == [f"{path}:1: invalid JSON"]

    def test_missing_user_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": ["a"]}\n')
        stats = TraceReadStats()
        assert list(read_jsonl_trace(path, stats=stats)) == []
        assert stats.errors == [f"{path}:1: missing user id"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u": 1, "k": ["a"]}\n\n{"u": 2, "k": ["b"]}\n')
        assert len(list(read_jsonl_trace(path))) == 2


class TestHardenedJsonlReader:
    """Skip-and-count semantics for malformed lines (production feeds)."""

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"u": 1, "k": ["a"]}\n'
            "not json at all\n"
            '{"k": ["orphan"]}\n'
            '{"u": 2, "k": ["b"]}\n'
            "[1, 2, 3]\n"
        )
        stats = TraceReadStats()
        messages = list(read_jsonl_trace(path, stats=stats))
        assert [m.user_id for m in messages] == [1, 2]
        assert stats.lines == 5
        assert stats.messages == 2
        assert stats.malformed == 3
        assert any("invalid JSON" in e for e in stats.errors)
        assert any("missing user id" in e for e in stats.errors)

    def test_a_line_breaking_a_field_rule_is_counted_by_name(self, tmp_path):
        """Integer ids belong in the payload; ``k`` holds strings."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"u": 1, "k": [1001]}\n{"u": 1, "f": {"entities": [1001]}}\n'
        )
        stats = TraceReadStats()
        messages = list(read_jsonl_trace(path, stats=stats))
        assert [m.fields for m in messages] == [{"entities": [1001]}]
        assert stats.malformed == 1
        assert "trace.jsonl:1: field 'k'" in stats.errors[0]

    def test_truncated_final_line_skipped(self, tmp_path):
        """A crash mid-write leaves a partial JSON object on the last line;
        the reader must deliver everything before it."""
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u": 1, "k": ["a"]}\n{"u": 2, "k": ["b')
        stats = TraceReadStats()
        messages = list(read_jsonl_trace(path, stats=stats))
        assert [m.user_id for m in messages] == [1]
        assert stats.malformed == 1

    def test_unicode_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        originals = [
            Message("üser", tokens=("café", "日本語", "terremoto")),
            Message("u2", text="séisme à Port-au-Prince 地震"),
        ]
        write_jsonl_trace(path, originals)
        stats = TraceReadStats()
        loaded = list(read_jsonl_trace(path, stats=stats))
        assert stats.malformed == 0
        assert loaded[0].tokens == ("café", "日本語", "terremoto")
        assert loaded[1].text == "séisme à Port-au-Prince 地震"

    def test_undecodable_bytes_cost_one_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "wb") as fh:
            fh.write(b'{"u": 1, "k": ["a"]}\n')
            fh.write(b'{"u": 9, "k": ["\xff\xfe broken"]}\n')
            fh.write(b'{"u": 2, "k": ["b"]}\n')
        stats = TraceReadStats()
        messages = list(read_jsonl_trace(path, stats=stats))
        assert [m.user_id for m in messages] == [1, 2]
        assert stats.malformed == 1
        assert any("undecodable" in e for e in stats.errors)

    def test_strict_mode_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"u": 1, "k": ["a"]}\nbroken\n')
        stats = TraceReadStats()
        assert [m.user_id for m in read_jsonl_trace(path, stats=stats)] == [1]
        assert len(stats.errors) == 1
        assert stats.errors[0].endswith(":2: invalid JSON")

    def test_error_log_capped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("junk\n" * 100)
        stats = TraceReadStats()
        assert list(read_jsonl_trace(path, stats=stats)) == []
        assert stats.malformed == 100
        assert len(stats.errors) <= 20
