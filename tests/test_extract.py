"""The entity-extractor contract: registry, built-ins, config and session
integration, and the non-text end-to-end path."""

import pytest

from helpers import quantum_mappings
from repro.api import open_session
from repro.config import DetectorConfig
from repro.datasets.entity_streams import (
    build_edge_stream_trace,
    build_structured_trace,
)
from repro.errors import ConfigError
from repro.extract import (
    EdgeStreamAdapter,
    EntityExtractor,
    FieldExtractor,
    KeywordExtractor,
    extractor_names,
    extractor_spec,
    is_reconstructible,
    make_extractor,
    register_extractor,
)
from repro.stream.messages import Message
from repro.stream.sources import message_from_record, message_to_record
from repro.text.tokenize import tokenize


class TestRegistry:
    def test_builtins_registered(self):
        assert {"keyword", "fields", "edges"} <= set(extractor_names())

    def test_make_extractor_round_trips_spec(self):
        for name in ("keyword", "fields", "edges"):
            extractor = make_extractor(name)
            spec = extractor_spec(extractor)
            rebuilt = make_extractor(spec["name"], spec["options"])
            assert type(rebuilt) is type(extractor)
            assert rebuilt.options() == extractor.options()
            assert is_reconstructible(extractor)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown extractor"):
            make_extractor("telepathy")

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigError, match="invalid options"):
            make_extractor("edges", {"no_such_option": 1})

    def test_custom_registration(self):
        class Upper:
            name = "upper"
            textual = True
            custom = False

            def entities(self, message):
                return tuple(t.upper() for t in message.tokens or ())

            def options(self):
                return {}

        register_extractor("upper", Upper)
        try:
            extractor = make_extractor("upper")
            assert isinstance(extractor, EntityExtractor)
            assert extractor.entities(Message("u", tokens=("a",))) == ("A",)
            assert is_reconstructible(extractor)
        finally:
            from repro.extract.base import _REGISTRY

            del _REGISTRY["upper"]


class TestKeywordExtractor:
    def test_matches_tokenizer_on_text(self):
        text = "Earthquake of 5.9 struck Eastern Turkey! http://t.co/x"
        extractor = KeywordExtractor()
        assert extractor.entities(Message("u", text=text)) == tuple(
            tokenize(text)
        )
        assert extractor.textual and not extractor.custom

    def test_pretokenized_passthrough(self):
        message = Message("u", tokens=("quake", "turkey"))
        assert KeywordExtractor().entities(message) == ("quake", "turkey")

    def test_fields_only_record_yields_nothing(self):
        message = Message("u", fields={"entities": ["a", "b"]})
        assert KeywordExtractor().entities(message) == ()

    def test_custom_tokenizer_marks_custom(self):
        extractor = KeywordExtractor(tokenizer=str.split)
        assert extractor.custom
        assert not is_reconstructible(extractor)


class TestFieldExtractor:
    def test_scalar_and_list_values(self):
        extractor = FieldExtractor(fields=("tags", "channel"))
        message = Message(
            "u", fields={"tags": ["a", "b"], "channel": "web", "other": "x"}
        )
        assert extractor.entities(message) == (
            "tags:a",
            "tags:b",
            "channel:web",
        )

    def test_without_namespacing(self):
        extractor = FieldExtractor(fields=("tags",), include_field=False)
        message = Message("u", fields={"tags": ["a", 7]})
        assert extractor.entities(message) == ("a", "7")

    def test_missing_fields_and_payload(self):
        extractor = FieldExtractor(fields=("tags",))
        assert extractor.entities(Message("u", fields={"x": 1})) == ()
        assert extractor.entities(Message("u", tokens=("t",))) == ()

    def test_empty_field_list_rejected(self):
        with pytest.raises(ConfigError):
            FieldExtractor(fields=())


class TestEdgeStreamAdapter:
    def test_fields_payload(self):
        message = Message("buyer", fields={"entities": ["sku1", "sku2"]})
        assert EdgeStreamAdapter().entities(message) == ("sku1", "sku2")

    def test_token_wire_form(self):
        message = Message("buyer", tokens=("sku1", "sku2"))
        assert EdgeStreamAdapter().entities(message) == ("sku1", "sku2")

    def test_custom_field_name(self):
        adapter = EdgeStreamAdapter(entities_field="cites")
        message = Message("paper", fields={"cites": ["w1"]})
        assert adapter.entities(message) == ("w1",)

    def test_non_string_entities_stringified(self):
        message = Message("u", fields={"entities": [17, "x"]})
        assert EdgeStreamAdapter().entities(message) == ("17", "x")

    def test_token_wire_form_coerced_like_fields(self):
        """{"k": [1001]} and {"entities": [1001]} must land on the same
        graph node: both paths emit canonical strings."""
        via_tokens = EdgeStreamAdapter().entities(Message("u", tokens=(1001, "x")))
        via_fields = EdgeStreamAdapter().entities(
            Message("u", fields={"entities": [1001, "x"]})
        )
        assert via_tokens == via_fields == ("1001", "x")


class TestWindowHelpers:
    def test_actor_entities_aggregates_per_actor(self):
        messages = [
            Message("a", fields={"entities": ["x", "y"]}),
            Message("a", fields={"entities": ["y", "z"]}),
            Message("b", fields={"entities": ["x"]}),
        ]
        by_actor, by_entity = quantum_mappings(messages, EdgeStreamAdapter())
        assert by_actor == {"a": {"x", "y", "z"}, "b": {"x"}}
        assert by_entity == {
            "x": {"a", "b"},
            "y": {"a"},
            "z": {"a"},
        }

    def test_max_entities_cap_is_per_record(self):
        messages = [
            Message("a", fields={"entities": ["1", "2", "3"]}),
            Message("a", fields={"entities": ["4"]}),
        ]
        by_actor, _ = quantum_mappings(
            messages, EdgeStreamAdapter(), max_entities_per_record=2
        )
        assert by_actor == {"a": {"1", "2", "4"}}


class TestConfigIntegration:
    def test_extractor_validated_at_construction(self):
        with pytest.raises(ConfigError, match="unknown extractor"):
            DetectorConfig(extractor="telepathy")
        with pytest.raises(ConfigError, match="invalid options"):
            DetectorConfig(extractor="edges", extractor_options={"bad": 1})
        with pytest.raises(ConfigError, match="mapping"):
            DetectorConfig(extractor_options=["not-a-mapping"])

    def test_round_trips_through_dict(self):
        import json

        config = DetectorConfig(
            extractor="fields",
            extractor_options={"fields": ["tags"], "include_field": False},
            require_noun=False,
        )
        data = json.loads(json.dumps(config.to_dict()))
        assert DetectorConfig.from_dict(data) == config

    def test_options_are_isolated_from_caller_aliasing(self):
        """The options mapping is the extractor's checkpoint identity —
        neither the constructor argument nor to_dict() may share mutable
        structure with the frozen config."""
        opts = {"fields": ["tags"]}
        config = DetectorConfig(
            extractor="fields", extractor_options=opts, require_noun=False
        )
        opts["fields"].append("bogus")
        assert config.extractor_options == {"fields": ["tags"]}
        exported = config.to_dict()
        exported["extractor_options"]["fields"].append("bogus")
        assert config.extractor_options == {"fields": ["tags"]}

    def test_non_json_options_rejected(self):
        with pytest.raises(ConfigError, match="JSON-serializable"):
            DetectorConfig(
                extractor="fields",
                extractor_options={"fields": ("tags",), "sep": object()},
            )


class TestSessionIntegration:
    def config(self, **overrides):
        base = dict(
            quantum_size=20,
            window_quanta=3,
            high_state_threshold=3,
            ec_threshold=0.2,
            require_noun=False,
        )
        base.update(overrides)
        return DetectorConfig(**base)

    def interactions(self, n=200):
        """A burst of co-interactions on one entity bundle plus noise."""
        import random

        rng = random.Random(7)
        out = []
        for i in range(n):
            if i % 2 == 0:
                entities = rng.sample(["p1", "p2", "p3", "p4"], 3)
                actor = f"hot{rng.randrange(12)}"
            else:
                entities = [f"cold{rng.randrange(50)}"]
                actor = f"bg{rng.randrange(40)}"
            out.append(Message(actor, fields={"entities": entities}))
        return out

    def test_edge_stream_detects_bundle(self):
        session = open_session(self.config(extractor="edges"))
        reported = set()
        for report in session.ingest_many(self.interactions(), flush=True):
            for event in report.reported:
                reported |= event.keywords
        assert {"p1", "p2", "p3", "p4"} <= reported

    def test_explicit_extractor_instance_overrides_config(self):
        session = open_session(
            self.config(), extractor=EdgeStreamAdapter(entities_field="e")
        )
        assert session.extractor.entities_field == "e"
        assert not session._custom_extractor  # registry-reconstructible

    def test_noun_filter_only_applies_to_textual_extractors(self):
        # same stream, require_noun on: non-textual entities must survive
        session = open_session(
            self.config(extractor="edges", require_noun=True)
        )
        reported = set()
        for report in session.ingest_many(self.interactions(), flush=True):
            for event in report.reported:
                reported |= event.keywords
        assert {"p1", "p2", "p3", "p4"} <= reported

    def test_resume_accepts_matching_registered_instance(self, tmp_path):
        """Re-passing an equivalent registered extractor on resume is fine
        (the docstring says 'pass the same objects'); a spec mismatch or a
        custom extractor against a registered checkpoint is refused."""
        from repro.errors import CheckpointError

        session = open_session(
            self.config(), extractor=FieldExtractor(fields=("tags",))
        )
        list(session.ingest_many(self.interactions(60)))
        path = tmp_path / "fields.ckpt"
        session.snapshot(path)
        resumed = open_session(
            resume=path, extractor=FieldExtractor(fields=("tags",))
        )
        assert resumed.extractor.fields == ("tags",)
        with pytest.raises(CheckpointError, match="does not match"):
            open_session(
                resume=path, extractor=FieldExtractor(fields=("other",))
            )
        with pytest.raises(CheckpointError, match="does not match"):
            open_session(
                resume=path, extractor=KeywordExtractor(tokenizer=str.split)
            )

    def test_custom_checkpoint_refuses_registered_extractor(self, tmp_path):
        """A custom-extractor checkpoint demands the custom object back; a
        registered extractor cannot be it and must not slip through (the
        next snapshot would launder the divergence)."""
        from repro.errors import CheckpointError

        custom = KeywordExtractor(tokenizer=str.split)
        session = open_session(self.config(), extractor=custom)
        session.process_quantum(
            [Message(f"u{u}", text="alpha beta gamma") for u in range(6)]
        )
        path = tmp_path / "custom.ckpt"
        session.snapshot(path)
        with pytest.raises(CheckpointError, match="cannot be it"):
            open_session(resume=path, extractor=KeywordExtractor())
        resumed = open_session(resume=path, extractor=custom)
        assert resumed._custom_extractor

    def test_checkpoint_records_extractor_identity(self, tmp_path):
        stream = self.interactions(300)
        config = self.config(extractor="edges")
        whole = open_session(config)
        expected = [
            sorted(e.keywords for e in r.reported)
            for r in whole.ingest_many(stream)
        ]
        partial = open_session(config)
        actual = [
            sorted(e.keywords for e in r.reported)
            for r in partial.ingest_many(stream[:130])
        ]
        path = tmp_path / "edges.ckpt"
        partial.snapshot(path)
        resumed = open_session(resume=path)
        assert isinstance(resumed.extractor, EdgeStreamAdapter)
        actual += [
            sorted(e.keywords for e in r.reported)
            for r in resumed.ingest_many(stream[130:])
        ]
        assert actual == expected


class TestTracePersistence:
    def test_fields_payload_round_trips_jsonl(self):
        message = Message(
            "u1", fields={"entities": ["a", "b"], "n": 3}, timestamp=1.5
        )
        assert message_from_record(message_to_record(message)) == message

    def test_non_object_fields_rejected(self):
        import pytest as _pytest

        from repro.errors import StreamError

        with _pytest.raises(StreamError, match="fields"):
            message_from_record({"u": "u1", "f": ["not", "an", "object"]})


class TestEntityStreamDatasets:
    @pytest.mark.parametrize(
        "builder,extractor",
        [
            (build_edge_stream_trace, "edges"),
            (build_structured_trace, "fields"),
        ],
    )
    def test_planted_events_discoverable(self, builder, extractor):
        trace = builder(total_messages=6000, n_events=3, seed=5)
        assert len(trace.messages) >= 6000 - 1
        config = DetectorConfig(
            quantum_size=80,
            window_quanta=10,
            high_state_threshold=3,
            extractor=extractor,
            require_noun=False,
        )
        session = open_session(config)
        reported = set()
        for report in session.ingest_many(trace.messages, flush=True):
            for event in report.reported:
                reported |= event.keywords
        hits = sum(
            1
            for truth in trace.ground_truth
            if len(set(truth.keywords) & reported) >= 3
        )
        assert hits >= 2, f"planted bundles not found: {sorted(reported)[:20]}"

    def test_deterministic_given_seed(self):
        a = build_edge_stream_trace(total_messages=2000, n_events=2, seed=3)
        b = build_edge_stream_trace(total_messages=2000, n_events=2, seed=3)
        assert [m.fields for m in a.messages] == [m.fields for m in b.messages]
        assert [m.user_id for m in a.messages] == [
            m.user_id for m in b.messages
        ]
