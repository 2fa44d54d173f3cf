"""Synonym / multi-language pre-processing and story post-correlation.

Section 1.1 of the paper discusses two clusters failing to merge because
users chose synonymous keywords or posted in different languages, and
proposes dictionary pre-processing plus post-hoc temporal correlation.  This
example exercises both extension hooks on the **session API**: the synonym
normaliser rides in as the tokenizer of a custom ``KeywordExtractor`` (the
same seam a fully custom ``EntityExtractor`` would use), and the tracked
event histories feed the post-correlation pass.

1. a stream where users split across "earthquake" / "quake" / "terremoto" —
   without the normaliser the synonyms appear as three separate nodes, each
   with a third of the support (diluting the event's rank); with it, one
   canonical keyword carries the full support and the rank doubles;
2. two genuinely disjoint keyword clusters about one unfolding story,
   post-correlated into a single consumable group.

Run:  python examples/multilingual_synonyms.py
"""

from repro import DetectorConfig, KeywordExtractor, Message, open_session
from repro.core.postprocess import CorrelationPolicy, correlate_events
from repro.text.synonyms import SynonymNormalizer
from repro.text.tokenize import tokenize


def demo_config():
    return DetectorConfig(
        quantum_size=12,
        window_quanta=5,
        high_state_threshold=2,
        ec_threshold=0.1,
        use_minhash_filter=False,
    )


def synonym_stream():
    messages = []
    for u in range(4):
        messages.append(Message(f"en{u}", text="earthquake struck turkey"))
    for u in range(4):
        messages.append(Message(f"us{u}", text="quake struck turkey"))
    for u in range(4):
        messages.append(Message(f"it{u}", text="terremoto struck turkey"))
    return messages


def main() -> None:
    print("=== 1. synonym pre-processing ===")
    with open_session(demo_config()) as plain:
        report = plain.process_quantum(synonym_stream())
        print("without normaliser (synonyms are separate, diluted nodes):")
        for event in report.reported:
            print(f"  {sorted(event.keywords)} rank={event.rank:.1f}")

    normalizer = SynonymNormalizer([["earthquake", "quake", "terremoto"]])
    extractor = KeywordExtractor(tokenizer=normalizer.wrap_tokenizer(tokenize))
    with open_session(demo_config(), extractor=extractor) as merged:
        report = merged.process_quantum(synonym_stream())
        print("with normaliser (one canonical keyword, triple support):")
        for event in report.reported:
            print(f"  {sorted(event.keywords)} rank={event.rank:.1f} "
                  f"support={event.support:.0f}")

    print("\n=== 2. post-correlation of story facets ===")
    with open_session(demo_config()) as session:
        # facet A: the disaster itself; facet B: the relief response —
        # disjoint keyword sets, concurrent in time
        for _ in range(3):
            quantum = []
            for u in range(3):
                quantum.append(
                    Message(f"a{u}", text="earthquake struck turkey")
                )
            for u in range(3):
                quantum.append(
                    Message(f"b{u}", text="rescue teams mobilised ankara")
                )
            for u in range(6, 12):
                quantum.append(Message(f"n{u}", text=f"filler{u} chatter{u}"))
            session.process_quantum(quantum[:12])

        records = session.events()
        print(f"{len(records)} separate clusters tracked:")
        for record in records:
            print(f"  #{record.event_id}: {sorted(record.all_keywords)}")

        groups = correlate_events(
            records,
            CorrelationPolicy(min_interval_overlap=0.5, min_keyword_overlap=0),
        )
        print(f"\n{len(groups)} correlated stories after post-processing:")
        for group in groups:
            print(f"  events {group.event_ids}: {sorted(group.keywords)}")


if __name__ == "__main__":
    main()
