"""SCP clusters vs the offline biconnected baseline (Section 7.3 in small).

Runs both methods over the identical AKG and prints the Table 3 comparison:
events discovered, precision, recall, average rank and cluster size — plus
the offline method's extra clusters and the clustering-time comparison.

The detection pass rides the session API end to end:
:func:`repro.eval.comparison.compare_schemes` opens a
:class:`~repro.api.session.DetectorSession` via the eval runner, attaches
the offline observer to the session's live AKG after every quantum, and
evaluates all three schemes from the session's tracked event histories
(``session.events()``).

Run:  python examples/offline_vs_online.py
"""

from repro import DetectorConfig
from repro.datasets.traces import build_ground_truth_trace
from repro.eval.comparison import compare_schemes
from repro.eval.reporting import render_table


def main() -> None:
    print("generating workload ...")
    trace = build_ground_truth_trace(
        total_messages=25_000,
        n_headline_discoverable=12,
        n_headline_subthreshold=8,
        n_local_events=20,
        n_spurious=3,
        seed=3,
    )
    print("running SCP detector with offline observer on the same AKG ...")
    comparison = compare_schemes(trace, DetectorConfig())

    print()
    print(render_table(
        ["Scheme", "Events", "Precision", "Recall", "Avg Rank", "Avg Size"],
        [
            [r.scheme, r.events_discovered, r.precision, r.recall,
             r.avg_rank, r.avg_cluster_size]
            for r in comparison.rows
        ],
        title="Performance of different clustering schemes (cf. Table 3)",
    ))
    print()
    print(f"additional offline clusters (+edges):  {comparison.additional_clusters_pct:+.1f}%")
    print(f"additional offline events (+edges):    {comparison.additional_events_pct:+.1f}%")
    print(f"BC event clusters == SCP clusters:     {comparison.exact_overlap_pct:.1f}%")
    print(f"BC clusters containing a short cycle:  "
          f"{comparison.bc_event_clusters_with_short_cycle_pct:.1f}%")
    print(f"SCP clustering time:                   {comparison.scp_clustering_seconds:.3f}s")
    print(f"offline clustering time:               {comparison.bc_clustering_seconds:.3f}s")
    print(f"SCP speedup:                           {comparison.scp_speedup_pct:+.1f}%")


if __name__ == "__main__":
    main()
