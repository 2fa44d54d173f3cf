"""Machine-readable benchmark results: one JSON file per bench.

Every ``bench_*.py`` writes ``benchmarks/results/<bench>.json`` with the
fixed schema::

    {
      "bench":   "<name>",           # bench identifier
      "config":  {...},              # workload knobs + environment facts
      "wall_s":  <float>,            # primary wall-clock cost, seconds
      "speedup": <float | null>,     # primary ratio metric, null if n/a
      "quanta":  <int>               # stream quanta the measurement covered
    }

The files are committed, so the trajectory is tracked PR over PR.  Extra
measurements go inside ``config`` (the schema's fixed keys stay comparable
forever).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

RESULTS_DIR = Path(__file__).parent / "results"


def write_json_result(
    bench: str,
    config: Dict[str, Any],
    wall_s: float,
    speedup: Optional[float],
    quanta: int,
) -> Path:
    """Write one bench's result JSON (schema above); returns the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{bench}.json"
    document = {
        "bench": bench,
        "config": dict(config),
        "wall_s": round(float(wall_s), 6),
        "speedup": None if speedup is None else round(float(speedup), 4),
        "quanta": int(quanta),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


__all__ = ["RESULTS_DIR", "write_json_result"]
