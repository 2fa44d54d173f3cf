"""Exhaustive structural tree differ — the delta log's test oracle.

Until the delta log's records came from the layers themselves, this was
the writer's engine (``repro.api.deltalog.diff_trees``): it discovers, by
walking two decoded state trees, a minimal edit op turning one into the
other.  Production no longer diffs anything; the differ survives here as
the reference the layer-emitted ops are pinned against
(``tests/test_delta_records.py``): for any two trees
``patch_tree(a, diff_trees(a, b))`` reproduces ``b`` exactly, so an op that
patches to the same tree *and* is no larger than this one is both correct
and as small as a from-scratch diff could make it.
"""

import difflib
import json
from typing import Any, List, Optional

from repro.api.checkpoint import encode_state
from repro.api.deltalog import encode_op

_SCALARS = (bool, int, float, str)


def canon(tree) -> str:
    """Canonical bytes of a state tree through the checkpoint codec."""
    return json.dumps(
        encode_state(tree), sort_keys=True, separators=(",", ":")
    )


def wire_bytes(op) -> int:
    """Compact-JSON size of an op in the form records travel in."""
    return len(json.dumps(encode_op(op), separators=(",", ":")))


def _same(a: Any, b: Any) -> bool:
    """Strict deep equality: ``==`` plus scalar *identity of representation*.

    Plain ``==`` would call ``1 == 1.0`` and ``0.0 == -0.0`` equal, but the
    checkpoint codec serializes them differently — skipping such a "change"
    would silently break the byte-identity of replayed state.  Floats
    compare by shortest-roundtrip repr, and type switches always differ.
    """
    if a is b:
        return True
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is float:
        return repr(a) == repr(b)
    if ta is list or ta is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    if ta is dict:
        if len(a) != len(b):
            return False
        for key, value in a.items():
            if key not in b or not _same(value, b[key]):
                return False
        return True
    return a == b


_sort_key = canon


def _canon_key(value: Any) -> Any:
    """Hashable, deterministic alignment key for sequence diffing."""
    if value is None or isinstance(value, _SCALARS):
        return (type(value).__name__, repr(value))
    return _sort_key(value)


def diff_trees(a: Any, b: Any) -> Optional[list]:
    """Edit op turning state tree ``a`` into ``b``; None when identical."""
    if _same(a, b):
        return None
    return _op(a, b)


def _op(a: Any, b: Any) -> list:
    """Edit op for two trees already known to differ."""
    if type(a) is not type(b):
        return ["r", b]
    if isinstance(a, dict):
        return _shrink(_dict_op(a, b), b)
    if isinstance(a, (list, tuple)):
        return _shrink(_seq_op(a, b), b)
    if isinstance(a, (set, frozenset)):
        added = sorted((x for x in b if x not in a), key=_sort_key)
        removed = sorted((x for x in a if x not in b), key=_sort_key)
        return _shrink(["s", added, removed], b)
    return ["r", b]


def _shrink(op: list, b: Any) -> list:
    """Cap an edit op at the cost of plain replacement (by wire size)."""
    replacement = ["r", b]
    return replacement if wire_bytes(op) >= wire_bytes(replacement) else op


def _dict_op(a: dict, b: dict) -> list:
    sets: List[list] = []
    dels = sorted((k for k in a if k not in b), key=_sort_key)
    for key, value in b.items():
        if key in a:
            if not _same(a[key], value):
                sets.append([key, _op(a[key], value)])
        else:
            sets.append([key, ["r", value]])
    sets.sort(key=lambda pair: _sort_key(pair[0]))
    return ["d", sets, dels]


def _seq_op(a, b) -> list:
    """Splice-style edit script for lists/tuples.

    Common prefix/suffix are trimmed first, then the middles are aligned
    with ``difflib`` over canonical element keys so scattered
    single-element changes become nested patches instead of wholesale
    replacement.
    """
    prefix = 0
    limit = min(len(a), len(b))
    while prefix < limit and _same(a[prefix], b[prefix]):
        prefix += 1
    suffix = 0
    limit = min(len(a), len(b)) - prefix
    while suffix < limit and _same(a[-1 - suffix], b[-1 - suffix]):
        suffix += 1
    mid_a = list(a[prefix : len(a) - suffix])
    mid_b = list(b[prefix : len(b) - suffix])
    edits: List[list] = []
    if prefix:
        edits.append(["k", prefix])
    matcher = difflib.SequenceMatcher(
        None,
        [_canon_key(x) for x in mid_a],
        [_canon_key(x) for x in mid_b],
        autojunk=False,
    )
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            edits.append(["k", i2 - i1])
        elif tag == "delete":
            edits.append(["x", i2 - i1])
        elif tag == "insert":
            edits.append(["i", mid_b[j1:j2]])
        elif i2 - i1 == j2 - j1:
            # positional replacement run: patch element-wise so an entry
            # that changed in place costs its own small edit script
            edits.append(
                ["p", [_op(x, y) for x, y in zip(mid_a[i1:i2], mid_b[j1:j2])]]
            )
        else:
            edits.append(["x", i2 - i1])
            edits.append(["i", mid_b[j1:j2]])
    return ["l", edits]


class TreeSource:
    """A delta-log source over hand-built state trees.

    ``DeltaCheckpointWriter`` asks its source for the record of the quantum
    just finished; this one answers with the differ's op between the last
    two trees it was shown, so writer tests (framing, compaction, fault
    injection) can feed arbitrary trees without a detector session.
    """

    def __init__(self, tree: dict) -> None:
        self._previous = self._tree = tree

    def advance(self, tree: dict) -> "TreeSource":
        self._previous, self._tree = self._tree, tree
        return self

    @property
    def current_quantum(self) -> int:
        return self._tree["quantum"]

    def _state_tree(self) -> dict:
        return self._tree

    def _quantum_op(self) -> Optional[list]:
        return diff_trees(self._previous, self._tree)
