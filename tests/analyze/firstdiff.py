"""Name the first place two JSON-able documents differ.

The determinism tests compare whole run reports; when they diverge, a
blob-vs-blob mismatch says nothing. :func:`first_diff` walks both
documents in canonical order (sorted dict keys, list positions) and
returns the path of the first differing leaf with both values.
"""

import json


def first_diff(a, b, path=""):
    """``None`` when equal, else ``"<path>: <a> != <b>"``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                return (f"{path}/{k}: {a.get(k, '<missing>')!r} != "
                        f"{b.get(k, '<missing>')!r}")
            diff = first_diff(a[k], b[k], f"{path}/{k}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_diff(x, y, f"{path}/{i}")
            if diff is not None:
                return diff
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def assert_identical(docs):
    """Every document serializes to the same bytes as the first; a
    mismatch names the first differing path and both values."""
    blobs = [json.dumps(d, sort_keys=True) for d in docs]
    for i in range(1, len(docs)):
        assert blobs[i] == blobs[0], (
            f"run {i} differs from run 0 at "
            f"{first_diff(json.loads(blobs[0]), json.loads(blobs[i]))}"
        )
