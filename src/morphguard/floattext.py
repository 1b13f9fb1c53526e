"""Float text: repr(float(v)) of a whole float64 array in one orjson call.

orjson formats a float64 as repr does wherever the value is ±0 or its
magnitude is in [1e-4, 1e16) (tests/test_writer_bytes.py checks both
edges). Every writer of float text tests that range with orjson_exact and
leaves the rest to repr or json.dumps. This is no layer module, so the
benchmark's tracer adds no span per formatted column.
"""

from __future__ import annotations

import numpy as np


def orjson_exact(values: np.ndarray) -> np.ndarray:
    """Where orjson's text of each value is repr's: ±0, or magnitude in [1e-4, 1e16)."""
    size = np.abs(values)
    return (size == 0) | (size >= 1e-4) & (size < 1e16)


def float_texts(values) -> list[str]:
    """repr(float(v)) of each value of a float array, in C order: orjson's
    text where orjson_exact holds, repr's (tiny, huge or non-finite) elsewhere."""
    import orjson  # here, so that commands writing no report never load it

    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()  # orjson reads C order only
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero(~orjson_exact(flat)).tolist():
        texts[i] = repr(float(flat[i]))
    return texts
