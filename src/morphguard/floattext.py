"""Float text: repr(float(v)) of every value of a 2-D array, a row a string, in one orjson call.

orjson formats a float64 as repr does wherever the value is ±0 or its
magnitude is in [1e-4, 1e16) (tests/test_writer_bytes.py checks both
edges); repr formats every other value (tiny, huge or non-finite). Every
array writer formats its floats here. This is no layer module, so the
benchmark's tracer adds no span per call.
"""

from __future__ import annotations

import numpy as np


def row_texts(block, sep: str) -> list[str]:
    """Each row of 2-D block as repr(float(v)) of its values, joined by sep."""
    import orjson  # here, so that commands writing no text file never load it

    block = np.ascontiguousarray(block, dtype=np.float64)  # orjson reads C order only
    if not len(block):
        return []
    # "[[a,b],[c,d]]" becomes "[[a<sep>b]<sep>[c<sep>d]]", which "]<sep>[" parts into rows, since no
    # float's text holds a bracket. One expression, so that each text is freed as the next is made.
    rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode().replace(",", sep)[2:-2].split(f"]{sep}[")
    size = np.abs(block)
    inexact = ~((size == 0) | (size >= 1e-4) & (size < 1e16))
    for i in np.flatnonzero(inexact.any(axis=1)).tolist():
        texts = rows[i].split(sep)
        for j in np.flatnonzero(inexact[i]).tolist():
            texts[j] = repr(float(block[i, j]))
        rows[i] = sep.join(texts)
    return rows
