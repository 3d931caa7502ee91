"""Keeping arrays that arrived from elsewhere."""

from __future__ import annotations

import numpy as np


def owned(array, dtype) -> np.ndarray:
    """``array`` as ``dtype``, kept as it is when it owns its memory and
    copied when it is a view: whoever keeps the result pins no buffer
    larger than it (a decoded frame, say).

    Adopting is the caller's promise that nothing else writes the array:
    hand it what a transport delivered, not a live array of another
    object.
    """
    array = np.asarray(array, dtype)
    return array if array.base is None else array.copy()
