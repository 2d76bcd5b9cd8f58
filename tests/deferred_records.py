"""A record declared under postponed evaluation of annotations, so each of its
annotations is the string ``"np.ndarray"`` or ``"str"``, not the type."""

from __future__ import annotations

import numpy as np

from wristkit.errors import Record


class Deferred(Record):
    samples: np.ndarray
    label: str
