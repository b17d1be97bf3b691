"""The memory-optimal logarithmic key mapping.

This is the mapping defined in Section 2 of the paper: bucket ``i`` holds the
values in ``(gamma**(i-1), gamma**i]`` where ``gamma = (1+alpha)/(1-alpha)``.
Computing the key requires an exact logarithm, which is the most expensive of
the mappings but yields the smallest possible number of buckets for a given
relative accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mapping.base import KeyMapping


class LogarithmicMapping(KeyMapping):
    """Exact logarithmic mapping: ``key(x) = ceil(log(x) / log(gamma))``.

    Memory-optimal under the relative-accuracy constraint; used by the
    "DDSketch" configuration in the paper's evaluation (as opposed to
    "DDSketch (fast)", which uses an interpolated mapping).
    """

    def __init__(self, relative_accuracy: float, offset: float = 0.0) -> None:
        super().__init__(relative_accuracy, offset)
        # log(x) * multiplier == log_gamma(x)
        self._multiplier *= 1.0

    def _log_gamma(self, value: float) -> float:
        return math.log(value) * self._multiplier

    def _pow_gamma(self, key: float) -> float:
        # numpy's exp rather than math.exp so that the scalar path and the
        # vectorized value_batch are bit-identical (the two libraries may
        # differ in the last ulp, numpy agrees with itself between scalar and
        # array evaluation).
        return float(np.exp(key / self._multiplier))

    def key_batch(self, values: "np.ndarray") -> "np.ndarray":
        """Vectorized ``ceil(log(values) / log(gamma))`` over a whole array.

        Parameters
        ----------
        values : numpy.ndarray
            One-dimensional array of positive finite floats.

        Returns
        -------
        numpy.ndarray
            ``int64`` keys, elementwise equal to :meth:`KeyMapping.key`.

        Notes
        -----
        ``O(len(values))`` with a single ``numpy.log`` pass — this is the one
        logarithm per value the paper counts as DDSketch's insertion cost
        (Section 2.1), amortized across the batch instead of paid per Python
        call.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return np.empty(0, dtype=np.int64)
        keys = np.ceil(np.log(values) * self._multiplier)
        if self._offset != 0.0:
            keys += self._offset
        return keys.astype(np.int64)

    def value_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized bucket representatives: one ``numpy.exp`` pass.

        Elementwise identical to :meth:`KeyMapping.value` — the scalar path
        uses the same ``numpy.exp`` so both agree bit for bit.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        scaled = (keys - self._offset) / self._multiplier
        return np.exp(scaled) * (2.0 / (1 + self._gamma))
