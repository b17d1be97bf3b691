"""Fast key mappings that interpolate the logarithm between powers of two.

These mappings implement the "DDSketch (fast)" configuration evaluated in
Section 4 of the paper.  Instead of computing an exact logarithm for every
inserted value, they extract the binary exponent of the float (a costless
``frexp``) and interpolate the fractional part of ``log2`` with a low-degree
polynomial of the mantissa.  The polynomial approximation makes buckets
slightly narrower than necessary in places, so for a given relative accuracy
the interpolated mappings need more buckets than the memory-optimal
:class:`~repro.mapping.LogarithmicMapping`:

===============================================  =================
mapping                                          bucket overhead
===============================================  =================
:class:`LinearlyInterpolatedMapping`             ``1 / ln 2``  (≈ 44%)
:class:`QuadraticallyInterpolatedMapping`        ``3 / (4 ln 2)``  (≈ 8%)
:class:`CubicallyInterpolatedMapping`            ``7 / (10 ln 2)``  (≈ 1%)
===============================================  =================

The relative-accuracy guarantee is preserved exactly: the multiplier applied
to the interpolated logarithm is scaled by the minimum slope of the
interpolation (with respect to the true ``log2``), which guarantees that the
ratio between the upper and lower bound of every bucket never exceeds
``gamma = (1 + alpha) / (1 - alpha)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mapping.base import KeyMapping


class _InterpolatedMapping(KeyMapping):
    """Shared machinery for the polynomial-interpolation mappings.

    Subclasses provide the polynomial approximation of ``log2`` on ``[1, 2)``
    through :meth:`_approx` / :meth:`_approx_inverse` and declare
    ``_MIN_SLOPE``, the minimum of ``d(approx log2) / d(log2)`` over an
    octave, which determines the bucket-count overhead.
    """

    #: Minimum derivative of the interpolated log2 with respect to the exact
    #: log2 over one octave.  Subclasses override this with their exact value.
    _MIN_SLOPE: float = 1.0

    def __init__(self, relative_accuracy: float, offset: float = 0.0) -> None:
        super().__init__(relative_accuracy, offset)
        # The approximation lives in (approximate) log2 space with a locally
        # varying slope.  To keep every bucket's value ratio at most gamma the
        # bucket width in approximation space must be at most
        # ``MIN_SLOPE * log2(gamma)``, i.e. the key multiplier must be at
        # least ``1 / (MIN_SLOPE * log2(gamma)) = 1 / (MIN_SLOPE * ln(gamma))``
        # in these units (the ``ln 2`` factors cancel).
        self._multiplier = 1.0 / (math.log(self._gamma) * self._MIN_SLOPE)

    # -- approximate log2 and its inverse --------------------------------- #

    def _log2_approx(self, value: float) -> float:
        """Interpolated ``log2(value)`` using the binary float representation."""
        mantissa, exponent = math.frexp(value)
        # frexp returns mantissa in [0.5, 1); rescale to [1, 2) so that the
        # polynomial approximation is defined on a full octave.
        significand = 2.0 * mantissa
        return (exponent - 1) + self._approx(significand)

    def _exp2_approx(self, value: float) -> float:
        """Inverse of :meth:`_log2_approx`."""
        exponent = math.floor(value)
        significand = self._approx_inverse(value - exponent)
        return math.ldexp(significand, int(exponent))

    # -- KeyMapping hooks -------------------------------------------------- #

    def _log_gamma(self, value: float) -> float:
        return self._log2_approx(value) * self._multiplier

    def _pow_gamma(self, key: float) -> float:
        return self._exp2_approx(key / self._multiplier)

    def key(self, value: float) -> int:
        # Flattened hot path: one frexp, one polynomial evaluation, one ceil.
        mantissa, exponent = math.frexp(value)
        approx = (exponent - 1) + self._approx(2.0 * mantissa)
        return int(math.ceil(approx * self._multiplier) + self._offset)

    def key_batch(self, values: "np.ndarray") -> "np.ndarray":
        """Vectorized interpolated key computation over a whole array.

        Parameters
        ----------
        values : numpy.ndarray
            One-dimensional array of positive finite floats.

        Returns
        -------
        numpy.ndarray
            ``int64`` keys, elementwise identical to :meth:`key` — NumPy's
            ``frexp`` is the same exact bit extraction as ``math.frexp`` and
            the polynomials below are evaluated with the same IEEE-754
            operations, so the scalar and batch paths agree bit for bit.

        Notes
        -----
        ``O(len(values))`` with no logarithm at all: one ``numpy.frexp`` and
        one low-degree polynomial pass — the "DDSketch (fast)" insertion cost
        of the paper's Section 4, amortized across the batch.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return np.empty(0, dtype=np.int64)
        mantissa, exponent = np.frexp(values)
        approx = (exponent - 1) + self._approx_batch(2.0 * mantissa)
        keys = np.ceil(approx * self._multiplier)
        if self._offset != 0.0:
            keys += self._offset
        return keys.astype(np.int64)

    def value_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized bucket representatives via the inverse interpolation.

        Mirrors the scalar :meth:`KeyMapping.value` operation for operation —
        ``floor``, polynomial inverse, ``ldexp`` — so batch and scalar values
        agree bit for bit (``ldexp`` is exact power-of-two scaling and the
        inverses below use identical IEEE-754 arithmetic).
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        scaled = (keys - self._offset) / self._multiplier
        exponent = np.floor(scaled)
        significand = self._approx_inverse_batch(scaled - exponent)
        values = np.ldexp(significand, exponent.astype(np.int64))
        return values * (2.0 / (1 + self._gamma))

    # -- polynomial pieces ------------------------------------------------- #

    def _approx(self, significand: float) -> float:
        """Approximate ``log2(significand)`` for ``significand`` in ``[1, 2)``.

        Must be continuous, strictly increasing, and satisfy ``approx(1) == 0``
        and ``approx(2) == 1`` so that octaves join up seamlessly.
        """
        raise NotImplementedError

    def _approx_batch(self, significands: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`_approx` over an array of significands in ``[1, 2)``.

        Must perform the same IEEE-754 operations as the scalar version so
        that batch and scalar keys are bit-identical.
        """
        raise NotImplementedError

    def _approx_inverse(self, fraction: float) -> float:
        """Inverse of :meth:`_approx`, mapping ``[0, 1)`` back to ``[1, 2)``."""
        raise NotImplementedError

    def _approx_inverse_batch(self, fractions: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`_approx_inverse` over an array of fractions.

        Must perform the same IEEE-754 operations as the scalar version so
        that batch and scalar values are bit-identical.
        """
        raise NotImplementedError


class LinearlyInterpolatedMapping(_InterpolatedMapping):
    """Approximates ``log2`` linearly within each octave.

    The fastest mapping to evaluate (a single ``frexp`` plus a multiply and
    add) at the cost of roughly 44% more buckets than the memory-optimal
    logarithmic mapping.
    """

    _MIN_SLOPE = 1.0  # min of d(approx)/d(log2) over an octave, divided by ln 2

    def _approx(self, significand: float) -> float:
        return significand - 1.0

    def _approx_batch(self, significands: "np.ndarray") -> "np.ndarray":
        return significands - 1.0

    def _approx_inverse(self, fraction: float) -> float:
        return fraction + 1.0

    def _approx_inverse_batch(self, fractions: "np.ndarray") -> "np.ndarray":
        return fractions + 1.0


class QuadraticallyInterpolatedMapping(_InterpolatedMapping):
    """Approximates ``log2`` with a quadratic polynomial within each octave.

    Uses ``A(t) = t (4 - t) / 3`` on ``t = significand - 1``, which maximizes
    the minimum slope among quadratics that join octaves continuously.  Needs
    about 8% more buckets than the logarithmic mapping.
    """

    _MIN_SLOPE = 4.0 / 3.0

    def _approx(self, significand: float) -> float:
        t = significand - 1.0
        return t * (4.0 - t) / 3.0

    def _approx_batch(self, significands: "np.ndarray") -> "np.ndarray":
        t = significands - 1.0
        return t * (4.0 - t) / 3.0

    def _approx_inverse(self, fraction: float) -> float:
        # Solve t^2 - 4 t + 3 * fraction = 0 for the root in [0, 1].
        t = 2.0 - math.sqrt(4.0 - 3.0 * fraction)
        return t + 1.0

    def _approx_inverse_batch(self, fractions: "np.ndarray") -> "np.ndarray":
        # sqrt is correctly rounded by IEEE-754, so this matches the scalar
        # version exactly.
        t = 2.0 - np.sqrt(4.0 - 3.0 * fractions)
        return t + 1.0


class CubicallyInterpolatedMapping(_InterpolatedMapping):
    """Approximates ``log2`` with a cubic polynomial within each octave.

    Uses ``A(t) = (6/35) t^3 - (3/5) t^2 + (10/7) t``, whose minimum slope of
    ``10/7`` (relative to the exact ``log2``, times ``ln 2``) translates to
    only about 1% more buckets than the memory-optimal logarithmic mapping
    while still avoiding any logarithm evaluation at insertion time.
    """

    _A = 6.0 / 35.0
    _B = -3.0 / 5.0
    _C = 10.0 / 7.0
    _MIN_SLOPE = 10.0 / 7.0

    def _approx(self, significand: float) -> float:
        t = significand - 1.0
        return ((self._A * t + self._B) * t + self._C) * t

    def _approx_batch(self, significands: "np.ndarray") -> "np.ndarray":
        t = significands - 1.0
        return ((self._A * t + self._B) * t + self._C) * t

    def _approx_inverse(self, fraction: float) -> float:
        # Invert the cubic with a few Newton iterations; the polynomial is
        # strictly increasing on [0, 1] with slope >= 10/7, so Newton from the
        # linear estimate converges in a handful of steps to full precision.
        t = fraction * 7.0 / 10.0
        for _ in range(20):
            poly = ((self._A * t + self._B) * t + self._C) * t - fraction
            slope = (3.0 * self._A * t + 2.0 * self._B) * t + self._C
            step = poly / slope
            t -= step
            if abs(step) < 1e-14:
                break
        return t + 1.0

    def _approx_inverse_batch(self, fractions: "np.ndarray") -> "np.ndarray":
        # Same Newton iteration with a per-lane freeze replicating the scalar
        # early exit: a lane whose applied step dropped below the tolerance
        # stops updating, so every lane performs exactly the float operations
        # of the scalar loop.
        t = fractions * 7.0 / 10.0
        active = np.ones(t.shape, dtype=bool)
        for _ in range(20):
            poly = ((self._A * t + self._B) * t + self._C) * t - fractions
            slope = (3.0 * self._A * t + 2.0 * self._B) * t + self._C
            step = np.where(active, poly / slope, 0.0)
            t = t - step
            active &= np.abs(step) >= 1e-14
            if not active.any():
                break
        return t + 1.0
