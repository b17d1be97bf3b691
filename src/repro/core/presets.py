"""Ready-to-use DDSketch configurations.

The paper's Section 2.2 and Section 4 describe several implementation
strategies; each preset below corresponds to one of them so that experiments
can name the exact variant they exercise:

================================         ===========================================
preset                                   paper configuration
================================         ===========================================
:class:`LogCollapsingLowestDenseDDSketch`  "DDSketch" — log mapping, bounded dense store
:class:`FastDDSketch`                      "DDSketch (fast)" — interpolated mapping
:class:`LogUnboundedDenseDDSketch`         basic sketch of Section 2.1, no bucket limit
:class:`SparseDDSketch`                    sparse buckets + the exact Algorithm 3 collapse
:class:`LogCollapsingHighestDenseDDSketch` collapse from the highest buckets instead
:class:`PaperDDSketch`                     alias of the Table 2 configuration
:class:`UniformCollapsingDDSketch`         UDDSketch: uniform collapse, adaptive alpha
================================         ===========================================
"""

from __future__ import annotations

from typing import Optional

from repro.core.ddsketch import (
    BaseDDSketch,
    DDSketch,
    DEFAULT_BIN_LIMIT,
    DEFAULT_RELATIVE_ACCURACY,
)
from repro.core.uddsketch import UDDSketch
from repro.exceptions import IllegalArgumentError
from repro.mapping import (
    CubicallyInterpolatedMapping,
    KeyMapping,
    LogarithmicMapping,
)
from repro.store import (
    CollapsingHighestDenseStore,
    CollapsingLowestDenseStore,
    DenseStore,
    SparseStore,
)


class LogCollapsingLowestDenseDDSketch(BaseDDSketch):
    """Log mapping with bounded dense stores collapsing the lowest buckets.

    This is the configuration called simply "DDSketch" in the paper's
    evaluation: memory-optimal buckets, a hard limit on the number of tracked
    buckets, and accuracy preserved for the upper quantiles when the limit is
    reached (Proposition 4).
    """

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        bin_limit: int = DEFAULT_BIN_LIMIT,
    ) -> None:
        mapping = LogarithmicMapping(relative_accuracy)
        super().__init__(
            mapping=mapping,
            store=CollapsingLowestDenseStore(bin_limit=bin_limit),
            negative_store=CollapsingHighestDenseStore(bin_limit=bin_limit),
        )

    @property
    def bin_limit(self) -> int:
        """Maximum number of buckets per store before collapsing begins."""
        return self._store.bin_limit


class LogCollapsingHighestDenseDDSketch(BaseDDSketch):
    """Log mapping with bounded dense stores collapsing the *highest* buckets.

    Useful when the lower quantiles are the ones that matter (e.g. tracking
    free disk space); the collapse direction mirrors the default sketch.
    """

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        bin_limit: int = DEFAULT_BIN_LIMIT,
    ) -> None:
        mapping = LogarithmicMapping(relative_accuracy)
        super().__init__(
            mapping=mapping,
            store=CollapsingHighestDenseStore(bin_limit=bin_limit),
            negative_store=CollapsingLowestDenseStore(bin_limit=bin_limit),
        )

    @property
    def bin_limit(self) -> int:
        """Maximum number of buckets per store before collapsing begins."""
        return self._store.bin_limit


class LogUnboundedDenseDDSketch(BaseDDSketch):
    """The basic sketch of Section 2.1: log mapping, no bucket limit.

    Size can grow linearly with the number of distinct orders of magnitude in
    the data (worst case ``n``), but no collapse ever happens, so every
    quantile query is alpha-accurate regardless of the data distribution.
    """

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY) -> None:
        mapping = LogarithmicMapping(relative_accuracy)
        super().__init__(
            mapping=mapping,
            store=DenseStore(),
            negative_store=DenseStore(),
        )


class FastDDSketch(BaseDDSketch):
    """"DDSketch (fast)": interpolated mapping that avoids logarithms.

    Uses the cubically-interpolated mapping by default, which computes bucket
    keys from the binary representation of the float (no ``log`` call) at the
    cost of roughly 1% more buckets; pass a different
    :class:`~repro.mapping.KeyMapping` to use the linear or quadratic variant
    (up to ~44% more buckets, even faster indexing).
    """

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        bin_limit: int = DEFAULT_BIN_LIMIT,
        mapping: Optional[KeyMapping] = None,
    ) -> None:
        if mapping is None:
            mapping = CubicallyInterpolatedMapping(relative_accuracy)
        super().__init__(
            mapping=mapping,
            store=CollapsingLowestDenseStore(bin_limit=bin_limit),
            negative_store=CollapsingHighestDenseStore(bin_limit=bin_limit),
        )

    @property
    def bin_limit(self) -> int:
        """Maximum number of buckets per store before collapsing begins."""
        return self._store.bin_limit


class SparseDDSketch(BaseDDSketch):
    """Sparse-store sketch with the paper's exact collapse rule (Algorithm 3).

    Buckets live in a dictionary so memory is proportional to the number of
    *non-empty* buckets.  When ``max_num_buckets`` is set and an insertion
    pushes the positive store past the limit, the lowest non-empty bucket is
    folded into the next lowest — exactly the collapse step of Algorithms 3
    and 4 — rather than the windowed collapse used by the dense stores.
    """

    # Class-level default so instances built via ``__new__`` (generic
    # ``copy()``, the codecs) are well-formed before the real value lands.
    _max_num_buckets: Optional[int] = None

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_num_buckets: Optional[int] = None,
    ) -> None:
        if max_num_buckets is not None and max_num_buckets < 2:
            raise IllegalArgumentError(
                f"max_num_buckets must be at least 2, got {max_num_buckets!r}"
            )
        mapping = LogarithmicMapping(relative_accuracy)
        super().__init__(
            mapping=mapping,
            store=SparseStore(),
            negative_store=SparseStore(),
        )
        self._max_num_buckets = max_num_buckets

    @property
    def max_num_buckets(self) -> Optional[int]:
        """Maximum number of non-empty buckets kept per store (None = unbounded)."""
        return self._max_num_buckets

    def add(self, value: float, weight: float = 1.0) -> None:
        super().add(value, weight)
        self._enforce_limit()

    def add_batch(self, value_array, weights=None) -> "SparseDDSketch":
        """Vectorized insertion followed by one collapse pass.

        The per-item path collapses after every insertion; collapsing the
        lowest bucket into the next lowest is order-independent (the weight
        of every discarded key ends up in the smallest surviving key), so
        collapsing once after the whole batch yields the same buckets.
        """
        super().add_batch(value_array, weights)
        self._enforce_limit()
        return self

    def merge(self, other: BaseDDSketch) -> None:
        super().merge(other)
        self._enforce_limit()

    def copy(self) -> "SparseDDSketch":
        new = super().copy()
        assert isinstance(new, SparseDDSketch)
        new._max_num_buckets = self._max_num_buckets
        return new

    def _enforce_limit(self) -> None:
        if self._max_num_buckets is None:
            return
        store = self._store
        negative_store = self._negative_store
        assert isinstance(store, SparseStore)
        assert isinstance(negative_store, SparseStore)
        while store.num_buckets > self._max_num_buckets:
            store.collapse_lowest()
        while negative_store.num_buckets > self._max_num_buckets:
            negative_store.collapse_highest()


#: Alias for the exact configuration used throughout the paper's experiments
#: (Table 2): relative accuracy 1% and at most 2048 buckets.
PaperDDSketch = DDSketch

#: Alias naming the uniform-collapse variant in the preset family: bounded
#: memory with a guarantee that degrades uniformly (UDDSketch) instead of
#: abandoning one tail (the Algorithm 3/4 collapse of the presets above).
UniformCollapsingDDSketch = UDDSketch
