"""Order-independent summaries of per-trial results."""

import math

import numpy as np

from ..errors import InvalidInput
from ..spectral import _array


def aggregate(values):
    """Summarize a batch of scalar trial results.

    Values are sorted before any statistic is computed, so the summary is
    independent of the order of the trials. The 95th percentile uses the
    nearest-rank convention: for sorted values v_1 <= ... <= v_N it is
    v_ceil(0.95 N), e.g. the values 1..100 give exactly 95.

    Returns
    -------
    dict with keys "median", "p95", "mean", "se" (SE of the mean; 0.0 for a
    single value).
    """
    arr = np.sort(_array(values, "values", float, (None,), finite=True, empty=False))
    n = arr.size
    rank = int(np.ceil(0.95 * n))
    se = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return {
        "median": float(np.median(arr)),
        "p95": float(arr[rank - 1]),
        "mean": float(arr.mean()),
        "se": se,
    }


class UpperTail:
    """The largest of ``total`` values fed in chunks, enough to read their
    upper quantiles as ``np.quantile`` does.

    The linear quantile q reads the sorted values at ``floor((total - 1) *
    q)`` and the one after it, so quantiles from ``lowest`` up need only the
    ``total - floor((total - 1) * lowest)`` largest values. Each chunk is
    merged into those and the merge trimmed back with a partition, so at most
    two tails and two chunks are held at once. The values kept do not depend
    on the order of the chunks.
    """

    def __init__(self, total, lowest):
        self.total = total
        self.size = total - math.floor((total - 1) * lowest)
        self._tail = np.empty(0)
        self._seen = 0

    def add(self, values):
        """Merge a chunk of values into the tail."""
        merged = np.concatenate((self._tail, values))
        keep = min(self.size, merged.size)
        if keep < merged.size:
            merged.partition(merged.size - keep)
        self._tail = merged[merged.size - keep :]
        self._seen += len(values)

    def quantiles(self, qs):
        """``np.quantile(values, qs)`` over all ``total`` values, bit for bit,
        for every q in ``[lowest, 1)``."""
        if self._seen != self.total:
            raise InvalidInput(f"the tail was fed {self._seen} of its {self.total} values")
        tail = self._tail
        tail.sort()
        offset = self.total - self.size
        out = []
        for q in qs:
            # numpy's virtual index and its _lerp: a + (b - a) t, or
            # b - (b - a)(1 - t) once t >= 0.5
            index = (self.total - 1) * q
            k = math.floor(index)
            t = index - k
            a, b = tail[k - offset], tail[k + 1 - offset]
            diff = b - a
            out.append(float(a + diff * t if t < 0.5 else b - diff * (1 - t)))
        return out


def slope_fit(ns, errors):
    """Least-squares slope of log(error) against log(n).

    For an exact power law c * n^p the fitted slope is p up to floating
    point (c / sqrt(n) gives -0.5 to ~1e-15). Needs at least three points
    and strictly positive inputs.
    """
    ns = _array(ns, "ns", float, (None,))
    errors = _array(errors, "errors", float, ns.shape)
    if ns.size < 3:
        raise InvalidInput(f"need at least 3 points for a slope, got {ns.size}")
    if np.any(ns <= 0) or np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise InvalidInput("slope fit needs positive finite sample sizes and errors")
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope)
