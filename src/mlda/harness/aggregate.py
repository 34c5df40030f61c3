"""Order-independent summaries of per-trial results."""

import numpy as np

from ..errors import InvalidInput


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
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput(f"need a non-empty 1-D batch, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("trial values must be finite")
    n = arr.size
    rank = int(np.ceil(0.95 * n))
    se = float(arr.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return {
        "median": float(np.median(arr)),
        "p95": float(arr[rank - 1]),
        "mean": float(arr.mean()),
        "se": se,
    }


def slope_fit(ns, errors):
    """Least-squares slope of log(error) against log(n).

    For an exact power law c * n^p the fitted slope is p up to floating
    point (c / sqrt(n) gives -0.5 to ~1e-15). Needs at least three points
    and strictly positive inputs.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape or ns.ndim != 1:
        raise InvalidInput(
            f"ns and errors must be matching 1-D arrays, got {ns.shape} vs {errors.shape}"
        )
    if ns.size < 3:
        raise InvalidInput(f"need at least 3 points for a slope, got {ns.size}")
    if np.any(ns <= 0) or np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise InvalidInput("slope fit needs positive finite sample sizes and errors")
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope)
