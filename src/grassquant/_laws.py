"""Exact laws of statistics that the experiments sample as one draw.

Private: nothing here is part of the package's API.  numpy and the standard
library only.
"""

from __future__ import annotations

import math

import numpy as np

def overlap_tail(x, n: int, beta: int) -> np.ndarray:
    """``Q(x) = P(X > x)`` for ``X ~ Beta(beta/2, beta (n - 1)/2)``.

    ``X`` is the squared overlap ``|<c, y>|^2`` of a uniform unit vector ``c``
    with a fixed unit vector ``y`` in ``F^n``.  ``x``, a float or an array, is
    clamped into ``[0, 1]``.  For the complex field (``beta = 2``) the tail is
    ``(1 - x)^(n - 1)``.  For the real field it is the two-sided tail of
    Student's t with ``nu = n - 1`` degrees of freedom at
    ``theta = arcsin(sqrt(x))`` (Abramowitz & Stegun 26.7.3-4), a finite series
    in ``1 - x``::

        nu even: 1 - sqrt(x) sum_{k < nu/2} c_k (1 - x)^k,
                 c_0 = 1, c_k = c_{k-1} (2k - 1)/(2k);
        nu odd:  1 - (2/pi) (theta + sqrt(x (1 - x)) sum_{k < (nu-1)/2} d_k (1 - x)^k),
                 d_0 = 1, d_k = d_{k-1} (2k)/(2k + 1).

    The ``nu // 2`` terms are summed by Horner's rule in ``1 - x``, elementwise,
    so each ``x`` costs O(n) and no array larger than ``x`` is built.  The
    absolute error is within 1e-12 up to ``n = 4097``.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    y = 1.0 - x
    if beta == 2:
        return y ** (n - 1)
    nu = n - 1
    odd = nu % 2
    j = np.arange(1, nu // 2)
    coef = np.concatenate(([1.0], np.cumprod((2 * j - 1 + odd) / (2 * j + odd))))[: nu // 2]
    series = np.zeros_like(y)
    for c in coef[::-1]:
        series *= y
        series += c
    if odd:  # theta as atan2(sqrt(x), sqrt(1 - x)): arcsin loses digits near x = 1
        inside =(np.arctan2(np.sqrt(x), np.sqrt(y)) + np.sqrt(x * y) * series) * (2.0 / math.pi)
    else:
        inside = np.sqrt(x) * series
    return np.clip(1.0 - inside, 0.0, 1.0)


def max_overlap_cdf(x, n: int, beta: int, count: int) -> np.ndarray:
    """``P(max of count overlaps <= x) = (1 - Q(x))^count`` for ``count`` i.i.d.
    overlaps with the tail :func:`overlap_tail`, taken as
    ``exp(count log1p(-Q(x)))``.  It is 1 for ``count = 0``, and 0 where
    ``Q(x) = 1`` and ``count > 0``."""
    if count == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf, whose exp is the 0 wanted
        return np.exp(count * np.log1p(-overlap_tail(x, n, beta)))
