"""Sums in one fixed order: left to right, one rounding per addition.

Every sum a result depends on goes through these two loops, so the result
has the same bits on every machine and Python version. A BLAS dot product
(``np.dot``, ``@``) does not: its rounding depends on the kernel OpenBLAS
picks for the CPU. Nor does the builtin ``sum`` of floats, which
compensates from Python 3.12 on. With a handful of terms, a plain loop is
also faster than a call into numpy.
"""

from __future__ import annotations


def left_sum(values) -> float:
    """values_0 + values_1 + ..., added left to right."""
    total = 0.0
    for v in values:
        total += v
    return total


def left_dot(u, v) -> float:
    """u_0 v_0 + u_1 v_1 + ..., each product rounded, added left to right."""
    total = 0.0
    for uk, vk in zip(u, v):
        total += uk * vk
    return total
