"""The builtin ``sum`` of Python 3.12 and later, emulated on any version.

From 3.12 on, CPython adds exact floats with Neumaier's compensation
(gh-100425; Neumaier 1974, Z. angew. Math. Mech. 54:39-51), so a float sum
can differ in its last bits from the left-to-right sum of 3.10 and 3.11.
``neumaier_sum`` follows ``builtin_sum_impl`` of CPython 3.12 step for
step: ints and bools add exactly while the total is an int, exact floats
then add with a running compensation (ints that fit a C long are added as
doubles), and any other item ends the fast path with the compensation
folded in, after which items add by ``+``.

Loaded as a pytest plugin (``-p neumaier_sum``), this module installs the
emulation as ``builtins.sum`` for the whole run.
"""

import builtins
import math

_LONG = range(-(2**63), 2**63)


def neumaier_sum(iterable, /, start=0):
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and item in _LONG:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


def pytest_configure(config):
    builtins.sum = neumaier_sum
