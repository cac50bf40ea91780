"""CPython 3.12's builtin ``sum``, for running tests under either one.

From 3.12 on, ``sum`` adds floats with Neumaier's compensated summation
instead of a plain left fold, so a float fold over the same list can
differ by a few ulps between interpreters.  :func:`compensated_sum`
reproduces 3.12's rule on any interpreter; tests patch it into
``builtins`` to check that a result does not depend on which ``sum``
the interpreter has.
"""

from __future__ import annotations

import math


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it.

    Ints accumulate exactly until the first float.  From then on each
    float ``x`` goes through ``t = s + x``, with the lost low part
    carried in ``c``; an int is added to ``s`` alone.  The result is
    ``s + c`` when ``c`` is nonzero and finite, else ``s``.  Other items
    leave the float path and are added one by one, as the builtin does.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            total = total + x
            if type(total) is not int:
                break
    if type(total) is not float:
        for x in items:
            total = total + x
        return total
    s, c = total, 0.0
    for x in items:
        if type(x) is int:
            s += float(x)  # uncompensated, as in 3.12
            continue
        if type(x) is not float:
            total = (s + c if c and math.isfinite(c) else s) + x
            for x in items:
                total = total + x
            return total
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c if c and math.isfinite(c) else s
