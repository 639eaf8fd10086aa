"""The one name the benchmark's tracer wraps: ``linprog``.

No package program solves a QP here; they are solved by
:func:`esharing.market._solve_program`.  ``linprog`` stays only because the
benchmark's tracer (``bench/tracing.py``) wraps this name to count LP
calls.  ROADMAP item 1 removes it with the tracer's phase-1 metrics.
"""
from __future__ import annotations


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Nothing in the package calls it.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)
