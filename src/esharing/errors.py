"""Exception and warning types shared across the package."""

from __future__ import annotations


class EsharingError(Exception):
    """Base class for all errors raised by this package."""


# --- network construction -------------------------------------------------

class DisconnectedGraph(EsharingError):
    """The line list does not connect all buses."""


class NonpositiveWeight(EsharingError):
    """A line weight (susceptance) is zero or negative."""


class SingularLaplacian(EsharingError):
    """The reduced nodal matrix could not be factorized."""


class DimensionMismatch(EsharingError):
    """An array argument has the wrong length or shape."""


class UnbalancedInjection(EsharingError):
    """Nodal injections do not sum to zero."""


# --- program solves -------------------------------------------------------

class IterationLimit(EsharingError):
    """The active-set loop hit its iteration cap without converging, the
    held-set solve refused a held set the loop's finish built, or the
    finish met a rounding fault, as no program is infeasible."""


# --- market / equilibrium -------------------------------------------------

class TooFewProsumers(EsharingError):
    """At least two prosumers are required."""


class DegenerateBaseline(EsharingError):
    """The efficiency baseline is nonpositive, so the ratio is undefined."""


# --- bidding --------------------------------------------------------------

class MaxIterExceeded(EsharingError):
    """Iterative process hit its cap; carries the last iterate for inspection.

    Attributes
    ----------
    trace : object or None
        The recorded trajectory up to the point of failure.
    residual : float or None
        The last stopping-criterion value observed.
    """

    def __init__(self, message: str, trace=None, residual=None):
        super().__init__(message)
        self.trace = trace
        self.residual = residual


# --- best-response lab ----------------------------------------------------

class UnboundedCost(EsharingError):
    """A best-response scan's cost falls without bound toward one end of the
    bid line, so there is no best response.  With ``c > 0`` the exact cost
    rises or stays flat toward both ends, so this reports end pieces whose
    computed rates say otherwise."""


# --- file / CLI -----------------------------------------------------------

class FileError(EsharingError):
    """A scenario file could not be read, parsed, or validated."""


class NonFiniteResult(EsharingError):
    """A computed figure is infinite or NaN, so no report is written."""


class ContractBreach(EsharingError):
    """A residual exceeds the bound README's numerical contracts promise, so
    no report is written."""


# --- warnings -------------------------------------------------------------

class NonRadialWarning(UserWarning):
    """Closed-form equilibrium formulas assume a radial (tree) network."""


class WeakSensitivityWarning(UserWarning):
    """Price sensitivity is below the threshold that guarantees convergence."""
