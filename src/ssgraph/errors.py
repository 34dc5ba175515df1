"""Shared exception types and validation reports."""
from __future__ import annotations


class SSGraphError(Exception):
    """Base class for all package errors."""


class NonComposable(SSGraphError):
    """Paths were composed whose endpoints do not match."""


class BadRange(SSGraphError):
    """A degree range fell outside a path's degree."""


class ClosureExceeded(SSGraphError):
    """A closure, word, or fixpoint computation hit a configured cap."""

    @classmethod
    def cap(cls, what, name, limit, count, unit="states"):
        """``what`` exceeds cap ``name``=``limit`` on reaching ``count``."""
        return cls(f"{what} exceeds cap {name}={limit} (reached {count} {unit})")


class PreconditionViolated(SSGraphError):
    """An operation precondition (endpoint or degree compatibility) failed."""


class NotStronglyConnected(SSGraphError):
    """Spectral data requested for a graph that is not strongly connected."""


class NoConvergence(SSGraphError):
    """Eigenvector iteration failed to meet the residual tolerance."""


class NotPeriodic(SSGraphError):
    """A periodicity unitary was requested at a degree pair with no cycline triples."""


class IncompleteTriples(SSGraphError):
    """Cycline triples cover only part of a path fiber; the group ball is too small."""


class SimplexEmpty(SSGraphError):
    """Equilibrium-state evaluation requested although the state simplex is empty."""


class NotInLattice(SSGraphError):
    """A cycline degree difference is outside the computed periodicity lattice."""


class BoxClosureViolation(SSGraphError):
    """Periodicity members found in the box do not close under the
    group laws: a member lacks its negative or a sum inside the box."""


class NotBalanced(SSGraphError):
    """Degree swap requested between fibers of different cardinality."""


class SpecViolation(SSGraphError):
    """Parameters for a built-in model family violate its constraints."""


class DomainError(SSGraphError):
    """Arguments are outside the domain of a model-specific operation."""


class ParseError(SSGraphError):
    """A model or element file is structurally malformed."""


def need_field(obj, key, kind, where):
    """``obj[key]`` if ``obj`` is a dict holding a ``kind`` there (a bool
    is not an int); otherwise ParseError naming ``where``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


class ValidationError(SSGraphError):
    """A parsed model failed semantic validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.problems) or "validation failed")
        self.report = report


class ValidationReport:
    """Collected validation problems; empty means the object is valid."""

    def __init__(self, problems=()):
        self.problems: list[str] = list(problems)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, problem: str) -> None:
        self.problems.append(problem)

    def extend(self, other: "ValidationReport") -> None:
        self.problems.extend(other.problems)

    def raise_if_failed(self) -> None:
        if self.problems:
            raise ValidationError(self)
