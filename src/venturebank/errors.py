"""Exception hierarchy for the venturebank package.

Everything raised on purpose derives from VentureBankError so callers can
catch one base class at the CLI boundary and turn it into an exit code.
"""


class VentureBankError(Exception):
    """Base class for all deliberate failures."""


class InvalidParameterError(VentureBankError, ValueError):
    """A parameter is outside its documented domain."""


class EvaluationBudgetError(VentureBankError):
    """A multiplier evaluation would exceed the configured iteration budget."""


class InfeasibleTargetError(VentureBankError):
    """A rescale target cannot be reached with nonnegative multiples."""


class StateTransitionError(VentureBankError):
    """An operation is not legal in the contract's current state."""


class ForcedTriggerError(StateTransitionError):
    """Waive attempted on a trigger that forces exercise."""


class TerminalStateError(StateTransitionError):
    """A trigger arrived after the contract reached a terminal state."""


class MissingVerdictError(VentureBankError):
    """A lien under the pending-claims option cannot settle without a verdict."""


class LoanLimitError(VentureBankError):
    """A loan would push outstanding loans past the reserve-ratio limit."""


class CapitalCapError(VentureBankError):
    """A capital booking would breach an insured-capital cap."""


class LedgerBalanceError(VentureBankError):
    """Debits and credits of a transaction do not net to zero."""


class RegistryError(VentureBankError):
    """Base class for registry integrity failures."""


class DuplicateIdError(RegistryError):
    """A record id was registered twice."""


class DanglingReferenceError(RegistryError):
    """A reference points at an id the registry does not hold."""


class DoubleLinkError(RegistryError):
    """A primary already carries a secondary and cannot take another."""


class PackagingError(VentureBankError):
    """A portfolio package violates the public/retained fraction rule."""


class ConfigError(VentureBankError):
    """A config document failed to parse or validate."""

