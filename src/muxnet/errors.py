"""Exception types shared across the package."""


class MuxnetError(Exception):
    """Base class for all muxnet errors."""


class ShapeError(MuxnetError, ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrix(MuxnetError, ValueError):
    """A matrix that must be invertible is not."""


class EnumerationTooLarge(MuxnetError):
    """An exhaustive enumeration would exceed its fixed bound."""


class CycleDetected(MuxnetError, ValueError):
    """The link graph is not acyclic."""


class MissingCoefficient(MuxnetError, KeyError):
    """A local coding map has no entry for a link that needs one."""


class WrongSlotCount(MuxnetError, ValueError):
    """A per-slot argument does not match the number of time slots."""


class DuplicateLink(MuxnetError, ValueError):
    """A tapped link set contains a repeated link."""


class InfeasibleMu(MuxnetError, ValueError):
    """More links are tapped per slot than the model allows."""


class DomainError(MuxnetError, ValueError):
    """A bound formula was evaluated outside its validity domain."""


class ConfigError(MuxnetError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
