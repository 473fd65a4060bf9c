"""Exception types raised by the library."""


class PvdynError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PvdynError):
    """Vector or matrix arguments do not match the model's dimensions."""


class NonFiniteInput(PvdynError):
    """A state, torque, right-hand side or warm start holds a NaN or an infinity."""


class MalformedXml(PvdynError):
    """Robot description file is not well-formed XML."""


class UnsupportedJointType(PvdynError):
    """Robot description uses a joint type outside the supported subset."""


class KinematicLoop(PvdynError):
    """Joint graph is not a tree (loop, shared child, or multiple roots)."""


class MissingInertial(PvdynError):
    """A link that must carry inertia has no inertial data."""


class SingularJointInertia(PvdynError):
    """A joint-space inertia S'.I.S is not positive definite."""


class NotPositiveDefinite(PvdynError):
    """A matrix required to be positive definite is not."""


class SingularDual(PvdynError):
    """The dual (constraint-coupling) system is singular.

    Raised by the exact one-sweep solvers when the constraint rows are
    rank deficient; the proximal solver handles such systems instead.
    """


class SingularBaseInertia(PvdynError):
    """Floating-base articulated inertia cannot be factorized."""


class UnknownAlgorithm(PvdynError):
    """Benchmark was asked for an algorithm name it does not know."""


class ModelLoadError(PvdynError):
    """A model specification string or file could not be loaded."""
