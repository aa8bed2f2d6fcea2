"""Exception types shared across the library."""


class RobustRegError(Exception):
    """Base class for all robustreg errors."""


class InvalidParameter(RobustRegError, ValueError):
    """A parameter is outside its documented range."""


class MissingPerturbation(RobustRegError):
    """An instance has no entry in the perturbation map."""

    def __init__(self, instance):
        super().__init__(f"no perturbation entry for instance {instance}")
        self.instance = instance


class EmptySample(RobustRegError):
    """An operation that needs at least one labeled point got none."""


class CapExceeded(RobustRegError):
    """Brute-force search caps would be exceeded."""


class DegenerateWeights(RobustRegError):
    """Total weight is zero where positive mass is required."""


class WeakLearnerNotFound(RobustRegError):
    """No pool member passed the weak-learning check."""

    def __init__(self, message, best_mass=None):
        super().__init__(message)
        self.best_mass = best_mass


class StrongLearnerNotFound(RobustRegError):
    """No pool member met the per-round error threshold."""

    def __init__(self, message, best_mass=None):
        super().__init__(message)
        self.best_mass = best_mass


class NotCompressible(RobustRegError):
    """An ensemble member carries no source points to compress to."""


class ReconstructionFailed(RobustRegError):
    """A stored group cannot be refit, or the refit differs from the run."""


class SparsifyFailed(RobustRegError):
    """No sampled sub-ensemble passed the majority certificate."""

    def __init__(self, message, best_violations=None):
        super().__init__(message)
        self.best_violations = best_violations


class EmptyPool(RobustRegError):
    """Every candidate subset was infeasible for the pool oracle."""


class UnrealizableSpec(RobustRegError):
    """Rejection sampling could not produce a realizable instance."""


class ChainAssertionFailed(RobustRegError):
    """A pipeline's recomputed guarantee chain does not hold."""
