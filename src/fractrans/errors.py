"""Exception types shared across the package."""


class TailMassError(RuntimeError):
    """A g-rule's tail target is unreachable below the horizon cap, or a panel's mass is far from exact."""


class MassMismatchError(ValueError):
    """Operation requires measures of equal total mass."""


class PicardConvergenceError(RuntimeError):
    """Fixed-point sweep limit reached before the tolerance was met.

    Carries the per-sweep log (sweep, coupling_bound, wall_time) for
    diagnostics.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)
