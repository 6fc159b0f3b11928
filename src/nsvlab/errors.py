"""Exception types shared across the package."""


class RoleMismatchError(TypeError):
    """A field with the wrong role (velocity vs vorticity) was passed to an operator."""


class GridMismatchError(ValueError):
    """Two fields on different spectral grids were combined."""


class InvalidParameterError(ValueError):
    """A physical or numerical parameter violates its constraints."""


class WrongRegimeError(ValueError):
    """A bound formula was evaluated outside the regime it is stated for."""


class IntegrationDivergedError(RuntimeError):
    """Time integration produced non-finite values."""

    def __init__(self, step: int, t: float, message: str = ""):
        self.step = step
        self.t = t
        super().__init__(
            message or f"integration diverged at step {step} (t={t:.6g}): non-finite state"
        )


class DegenerateFrameError(ValueError):
    """A tangent frame lost linear independence."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(
            message or f"frame vector {index} is (numerically) in the span of its predecessors"
        )


class ConfigError(ValueError):
    """Aggregated configuration problems; `problems` lists every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))
