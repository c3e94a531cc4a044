"""Exception types shared across the package."""


class FplabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteFieldError(FplabError):
    """A sampled field value is NaN or Inf at some cell."""

    def __init__(self, where, value=None):
        self.where = where
        self.value = value
        super().__init__(f"non-finite field value at cell {where}: {value}")


class NotSPDError(FplabError):
    """A diffusion matrix is not symmetric positive definite."""

    def __init__(self, where, lam=None):
        self.where = where
        self.lam = lam
        super().__init__(f"diffusion matrix not SPD at {where} (lambda_min={lam})")


class GridMismatchError(FplabError):
    """Two grid-bound objects live on different grids."""


class StencilOverflowError(FplabError):
    """Face Peclet number |v h / a| exceeds the exponential-fitting range."""

    def __init__(self, face, z):
        self.face = face
        self.z = z
        super().__init__(
            f"exponential-fitting overflow at face {face}: |vh/a| = {abs(z):.3g} > 700; "
            "refine the grid or raise the diffusion floor"
        )


class SingularOperatorError(FplabError):
    """The discrete operator has a null space of dimension > 1."""


class NoConvergenceError(FplabError):
    """Iterative fallback solve failed to converge."""

    def __init__(self, history):
        self.history = list(history)
        super().__init__(f"no convergence; residual history = {self.history}")


class NotSettledError(FplabError):
    """Ensemble integration did not meet the settling criterion."""


class UnderresolvedError(FplabError):
    """SDE paths jump too many cells per step for the histogram to be meaningful."""


class RatioInfeasibleError(FplabError):
    """The requested noise ratio is not admissible (pass `message`), or it
    cannot be shaped within the available band (pass the two widths)."""

    def __init__(self, requested_ratio, min_band_width=None, available_width=None,
                 message=None):
        self.requested_ratio = requested_ratio
        self.min_band_width = min_band_width
        self.available_width = available_width
        if message is None:
            message = (
                f"ratio {requested_ratio} needs a transition band >= {min_band_width:.4g} "
                f"but only {available_width:.4g} is available"
            )
        super().__init__(message)


class DegenerateGradientError(FplabError):
    """|grad U0| falls below tolerance on a level set where it must not vanish."""


class CertificateFailError(FplabError):
    """A quadratic-form certificate violates one of its defining conditions."""

    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"certificate condition {condition} fails: {detail}")


class ConfigError(FplabError):
    """A run configuration is invalid; `field` names the offending entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
