"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array arguments have inconsistent or wrong dimensions."""


class DegenerateCovariance(ValueError):
    """Covariance matrix is not symmetric positive definite."""


class IndistinguishableHypotheses(ValueError):
    """The two hypotheses share the same mean vector."""


class ParameterError(ValueError):
    """Scalar argument outside its documented domain."""


class InvalidWeights(ValueError):
    """Weight matrix violates symmetry, stochasticity or nonnegativity."""


class NoConnectedWindow(ValueError):
    """No window length up to the period yields a connected union graph."""


class DegenerateVariance(ValueError):
    """A per-node variance is zero or negative beyond tolerance."""


class ConfigError(ValueError):
    """Scenario configuration failed to parse or validate."""
