"""Exception types shared across the package."""


class FedKdError(Exception):
    """Base class for all package errors."""


class DimensionError(FedKdError):
    """Array shapes do not satisfy an operation's contract."""


class RangeError(FedKdError):
    """A scalar argument is outside its permitted range."""


class ConfigurationError(FedKdError):
    """A run or experiment configuration is invalid."""


class FormatError(FedKdError):
    """An input file could not be parsed."""


class ValidationError(FedKdError, ValueError):
    """Data violates a schema or value constraint, such as non-finite
    entries; a ValueError too, so handlers of bad values still catch it."""


class EvaluationError(FedKdError):
    """A metric is undefined for the given data."""


class DivergenceError(FedKdError):
    """Training ended with non-finite parameters. They stay non-finite under
    SGD, so one check after the training loop catches a divergence at any step."""

    def __init__(self, phase: str, node_id: int | None = None):
        self.phase, self.node_id = phase, node_id
        where = "the central model" if node_id is None else f"node {node_id}"
        super().__init__(f"{phase} diverged on {where}: non-finite parameters")
