"""Exception types shared across the package.

Two families matter to the CLI: ConfigError maps to exit code 2,
NumericError maps to exit code 3.
"""


class GridposeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GridposeError):
    """Invalid or internally inconsistent configuration or artifact."""


class NumericError(GridposeError):
    """Numeric failure at run time (bad data, divergence, degeneracy)."""


class NonPositiveDepth(NumericError):
    """A camera-frame point with z <= 0 cannot be projected."""


class OutOfVolume(NumericError):
    """Root joint or object centroid falls outside the grid volume."""

    def __init__(self, entity: str, axis: str, value: float, bound: tuple[float, float]):
        self.entity = entity
        self.axis = axis
        self.value = value
        self.bound = bound
        super().__init__(
            f"{entity} root leaves the grid volume on axis {axis}: "
            f"{value:.6g} not in [{bound[0]:.6g}, {bound[1]:.6g})"
        )


class LengthMismatch(NumericError):
    """A vector or list does not have the length the operation requires."""


class DegenerateConfiguration(NumericError):
    """Point configuration too degenerate for a pose solve (rank < 2)."""


class RankDeficient(NumericError):
    """Not enough independent correspondences for the linear pose solve."""


class ShapeMismatch(NumericError):
    """Tensor shapes disagree with what the model config dictates."""


class NonFiniteLoss(NumericError):
    """The training loss became NaN or infinite."""


class WidthMismatch(NumericError):
    """Feature width disagrees with the interaction model's input layout."""


class EmptySequence(NumericError):
    """A frame sequence with no frames cannot be classified."""


class ConfigOutOfRange(ConfigError):
    """A sampling or model configuration value is outside its valid range."""


class HashMismatch(ConfigError):
    """A checkpoint references a different config/backbone than supplied."""


class EmptyModel(NumericError):
    """A metric over model points needs at least one point."""
