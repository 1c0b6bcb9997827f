"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """An experiment or link configuration that cannot be run as requested."""


class DecodeError(ValueError):
    """A received payload that cannot be reconstructed (corrupt indices etc.)."""


class DivergenceError(ValueError):
    """Training whose weights, logits or analog payload left the numbers they
    are carried in (a step size too large for the data, or non-finite
    inputs)."""
