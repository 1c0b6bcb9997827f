"""Exception types shared across the simulator.

Both name a fault the command line reports as one line: input it cannot
run, or a run whose numbers overflowed. Values a run builds for itself,
such as bit budgets and payloads, are not checked again where they are used.
"""


class ConfigurationError(ValueError):
    """An experiment or link configuration that cannot be run as requested."""


class DivergenceError(ValueError):
    """Training whose weights, logits or link payload left the numbers they
    are carried in (a step size too large for the data, or non-finite
    inputs)."""
