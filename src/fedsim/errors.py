"""Exception types shared across the simulator.

Both name a fault the command line reports as one line: input it cannot
run, or a run whose numbers overflowed. A value is checked once, where it
enters: the config fields (`ExperimentConfig`), the lines of a settings
file, the data and model descriptors, the IDX files, and the records the
links and learner take from outside a run (`ChannelState`, the channel's
frame shapes, `ProjectionMatrix`, `cs_decode`'s measurements,
`LabeledDataset`, `MlpArchitecture`). Values a run builds for itself, such
as q, bit budgets, payloads and weights, are not checked again where they
are used.
"""


class ConfigurationError(ValueError):
    """An experiment or link configuration that cannot be run as requested."""


class DivergenceError(ValueError):
    """Training whose weights, logits or link payload left the numbers they
    are carried in (a step size too large for the data, or non-finite
    inputs)."""
