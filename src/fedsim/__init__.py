"""Cooperative edge training over simulated fading channels.

The package simulates four training protocols (independent learning,
federated averaging of weight updates, federated distillation of logit
tables, and a hybrid variant with an offline mixed-covariate exchange)
over any combination of digital and analog uplink/downlink pipelines.
"""

from .channel import AnalogFrame, ChannelState, downlink_bc, sample_channel, uplink_mac
from .compression import (
    ErrorAccumulator, SparsePayload, accumulate_error, log2_binomial,
    max_sparsity_within_budget, quantize_uniform, sparse_binary_compress,
    top_k_sparsify,
)
from .datasets import LabeledDataset, load_dataset, partition_shards
from .digital_link import (
    BitBudget, downlink_budget, fd_digital_decode, fd_digital_encode,
    fl_digital_decode, fl_digital_encode, uplink_budget,
)
from .analog_link import (
    ProjectionMatrix, cs_decode, fd_analog_downlink, fd_analog_uplink,
    fl_analog_downlink, fl_analog_uplink, pack_complex, precompensate,
    repetition_decode, repetition_encode, unpack_complex,
)
from .errors import ConfigurationError, DecodeError
from .learning import (
    MlpArchitecture, average_logits, evaluate_accuracy, hfd_distill_step,
    init_weights, label_means, sgd_step, softmax,
)
from .orchestrator import (
    ExperimentConfig, MetricsRecord, read_metrics, run_experiment,
    write_metrics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
