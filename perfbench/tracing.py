"""Spans around the calls into each fedsim module, recorded from outside.

`fedsim.orchestrator` binds the layer functions at import time
(`from .learning import run_local_epochs`), and `fedsim.analog_link` does
the same with `uplink_mac` and `downlink_bc`. A wrapper therefore replaces
the name in the *calling* module's namespace; patching the defining module
would leave the caller's reference untouched and the span would never fire.

A span is `[name, start, end, parent_index]`, kept in memory. A span's self
time is its duration minus the durations of its direct children. The
outcome probes (NMSE, payload counts) run after their span has closed, and
every probed function is called from the orchestrator, so probe time lies
outside every span; it is timed on its own (`trace.probe_s`). The
orchestrator's self time is the traced wall time minus the top-level spans
and the probes.
"""

import functools
import inspect
import statistics
import time

import numpy as np

from fedsim import analog_link, orchestrator
from fedsim.compression import top_k_sparsify

MODULES = ("learning", "analog_link", "channel", "digital_link", "datasets")

# (namespace the call is made from, attribute, span name "module.function")
PATCHES = (
    (orchestrator, "run_local_epochs", "learning.run_local_epochs"),
    (orchestrator, "hfd_distill_step", "learning.hfd_distill_step"),
    (orchestrator, "evaluate_accuracy", "learning.evaluate_accuracy"),
    (orchestrator, "average_logits", "learning.average_logits"),
    (orchestrator, "forward_logits_batch", "learning.forward_logits_batch"),
    (orchestrator, "fl_analog_uplink", "analog_link.fl_analog_uplink"),
    (orchestrator, "fl_analog_downlink", "analog_link.fl_analog_downlink"),
    (orchestrator, "fd_analog_uplink", "analog_link.fd_analog_uplink"),
    (orchestrator, "fd_analog_downlink", "analog_link.fd_analog_downlink"),
    (orchestrator, "sample_channel", "channel.sample_channel"),
    (orchestrator, "fl_digital_encode", "digital_link.fl_digital_encode"),
    (orchestrator, "fd_digital_encode", "digital_link.fd_digital_encode"),
    (orchestrator, "fl_digital_decode", "digital_link.fl_digital_decode"),
    (orchestrator, "fd_digital_decode", "digital_link.fd_digital_decode"),
    (orchestrator, "load_dataset", "datasets.load_dataset"),
    (orchestrator, "partition_shards", "datasets.partition_shards"),
    (analog_link, "cs_decode", "analog_link.cs_decode"),
    (analog_link, "uplink_mac", "channel.uplink_mac"),
    (analog_link, "downlink_bc", "channel.downlink_bc"),
)


def _nmse(estimate, truth):
    energy = float(np.dot(truth, truth))
    if energy == 0.0:
        return None
    diff = np.asarray(estimate, dtype=np.float64) - truth
    return float(np.dot(diff, diff)) / energy


class Tracer:
    """Span and counter recorder for one worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.nmse = {"fl_up": [], "fl_down": []}
        self.projections = set()   # (rows, cols, seed) used since last clear
        self.encodes = 0
        self.empty_payloads = 0
        self.payload_bits = 0.0
        self.budget_bits = 0.0
        self.probe_s = 0.0

    def wrap(self, name, fn, after=None):
        """`fn` recording a span `name`; `after(arguments, result)` runs once
        the span has closed."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                probe_start = time.perf_counter()
                after(signature.bind(*args, **kwargs).arguments, result)
                self.probe_s += time.perf_counter() - probe_start
            return result
        return traced

    # -- outcome probes, run after the wrapped call returns --

    def _fl_uplink(self, args, result):
        q = args["q"]
        truth = sum(top_k_sparsify(np.asarray(u, dtype=np.float64)
                                   + acc.residual, q)
                    for u, acc in zip(args["updates"], args["accs"]))
        self._record_nmse("fl_up", [result[0]], truth, args["projection"])

    def _fl_downlink(self, args, result):
        truth = top_k_sparsify(np.asarray(args["update"], dtype=np.float64)
                               + args["acc"].residual, args["q"])
        self._record_nmse("fl_down", result[0], truth, args["projection"])

    def _record_nmse(self, key, estimates, truth, projection):
        self.projections.add((projection.rows, projection.cols,
                              projection.seed))
        for estimate in estimates:
            value = _nmse(estimate, truth)
            if value is not None:
                self.nmse[key].append(value)

    def _fl_encode(self, args, result):
        self._count_payload(result[0], args["budget"])

    def _fd_encode(self, args, result):
        self._count_payload(result, args["budget"])

    def _count_payload(self, payload, budget):
        self.encodes += 1
        self.empty_payloads += payload.is_empty
        self.payload_bits += payload.bit_count
        self.budget_bits += budget.bits

    def install(self):
        """Patch every name in PATCHES; returns a function that undoes it."""
        probes = {
            "analog_link.fl_analog_uplink": self._fl_uplink,
            "analog_link.fl_analog_downlink": self._fl_downlink,
            "digital_link.fl_digital_encode": self._fl_encode,
            "digital_link.fd_digital_encode": self._fd_encode,
        }
        originals = []
        for namespace, attr, name in PATCHES:
            fn = getattr(namespace, attr)
            originals.append((namespace, attr, fn))
            setattr(namespace, attr, self.wrap(name, fn, probes.get(name)))

        def uninstall():
            for namespace, attr, fn in originals:
                setattr(namespace, attr, fn)
        return uninstall

    # -- summaries --

    def self_times(self):
        """Per-span self time, in span order."""
        durations = [end - start for _, start, end, _ in self.spans]
        own = list(durations)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def layer_metrics(self, wall_s):
        """The per-layer metrics for everything traced so far.

        `wall_s` is the traced wall time the spans were recorded in.
        """
        total, own, calls = {}, {}, {}
        for span, self_s in zip(self.spans, self.self_times()):
            name = span[0]
            total[name] = total.get(name, 0.0) + span[2] - span[1]
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        top_level = sum(s[2] - s[1] for s in self.spans if s[3] < 0)

        def t(*names):
            return sum(total.get(n, 0.0) for n in names)

        decode_calls = calls.get("analog_link.cs_decode", 0)
        decode_s = t("analog_link.cs_decode")
        metrics = {f"{module}.self_s": sum(v for n, v in own.items()
                                           if n.startswith(module + "."))
                   for module in MODULES}
        metrics.update({
            "orchestrator.self_s": wall_s - top_level - self.probe_s,
            "trace.probe_s": self.probe_s,
            "learning.local_sgd_s": t("learning.run_local_epochs"),
            "learning.local_sgd_calls": calls.get("learning.run_local_epochs", 0),
            "learning.distill_s": t("learning.hfd_distill_step"),
            "learning.eval_s": t("learning.evaluate_accuracy"),
            "learning.logits_s": t("learning.average_logits",
                                   "learning.forward_logits_batch"),
            "analog_link.cs_decode_s": decode_s,
            "analog_link.cs_decode_calls": decode_calls,
            "analog_link.cs_decode_ms_per_call":
                1000.0 * decode_s / decode_calls if decode_calls else 0.0,
            "analog_link.fl_up_self_s":
                own.get("analog_link.fl_analog_uplink", 0.0),
            "analog_link.fl_down_self_s":
                own.get("analog_link.fl_analog_downlink", 0.0),
            "analog_link.fd_up_s": t("analog_link.fd_analog_uplink"),
            "analog_link.fd_down_s": t("analog_link.fd_analog_downlink"),
            "analog_link.fl_up_nmse": _median(self.nmse["fl_up"]),
            "analog_link.fl_down_nmse": _median(self.nmse["fl_down"]),
            "channel.uplink_mac_s": t("channel.uplink_mac"),
            "channel.downlink_bc_s": t("channel.downlink_bc"),
            "channel.sample_s": t("channel.sample_channel"),
            "digital_link.encode_s": t("digital_link.fl_digital_encode",
                                       "digital_link.fd_digital_encode"),
            "digital_link.decode_s": t("digital_link.fl_digital_decode",
                                       "digital_link.fd_digital_decode"),
            "digital_link.dropout_ratio":
                self.empty_payloads / self.encodes if self.encodes else 0.0,
            "digital_link.budget_fill":
                self.payload_bits / self.budget_bits if self.budget_bits else 0.0,
            "datasets.load_s": t("datasets.load_dataset"),
            "datasets.partition_s": t("datasets.partition_shards"),
        })
        return metrics


def _median(values):
    # A workload that never makes the call reports 0, not a missing value.
    return statistics.median(values) if values else 0.0
