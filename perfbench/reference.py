"""Reference kernels that read the host's momentary speed.

The host this benchmark was built on changes speed by up to 1.9x, for a
second or for minutes. Each pass therefore times a fixed kernel between
iterations. The kernels share no code with fedsim, so a change to fedsim
cannot move them; only the host's speed does. Each workload uses the kernel
shaped like its dominant cost, because small-array Python-bound code and
memory-bound GEMV slow down by different amounts.

NOMINAL_S is each kernel's duration on a quiet host. End-to-end times are
scaled to a host on which the kernel takes that long.
"""

import time

NOMINAL_S = {"sgd": 0.002, "gemv": 0.03}


def _sgd(np):
    """40 minibatch SGD steps of a small MLP, like fedsim's local SGD."""
    rng = np.random.default_rng(0)
    x, y = rng.random((64, 24)), rng.integers(0, 2, 64)
    w1, w2, w3 = (rng.standard_normal(shape) * 0.2
                  for shape in ((24, 32), (32, 16), (16, 2)))
    b1, b2, b3 = np.zeros(32), np.zeros(16), np.zeros(2)
    rows = np.arange(8)

    def run():
        for _ in range(5):
            for i in range(0, 64, 8):
                a0, labels = x[i:i + 8], y[i:i + 8]
                z1 = a0 @ w1 + b1
                a1 = np.maximum(z1, 0.0)
                z2 = a1 @ w2 + b2
                a2 = np.maximum(z2, 0.0)
                logits = a2 @ w3 + b3
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                d = e / e.sum(axis=1, keepdims=True)
                d[rows, labels] -= 1.0
                d /= 8
                g3 = a2.T @ d
                d2 = (d @ w3.T) * (z2 > 0.0)
                g2 = a1.T @ d2
                d1 = (d2 @ w2.T) * (z1 > 0.0)
                g1 = a0.T @ d1
                # Steps small enough that the kernel's work never changes.
                for w, g in ((w1, g1), (w2, g2), (w3, g3), (b1, d1.sum(0)),
                             (b2, d2.sum(0)), (b3, d.sum(0))):
                    np.subtract(w, 1e-12 * g, out=w)
    return run


def _gemv(np):
    """4 AMP-like GEMV pairs on a 5000 x 1362 float64 matrix (54.5 MB)."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((5000, 1362))
    v, u = rng.standard_normal(1362), rng.standard_normal(5000)

    def run():
        for _ in range(4):
            matrix @ v
            matrix.T @ u
    return run


def make(kind, np):
    """A function that runs kernel `kind` once and returns its seconds."""
    kernel = {"sgd": _sgd, "gemv": _gemv}[kind](np)

    def timed():
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    return timed
