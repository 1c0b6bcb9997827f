"""Bit-for-bit checks of the split projection products.

test_analog_link.py runs the amp_T2500 shape in a fresh interpreter with
OPENBLAS_NUM_THREADS=1, as perfbench's workers run; this module imports
only numpy and fedsim to keep that start-up short.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from fedsim.analog_link import (
    AMP_KAPPA, AMP_MAX_ITER, AMP_TOL, ProjectionMatrix, cs_decode,
)


def single_call(proj, v, transpose=False):
    """A @ v (or A.T @ v) as one float32 call, returned as float64."""
    matrix = proj.matrix.T if transpose else proj.matrix
    return (matrix @ np.asarray(v, dtype=np.float32)).astype(np.float64)


def decode_is_the_loop(proj, seed):
    """cs_decode of a noisy sparse signal equals its loop written with
    np.median and np.linalg.norm over single-call float32 products (it
    takes the median by partition and the norm as sqrt(z.z))."""
    rows, cols = proj.rows, proj.cols

    def reference(y):
        x, z = np.zeros(cols), y.copy()
        best_x = x
        best_res = prev_res = float(np.linalg.norm(z))
        for _ in range(AMP_MAX_ITER):
            sigma = float(np.median(np.abs(z))) / 0.6745
            r = x + single_call(proj, z, transpose=True)
            x = np.sign(r) * np.maximum(np.abs(r) - AMP_KAPPA * sigma, 0.0)
            z = y - single_call(proj, x) + (np.count_nonzero(x) / rows) * z
            res = float(np.linalg.norm(z))
            if res < best_res:
                best_res, best_x = res, x
            if res > 10.0 * best_res or abs(res - prev_res) \
                    <= AMP_TOL * max(prev_res, 1e-300):
                break
            prev_res = res
        return best_x

    gen = np.random.default_rng(seed)
    truth = gen.standard_normal(cols) * (gen.random(cols) < 0.3)
    y = single_call(proj, truth) + 0.05 * gen.standard_normal(rows)
    assert np.array_equal(cs_decode(proj, y), reference(y))


def split_is_the_single_call(rows, cols):
    """Both products with a pool, for dense and sparse vectors, and one
    decode equal the single call byte for byte; returns the cuts taken."""
    proj = ProjectionMatrix(rows=rows, cols=cols, seed=50)
    gen = np.random.default_rng(8)
    with ThreadPoolExecutor(1) as pool:
        for density in (1.0, 0.05):
            v = gen.standard_normal(cols) * (gen.random(cols) < density)
            z = gen.standard_normal(rows) * (gen.random(rows) < density)
            assert proj.project(v, pool).tobytes() == \
                single_call(proj, v).tobytes()
            assert proj.backproject(z, pool).tobytes() == \
                single_call(proj, z, transpose=True).tobytes()
    decode_is_the_loop(proj, 0)
    return proj.cuts
