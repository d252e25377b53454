"""Central finite-difference gradient oracle for autodiff checks.

Runs the checked function in float64 so the oracle's own rounding noise stays
far below the comparison tolerance.
"""

import numpy as np

from imnav import numcore as nc


def fd_gradients(fn, arrays, h=1e-3):
    """Numeric gradient of scalar fn(list-of-ndarrays) by central differences."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(arrays)
            flat[i] = orig - h
            fm = fn(arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_gradients(build, arrays, h=1e-3, tol=1e-4):
    """Compare analytic grads of `build` against central differences.

    `build` maps a list of Tensors to a scalar Tensor. `arrays` are float64
    ndarrays (mutated in place during probing, restored after). Returns the
    max relative error over all inputs, where the relative error uses a unit
    floor in the denominator: |a - f| / max(1, |a|, |f|).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [nc.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    nc.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(a)
                for t, a in zip(tensors, arrays)]

    def scalar_fn(arrs):
        return float(build([nc.Tensor(a) for a in arrs]).values)

    numeric = fd_gradients(scalar_fn, arrays, h=h)
    worst = 0.0
    for ga, gf in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
        err = np.abs(ga - gf) / denom
        worst = max(worst, float(err.max()) if err.size else 0.0)
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst
