"""Independent numerical oracles shared by the test modules.

Everything here is deliberately brute force (central differences, dense
Hessians, exhaustive nearest-centroid search) so it cannot share a bug with
the analytic code paths it checks. The per-sample references (``lstm_step``,
``kl_divergence``, ``supervised_perturbation``) restate the model's equations
one sample at a time, without the batched code they are compared with.
"""

import numpy as np
from scipy.special import expit as sigmoid

from lpat.model import ShapeError

FLOOR = 1e-12  # gradient-norm and probability floor of the references below


def central_diff_grad(f, x, step=1e-5):
    """Gradient of scalar f at x by central differences, one entry at a time."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def fd_grad_wrt(arr, scalar_fn, step=1e-5):
    """Central-difference gradient w.r.t. a live parameter array.

    Writes trial values into ``arr`` in place, calls ``scalar_fn()``, and
    restores the original contents before returning.
    """
    orig = arr.copy()

    def f(values):
        arr[...] = values
        return scalar_fn()

    g = central_diff_grad(f, orig, step)
    arr[...] = orig
    return g


def central_diff_hessian(f, x0, step=1e-4):
    """Dense Hessian of scalar f at x0 via the four-point central formula."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            x = x0.copy()
            x[i] += step
            x[j] += step
            fpp = f(x)
            x = x0.copy()
            x[i] += step
            x[j] -= step
            fpm = f(x)
            x = x0.copy()
            x[i] -= step
            x[j] += step
            fmp = f(x)
            x = x0.copy()
            x[i] -= step
            x[j] -= step
            fmm = f(x)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step * step)
    return H


def rel_error(analytic, numeric):
    """Norm-relative disagreement; 0 when both vanish."""
    a = np.asarray(analytic, dtype=float).ravel()
    b = np.asarray(numeric, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def nearest_centroid_labels(points, centroids):
    """Exhaustive nearest-centroid assignment (ties to the lowest index)."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = []
    for p in points:
        d = [float(np.dot(p - c, p - c)) for c in centroids]
        labels.append(int(np.argmin(d)))
    return np.array(labels)


def dominant_eigenvector(H):
    """Top eigenvector of a symmetric matrix by full eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return V[:, int(np.argmax(w))]


def abs_cosine(u, v):
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(abs(np.dot(u, v)) / (nu * nv))


def lstm_step(x_t, h_prev, c_prev, params):
    """One LSTM cell update.

    a_hat = W x_t + U h_prev + b per gate; i, f, o pass through the sigmoid,
    j through tanh; c_t = i*j + f*c_prev; h_t = o*tanh(c_t).
    """
    x_t = np.asarray(x_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    q = params.units
    if x_t.shape[-1] != params.in_dim:
        raise ShapeError(f"lstm input has {x_t.shape[-1]} features, expected {params.in_dim}")
    if h_prev.shape[-1] != q or c_prev.shape[-1] != q:
        raise ShapeError(f"lstm state width must be {q}")
    a = x_t @ params.W.T + h_prev @ params.U.T + params.b
    i_t = sigmoid(a[..., :q])
    f_t = sigmoid(a[..., q:2 * q])
    o_t = sigmoid(a[..., 2 * q:3 * q])
    j_t = np.tanh(a[..., 3 * q:])
    c_t = i_t * j_t + f_t * c_prev
    h_t = o_t * np.tanh(c_t)
    return h_t, c_t


def supervised_perturbation(g, eps):
    """r* = -eps * g/||g||2; exactly zero when eps is 0 or the gradient is
    numerically zero (||g||2 < 1e-12)."""
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g.ravel()))
    if eps == 0.0 or norm < FLOOR:
        return np.zeros_like(g)
    return (-eps / norm) * g


def kl_divergence(p, q):
    """KL(p || q) in nats over the class simplex, log arguments floored at
    1e-12 so degenerate inputs stay finite; clamped below at exactly 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    val = float(np.sum(p * np.log(np.maximum(p, FLOOR) / np.maximum(q, FLOOR))))
    return max(0.0, val)
