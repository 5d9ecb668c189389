"""Dense/dense/LSTM/dense health-degree classifier with perturbation injection points.

The stack is fixed: two identity-activation dense layers applied per time step,
an LSTM over the window, and a final dense layer on the last hidden state,
softmax on top. The API is batch-first: forward, backward and inference take
(B, w, n) batches. Perturbations can be injected at five numbered points,
shaped per window as below, with a leading batch dimension:

    0  raw input                      (w, n)   per time step
    1  after dense-1                  (w, hidden1)
    2  after dense-2                  (w, hidden2)
    3  final LSTM hidden state        (lstm_units,)
    4  pre-softmax logits             (classes,)

The training pass (``forward_batch``, ``resume_forward``) caches every
injection-point activation and every step's LSTM internals; backward returns
exact reverse-mode gradients (full backpropagation through time) for all
parameters and for the activation at every injection point. The inference
pass (``predict_proba``) keeps neither: its LSTM overwrites one (B, q) state
block per step. It never perturbs, so it folds the two linear dense layers
into the LSTM input weights and runs the LSTM on the raw attributes; it
shares the training pass's LSTM code and gate math, and agrees with it to
rounding, not bit for bit. Arithmetic runs on numpy and BLAS alone: the gate
sigmoid is ``1 / (1 + exp(-a))``, computed in place and a few ulp from the
exact logistic, and each dense weight gradient is one GEMM over the B*w rows
of a batch.

Precision is the network's: every pass runs in the dtype of its parameters.
Inputs are cast to it, state and scratch are allocated in it, perturbations
and logit gradients are cast to the dtype of the activation they meet, so a
float64 operand never turns a float32 pass into a float64 one. Networks are
float64 (``init_network``, checkpoints); training runs its passes on a
float32 copy (see ``training``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# windows per forward in chunked inference
PREDICT_CHUNK = 512


class ShapeError(ValueError):
    """Input or perturbation tensor does not match the layer geometry."""


@dataclass
class DenseParams:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]


@dataclass
class LstmParams:
    """Gate weights stacked row-wise in the order i, f, o, j.

    W is (4q, d), U is (4q, q), b is (4q,).
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def units(self) -> int:
        return self.U.shape[1]

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]


@dataclass
class Network:
    dense1: DenseParams
    dense2: DenseParams
    lstm: LstmParams
    dense3: DenseParams

    @property
    def dims(self) -> dict[str, int]:
        return {
            "n_attrs": self.dense1.in_dim,
            "hidden1": self.dense1.out_dim,
            "hidden2": self.dense2.out_dim,
            "lstm_units": self.lstm.units,
            "classes": self.dense3.out_dim,
        }

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by a stable flat name."""
        return {
            "dense1.W": self.dense1.W, "dense1.b": self.dense1.b,
            "dense2.W": self.dense2.W, "dense2.b": self.dense2.b,
            "lstm.W": self.lstm.W, "lstm.U": self.lstm.U, "lstm.b": self.lstm.b,
            "dense3.W": self.dense3.W, "dense3.b": self.dense3.b,
        }

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "Network":
        """The network holding these arrays, keyed as ``params()`` keys them."""
        return cls(
            dense1=DenseParams(params["dense1.W"], params["dense1.b"]),
            dense2=DenseParams(params["dense2.W"], params["dense2.b"]),
            lstm=LstmParams(params["lstm.W"], params["lstm.U"], params["lstm.b"]),
            dense3=DenseParams(params["dense3.W"], params["dense3.b"]),
        )

    def copy(self) -> "Network":
        return Network.from_params({k: a.copy() for k, a in self.params().items()})

    def astype(self, dtype) -> "Network":
        """A copy with every parameter cast to ``dtype``."""
        return Network.from_params({k: a.astype(dtype) for k, a in self.params().items()})


def param_shapes(dims: dict[str, int]) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter array of a network with the layer widths
    ``dims`` (keyed as ``Network.dims``), keyed as ``Network.params``."""
    n, h1, h2 = dims["n_attrs"], dims["hidden1"], dims["hidden2"]
    q, c = dims["lstm_units"], dims["classes"]
    return {
        "dense1.W": (h1, n), "dense1.b": (h1,),
        "dense2.W": (h2, h1), "dense2.b": (h2,),
        "lstm.W": (4 * q, h2), "lstm.U": (4 * q, q), "lstm.b": (4 * q,),
        "dense3.W": (c, q), "dense3.b": (c,),
    }


def init_network(n_attrs: int, hidden1: int, hidden2: int, lstm_units: int,
                 classes: int = 3, seed: int = 0) -> Network:
    """Seed-deterministic init: uniform[-s, s] with s = sqrt(6/(in+out)) for
    weight matrices, zero biases except the LSTM forget gate bias at 1."""
    rng = np.random.default_rng(seed)

    def uni(out_dim, in_dim, shape=None):
        s = np.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-s, s, size=shape or (out_dim, in_dim))

    q = lstm_units
    b_lstm = np.zeros(4 * q)
    b_lstm[q:2 * q] = 1.0  # forget gate block
    return Network(
        dense1=DenseParams(uni(hidden1, n_attrs), np.zeros(hidden1)),
        dense2=DenseParams(uni(hidden2, hidden1), np.zeros(hidden2)),
        lstm=LstmParams(
            W=uni(q, hidden2, shape=(4 * q, hidden2)),
            U=uni(q, q, shape=(4 * q, q)),
            b=b_lstm,
        ),
        dense3=DenseParams(uni(classes, q), np.zeros(classes)),
    )


@dataclass
class Activations:
    """Per-point activations (post-perturbation, i.e. exactly what fed the
    next layer) and the output distribution of one pass, with a leading batch
    dimension. This is all that a pass resumed from it and a backward sweep
    that stops above the LSTM (``down_to`` 3 or 4) read."""

    xhat: dict[int, np.ndarray]
    probs: np.ndarray   # (B, classes)


@dataclass
class ForwardCache(Activations):
    """Everything a full backward needs: the activations plus the LSTM
    internals per step.

    The LSTM internals are regions of one time-major block, (w, B, .),
    allocated per pass, and kept here as (B, w, .) views, so ``gates[:, t]``
    and the other per-step slices are contiguous. Any one of them keeps the
    whole block alive. They are the bulk of the cache: in the float32
    training passes, 14.3 MB at B=128, w=20 and 200 units, against 2.7 MB
    for the activations of points 1-3 at widths 128/128/200."""

    gates: np.ndarray   # (B, w, 4q) activated gate values i,f,o,j
    c: np.ndarray       # (B, w, q) cell states
    tanh_c: np.ndarray  # (B, w, q)
    h: np.ndarray       # (B, w, q) hidden states

    def activations(self) -> Activations:
        """The activations and output alone, holding no reference to the
        LSTM internals (point 3 is copied out of ``h``), so that dropping
        this cache frees them."""
        return Activations({**self.xhat, 3: self.xhat[3].copy()}, self.probs)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _lstm_forward(p: LstmParams, x: np.ndarray, history: bool = True):
    """Run the LSTM over (B, w, d) inputs; returns the activated gates
    i, f, o, j, ``c``, ``tanh_c`` and ``h`` as (B, ., .) views of
    time-major storage, so each step reads and writes contiguous (B, .)
    blocks. With ``history`` each step keeps its own blocks; without it
    every step overwrites the same ones, so ``c``, ``tanh_c`` and ``h`` hold
    only the final state. Each special case has its reason:

    - one block per pass holds all four: separate arrays cost about ten
      times the minor page faults of a training epoch;
    - the gate pre-activations ``x W^T + b`` are one (w*B, d) GEMM, its
      time-major input copy in the state region, which is dead before the
      first step writes it: a copy outside the block raised the training
      run's peak RSS by 1.8 MB;
    - a pass without ``history`` over B >= 2 windows forms each step's
      (B, 4q) pre-activations into one reused region instead:
      ``predict_proba``'s peak fell from 43.8 to 6.1 MB at (310, 20, 8);
    - a single window keeps the one GEMM, which keeps its bits equal to
      ``forward_batch``'s at the tested widths (numpy runs a one-row
      product as GEMV, whose bits differ)."""
    B, w, d = x.shape
    q = p.units
    per_step = not history and B > 1
    gate_depth = 1 if per_step else w  # steps of gates held
    depth = w if history else 1        # steps of c, tanh_c and h held
    n_gates, n_state = gate_depth * B * 4 * q, 3 * depth * B * q
    block = np.empty(n_gates + max(n_state, 0 if per_step else w * B * d), dtype=x.dtype)
    gates = block[:n_gates].reshape(gate_depth, B, 4 * q)
    c, tanh_c, h = block[n_gates:n_gates + n_state].reshape(3, depth, B, q)
    if not per_step:
        x_tm = block[n_gates:n_gates + w * B * d].reshape(w, B, d)
        np.copyto(x_tm, x.transpose(1, 0, 2))
        np.matmul(x_tm.reshape(w * B, d), p.W.T, out=gates.reshape(w * B, 4 * q))
        gates += p.b
    # the sigmoid is 1 / (1 + exp(-a)) in place: a pre-activation below
    # about -709 overflows exp to inf and gives exactly 0
    with np.errstate(over="ignore"):
        for t in range(w):
            if per_step:
                g = gates[0]
                np.matmul(x[:, t], p.W.T, out=g)
                g += p.b
            else:
                g = gates[t]
            # without history h[s - 1] and c[s - 1] are h[s] and c[s]: h is
            # read before anything is written, and c element by element as
            # the forget term overwrites it. h_0 = c_0 = 0, so step 0 has no
            # recurrent or forget term
            s = t if history else 0
            if t > 0:
                g += h[s - 1] @ p.U.T
            sig = g[:, :3 * q]
            np.negative(sig, out=sig)
            np.exp(sig, out=sig)
            sig += 1.0
            np.reciprocal(sig, out=sig)
            np.tanh(g[:, 3 * q:], out=g[:, 3 * q:])
            if t > 0:
                np.multiply(g[:, q:2 * q], c[s - 1], out=c[s])
                # tanh_c[s] holds i * j until tanh(c) overwrites it
                np.multiply(g[:, :q], g[:, 3 * q:], out=tanh_c[s])
                c[s] += tanh_c[s]
            else:
                np.multiply(g[:, :q], g[:, 3 * q:], out=c[s])
            np.tanh(c[s], out=tanh_c[s])
            np.multiply(g[:, 2 * q:3 * q], tanh_c[s], out=h[s])
    return tuple(a.transpose(1, 0, 2) for a in (gates, c, tanh_c, h))


def _check_pert_shapes(perts: dict, shapes: dict[int, tuple]) -> None:
    for m, r in perts.items():
        if m not in shapes:
            raise ShapeError(f"unknown injection point {m}")
        if np.shape(r) != shapes[m]:
            raise ShapeError(
                f"perturbation at point {m} has shape {np.shape(r)}, expected {shapes[m]}")


def _dense(p: DenseParams, x: np.ndarray) -> np.ndarray:
    return x @ p.W.T + p.b


def _forward_from(net: Network, xhat: dict[int, np.ndarray], start: int,
                  perts: dict) -> Activations:
    """Run the layers above injection point ``start``.

    ``xhat`` holds the activations below ``start`` as they fed the next
    layer and the unperturbed one at ``start``; each point m from ``start``
    up gets ``perts[m]``, cast to the activation's dtype, added before it
    feeds the next layer. The result is a ``ForwardCache`` when the LSTM ran
    (``start`` below 3), else the ``Activations`` alone.
    """
    def inject(m, a):
        xhat[m] = a + np.asarray(perts[m], dtype=a.dtype) if m in perts else a

    inject(start, xhat[start])
    if start < 1:
        inject(1, _dense(net.dense1, xhat[0]))
    if start < 2:
        inject(2, _dense(net.dense2, xhat[1]))
    if start < 3:
        lstm = _lstm_forward(net.lstm, xhat[2])
        inject(3, lstm[3][:, -1])
    if start < 4:
        inject(4, _dense(net.dense3, xhat[3]))
    probs = softmax(xhat[4])
    if start >= 3:
        return Activations(xhat, probs)
    return ForwardCache(xhat, probs, *lstm)


def _as_input(net: Network, X) -> np.ndarray:
    """``X`` as a (B, w, n) batch in the network's dtype; ShapeError unless
    n is the network's attribute count."""
    X = np.asarray(X, dtype=net.dense1.W.dtype)
    if X.ndim != 3:
        raise ShapeError(f"expected (batch, window, attrs) input, got shape {X.shape}")
    if X.shape[2] != net.dense1.in_dim:
        raise ShapeError(
            f"input has {X.shape[2]} attributes, network expects {net.dense1.in_dim}")
    return X


def forward_batch(net: Network, X: np.ndarray,
                  perts: Optional[dict] = None) -> ForwardCache:
    """Full forward over a (B, w, n) batch with optional perturbations.

    Perturbation tensors carry the batch dimension: point m in {0,1,2} is
    (B, w, dim_m), point 3 is (B, lstm_units), point 4 is (B, classes).
    """
    X = _as_input(net, X)
    B, w, n = X.shape
    d = net.dims
    perts = perts or {}
    _check_pert_shapes(perts, {
        0: (B, w, n), 1: (B, w, d["hidden1"]), 2: (B, w, d["hidden2"]),
        3: (B, d["lstm_units"]), 4: (B, d["classes"]),
    })
    return _forward_from(net, {0: X}, 0, perts)


def resume_forward(net: Network, base: Activations, point: int,
                   r: np.ndarray) -> Activations:
    """Forward pass that reuses ``base`` activations below ``point`` and adds
    perturbation ``r`` (batched) only at that point.

    Valid when ``base`` was computed on the same network and inputs; the
    result shares the untouched lower arrays with ``base``. It is a
    ``ForwardCache`` with fresh LSTM internals for points 0-2; above the
    LSTM (points 3 and 4) it is the ``Activations`` alone, enough for
    ``backward_batch`` down to that point.
    """
    return _forward_from(net, dict(base.xhat), point, {point: r})


def _folded_lstm(net: Network) -> LstmParams:
    """The LSTM with dense-1 and dense-2 folded into its input weights.

    Both dense layers are linear, so without perturbations the gate
    pre-activations ``dense2(dense1(x)) W^T + b`` are ``x W_eff^T + b_eff``
    with ``W_eff = W (W2 W1)`` (4q, n) and ``b_eff = W (W2 b1 + b2) + b``.
    ``W2 W1`` is formed first, so the fold costs about 4q*h2*n + h2*h1*n
    multiply-adds. The result is in the network's dtype."""
    d1, d2, p = net.dense1, net.dense2, net.lstm
    return LstmParams(W=p.W @ (d2.W @ d1.W), U=p.U, b=p.W @ (d2.W @ d1.b + d2.b) + p.b)


def _infer(net: Network, lstm: LstmParams, X) -> np.ndarray:
    """Class probabilities of a (B, w, n) batch: the history-free pass of
    ``lstm``, ``_folded_lstm(net)``, on the raw input, then dense-3."""
    h = _lstm_forward(lstm, _as_input(net, X), history=False)[3][:, -1]
    return softmax(_dense(net.dense3, h))


def predict_proba(net: Network, X: np.ndarray) -> np.ndarray:
    """Class probabilities of a (B, w, n) batch, in chunks of
    ``PREDICT_CHUNK`` windows; no perturbation is ever applied. An empty
    batch gives a (0, classes) result.

    This is the inference pass. It runs the LSTM of ``_folded_lstm(net)``,
    formed once per call, on the raw attributes, so no dense-1 or dense-2
    activation is built. At every width its probabilities agree with
    ``forward_batch`` on ``net`` within 1e-12 (about 2e-16 at default
    widths), with the same class. At the tested widths (n = 2 and 8) they
    are also bit for bit ``forward_batch`` on the network with identity
    dense-1 and dense-2 and that LSTM. Wider inputs need not be: BLAS rounds
    the per-step (B, 4q) input products like the one (w*B)-row GEMM of
    ``forward_batch`` only at some shapes (at n = 64 or 128 with q = 32, and
    at n = 128 with q = 4, a quarter to a half of the cases differ, by at
    most 2.2e-16). It keeps no activations and no ForwardCache, and its LSTM
    keeps one (B, q) block each of ``c``, ``tanh_c`` and ``h`` instead of
    one per step, and forms each step's (B, 4q) input pre-activations in one
    reused block; only a single-window chunk forms them for the whole
    window.
    """
    lstm = _folded_lstm(net)
    return np.concatenate([_infer(net, lstm, X[lo:lo + PREDICT_CHUNK])
                           for lo in range(0, max(len(X), 1), PREDICT_CHUNK)])


def _lstm_backward(p: LstmParams, cache: ForwardCache, dh_last: np.ndarray,
                   want_param_grads: bool):
    """BPTT from a gradient on the final hidden state.

    Only h_w feeds the layers above, so dh at earlier steps comes purely from
    the recurrence. c_0 = h_0 = 0, hence the forget-gate path and the
    recurrent weights contribute nothing before t = 0.
    """
    B, w, q = cache.h.shape
    x = cache.xhat[2]
    if want_param_grads:
        dW = np.zeros_like(p.W)
        dU = np.zeros_like(p.U)
        db = np.zeros_like(p.b)
    dx = np.empty_like(x)
    dh = dh_last
    dc = np.zeros((B, q), dtype=x.dtype)
    for t in reversed(range(w)):
        g = cache.gates[:, t]
        i_t, f_t, o_t, j_t = g[:, :q], g[:, q:2 * q], g[:, 2 * q:3 * q], g[:, 3 * q:]
        tc = cache.tanh_c[:, t]
        do = dh * tc
        dc = dc + dh * o_t * (1.0 - tc * tc)
        da = np.empty((B, 4 * q), dtype=x.dtype)
        da[:, :q] = dc * j_t * i_t * (1.0 - i_t)
        if t > 0:
            da[:, q:2 * q] = dc * cache.c[:, t - 1] * f_t * (1.0 - f_t)
        else:
            da[:, q:2 * q] = 0.0
        da[:, 2 * q:3 * q] = do * o_t * (1.0 - o_t)
        da[:, 3 * q:] = dc * i_t * (1.0 - j_t * j_t)
        if want_param_grads:
            dW += da.T @ x[:, t]
            if t > 0:
                dU += da.T @ cache.h[:, t - 1]
            db += da.sum(axis=0)
        dx[:, t] = da @ p.W
        if t > 0:  # at t = 0 nothing reads dh or dc
            dh = da @ p.U
            dc = dc * f_t
    if want_param_grads:
        return dx, (dW, dU, db)
    return dx, None


def _dense_weight_grad(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weight gradient of a per-step dense layer, summed over batch and
    time: ``sum_{b,t} dy[b, t] x[b, t]^T`` as one GEMM over the (B*w) rows."""
    return dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])


def backward_batch(net: Network, cache: Activations, dlogits: np.ndarray, *,
                   want_param_grads: bool = True, down_to: int = 0):
    """Exact gradients of a scalar objective given its logit gradient.

    ``dlogits[b]`` is d(objective)/d(logits of sample b); parameter gradients
    sum over the batch, activation gradients stay per sample. ``down_to``
    stops the sweep once the gradient at that injection point is known
    (parameter gradients then require down_to == 0). A sweep below point 3
    reads the LSTM internals, so it needs a ``ForwardCache``. ``dlogits`` is
    cast to the dtype of the pass.
    """
    if want_param_grads and down_to != 0:
        raise ValueError("parameter gradients require a full sweep (down_to=0)")
    dlogits = np.asarray(dlogits, dtype=cache.probs.dtype)
    grads: Optional[dict[str, np.ndarray]] = {} if want_param_grads else None
    act: dict[int, np.ndarray] = {4: dlogits}
    if down_to >= 4:
        return grads, act

    if want_param_grads:
        grads["dense3.W"] = dlogits.T @ cache.xhat[3]
        grads["dense3.b"] = dlogits.sum(axis=0)
    g3 = dlogits @ net.dense3.W
    act[3] = g3
    if down_to >= 3:
        return grads, act

    dx2, lstm_grads = _lstm_backward(net.lstm, cache, g3, want_param_grads)
    if want_param_grads:
        grads["lstm.W"], grads["lstm.U"], grads["lstm.b"] = lstm_grads
    act[2] = dx2
    if down_to >= 2:
        return grads, act

    if want_param_grads:
        grads["dense2.W"] = _dense_weight_grad(dx2, cache.xhat[1])
        grads["dense2.b"] = dx2.sum(axis=(0, 1))
    g1 = dx2 @ net.dense2.W
    act[1] = g1
    if down_to >= 1:
        return grads, act

    if want_param_grads:
        grads["dense1.W"] = _dense_weight_grad(g1, cache.xhat[0])
        grads["dense1.b"] = g1.sum(axis=(0, 1))
    act[0] = g1 @ net.dense1.W
    return grads, act


def nll_dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of -log p(label) w.r.t. logits: softmax minus one-hot."""
    probs = np.atleast_2d(probs)
    out = probs.copy()
    out[np.arange(out.shape[0]), np.asarray(labels, dtype=int)] -= 1.0
    return out


def kl_dlogits(p_ref: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient of KL(p_ref || softmax(z)) w.r.t. z, with p_ref constant."""
    return np.atleast_2d(probs) - np.atleast_2d(p_ref)
