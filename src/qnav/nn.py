"""Small classical network stack with manual forward/backward passes.

Everything operates on plain numpy arrays. A model packs its parameters into
one contiguous float64 vector (:func:`pack`) and reads them through named
views of it, so the optimizer and clipping act on one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import UsageError

LN_EPS = 1e-5


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# dense


def dense_init(rng: np.random.Generator, in_dim: int, out_dim: int) -> dict:
    return {
        "W": glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim)),
        "b": np.zeros(out_dim),
    }


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``W @ x`` for x of shape (d,) or for every row of x of shape (T, d);
    each row gives the bits of its own ``W @ row``."""
    return np.matmul(W, x[..., None])[..., 0]


def dense_forward(params: dict, x: np.ndarray):
    """y = W x + b for x of shape (in,), or row-wise for x of shape (T, in)."""
    W = params["W"]
    if x.ndim not in (1, 2) or x.shape[-1] != W.shape[1]:
        raise UsageError(f"dense expects input of length {W.shape[1]}, got {x.shape}")
    return _matvec(W, x) + params["b"], x


def dense_backward(params: dict, dy: np.ndarray, cache):
    """(dx, grads); for a (T, out) batch the parameter gradients are per row,
    with a leading T axis."""
    x = cache
    grads = {"W": dy[..., :, None] * x[..., None, :], "b": dy.copy()}
    return _matvec(params["W"].T, dy), grads


# ---------------------------------------------------------------------------
# layer normalization


def layer_norm_init(dim: int) -> dict:
    return {"gain": np.ones(dim), "bias": np.zeros(dim)}


def layer_norm_forward(params: dict, x: np.ndarray):
    """Normalizes the last axis: x of shape (d,), or each row of (T, d)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    y = params["gain"] * xhat + params["bias"]
    return y, (xhat, inv)


def layer_norm_backward(params: dict, dy: np.ndarray, cache):
    """(dx, grads); for a (T, d) batch the parameter gradients are per row."""
    xhat, inv = cache
    grads = {"gain": dy * xhat, "bias": dy.copy()}
    dxhat = dy * params["gain"]
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, grads


# ---------------------------------------------------------------------------
# activations


def tanh_backward(dy: np.ndarray, cache):
    y = cache
    return dy * (1.0 - y * y)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: logits of shape (A,), or each row of (T, A)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_row(logits: np.ndarray) -> np.ndarray:
    """Softmax probabilities of one row of logits with the bits of
    :func:`softmax`: the max and the sum run on Python floats, the sum in
    numpy's order (:func:`_pairwise_sum`), and only exp and the division
    stay numpy calls."""
    # a NaN makes every probability NaN whether or not max() sees it
    e = np.exp(logits - max(logits.tolist()))
    return e / _pairwise_sum(e.tolist())


def _pairwise_sum(values: list) -> float:
    """``np.add.reduce`` of a contiguous float64 row, in its order: fewer than
    8 values (an actor row holds ``env.N_ACTIONS`` = 3) add left to right, as
    numpy adds them; longer rows go to ``np.add.reduce`` itself."""
    if len(values) >= 8:
        return float(np.add.reduce(np.array(values, dtype=float)))
    total = 0.0
    for v in values:
        total += v
    return total


def policy_terms(logits: np.ndarray, taken) -> tuple:
    """The policy terms of (T, A) logits, one row per step, with ``taken``
    the T actions taken, each one array expression over all rows: the
    :func:`softmax` probabilities, their logs clipped below at 1e-300
    (exact for every probability of at least 1e-300), the unclipped
    log-probability of each taken action and each row's entropy
    -sum p log p (p log p -> 0 as p -> 0)."""
    probs = softmax(logits)
    logp = np.log(np.maximum(probs, 1e-300))
    taken_logp = np.log(probs[np.arange(len(probs)), taken])
    return probs, logp, taken_logp, -(probs * logp).sum(axis=-1)


def entropy_backward(probs: np.ndarray, logp: np.ndarray, entropy: np.ndarray,
                     dH: float) -> np.ndarray:
    """Gradient of entropy w.r.t. the logits, scaled by upstream dH, from the
    (T, A) probabilities, clipped log table and (T,) entropies that
    :func:`policy_terms` gives."""
    return dH * (-probs * (logp + entropy[..., None]))


# ---------------------------------------------------------------------------
# LSTM cell (single step; callers unroll it over time)


def lstm_init(rng: np.random.Generator, in_dim: int, hidden: int) -> dict:
    return {
        "Wx": glorot_uniform(rng, in_dim, hidden, (4 * hidden, in_dim)),
        "Wh": glorot_uniform(rng, hidden, hidden, (4 * hidden, hidden)),
        "b": np.zeros(4 * hidden),
    }


def gate_views(pre: np.ndarray) -> tuple:
    """The views ``lstm_cell`` works on of a stacked gate row of length
    4 * hidden: its i, f and o part, then i, f, o and g."""
    hidden = len(pre) // 4
    sig = pre[: 3 * hidden]
    return sig, sig[:hidden], sig[hidden : 2 * hidden], sig[2 * hidden :], pre[3 * hidden :]


# the numpy functions lstm_cell calls, looked up once
_dot, _add, _negative, _exp, _divide, _tanh, _multiply = (
    np.dot, np.add, np.negative, np.exp, np.divide, np.tanh, np.multiply)


def lstm_cell(Wx, Wh, b, x, h_prev, c_prev, pre, c, tc, h, wh_h, ig, sig, i, f, o, g) -> None:
    """One standard LSTM step (gate order i, f, o, g in the stacked weights
    ``Wx``, ``Wh`` and ``b``), unchecked, into arrays the caller made: the
    gate activations into ``pre`` (of length 4 * hidden, with ``sig, i, f,
    o, g = gate_views(pre)``), c, tanh(c) and h into ``c``, ``tc`` and
    ``h``, and Wh h_prev and i g into the scratch ``wh_h`` and ``ig``. A
    rollout step calls it with everything bound once: on rows this short,
    each lookup, slice or check costs a few percent of the step."""
    # np.dot, not @: the same BLAS call, for less dispatch
    _dot(Wx, x, pre)
    _dot(Wh, h_prev, wh_h)
    _add(pre, wh_h, pre)
    _add(pre, b, pre)
    # the i, f and o sigmoids 1 / (1 + exp(-pre)) in one pass, in place
    _negative(sig, sig)
    _exp(sig, sig)
    _add(sig, 1.0, sig)
    _divide(1.0, sig, sig)
    _tanh(g, g)
    # c = f c_prev + i g, tanh(c) and h = o tanh(c)
    _multiply(f, c_prev, c)
    _multiply(i, g, ig)
    _add(c, ig, c)
    _tanh(c, tc)
    _multiply(o, tc, h)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class Adam:
    """Bias-corrected Adam over one flat parameter vector."""

    lr: float = 0.0005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    # two param-sized arrays a step writes its temporaries into: fresh ones
    # each step would be trimmed off the heap and faulted in again
    scratch: Optional[tuple] = field(default=None, repr=False)

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One in-place step of ``params`` along ``grads`` (same shape)."""
        if grads.shape != params.shape:
            raise UsageError(f"grad shape {grads.shape} != param shape {params.shape}")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        if self.scratch is None:
            self.scratch = (np.empty_like(params), np.empty_like(params))
        self.t += 1
        a, b = self.scratch
        # m += (1 - beta1) (grads - m)
        np.subtract(grads, self.m, out=a)
        a *= 1.0 - self.beta1
        self.m += a
        # v += (1 - beta2) (grads^2 - v)
        np.multiply(grads, grads, out=a)
        a -= self.v
        a *= 1.0 - self.beta2
        self.v += a
        # params -= lr mhat / (sqrt(vhat) + eps)
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def clip_by_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """``grads`` scaled down to norm ``max_norm`` when it is longer."""
    norm = float(np.linalg.norm(grads))
    if norm > max_norm > 0:
        return grads * (max_norm / norm)
    return grads


# ---------------------------------------------------------------------------
# flat parameter vectors


def pack(tree: dict) -> tuple[np.ndarray, dict]:
    """Copy a nested dict of arrays, in order, into one contiguous float64
    vector. Returns the vector and the same nested dict of views into it."""
    flat = np.concatenate([np.ravel(a) for a in named(tree).values()], dtype=np.float64)
    return flat, views(flat, tree)


def views(flat: np.ndarray, like: dict) -> dict:
    """Views of ``flat`` nested, ordered and shaped like the arrays of ``like``."""
    tree, pos = _carve(flat, like, 0)
    if pos != flat.size:
        raise UsageError(f"layout holds {pos} values, vector has {flat.size}")
    return tree


def _carve(flat: np.ndarray, like: dict, pos: int) -> tuple[dict, int]:
    out = {}
    for key, val in like.items():
        if isinstance(val, dict):
            out[key], pos = _carve(flat, val, pos)
        else:
            out[key] = flat[pos : pos + val.size].reshape(val.shape)
            pos += val.size
    return out, pos


def named(tree: dict, prefix: str = "") -> dict:
    """A nested dict flattened to ``{"outer.inner": leaf}`` names, in order."""
    out = {}
    for key, val in tree.items():
        if isinstance(val, dict):
            out.update(named(val, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = val
    return out
