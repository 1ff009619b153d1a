"""Actor-critic training loop hosting the quantum and classical critics.

The shared trunk is encoder -> LSTM; the actor is a dense head over the LSTM
hidden state. The critic is either a sublayered data-reuploading circuit with
a linear readout (n weights + 1 bias) or a dense baseline stack. Gradients
are computed once per episode from the rollout's own forward pass, which the
training rollout records: the parameters stay fixed from the rollout to the
update, so nothing is run forward twice, and the quantum gradient route
(adjoint backprop vs parameter-shift) can be swapped freely. The rollout
writes its forward pass into rows the model keeps (:class:`TraceRows`), one
row per step, and the backward pass runs each layer once on all T rows of
the episode; only the LSTM recurrence steps through time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from . import UsageError, check_finite, check_ints, encoding, env, nn, qsim
from .encoding import CircuitLayout
from .qsim import NoiseSpec

@dataclass(frozen=True)
class AgentConfig:
    critic: str = "quantum"  # "quantum" | "classical"
    n_qubits: int = 4
    n_layers: int = 2
    gradient_mode: str = "backprop"  # "backprop" | "param-shift"
    noise: Optional[NoiseSpec] = None
    gamma: float = 0.99
    entropy_weight: float = 0.01
    lr: float = 0.0005
    episodes: int = 100
    max_steps: int = 500
    seed: int = 0
    lstm_hidden: int = 32
    encoder_hidden: int = 64
    encoder_out: int = 28
    max_grad_norm: Optional[float] = None

    def __post_init__(self):
        check_ints(self, ("episodes", "max_steps", "seed", "n_qubits", "n_layers", "lstm_hidden",
                          "encoder_hidden", "encoder_out"))
        check_finite(self, ("gamma", "entropy_weight", "lr", "max_grad_norm"))
        if self.critic not in ("quantum", "classical"):
            raise UsageError(f"unknown critic kind {self.critic!r}")
        if self.gradient_mode not in ("backprop", "param-shift"):
            raise UsageError(f"unknown gradient mode {self.gradient_mode!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise UsageError("gamma must be in [0, 1]")
        if not self.entropy_weight >= 0:
            raise UsageError("entropy weight must be >= 0")
        if not self.lr >= 0 or self.episodes < 0:
            raise UsageError("lr and episodes must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if min(self.lstm_hidden, self.encoder_hidden, self.encoder_out, self.max_steps) < 1:
            raise UsageError("lstm_hidden, encoder_hidden, encoder_out and max_steps must be >= 1")
        if self.max_grad_norm is not None and not self.max_grad_norm > 0:
            raise UsageError("max_grad_norm must be > 0")
        # a setting the run would ignore would mislabel it
        noisy = self.noise is not None and self.noise.enabled
        if self.critic == "classical" and (noisy or self.gradient_mode == "param-shift"):
            raise UsageError("noise and the param-shift gradient mode need a quantum critic")
        if noisy and self.gradient_mode == "backprop":
            raise UsageError("noise requires the parameter-shift gradient mode")
        if self.critic == "quantum" and not (1 <= self.n_qubits <= qsim.MAX_QUBITS
                                             and self.n_layers >= 1):
            raise UsageError(f"a quantum critic needs n_qubits in 1..{qsim.MAX_QUBITS} "
                             "and n_layers >= 1")


def config_to_dict(config: AgentConfig) -> dict:
    """The config as JSON values, with ``noise`` (NoiseSpec fields or None) last,
    as checkpoints and run manifests store it."""
    fields = asdict(config)
    fields["noise"] = fields.pop("noise")
    return fields


def config_from_dict(fields: dict) -> AgentConfig:
    """Inverse of :func:`config_to_dict`; a missing or empty ``noise`` is no noise.
    Older checkpoints record ``entropy_bonus: true`` and a noise ``granularity:
    "sublayer"``, now fixed; both are dropped, and any other value raises UsageError."""
    fields = _without_retired(fields, {"entropy_bonus": True})
    noise = fields.get("noise")
    noise = NoiseSpec(**_without_retired(noise, {"granularity": "sublayer"})) if noise else None
    return AgentConfig(**{**fields, "noise": noise})


def _without_retired(fields, fixed: dict, dropped=()) -> dict:
    """A copy of the mapping ``fields`` without the keys of ``fixed``, each of
    which may only hold its value there, and without ``dropped`` at any value."""
    fields = {key: value for key, value in fields.items() if key not in dropped}
    for name, value in fixed.items():
        recorded = fields.pop(name, value)
        if recorded != value:
            raise UsageError(f"{name} {recorded!r} is no longer supported: "
                             f"every run uses {value!r}")
    return fields


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Named substreams so enabling one consumer never shifts another."""
    root = np.random.SeedSequence(seed)
    names = ("init", "env", "policy", "noise")
    children = root.spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


# ---------------------------------------------------------------------------
# critics


class QuantumCritic:
    """Data-reuploading circuit critic with a linear n-weights + bias readout."""

    def __init__(self, layout: CircuitLayout, params: dict):
        """``params`` holds views of the critic's parameters: theta, w, b."""
        self.layout = layout
        self.params = params

    @functools.cached_property
    def circuit(self) -> qsim.Circuit:
        """The layout's circuit, compiled on first use (not in setup) and
        then run by every value and gradient call."""
        gates, marks = encoding.build_circuit(self.layout)
        return qsim.compile_circuit(gates, self.layout.n, marks)

    @staticmethod
    def init(layout: CircuitLayout, rng: np.random.Generator) -> dict:
        return {
            "theta": rng.uniform(-np.pi, np.pi, size=layout.param_count),
            "w": nn.glorot_uniform(rng, layout.n, 1, (layout.n,)),
            "b": np.zeros(1),
        }

    @property
    def param_count(self) -> int:
        return self.layout.param_count + self.layout.n + 1

    def value(self, h: np.ndarray, noise: Optional[NoiseSpec] = None,
              rng: Optional[np.random.Generator] = None):
        """V(h) as a float, or shape (T,) for hidden states of shape (T, hidden)."""
        x = encoding.pad_input(h, self.layout)
        return qsim.circuit_value(self.circuit, x, self.params["theta"], self.params["w"],
                                  float(self.params["b"][0]), noise, rng)

    def value_and_grads(self, h: np.ndarray, mode: str = "backprop",
                        noise: Optional[NoiseSpec] = None,
                        rng: Optional[np.random.Generator] = None,
                        upstream: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        """Returns (value, grads dict, dV/dh), the grads of V itself. For h of
        shape (T, hidden) every output gains a leading T axis and all rows
        run as one batch.

        ``upstream`` maps the (T,) values of a batch to the loss gradient dv
        = dLoss/dV at each row. With it the grads are of the loss instead:
        sums over the rows weighted by dv, with no T axis, and the third
        output is dLoss/dh, each dV/dh row times its dv."""
        x = encoding.pad_input(h, self.layout)
        args = (self.circuit, x, self.params["theta"], self.params["w"],
                float(self.params["b"][0]))
        if mode == "backprop":
            value, d_theta, d_x, z, _ = qsim.adjoint_value_and_grad(*args)
        elif mode == "param-shift":
            value, d_theta, d_x, z, _ = qsim.param_shift_value_and_grad(*args, noise, rng)
        else:
            raise UsageError(f"unknown gradient mode {mode!r}")
        dh = d_x[..., : self.layout.p]
        if upstream is None:
            return value, {"theta": d_theta, "w": z, "b": np.ones(np.shape(value) + (1,))}, dh
        dv = upstream(value)
        grads = {"theta": dv @ d_theta, "w": dv @ z, "b": np.array([dv.sum()])}
        return value, grads, dv[:, None] * dh


class ClassicalCritic:
    """Dense(32 -> 64) + LayerNorm + Dense(64 -> 1); 2305 parameters at the
    default hidden size. A (T, hidden) batch runs as one forward and one
    backward pass, each row with the bits of its own single call."""

    def __init__(self, layers: dict):
        """``layers`` holds views of the d1, ln and d2 parameters."""
        self.d1, self.ln, self.d2 = layers["d1"], layers["ln"], layers["d2"]
        self.params = nn.named(layers)

    @staticmethod
    def init(in_dim: int, rng: np.random.Generator, hidden: int = 64) -> dict:
        return {
            "d1": nn.dense_init(rng, in_dim, hidden),
            "ln": nn.layer_norm_init(hidden),
            "d2": nn.dense_init(rng, hidden, 1),
        }

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _forward(self, h: np.ndarray):
        z1, c1 = nn.dense_forward(self.d1, h)
        z2, c2 = nn.layer_norm_forward(self.ln, z1)
        v, c3 = nn.dense_forward(self.d2, z2)
        value = v[..., 0]
        return (float(value) if value.ndim == 0 else value), (c1, c2, c3)

    def value(self, h: np.ndarray, noise=None, rng=None):
        """V(h) as a float, or shape (T,) for hidden states of shape (T, hidden)."""
        return self._forward(h)[0]

    def value_and_grads(self, h: np.ndarray, mode: str = "backprop",
                        noise=None, rng=None,
                        upstream: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        """(value, grads dict, dV/dh). For h of shape (T, hidden) every output
        gains a leading T axis and all rows run as one batch. ``upstream``
        is as for :meth:`QuantumCritic.value_and_grads`: the backward pass
        then starts from the (T,) loss gradient dv it gives, the grads are
        sums over the rows and the third output is dLoss/dh."""
        value, (c1, c2, c3) = self._forward(h)
        if upstream is None:
            dy = np.ones(np.shape(h)[:-1] + (1,))
        else:
            dy = upstream(value)[:, None]
        dz2, g3 = nn.dense_backward(self.d2, dy, c3)
        dz1, g2 = nn.layer_norm_backward(self.ln, dz2, c2)
        grads = {"d1.b": dz1, "ln.gain": g2["gain"], "ln.bias": g2["bias"],
                 "d2.W": g3["W"], "d2.b": g3["b"]}
        if upstream is None:
            dh, g1 = nn.dense_backward(self.d1, dz1, c1)
            return value, {"d1.W": g1["W"], **grads}, dh
        # summed as one product: no per-row (T, 64, hidden) d1.W gradient
        grads = {key: g.sum(axis=0) for key, g in grads.items()}
        return value, {"d1.W": dz1.T @ h, **grads}, dz1 @ self.d1["W"]


# ---------------------------------------------------------------------------
# actor-critic model


class ActorCriticModel:
    """Encoder + LSTM trunk, dense actor head, pluggable critic.

    All parameters live in one contiguous float64 vector, ``flat``: the trunk
    layers first, in the order enc1, enc2, lstm, actor, then the critic, whose
    slice ``critic_flat`` is its tail. ``params`` names views of it as
    ``"enc1.W"`` ... ``"critic.theta"``; each layer reads its own views.
    """

    def __init__(self, config: AgentConfig, obs_dim: int, rng: np.random.Generator):
        self.config = config
        self.obs_dim = obs_dim
        enc_out = config.encoder_out
        self.lstm_in = enc_out + 4  # + reward, 2-dim velocity, previous speed action
        initial = {
            "enc1": nn.dense_init(rng, obs_dim, config.encoder_hidden),
            "enc2": nn.dense_init(rng, config.encoder_hidden, enc_out),
            "lstm": nn.lstm_init(rng, self.lstm_in, config.lstm_hidden),
            "actor": nn.dense_init(rng, config.lstm_hidden, env.N_ACTIONS),
        }
        if config.critic == "quantum":
            layout = encoding.plan_layout(config.lstm_hidden, config.n_qubits, config.n_layers)
            initial["critic"] = QuantumCritic.init(layout, rng)
        else:
            initial["critic"] = ClassicalCritic.init(config.lstm_hidden, rng)
        self.flat, self.layers = nn.pack(initial)
        self.params = nn.named(self.layers)
        self.enc1, self.enc2 = self.layers["enc1"], self.layers["enc2"]
        self.lstm, self.actor = self.layers["lstm"], self.layers["actor"]
        # the dense weights and biases trunk_forward reads, bound once; as
        # views of flat they see every optimizer step and checkpoint load
        self._trunk_dense = tuple(layer[key] for layer in (self.enc1, self.enc2, self.actor)
                                  for key in ("W", "b"))
        if config.critic == "quantum":
            self.critic = QuantumCritic(layout, self.layers["critic"])
        else:
            self.critic = ClassicalCritic(self.layers["critic"])
        self.critic_flat = self.flat[-self.critic.param_count :]
        # the rows rollouts write their forward pass into, made on first use
        self._training_rows: Optional[TraceRows] = None
        self._greedy_rows: Optional[TraceRows] = None

    @property
    def param_count(self) -> int:
        return self.flat.size

    @property
    def critic_param_count(self) -> int:
        return self.critic.param_count

    def _rollout_rows(self, greedy: bool) -> TraceRows:
        """The kept rows a rollout writes, with the zero state in row 0: one
        row, in turn, for a greedy rollout, which keeps no forward pass; for
        a training one ``max_steps + 1`` rows (a truncated episode runs the
        trunk once more, for its bootstrap), whose rollout count moves on."""
        if greedy:
            if self._greedy_rows is None:
                self._greedy_rows = TraceRows(self, 1, greedy=True)
            rows = self._greedy_rows
        else:
            if self._training_rows is None or self._training_rows.steps <= self.config.max_steps:
                self._training_rows = TraceRows(self, self.config.max_steps + 1)
            rows = self._training_rows
            rows.rollout += 1
        rows.hidden[0] = 0.0
        rows.cell[0] = 0.0
        return rows

    def trunk_forward(self, obs_vec: np.ndarray, extras: np.ndarray, rows: TraceRows,
                      t: int) -> tuple[np.ndarray, np.ndarray]:
        """Step t of the trunk, written into ``rows`` (see :class:`TraceRows`):
        the encoder on ``obs_vec``, the LSTM on its output and ``extras`` from
        the state step t - 1 left there, and the actor head. Returns the new
        hidden state and the logits, views of the rows.

        Each dense layer is ``np.dot`` into its row, then ``+=`` its bias:
        the bits of ``nn.dense_forward`` for a fraction of its dispatch cost."""
        n = rows.steps
        obs, a1, x, a2, x_extras, gates, tanh_cell, logits = rows.step_views[t % n]
        h_prev, c_prev = rows.state_views[t % (n + 1)]
        h, c = rows.state_views[(t + 1) % (n + 1)]
        w1, b1, w2, b2, wa, ba = self._trunk_dense
        np.dot(w1, obs_vec, out=a1)
        a1 += b1
        np.tanh(a1, out=a1)
        if obs is not None:
            obs[...] = obs_vec
        np.dot(w2, a1, out=a2)
        a2 += b2
        np.tanh(a2, out=a2)
        x_extras[...] = extras
        nn.lstm_step(self.lstm, x, h_prev, c_prev, (gates, c, tanh_cell, h, *rows.lstm_scratch),
                     rows.gate_views[t % n])
        np.dot(wa, h, out=logits)
        logits += ba
        return h, logits

    def trunk_backward(self, dlogits: np.ndarray, dh_extra: np.ndarray, rows: TraceRows,
                       grads: dict) -> None:
        """Backward through actor head, LSTM and encoder over the first T steps
        of ``rows``, writing the parameter gradients into ``grads``, the layer
        views of a gradient vector laid out like ``flat`` (see ``nn.views``).

        dlogits (T, actions) is the loss gradient at the logits and dh_extra
        (T, hidden) the critic's pull on each hidden state. Only the LSTM
        recurrence runs step by step; each weight gradient is one
        (T, out).T @ (T, in) product over the episode."""
        t_len, n_hidden = len(dlogits), self.config.lstm_hidden
        dh = dlogits @ self.actor["W"] + dh_extra
        x = rows.x[:t_len]
        gates = rows.gates[:t_len].reshape(t_len, 4, n_hidden)
        i, f, o, g = (gates[:, j] for j in range(4))
        c_prev, tc = rows.cell[:t_len], rows.tanh_cell[:t_len]
        # every elementwise factor of the gate gradients, for all T steps at
        # once: dc_t = f_{t+1} dc_{t+1} + dh_t A_t, and the gate pre-activations take
        # [dc_t, dc_t, dh_t, dc_t] K_t in the gate order i, f, o, g
        a = o * (1.0 - tc * tc)
        k = np.empty((t_len, 4, n_hidden))
        sig = gates[:, :3]
        dsig = sig * (1.0 - sig)
        for j, factor in enumerate((g, c_prev, tc)):
            np.multiply(factor, dsig[:, j], out=k[:, j])
        np.multiply(i, 1.0 - g * g, out=k[:, 3])
        dpre = np.empty((t_len, 4 * n_hidden))
        dpre_gates = dpre.reshape(t_len, 4, n_hidden)
        dh_next = dc = np.zeros(n_hidden)
        wh_t = self.lstm["Wh"].T
        for t in range(t_len - 1, -1, -1):
            dh_t = dh[t] + dh_next
            dc = dh_t * a[t] + dc
            np.multiply(k[t], dc, out=dpre_gates[t])
            np.multiply(k[t, 2], dh_t, out=dpre_gates[t, 2])
            dc *= f[t]
            dh_next = wh_t @ dpre[t]
        _dense_grads(grads["actor"], dlogits, rows.hidden[1 : t_len + 1])
        np.matmul(dpre.T, x, out=grads["lstm"]["Wx"])
        np.matmul(dpre.T, rows.hidden[:t_len], out=grads["lstm"]["Wh"])
        dpre.sum(axis=0, out=grads["lstm"]["b"])
        enc_out = self.config.encoder_out
        dx = dpre @ self.lstm["Wx"]  # the extras' columns take no gradient further
        dz2 = nn.tanh_backward(dx[:, :enc_out], x[:, :enc_out])
        a1 = rows.a1[:t_len]
        _dense_grads(grads["enc2"], dz2, a1)
        dz1 = nn.tanh_backward(dz2 @ self.enc2["W"], a1)
        _dense_grads(grads["enc1"], dz1, rows.obs[:t_len])


class TraceRows:
    """A rollout's trunk forward pass, one row per step, all its backward
    pass reads.

    Step t writes row t of ``obs`` (the encoder input), ``a1`` (the first
    tanh activation), ``x`` (the LSTM input: the second tanh activation,
    then the extras), ``gates`` (the activations i, f, o, g), ``tanh_cell``
    and ``logits``, and row t + 1 of ``hidden`` and ``cell``, whose row 0
    holds the state before step 0 (zero when made). So the LSTM's eight
    vectors of step t are hidden[t], cell[t], gates[t], cell[t + 1] and
    tanh_cell[t]. Rows are indexed modulo their count: with ``steps`` = 1,
    step t writes row 0 and state row (t + 1) % 2, which is all a greedy
    rollout needs. ``greedy`` rows keep no ``obs`` (None), which only the
    backward pass reads.
    """

    def __init__(self, model: ActorCriticModel, steps: int, greedy: bool = False):
        config, hidden = model.config, model.config.lstm_hidden
        self.steps = steps
        self.rollout = 0  # training rollouts written into these rows so far
        self.obs = None if greedy else np.empty((steps, model.obs_dim))
        self.a1 = np.empty((steps, config.encoder_hidden))
        self.x = np.empty((steps, model.lstm_in))
        self.gates = np.empty((steps, 4 * hidden))
        self.tanh_cell = np.empty((steps, hidden))
        self.logits = np.empty((steps, env.N_ACTIONS))
        self.hidden = np.zeros((steps + 1, hidden))
        self.cell = np.zeros((steps + 1, hidden))
        # scratch for the LSTM's Wh h_prev and i g (see nn.lstm_step)
        self.lstm_scratch = (np.empty(4 * hidden), np.empty(hidden))
        # the views each step writes, sliced once: on rows this short,
        # slicing them anew each step costs about as much as their arithmetic
        enc_out = config.encoder_out
        self.step_views = [
            (None if greedy else self.obs[t], self.a1[t], self.x[t], self.x[t, :enc_out],
             self.x[t, enc_out:], self.gates[t], self.tanh_cell[t], self.logits[t])
            for t in range(steps)]
        self.state_views = [(self.hidden[t], self.cell[t]) for t in range(steps + 1)]
        self.gate_views = [nn.gate_views(row) for row in self.gates]  # see nn.lstm_step


def _dense_grads(grads: dict, dy: np.ndarray, x: np.ndarray) -> None:
    """A dense layer's W and b gradients summed over the rows of a (T, out)
    upstream gradient and its (T, in) inputs, written into ``grads``."""
    np.matmul(dy.T, x, out=grads["W"])
    dy.sum(axis=0, out=grads["b"])


def select_action(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float, float]:
    """Sample a speed action from the actor logits.
    Returns (action, log-probability, policy entropy).

    Sampling inverts the CDF with one ``rng.random()`` draw, the draw and
    the action ``rng.choice(env.N_ACTIONS, p=probs)`` would make."""
    probs, logp, entropy = nn.softmax_logs(logits)
    # on Python floats, with the bits of cumsum and searchsorted
    p = probs.tolist()
    cdf = list(itertools.accumulate(p))
    if not math.isfinite(cdf[-1]):
        raise ValueError("action probabilities contain NaN or inf")
    action = bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())
    # the row of logs is clipped at 1e-300; a smaller probability takes its own
    if p[action] < 1e-300:
        return action, float(np.log(probs[action])), entropy
    return action, logp[action], entropy


def greedy_action(logits: np.ndarray) -> int:
    """The most probable speed action of the actor logits, with the bits of
    ``np.argmax(nn.softmax(logits))``: the first maximum, or the first NaN
    (a NaN makes every probability NaN).

    The first maximum of the logits is that answer when every logit is
    finite and every one before it lies more than 1e-9 below it, and is
    returned without the softmax: the maximum's softmax numerator is
    exp(0) = 1 exactly, a later logit's is at most 1, and an earlier one's
    at most exp(-1e-9), millions of ulps below 1. Each is divided by the
    same sum (between 1 and the action count), so after rounding no later
    probability exceeds the maximum's and every earlier one stays below it.
    A near-tie, an inf or a NaN takes the softmax."""
    row = logits.tolist()
    top = max(row)
    first = row.index(top)
    # a finite sum means finite logits; subtracting top keeps their order
    if math.isfinite(sum(row)) and (first == 0 or max(row[:first]) - top < -1e-9):
        return first
    p = nn.softmax_row(logits).tolist()
    return p.index(max(p))


# ---------------------------------------------------------------------------
# episode rollout and gradients


@dataclass
class EpisodeTrace:
    """Recorded per-step data; observations never include hidden ped goals.

    A training rollout also keeps its forward pass, all the backward pass
    needs, in ``rows``: the model's kept :class:`TraceRows`, which that
    model's next training rollout writes over. So the forward pass of a
    trace is valid until then; ``rollout`` is the rows' rollout count when
    it was recorded, and reading it later (``forward_rows``, ``hidden``,
    ``logits``, :func:`episode_gradients`) raises UsageError. A greedy
    rollout keeps no forward pass, and its ``logps`` and ``entropies`` stay
    empty: evaluation reads only the outcome, steps, return and near miss."""

    obs: list = field(default_factory=list)  # env observation rows, before each action
    actions: list = field(default_factory=list)
    logps: list = field(default_factory=list)
    entropies: list = field(default_factory=list)
    rewards: list = field(default_factory=list)  # totals
    outcome: Optional[str] = None
    bootstrap: float = 0.0
    steps: int = 0
    near_miss: bool = False
    rows: Optional[TraceRows] = field(default=None, repr=False)
    rollout: int = 0

    @property
    def episode_return(self) -> float:
        return float(sum(self.rewards))

    def forward_rows(self) -> TraceRows:
        """The rows of this trace's forward pass, while they hold it."""
        if self.rows is None:
            raise UsageError("the trace holds no forward pass (a greedy rollout?)")
        if self.rows.rollout != self.rollout:
            raise UsageError("a later training rollout of the model wrote over this trace's "
                             "forward pass")
        return self.rows

    @property
    def hidden(self) -> np.ndarray:
        """(steps, hidden): the LSTM hidden state after each step."""
        return self.forward_rows().hidden[1 : self.steps + 1]

    @property
    def logits(self) -> np.ndarray:
        """(steps, actions): the actor logits of each step."""
        return self.forward_rows().logits[: self.steps]


def run_episode(model: ActorCriticModel, scene: env.Scene,
                env_config: env.EnvConfig,
                policy_rng: Optional[np.random.Generator] = None,
                noise_rng: Optional[np.random.Generator] = None,
                greedy: bool = False) -> EpisodeTrace:
    """Roll out one episode. The critic is not evaluated along the way: only
    a truncated training episode needs a value, the bootstrap of its last
    state. A training rollout samples its actions from ``policy_rng``,
    writes its forward pass into the model's kept rows (see
    :class:`EpisodeTrace`) and is also truncated at ``AgentConfig.max_steps``;
    a greedy (evaluation) rollout takes the most probable action, runs until
    the env ends it, leaves the bootstrap at 0 and keeps no forward pass,
    log-probabilities or entropies."""
    config = model.config
    noise = config.noise if noise_rng is not None else None
    world, row = env.reset(scene, config=env_config)
    d = model.obs_dim  # the row's encoder input; the LSTM extras follow it
    rows = model._rollout_rows(greedy)
    trace = EpisodeTrace()
    if not greedy:
        trace.rows, trace.rollout = rows, rows.rollout
    obs, actions, logps, entropies, rewards = (
        trace.obs, trace.actions, trace.logps, trace.entropies, trace.rewards)
    steps, near_miss = 0, False
    while True:
        if world.done or (not greedy and steps >= config.max_steps):
            # the agent's own step cap truncates a training episode just as
            # the env's does; an evaluation runs until the env ends it
            trace.outcome = world.outcome if world.done else "timeout"
            if greedy or trace.outcome != "timeout":
                break
        h, logits = model.trunk_forward(row[:d], row[d:], rows, steps)
        if trace.outcome is not None:
            # truncated: bootstrap the return from the value of the final state
            trace.bootstrap = model.critic.value(h, noise=noise, rng=noise_rng)
            break
        if greedy:
            action = greedy_action(logits)
        else:
            action, logp, entropy = select_action(logits, policy_rng)
            logps.append(logp)
            entropies.append(entropy)
        obs.append(row)
        row = env.step(world, action)
        near_miss |= env.NEAR_MISS in world.proximity
        actions.append(action)
        rewards.append(world.prev_reward)
        steps += 1
    trace.steps, trace.near_miss = steps, near_miss
    return trace


def discounted_returns(rewards, gamma: float, bootstrap: float = 0.0) -> list[float]:
    """G_t = r_t + gamma * G_{t+1}, seeded with the bootstrap value."""
    if not 0.0 <= gamma <= 1.0:
        raise UsageError("gamma must be in [0, 1]")
    out = []
    g = bootstrap
    for r in reversed(rewards):
        g = r + gamma * g
        out.append(g)
    out.reverse()
    return out


def losses(values, returns, logps, entropies, entropy_weight: float) -> tuple[float, float]:
    """(J_V, J_pi): mean squared value error and the policy objective
    (advantage-weighted log-prob plus the entropy term, to be ascended),
    over series of T steps given as sequences or arrays."""
    values, returns, logps, entropies = (
        np.asarray(a, dtype=float) for a in (values, returns, logps, entropies))
    if not values.shape == returns.shape == logps.shape == entropies.shape:
        raise UsageError("mismatched series lengths")
    advantage = returns - values
    j_v = np.mean(advantage * advantage)
    j_pi = np.mean(logps * advantage + entropy_weight * entropies)
    return float(j_v), float(j_pi)


def episode_gradients(model: ActorCriticModel, trace: EpisodeTrace, returns,
                      noise_rng: Optional[np.random.Generator] = None):
    """Gradient of the combined loss J_V - J_pi over one recorded episode.

    The parameters are those of the rollout, so the backward pass runs on
    the trace's own forward pass: the critic runs once on all T recorded
    hidden states, then ``trunk_backward`` backpropagates the whole episode
    through the recorded rows, which must still hold it (see
    :class:`EpisodeTrace`). The advantage in the policy term is treated as
    a constant, so no policy gradient flows into the critic parameters. Returns
    (grad, j_v, j_pi), where grad is laid out like ``model.flat`` and
    clipped to ``config.max_grad_norm`` when that is set.
    """
    config = model.config
    t_len = trace.steps
    if t_len == 0:
        raise UsageError("empty episode")
    rows = trace.forward_rows()
    returns = np.asarray(returns, dtype=float)
    # d(J_V)/dV; the advantage path into J_pi is detached
    values, critic_grads, dh_critic = model.critic.value_and_grads(
        rows.hidden[1 : t_len + 1], mode=config.gradient_mode, noise=config.noise,
        rng=noise_rng, upstream=lambda v: 2.0 * (v - returns) / t_len)
    j_v, j_pi = losses(values, returns, trace.logps, trace.entropies, config.entropy_weight)

    advantage = returns - values
    probs = nn.softmax(rows.logits[:t_len])
    onehot = np.eye(env.N_ACTIONS)[trace.actions]
    dlogits = -(advantage[:, None] * (onehot - probs)) / t_len
    dlogits += nn.entropy_backward(probs, -config.entropy_weight / t_len)

    grad = np.zeros_like(model.flat)
    layer_grads = nn.views(grad, model.layers)
    for key, g in nn.named(layer_grads["critic"]).items():
        g[...] = critic_grads[key]
    model.trunk_backward(dlogits, dh_critic, rows, layer_grads)
    if config.max_grad_norm is not None:
        grad = nn.clip_by_global_norm(grad, config.max_grad_norm)
    return grad, j_v, j_pi


# ---------------------------------------------------------------------------
# training runs


@dataclass
class RunRecord:
    """Per-episode series for one seeded training run."""

    seed: int
    critic: str
    returns: list = field(default_factory=list)
    entropies: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    value_losses: list = field(default_factory=list)
    critic_params: int = 0
    total_params: int = 0

    def to_rows(self, smooth_window: int = 100) -> list[dict]:
        from . import analysis

        smoothed = analysis.smooth_curve(self.returns, smooth_window)
        return [
            {
                "episode": i,
                "return": self.returns[i],
                "smoothed_return": smoothed[i],
                "entropy": self.entropies[i],
                "steps": self.steps[i],
                "outcome": self.outcomes[i],
            }
            for i in range(len(self.returns))
        ]


def train_run(config: AgentConfig, scenes: list[env.Scene],
              env_config: env.EnvConfig = env.EnvConfig(),
              model: Optional[ActorCriticModel] = None) -> tuple[RunRecord, ActorCriticModel]:
    """Train for config.episodes episodes, one optimizer step per episode."""
    if not scenes:
        raise UsageError("no scenes to train on")
    streams = rng_streams(config.seed)
    if model is None:
        model = ActorCriticModel(config, env.observation_dim(env_config), streams["init"])
    optimizer = nn.Adam(lr=config.lr)
    record = RunRecord(
        seed=config.seed,
        critic=config.critic,
        critic_params=model.critic_param_count,
        total_params=model.param_count,
    )
    for _ in range(config.episodes):
        scene = scenes[int(streams["env"].integers(len(scenes)))]
        trace = run_episode(model, scene, env_config,
                            policy_rng=streams["policy"], noise_rng=streams["noise"])
        returns = discounted_returns(trace.rewards, config.gamma, trace.bootstrap)
        grad, j_v, _ = episode_gradients(model, trace, returns, noise_rng=streams["noise"])
        optimizer.update(model.flat, grad)
        record.returns.append(trace.episode_return)
        record.entropies.append(float(np.mean(trace.entropies)))
        record.steps.append(trace.steps)
        record.outcomes.append(trace.outcome)
        record.value_losses.append(j_v)
    return record, model


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class PolicyMetrics:
    time_to_goal: Optional[float]  # s, mean over goal-reaching episodes
    crash_rate: float  # % of episodes
    near_miss_rate: float  # % of episodes
    safety_index: int  # scenarios with crash% < 20 and near-miss% < 20
    mean_return: float
    n_scenarios: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_policy(model: ActorCriticModel, scenes: list[env.Scene],
                    env_config: env.EnvConfig = env.EnvConfig()) -> tuple[PolicyMetrics, list[dict]]:
    """Greedy rollouts over all scenes; per-scene outcomes plus aggregates."""
    if not scenes:
        raise UsageError("no scenes to evaluate")
    per_scene = []
    for idx, scene in enumerate(scenes):
        trace = run_episode(model, scene, env_config, greedy=True)
        per_scene.append({
            "scene": idx,
            "scenario": scene.scenario_id,
            "ped_speed": scene.ped_speed,
            "ped_distance": scene.ped_distance,
            "outcome": trace.outcome,
            "steps": trace.steps,
            "return": trace.episode_return,
            "near_miss": trace.near_miss,
            "time_to_goal": trace.steps * env.DT if trace.outcome == "goal" else None,
        })
    crashes = [row["outcome"] == "collision" for row in per_scene]
    near = [row["near_miss"] for row in per_scene]
    ttgs = [row["time_to_goal"] for row in per_scene if row["time_to_goal"] is not None]
    by_scenario: dict[int, list[dict]] = {}
    for row in per_scene:
        by_scenario.setdefault(row["scenario"], []).append(row)
    si = 0
    for rows in by_scenario.values():
        c = 100.0 * sum(r["outcome"] == "collision" for r in rows) / len(rows)
        m = 100.0 * sum(r["near_miss"] for r in rows) / len(rows)
        if c < 20.0 and m < 20.0:
            si += 1
    metrics = PolicyMetrics(
        time_to_goal=float(np.mean(ttgs)) if ttgs else None,
        crash_rate=100.0 * sum(crashes) / len(per_scene),
        near_miss_rate=100.0 * sum(near) / len(per_scene),
        safety_index=si,
        mean_return=float(np.mean([row["return"] for row in per_scene])),
        n_scenarios=len(by_scenario),
    )
    return metrics, per_scene


def random_policy_mean_return(scenes: list[env.Scene], rng: np.random.Generator,
                              env_config: env.EnvConfig = env.EnvConfig()) -> float:
    """Mean return of uniformly random speed actions over the given scenes,
    each episode run until the env ends it (``env_config.max_steps`` caps it)."""
    if not scenes:
        raise UsageError("no scenes to run the random policy on")
    totals = []
    for scene in scenes:
        world, _ = env.reset(scene, config=env_config)
        total = 0.0
        while not world.done:
            env.step(world, int(rng.integers(env.N_ACTIONS)))
            total += world.prev_reward
        totals.append(total)
    return float(np.mean(totals))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: ActorCriticModel, path: str, extra: Optional[dict] = None,
                    env_config: env.EnvConfig = env.EnvConfig()) -> None:
    """Flat named parameter list with shapes, plus the agent config and the
    EnvConfig the model was trained under; JSON round-trips exactly."""
    payload = {
        "config": config_to_dict(model.config),
        "env": asdict(env_config),
        "obs_dim": model.obs_dim,
        "params": {
            name: {"shape": list(p.shape), "data": p.reshape(-1).tolist()}
            for name, p in model.params.items()
        },
    }
    if extra:
        payload["meta"] = extra
    with open(path, "w") as fh:
        json.dump(payload, fh)


# EnvConfig fields that older checkpoints record: the env constants they
# became, each dropped only at its constant, and the planner's map resolution
# and wheelbase and the road's x_min, which nothing reads, dropped at any value
_RETIRED_ENV = {key: getattr(env, key.upper()) for key in (
    "dt", "car_length", "car_width", "ped_radius", "near_miss_margin", "sense_radius",
    "speed_limit", "speed_step", "v_max", "goal_tol", "road_y_min", "road_y_max",
    "sidewalk_width", "road_x_max", "oncoming_lane_y", "oncoming_speed")}
_DROPPED_ENV_KEYS = ("map_resolution", "wheelbase", "road_x_min")


def load_checkpoint(path: str) -> tuple[ActorCriticModel, env.EnvConfig]:
    """The model a checkpoint holds and the EnvConfig it was trained under
    (the default EnvConfig for checkpoints that predate recording it; the
    retired env keys of older ones are dropped, see ``_RETIRED_ENV``).
    Raises UsageError if it is no checkpoint (see :func:`_read_checkpoint`),
    its agent or env config does not build (a retired key off its constant
    included), its parameters are not numeric arrays of their shapes that
    fit its agent config, or its input length is not the observation length
    of the EnvConfig it records."""
    payload = _read_checkpoint(path)
    try:
        config = config_from_dict(payload["config"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"checkpoint agent config: {exc}") from exc
    try:
        env_config = env.EnvConfig(**_without_retired(payload.get("env", {}), _RETIRED_ENV,
                                                      _DROPPED_ENV_KEYS))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"checkpoint env config: {exc}") from exc
    obs_dim = env.observation_dim(env_config)
    if payload["obs_dim"] != obs_dim:
        raise UsageError(f"checkpoint obs_dim {payload['obs_dim']} != {obs_dim}, the "
                         "observation length of its recorded EnvConfig")
    model = ActorCriticModel(config, obs_dim, np.random.default_rng(0))
    for name, entry in payload["params"].items():
        if name not in model.params:
            raise UsageError(f"checkpoint parameter {name!r} unknown to this architecture")
        try:
            arr = np.array(entry["data"], dtype=float).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"checkpoint parameter {name!r} holds no array of its shape: "
                             f"{exc!r}") from exc
        if model.params[name].shape != arr.shape:
            raise UsageError(f"checkpoint shape mismatch for {name!r}")
        model.params[name][...] = arr
    missing = sorted(set(model.params) - set(payload["params"]))
    if missing:
        raise UsageError(f"checkpoint lacks parameters {missing} of this architecture")
    return model, env_config


def _read_checkpoint(path: str) -> dict:
    """The checkpoint's JSON object. Raises UsageError if the file holds no
    JSON object with a ``config`` and a ``params`` object and an ``obs_dim``,
    whose ``env``, if recorded, is an object, or cannot be read as UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"checkpoint {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"checkpoint {path} holds a JSON {type(payload).__name__}, not an object")
    missing = [key for key in ("config", "obs_dim", "params") if key not in payload]
    if missing:
        raise UsageError(f"checkpoint {path} lacks {missing}")
    for key in ("config", "params", "env"):
        if not isinstance(payload.get(key, {}), dict):
            raise UsageError(f"checkpoint {path}: {key} is not an object")
    return payload


# ---------------------------------------------------------------------------
# critic gradients and samples over the critic slice (capacity analysis)


def critic_grad_vector(critic, h: np.ndarray, mode: str = "backprop") -> np.ndarray:
    """Gradient of the critic value w.r.t. its slice of the model vector;
    shape (d,), or (T, d) for h of shape (T, hidden)."""
    _, grads, _ = critic.value_and_grads(h, mode=mode)
    lead = np.shape(h)[:-1]
    return np.concatenate([np.reshape(grads[k], lead + (-1,)) for k in critic.params], axis=-1)


def sample_critic_param_vector(critic, rng: np.random.Generator) -> np.ndarray:
    """Parameter-cube sample of the critic slice: U(-pi, pi) for circuit
    angles, U(-1, 1) for classical weights (incl. the quantum readout head)."""
    n_angles = critic.layout.param_count if isinstance(critic, QuantumCritic) else 0
    return np.concatenate([rng.uniform(-np.pi, np.pi, size=n_angles),
                           rng.uniform(-1.0, 1.0, size=critic.param_count - n_angles)])
