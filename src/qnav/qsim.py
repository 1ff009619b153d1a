"""Minimal batched statevector simulator for small parametrized circuits.

Supports single-qubit Pauli rotations (RX/RY/RZ), a CZ entangler, per-qubit
Pauli-Z expectations, exact parameter-shift gradients, adjoint-mode
backpropagation, and two trajectory-style noise models (multiplicative gate
angle error and depolarizing Pauli kicks).

Rotation convention is exp(-i * theta * P / 2), so a single RY on |0> gives
<Z> = cos(theta). Qubit 0 is the most significant bit of a basis index.

Batch axis. The entry points ``run_circuit``, ``circuit_value``,
``adjoint_value_and_grad`` and ``param_shift_value_and_grad`` take ``x`` of
shape ``(p,)`` or ``(B, p)`` (``theta`` is shared by all rows) and evolve a
``(B, 2**n)`` state; a 1-d ``x`` gives the unbatched return shapes. Each gate
list is compiled once into a plan, cached on the gates, the qubit count and
the sublayer marks. The plan holds every rotation's angle source and index;
all <Z_i> come from one ``|psi|**2 @ sign.T`` with a Z-sign table per qubit
count.

Forward pass. The plan splits the circuit into blocks separated by runs of
CZs; each CZ run is one +/-1 mask. Inside a block, everything that acts on
one qubit, its rotations and the depolarizing kicks that land on it, in
circuit order, multiplies into one per-row 2x2 matrix (M <- R M, and M <- P M
for a kick, also one that opens the block). All blocks' products are
computed at once, one rotation step across every (block, qubit) group at a
time, so the state sees one pass per group and one per CZ run. At the
defaults (4 qubits, 2 layers, 6 sublayers) that is 30 passes instead of 138
gates; under sublayer noise it is 34 instead of 138 gates and 24 kicks, as
the last sublayer's kicks follow the last CZ run. A 2x2 on one qubit maps
amplitude k to a combination of k and k with that qubit's bit flipped, so a
pass is one gather along the amplitude axis and a few elementwise products
with per-row coefficients. The adjoint reverse pass still goes one gate at
a time.

Noise. Under noise every row is its own trajectory. One simulation call
draws from ``rng`` as whole arrays, in this order:

1. gate error: U(0, 1) of shape (rows, trainable-rotation applications),
   in circuit order (``perturb_gate_params``);
2. depolarizing: the coins, U(0, 1) of shape (rows, events), then the Pauli
   choices, integers in [0, 3) for X, Y, Z of the same shape.

Depolarizing events follow circuit order: with ``granularity="sublayer"``
every qubit 0..n-1 after each marked gate, with ``"gate"`` the target of
every gate and then, for a CZ, its control. Parameter-shift batches one
input's unshifted circuit and all its shifted circuits into one call, so
one input's draws are made before the next input's.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_QUBITS = 12

ROTATIONS = ("rx", "ry", "rz")

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_TABLE_ORDER = "ixyz"  # row of each Pauli in the gather/phase tables


class ConfigurationError(ValueError):
    """Invalid simulator configuration (qubit counts, indices, noise params)."""


class LayoutError(ValueError):
    """Malformed circuit plan (unresolvable or unused angle sources)."""


@dataclass(frozen=True)
class GateOp:
    """One gate in a circuit plan.

    Rotation angles come from a literal ``angle``, a data feature
    (``source="data"``) or a trainable parameter (``source="param"``), with
    ``index`` pointing into the corresponding vector.
    """

    kind: str  # "rx" | "ry" | "rz" | "cz"
    target: int
    control: Optional[int] = None
    angle: Optional[float] = None
    source: Optional[str] = None  # None | "data" | "param"
    index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ROTATIONS + ("cz",):
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cz":
            if self.control is None or self.control == self.target:
                raise ConfigurationError("cz needs distinct control/target")
        else:
            if self.control is not None:
                raise ConfigurationError("rotations take no control qubit")
            if self.source not in (None, "data", "param"):
                raise ConfigurationError(f"bad angle source {self.source!r}")
            if self.source is not None and self.index is None:
                raise ConfigurationError("data/param gates need an index")
            if self.source is None and self.angle is None:
                raise ConfigurationError("fixed-angle rotation needs an angle")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for trajectory simulation.

    gate_error: multiplicative angle jitter theta -> theta*(1 + scale*U(0,1))
    on trainable rotation angles, re-sampled at every gate application.
    depolarizing: per-qubit Pauli kick with probability p, injected per
    sublayer boundary (default) or after every gate.
    """

    gate_error: Optional[float] = None  # scale, paper default 0.01
    depolarizing: Optional[float] = None  # p in [0, 1]
    granularity: str = "sublayer"  # "sublayer" | "gate"

    def __post_init__(self):
        if self.gate_error is not None and self.gate_error < 0:
            raise ConfigurationError("gate_error scale must be >= 0")
        if self.depolarizing is not None and not 0.0 <= self.depolarizing <= 1.0:
            raise ConfigurationError("depolarizing p must be in [0, 1]")
        if self.granularity not in ("sublayer", "gate"):
            raise ConfigurationError(f"bad noise granularity {self.granularity!r}")

    @property
    def enabled(self) -> bool:
        return self.gate_error is not None or self.depolarizing is not None


# ---------------------------------------------------------------------------
# kernels over a (B, 2**n) state


def _check_n(n_qubits: int):
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")


@functools.lru_cache(maxsize=MAX_QUBITS)
def _tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices and phases of I, X, Y, Z on each qubit, plus Z signs.

    ``(P_q psi)[:, k] = phase[P, q, k] * psi[:, src[P, q, k]]``;
    ``sign[q, k]`` is the Z eigenvalue of basis state k on qubit q.
    """
    dim = 2**n_qubits
    k = np.arange(dim)
    bits = (k[None, :] >> (n_qubits - 1 - np.arange(n_qubits))[:, None]) & 1  # (n, dim)
    flipped = k[None, :] ^ (1 << (n_qubits - 1 - np.arange(n_qubits)))[:, None]
    src = np.empty((4, n_qubits, dim), dtype=np.intp)
    phase = np.empty((4, n_qubits, dim), dtype=complex)
    for row, name in enumerate(_TABLE_ORDER):
        mat = _PAULI[name]
        if mat[0, 0] == 0:  # off-diagonal: amplitude k comes from its partner
            src[row] = flipped
            phase[row] = mat[bits, 1 - bits]
        else:
            src[row] = k
            phase[row] = mat[bits, bits]
    sign = 1.0 - 2.0 * bits
    for arr in (src, phase, sign):
        arr.flags.writeable = False
    return src, phase, sign


def _minus_i_pauli(kind: str, qubit: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase of -iP for the rotation ``kind`` on ``qubit``."""
    src, phase, _ = _tables(n_qubits)
    row = _TABLE_ORDER.index(kind[1])
    return src[row, qubit], -1j * phase[row, qubit]


def _cz_mask(control: int, target: int, n_qubits: int) -> np.ndarray:
    _, _, sign = _tables(n_qubits)
    return np.where((sign[control] < 0) & (sign[target] < 0), -1.0, 1.0)


def _expect(psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """All <Z_i> per row: |psi|^2 @ sign.T, shape (B, n)."""
    _, _, sign = _tables(n_qubits)
    return (psi.real**2 + psi.imag**2) @ sign.T


def _check_qubit(qubit: int, n: int):
    if not 0 <= qubit < n:
        raise ConfigurationError(f"qubit index {qubit} out of range for {n} qubits")


def perturb_gate_params(theta: np.ndarray, rng: np.random.Generator, scale: float = 0.01) -> np.ndarray:
    """Multiplicative angle jitter theta_k -> theta_k * (1 + scale * U(0,1))."""
    theta = np.asarray(theta, dtype=float)
    return theta * (1.0 + scale * rng.uniform(0.0, 1.0, size=theta.shape))


# ---------------------------------------------------------------------------
# compiled circuits

# exp(-i a P / 2) = cos(a/2) I + sin(a/2) (-iP) lies in SU(2), so it is the
# matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] with alpha = cos + sin * u
# and beta = sin * v for the (u, v) of -iP below. A product of such matrices
# is again one, so a per-row 2x2 is two complex numbers (a, b).
_SU2 = {"x": (0.0, -1j), "y": (0.0, 1.0), "z": (-1j, 0.0)}
# A Pauli kick is i times the SU(2) form of -iP, with rows 0..3 for I, X, Y, Z;
# the factors i multiply into one phase per row, i ** (number of kicks).
_KICK_ALPHA = np.array([1.0, 0.0, 0.0, -1j])
_KICK_BETA = np.array([0.0, -1j, 1.0, 0.0])
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


@dataclass(frozen=True)
class _Blocks:
    """The fused forward pass of a circuit under one depolarizing setting.

    The circuit splits into blocks separated by runs of CZs, and each CZ run
    multiplies into one +/-1 mask. Inside a block, gates on different qubits
    commute, so everything that acts on one qubit (its rotations and its
    depolarizing kicks, in circuit order) multiplies into one per-row 2x2
    matrix, called a group. ``passes`` lists in circuit order
    ``(group, index, flip)`` for one group's 2x2 on its qubit (``index`` picks
    each amplitude's diagonal and off-diagonal coefficient out of the group's
    [a, conj(a), b, -conj(b)], and ``flip`` its partner amplitude), and
    ``(None, mask, None)`` for a CZ run.

    Group g's matrix is the product of its rotations, step s = 0 .. S-1
    reading angle column ``cols[s, g]`` and the coefficients ``u[s, g]``,
    ``v[s, g]``; a group with fewer rotations reads the zero angle in column
    ``n_rotations`` (the identity) for the rest. ``kick_rounds[step]`` lists
    ``(events, groups)`` in the order they apply: depolarizing event
    ``events[i]`` multiplies onto group ``groups[i]`` after the group's
    rotation ``step`` (-1: before its first), each group at most once per
    entry.
    """

    passes: tuple
    cols: np.ndarray  # (S, G)
    u: np.ndarray  # (S, G, 1)
    v: np.ndarray  # (S, G, 1)
    kick_rounds: dict
    n_events: int


@dataclass(frozen=True)
class _Plan:
    """A gate list compiled for batched simulation.

    ``blocks[key]`` is the fused forward pass (:class:`_Blocks`) without
    depolarizing events (``key=None``) or with those of granularity ``key``.
    ``steps[pos]`` is ``(col, src, factor)`` for the adjoint reverse pass,
    which goes one gate at a time: for a rotation, its column in the angle
    matrix and the gather index and phase of -iP on its target; for a CZ,
    ``(None, None, mask)``.
    """

    n: int
    n_rotations: int  # columns of the angle matrix
    steps: tuple
    blocks: dict
    fixed_cols: np.ndarray
    fixed_angles: np.ndarray
    data_cols: np.ndarray
    data_index: np.ndarray
    param_cols: np.ndarray
    param_index: np.ndarray


def _fuse(gates: tuple, steps: tuple, events: tuple, n_qubits: int, n_rotations: int) -> _Blocks:
    """Fuse a compiled circuit, with a depolarizing event on each qubit that
    ``events[pos]`` lists after gate ``pos``, into blocks (see :class:`_Blocks`)."""
    src, _, sign = _tables(n_qubits)
    bits = (sign < 0).astype(np.intp)
    rotations: list = []  # per group: (col, kind) of each rotation
    kicked: dict = {}  # (step, k) -> (events, groups) of each group's k-th kick after that step
    nth: Counter = Counter()  # (group, step) -> its kicks there so far
    passes: list = []
    block: dict = {}  # qubit -> its group in the current block
    run = None  # product of the current CZ run

    def group(qubit: int) -> int:
        nonlocal run
        if run is not None:
            passes.append((None, run[:, None], None))
            run = None
        if qubit not in block:
            block[qubit] = len(rotations)
            rotations.append([])
            passes.append((block[qubit], np.stack([bits[qubit], 3 - bits[qubit]]),
                           src[1, qubit]))
        return block[qubit]

    event = 0
    for gate, (col, _, factor), targets in zip(gates, steps, events):
        if col is None:
            run = factor if run is None else run * factor
            block.clear()
        else:
            rotations[group(gate.target)].append((col, gate.kind))
        for qubit in targets:
            g = group(qubit)
            step = len(rotations[g]) - 1
            events_there, groups_there = kicked.setdefault((step, nth[g, step]), ([], []))
            events_there.append(event)
            groups_there.append(g)
            nth[g, step] += 1
            event += 1
    if run is not None:
        passes.append((None, run[:, None], None))

    shape = (max(map(len, rotations), default=0), len(rotations))
    cols = np.full(shape, n_rotations, dtype=np.intp)
    u, v = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for g, ops in enumerate(rotations):
        for s, (col, kind) in enumerate(ops):
            cols[s, g] = col
            u[s, g], v[s, g] = _SU2[kind[1]]
    kick_rounds: dict = {}
    for (step, _), (es, gs) in sorted(kicked.items()):
        kick_rounds.setdefault(step, []).append((np.array(es), np.array(gs)))
    return _Blocks(passes=tuple(passes), cols=cols, u=u[..., None], v=v[..., None],
                   kick_rounds=kick_rounds, n_events=event)


@functools.lru_cache(maxsize=64)
def _compile(gates: tuple, n_qubits: int, marks: tuple) -> _Plan:
    _check_n(n_qubits)
    steps = []
    sources: dict = {None: ([], []), "data": ([], []), "param": ([], [])}
    marked = frozenset(marks)
    per_gate, per_sublayer = [], []
    for pos, gate in enumerate(gates):
        _check_qubit(gate.target, n_qubits)
        if gate.kind == "cz":
            _check_qubit(gate.control, n_qubits)
            steps.append((None, None, _cz_mask(gate.control, gate.target, n_qubits)))
            per_gate.append((gate.target, gate.control))
        else:
            col = sum(len(cols) for cols, _ in sources.values())
            cols, values = sources[gate.source]
            cols.append(col)
            values.append(gate.angle if gate.source is None else gate.index)
            steps.append((col,) + _minus_i_pauli(gate.kind, gate.target, n_qubits))
            per_gate.append((gate.target,))
        per_sublayer.append(tuple(range(n_qubits)) if pos in marked else ())
    (fixed_cols, fixed), (data_cols, data_idx), (param_cols, param_idx) = (
        sources[None], sources["data"], sources["param"])
    steps = tuple(steps)
    n_rotations = sum(g.kind != "cz" for g in gates)
    events = {None: ((),) * len(gates), "gate": tuple(per_gate), "sublayer": tuple(per_sublayer)}
    return _Plan(
        n=n_qubits,
        n_rotations=n_rotations,
        steps=steps,
        blocks={key: _fuse(gates, steps, kicked, n_qubits, n_rotations)
                for key, kicked in events.items()},
        fixed_cols=np.array(fixed_cols, dtype=np.intp),
        fixed_angles=np.array(fixed, dtype=float),
        data_cols=np.array(data_cols, dtype=np.intp),
        data_index=np.array(data_idx, dtype=np.intp),
        param_cols=np.array(param_cols, dtype=np.intp),
        param_index=np.array(param_idx, dtype=np.intp),
    )


def _plan(gates: Sequence[GateOp], n_qubits: int, sublayer_marks: Sequence[int]) -> _Plan:
    return _compile(tuple(gates), n_qubits, tuple(sublayer_marks))


def _rows(x) -> tuple[np.ndarray, bool]:
    """(B, p) view of the input and whether it was a single vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ConfigurationError(f"inputs must have shape (p,) or (B, p), got {x.shape}")
    return np.atleast_2d(x), x.ndim == 1


def _angles(plan: _Plan, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Noise-free rotation angles, shape (B, rotations)."""
    if plan.data_index.size and plan.data_index.max() >= x.shape[1]:
        raise LayoutError(f"data index {plan.data_index.max()} outside feature vector "
                          f"of length {x.shape[1]}")
    if plan.param_index.size and plan.param_index.max() >= len(theta):
        raise LayoutError(f"param index {plan.param_index.max()} outside theta "
                          f"of length {len(theta)}")
    angles = np.empty((x.shape[0], plan.n_rotations))
    angles[:, plan.fixed_cols] = plan.fixed_angles
    angles[:, plan.data_cols] = x[:, plan.data_index]
    angles[:, plan.param_cols] = theta[plan.param_index]
    if not np.isfinite(angles).all():
        raise ConfigurationError("rotation angle must be finite")
    return angles


def _evolve(plan: _Plan, angles: np.ndarray, noise: Optional[NoiseSpec] = None,
            rng: Optional[np.random.Generator] = None,
            shifts: Optional[np.ndarray] = None) -> np.ndarray:
    """Final (B, 2**n) states, one trajectory per row of ``angles``.

    Draws the noise arrays in the order the module docstring fixes; gate
    error scales the trainable angles before ``shifts`` are added.
    """
    rows = angles.shape[0]
    blocks, kicks = plan.blocks[None], None
    if noise is not None and noise.enabled:
        if rng is None:
            raise ConfigurationError("noise simulation requires an rng stream")
        if noise.gate_error is not None:
            angles = angles.copy()
            angles[:, plan.param_cols] = perturb_gate_params(
                angles[:, plan.param_cols], rng, noise.gate_error)
        if noise.depolarizing is not None:
            blocks = plan.blocks[noise.granularity]
            coins = rng.uniform(size=(rows, blocks.n_events))
            paulis = rng.integers(3, size=(rows, blocks.n_events))
            kicks = np.where(coins < noise.depolarizing, 1 + paulis, 0)
    psi = np.zeros((2**plan.n, rows), dtype=complex)  # amplitude-major: a pass reads whole rows
    psi[0] = 1.0 if kicks is None else _I_POWERS[np.count_nonzero(kicks, axis=1) % 4]
    if blocks.cols.shape[1]:
        matrices = _block_matrices(blocks, angles, shifts, kicks)
    for group, index, flip in blocks.passes:
        if group is None:  # a CZ run, index holds its mask
            psi *= index
        else:
            coef = matrices[group][index]
            part = psi[flip]
            part *= coef[1]
            psi *= coef[0]
            psi += part
    return np.ascontiguousarray(psi.T)


def _block_matrices(blocks: _Blocks, angles: np.ndarray, shifts: Optional[np.ndarray],
                    kicks: Optional[np.ndarray]) -> np.ndarray:
    """Each group's per-row 2x2 as [a, conj(a), b, -conj(b)], shape (G, 4, B)."""
    rows = angles.shape[0]
    # half angles, one row per column and a last row of zeros for the identity
    half = np.zeros((angles.shape[1] + 1, rows))
    half[:-1] = angles.T
    if shifts is not None:
        half[:-1] += shifts.T
    half *= 0.5
    cos, sin = np.cos(half), np.sin(half)
    del half  # the dels keep the peak memory of a call near the gate-at-a-time one's
    a = b = None
    for step in range(-1, len(blocks.cols)):
        if step >= 0:
            col = blocks.cols[step]
            alpha = sin[col] * blocks.u[step]
            alpha += cos[col]
            beta = sin[col] * blocks.v[step]
            if a is None:
                a, b = alpha, beta
            else:
                a, b = alpha * a - beta.conj() * b, beta * a + alpha.conj() * b
        for events, groups in blocks.kick_rounds.get(step, ()):
            if a is None:
                a = np.ones((blocks.cols.shape[1], rows), dtype=complex)
                b = np.zeros_like(a)
            drawn = kicks[:, events].T
            alpha, beta = _KICK_ALPHA[drawn], _KICK_BETA[drawn]
            ag, bg = a[groups], b[groups]
            a[groups] = alpha * ag - beta.conj() * bg
            b[groups] = beta * ag + alpha.conj() * bg
    del cos, sin
    matrices = np.empty((len(a), 4, rows), dtype=complex)
    matrices[:, 0] = a
    np.conjugate(a, out=matrices[:, 1])
    matrices[:, 2] = b
    np.negative(b.conj(), out=matrices[:, 3])
    return matrices


# ---------------------------------------------------------------------------
# public simulation entry points


def run_circuit(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    n_qubits: int,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
    sublayer_marks: Sequence[int] = (),
) -> np.ndarray:
    """Run the circuit and return (<Z_0>, ..., <Z_{n-1}>) per row.

    ``sublayer_marks`` lists gate positions after which per-sublayer
    depolarizing events are injected on every qubit. Returns shape (n,) for
    a single input and (B, n) for a batch, one trajectory per row.
    """
    plan = _plan(gates, n_qubits, sublayer_marks)
    x, single = _rows(x)
    angles = _angles(plan, x, np.asarray(theta, dtype=float))
    z = _expect(_evolve(plan, angles, noise, rng), n_qubits)
    return z[0] if single else z


def circuit_value(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    n_qubits: int,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
    sublayer_marks: Sequence[int] = (),
):
    """Linear readout bias + sum_i w_i <Z_i>: a float, or shape (B,) for a batch."""
    z = run_circuit(gates, x, theta, n_qubits, noise, rng, sublayer_marks)
    value = bias + z @ np.asarray(weights, dtype=float)
    return float(value) if z.ndim == 1 else value


def param_shift_value_and_grad(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    n_qubits: int,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
    sublayer_marks: Sequence[int] = (),
):
    """Readout value and its exact parameter-shift gradients.

    Returns (value, d/dtheta, d/dx, d/dweights = <Z>, d/dbias) like
    :func:`adjoint_value_and_grad`. For each angle source index k, sums
    (V(+pi/2) - V(-pi/2)) / 2 over every gate application that consumes it;
    features enter as Pauli rotation angles, so the rule is exact for them
    too. Per input, the unshifted circuit, then every +pi/2 shift, then
    every -pi/2 shift (trainable uses, then data uses, in circuit order)
    run as one batch of 1 + 2 * (uses) trajectories.
    """
    plan = _plan(gates, n_qubits, sublayer_marks)
    x, single = _rows(x)
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    unused = set(range(len(theta))) - set(plan.param_index.tolist())
    if unused:
        raise LayoutError(f"parameters never used by any gate: {sorted(unused)}")
    cols = np.concatenate([plan.param_cols, plan.data_cols])
    uses = len(cols)
    shifts = np.zeros((1 + 2 * uses, plan.n_rotations))
    shifts[1 + np.arange(uses), cols] = np.pi / 2
    shifts[1 + uses + np.arange(uses), cols] = -np.pi / 2
    values = np.empty(len(x))
    d_theta = np.zeros((len(x), len(theta)))
    d_x = np.zeros(x.shape)
    z = np.empty((len(x), n_qubits))
    for row, angles in enumerate(_angles(plan, x, theta)):
        batch = np.broadcast_to(angles, shifts.shape)
        zs = _expect(_evolve(plan, batch, noise, rng, shifts), n_qubits)
        v = bias + zs @ weights
        diff = (v[1 : 1 + uses] - v[1 + uses :]) / 2.0
        np.add.at(d_theta[row], plan.param_index, diff[: plan.param_cols.size])
        np.add.at(d_x[row], plan.data_index, diff[plan.param_cols.size :])
        values[row], z[row] = v[0], zs[0]
    if single:
        return float(values[0]), d_theta[0], d_x[0], z[0], 1.0
    return values, d_theta, d_x, z, 1.0


def adjoint_value_and_grad(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    n_qubits: int,
):
    """Backpropagation through the simulation via the adjoint method.

    Returns (value, d/dtheta, d/dx, d/dweights, d/dbias) of the readout
    V = bias + sum_i w_i <Z_i>, exactly and in a single reverse pass over
    all rows at once. Noiseless by construction; trajectory noise breaks the
    unitary reverse pass, so noisy gradients must use the parameter-shift
    path.
    """
    plan = _plan(gates, n_qubits, ())
    x, single = _rows(x)
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    angles = _angles(plan, x, theta)
    cos, sin = np.cos(angles / 2.0), np.sin(angles / 2.0)
    psi = _evolve(plan, angles)
    z = _expect(psi, n_qubits)
    value = bias + z @ weights

    # lambda = O |psi> with O = sum_i w_i Z_i, diagonal in the basis
    _, _, sign = _tables(n_qubits)
    lam = psi * (weights @ sign)
    d_angle = np.empty_like(angles)
    for col, src, factor in reversed(plan.steps):
        if col is None:
            psi = psi * factor
            lam = lam * factor
            continue
        # dU/da = (-i P / 2) U, so dV/da = 2 Re <lam| (-i P / 2) |psi_after>
        k_psi = factor * psi[:, src]
        d_angle[:, col] = np.einsum("bk,bk->b", lam.conj(), k_psi).real
        # undo the rotation: U(-a) = cos(a/2) - sin(a/2) (-iP)
        c, s = cos[:, col, None], sin[:, col, None]
        psi = c * psi - s * k_psi
        lam = c * lam - s * (factor * lam[:, src])
    d_theta = np.zeros((len(x), len(theta)))
    d_x = np.zeros(x.shape)
    np.add.at(d_theta, (slice(None), plan.param_index), d_angle[:, plan.param_cols])
    np.add.at(d_x, (slice(None), plan.data_index), d_angle[:, plan.data_cols])
    if single:
        return float(value[0]), d_theta[0], d_x[0], z[0], 1.0
    return value, d_theta, d_x, z, 1.0
