"""Independent reference implementations used only by the tests.

These deliberately avoid the package's simulator code paths: unitaries are
built as explicit dense matrices via Kronecker products, noise is applied as
an exact density-matrix channel, grid paths are found with plain Dijkstra,
the gate-at-a-time statevector simulator (one state, one gate, ``moveaxis``
per application) is the scalar reference for the batched simulator in
``qnav.qsim``, ``evolve`` (all rows, one gate and one depolarizing kick at
a time) is the reference for its fused block kernel, ``forward`` (every
(event, row) kicked from dense tables, the general SU(2) product for every
rotation step, every pass from |0...0>) is the bit-for-bit reference for
that kernel's per-form group matrices and product-state first block,
``replay_loss``
recomputes an episode loss step by step for finite-difference checks of
``qnav.agent.episode_gradients``, ``finite_diff_check`` compares any
analytic gradient with central differences, the per-step loop of
``episode_gradients`` here (one ``trunk_backward`` per step, each through
``lstm_step_backward`` and ``lstm_gates_backward``, one LSTM step, on the
per-step caches ``trunk_replay`` recomputes from the observations) is the
scalar reference for that function's batched backward pass over the rows
the rollout wrote,
``dense_forward``, ``lstm_step``,
``softmax_entropy`` and ``select_action`` are the whole-array expressions of
one rollout step's network calls that ``qnav.nn`` and ``qnav.agent`` now
dispatch with fewer numpy calls, the per-segment path-tracking loops and the separating-axis test without a
broad phase are the scalar references for ``qnav.planner``'s cell-indexed
path queries and ``qnav.env._rects_overlap``, ``cost_map`` and ``plan`` build
a scene's cost map and hybrid A* path as the environment did before its car
drove the lane's centre line, and the ``Observation`` and
``PedObservation`` records with ``to_vector``, ``extras_vector`` and their
``build_observation`` are the reference for the
policy input row that ``qnav.env.build_observation`` writes directly, and
``step`` at the end of this file, which takes the car frame anew in every
helper and builds the reward from named terms (the obstacle term as the
largest cost-map value under the car's footprint, at least
``planner.COST_BLOCKED``), is the reference for the one-pass
``qnav.env.step``. Given a planned path, ``step`` tracks it by pure pursuit
and reads observation ``[2]`` as the cross-track error to it, as the
planner-driven environment did; without one it steers 0.0 and reads ``[2]``
as the lateral offset from the straight route.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from qnav import UsageError, agent, env, nn, planner, qsim
from qnav.qsim import MAX_QUBITS, GateOp, NoiseSpec

I2 = np.eye(2, dtype=complex)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """U = cos(a/2) I - i sin(a/2) P for P in {X, Y, Z}."""
    p = PAULI[kind[1]]
    return math.cos(angle / 2.0) * I2 - 1j * math.sin(angle / 2.0) * p


def lift(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at ``qubit`` (qubit 0 = most significant)."""
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, mat if q == qubit else I2)
    return out


def cz_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        cb = (idx >> (n - 1 - control)) & 1
        tb = (idx >> (n - 1 - target)) & 1
        if cb and tb:
            diag[idx] = -1.0
    return np.diag(diag)


def dm_init(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def dm_apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def dm_depolarize(rho: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    """Exact channel rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z)."""
    out = (1.0 - p) * rho
    for pauli in ("x", "y", "z"):
        op = lift(PAULI[pauli], qubit, n)
        out = out + (p / 3.0) * (op @ rho @ op.conj().T)
    return out


def dm_expect_z(rho: np.ndarray, qubit: int, n: int) -> float:
    return float(np.real(np.trace(lift(PAULI["z"], qubit, n) @ rho)))


def grid_shortest_path_cost(costs: np.ndarray, start: tuple[int, int],
                            goal: tuple[int, int], blocked: int = 100,
                            resolution: float = 1.0) -> float:
    """Dijkstra over cells with 8-connectivity.

    Edge cost = travel distance times the destination cell's cost, mirroring
    the planner's arc-length-times-cell-cost accumulation. Returns inf when
    the goal is unreachable.
    """
    ny, nx = costs.shape
    dist = {start: 0.0}
    frontier = [(0.0, start)]
    while frontier:
        d, (ix, iy) = heapq.heappop(frontier)
        if (ix, iy) == goal:
            return d
        if d > dist.get((ix, iy), math.inf):
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                jx, jy = ix + dx, iy + dy
                if not (0 <= jx < nx and 0 <= jy < ny):
                    continue
                cell = costs[jy, jx]
                if cell >= blocked:
                    continue
                step = math.hypot(dx, dy) * resolution * cell
                nd = d + step
                if nd < dist.get((jx, jy), math.inf):
                    dist[(jx, jy)] = nd
                    heapq.heappush(frontier, (nd, (jx, jy)))
    return math.inf


# ---------------------------------------------------------------------------
# gate-at-a-time statevector simulator (scalar reference)

_PAULI = PAULI


def init_state(n_qubits: int) -> np.ndarray:
    """Return |0...0> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise UsageError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _n_qubits_of(state: np.ndarray) -> int:
    n = int(state.shape[0]).bit_length() - 1
    if 2**n != state.shape[0]:
        raise UsageError("state length is not a power of two")
    return n


def _check_qubit(qubit: int, n: int):
    if not 0 <= qubit < n:
        raise UsageError(f"qubit index {qubit} out of range for {n} qubits")


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    c, s = np.cos(half), np.sin(half)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])


def _apply_single(state: np.ndarray, qubit: int, mat: np.ndarray) -> np.ndarray:
    n = _n_qubits_of(state)
    psi = state.reshape([2] * n)
    psi = np.moveaxis(psi, qubit, -1)
    psi = psi @ mat.T
    return np.moveaxis(psi, -1, qubit).reshape(-1)


def _apply_cz(state: np.ndarray, control: int, target: int) -> np.ndarray:
    n = _n_qubits_of(state)
    psi = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[control] = 1
    idx[target] = 1
    psi[tuple(idx)] *= -1.0
    return psi.reshape(-1)


def apply_gate(state: np.ndarray, gate: GateOp, angle: Optional[float] = None) -> np.ndarray:
    """Apply one gate; for sourced rotations the resolved ``angle`` is required."""
    n = _n_qubits_of(state)
    _check_qubit(gate.target, n)
    if gate.kind == "cz":
        _check_qubit(gate.control, n)
        return _apply_cz(state, gate.control, gate.target)
    if angle is None:
        if gate.source is not None:
            raise UsageError("sourced rotation applied without a resolved angle")
        angle = gate.angle
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return _apply_single(state, gate.target, _rotation_matrix(gate.kind, angle))


def apply_pauli(state: np.ndarray, qubit: int, pauli: str) -> np.ndarray:
    return _apply_single(state, qubit, _PAULI[pauli])


def expectation_z(state: np.ndarray, qubit: int) -> float:
    """<Z> on one qubit: sum of +/- |amp|^2 with sign from the qubit's bit."""
    n = _n_qubits_of(state)
    _check_qubit(qubit, n)
    probs = np.abs(state.reshape([2] * n)) ** 2
    marg = np.moveaxis(probs, qubit, 0).reshape(2, -1).sum(axis=1)
    return float(marg[0] - marg[1])


def all_expectations_z(state: np.ndarray) -> np.ndarray:
    n = _n_qubits_of(state)
    return np.array([expectation_z(state, q) for q in range(n)])


def depolarize_step(state: np.ndarray, qubit: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Single-trajectory depolarizing event: with probability p apply a uniform
    random Pauli (X, Y or Z) on ``qubit``; otherwise identity.

    Averaged over trajectories this realizes the channel
    rho -> (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z).
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError("depolarizing p must be in [0, 1]")
    _check_qubit(qubit, _n_qubits_of(state))
    if rng.uniform() < p:
        pauli = ("x", "y", "z")[rng.integers(3)]
        return apply_pauli(state, qubit, pauli)
    return state


def _resolve_angle(gate: GateOp, x: np.ndarray, theta: np.ndarray) -> float:
    if gate.source == "data":
        if gate.index >= len(x):
            raise UsageError(f"data index {gate.index} outside feature vector of length {len(x)}")
        return float(x[gate.index])
    if gate.source == "param":
        if gate.index >= len(theta):
            raise UsageError(f"param index {gate.index} outside theta of length {len(theta)}")
        return float(theta[gate.index])
    return float(gate.angle)


def run_circuit(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    n_qubits: int,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
    sublayer_marks: Sequence[int] = (),
    shift: Optional[tuple[int, float]] = None,
) -> np.ndarray:
    """Run one trajectory of the circuit and return (<Z_0>, ..., <Z_{n-1}>).

    ``sublayer_marks`` lists gate positions after which per-sublayer
    depolarizing events are injected on every qubit. ``shift`` optionally adds
    a delta to the resolved angle of the gate at one position (used by the
    parameter-shift rule).
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if noise is not None and noise.enabled and rng is None:
        raise UsageError("noise simulation requires an rng stream")
    marks = frozenset(sublayer_marks)
    state = init_state(n_qubits)
    for pos, gate in enumerate(gates):
        if gate.kind == "cz":
            state = apply_gate(state, gate)
        else:
            angle = _resolve_angle(gate, x, theta)
            if noise is not None and noise.gate_error is not None and gate.source == "param":
                # independent jitter per gate application
                angle *= 1.0 + noise.gate_error * rng.uniform()
            if shift is not None and shift[0] == pos:
                angle += shift[1]
            state = apply_gate(state, gate, angle=angle)
        if noise is not None and noise.depolarizing is not None and pos in marks:
            for q in range(n_qubits):
                state = depolarize_step(state, q, noise.depolarizing, rng)
    return all_expectations_z(state)


def _readout(z: np.ndarray, weights: np.ndarray, bias: float) -> float:
    return float(bias + np.dot(weights, z))


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
    shift: Optional[tuple[int, float]] = None,
) -> float:
    """Linear readout bias + sum_i w_i <Z_i> over one circuit evaluation."""
    z = run_circuit(gates, x, theta, n_qubits, noise, rng, sublayer_marks, shift)
    return _readout(z, np.asarray(weights, dtype=float), bias)


def _gates_by_source(gates: Sequence[GateOp], source: str) -> dict[int, list[int]]:
    positions: dict[int, list[int]] = {}
    for pos, gate in enumerate(gates):
        if gate.source == source:
            positions.setdefault(gate.index, []).append(pos)
    return positions


def param_shift_gradient(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    n_qubits: int,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
    sublayer_marks: Sequence[int] = (),
    wrt: str = "param",
) -> np.ndarray:
    """Exact parameter-shift gradient of the readout value.

    For each angle source index k, sums (V(+pi/2) - V(-pi/2)) / 2 over every
    gate application that consumes it. With ``wrt="data"`` differentiates with
    respect to the input features instead (features enter as Pauli rotation
    angles, so the same rule is exact).
    """
    theta = np.asarray(theta, dtype=float)
    vec_len = len(theta) if wrt == "param" else len(np.asarray(x))
    positions = _gates_by_source(gates, wrt)
    if wrt == "param":
        unused = set(range(vec_len)) - set(positions)
        if unused:
            raise UsageError(f"parameters never used by any gate: {sorted(unused)}")
    grad = np.zeros(vec_len)
    for idx, gate_positions in positions.items():
        for pos in gate_positions:
            plus = circuit_value(
                gates, x, theta, weights, bias, n_qubits, noise, rng, sublayer_marks,
                shift=(pos, np.pi / 2),
            )
            minus = circuit_value(
                gates, x, theta, weights, bias, n_qubits, noise, rng, sublayer_marks,
                shift=(pos, -np.pi / 2),
            )
            grad[idx] += (plus - minus) / 2.0
    return grad


def adjoint_value_and_grad(
    gates: Sequence[GateOp],
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    n_qubits: int,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """Backpropagation through the simulation via the adjoint method.

    Returns (value, d/dtheta, d/dx, d/dweights, d/dbias) of the readout
    V = bias + sum_i w_i <Z_i>, exactly and in a single reverse pass.
    Noiseless by construction; trajectory noise breaks the unitary reverse
    pass, so noisy gradients must use the parameter-shift path.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    angles = [None if g.kind == "cz" else _resolve_angle(g, x, theta) for g in gates]

    psi = init_state(n_qubits)
    for gate, angle in zip(gates, angles):
        psi = apply_gate(psi, gate, angle=angle)

    z = all_expectations_z(psi)
    value = _readout(z, weights, bias)

    # lambda = O |psi> with O = sum_i w_i Z_i
    lam = np.zeros_like(psi)
    for q in range(n_qubits):
        lam += weights[q] * apply_pauli(psi, q, "z")

    d_theta = np.zeros_like(theta)
    d_x = np.zeros_like(x)
    for gate, angle in zip(reversed(gates), reversed(angles)):
        if gate.kind == "cz":
            psi = _apply_cz(psi, gate.control, gate.target)
            lam = _apply_cz(lam, gate.control, gate.target)
            continue
        # dU/dtheta = (-i P / 2) U, so grad = 2 Re <lam| (-i P / 2) |psi_after>
        pauli = gate.kind[1]
        d_psi = -0.5j * apply_pauli(psi, gate.target, pauli)
        g = 2.0 * float(np.real(np.vdot(lam, d_psi)))
        if gate.source == "param":
            d_theta[gate.index] += g
        elif gate.source == "data":
            d_x[gate.index] += g
        inv = _rotation_matrix(gate.kind, -angle)
        psi = _apply_single(psi, gate.target, inv)
        lam = _apply_single(lam, gate.target, inv)
    return value, d_theta, d_x, z.copy(), 1.0


# ---------------------------------------------------------------------------
# batched gate-at-a-time evolution


def _rotate(psi: np.ndarray, cos: np.ndarray, sin: np.ndarray, src: np.ndarray,
            factor: np.ndarray) -> np.ndarray:
    """exp(-i a P / 2) psi = cos(a/2) psi + sin(a/2) (-iP) psi, per row.

    ``cos``/``sin`` broadcast against the rows, shape (B, 1) or scalar.
    """
    return cos * psi + sin * (factor * psi[:, src])


def _pauli_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices and phases of I, X, Y, Z on each qubit, plus each basis
    state's bits: ``(P_q psi)[:, k] = phase[P, q, k] * psi[:, src[P, q, k]]``."""
    dim = 2**n_qubits
    k = np.arange(dim)
    bits = (k[None, :] >> (n_qubits - 1 - np.arange(n_qubits))[:, None]) & 1  # (n, dim)
    flipped = k[None, :] ^ (1 << (n_qubits - 1 - np.arange(n_qubits)))[:, None]
    src = np.empty((4, n_qubits, dim), dtype=np.intp)
    phase = np.empty((4, n_qubits, dim), dtype=complex)
    for row, mat in enumerate((I2, PAULI["x"], PAULI["y"], PAULI["z"])):
        if mat[0, 0] == 0:  # off-diagonal: amplitude k comes from its partner
            src[row] = flipped
            phase[row] = mat[bits, 1 - bits]
        else:
            src[row] = k
            phase[row] = mat[bits, bits]
    return src, phase, bits


def angle_matrix(gates: Sequence[GateOp], x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Noise-free rotation angles of each row of ``x``, one column per
    rotation in circuit order, shape (B, rotations)."""
    rows = np.atleast_2d(x)
    rotations = [gate for gate in gates if gate.kind != "cz"]

    def angle(gate, row):
        if gate.source is None:
            return gate.angle
        return (row if gate.source == "data" else theta)[gate.index]

    return np.array([[angle(gate, row) for gate in rotations] for row in rows],
                    dtype=float).reshape(len(rows), len(rotations))


def evolve(gates: Sequence[GateOp], n_qubits: int, sublayer_marks: Sequence[int],
           angles: np.ndarray, noise: Optional[NoiseSpec] = None,
           rng: Optional[np.random.Generator] = None,
           shifts: Optional[np.ndarray] = None) -> np.ndarray:
    """Final (B, 2**n) states of the rows of an angle matrix (as
    ``angle_matrix`` gives), with ``shifts`` added after gate error, one gate
    and one depolarizing kick at a time over all rows, drawing the same noise
    arrays in the same order as ``qsim._evolve``; the reference for its fused
    block kernel and its shared angle tables."""
    rotations = [gate for gate in gates if gate.kind != "cz"]
    param_cols = [col for col, gate in enumerate(rotations) if gate.source == "param"]
    rows = angles.shape[0]
    kicks, events = None, ()
    if noise is not None and noise.enabled:
        if rng is None:
            raise UsageError("noise simulation requires an rng stream")
        if noise.gate_error is not None:
            angles = angles.copy()
            angles[:, param_cols] = qsim.perturb_gate_params(
                angles[:, param_cols], rng, noise.gate_error)
        if noise.depolarizing is not None:
            marked = frozenset(sublayer_marks)
            events = [tuple(range(n_qubits)) if pos in marked else ()
                      for pos in range(len(gates))]
            n_events = sum(map(len, events))
            coins = rng.uniform(size=(rows, n_events))
            paulis = rng.integers(3, size=(rows, n_events))
            kicks = np.where(coins < noise.depolarizing, 1 + paulis, 0)
    if shifts is not None:
        angles = angles + shifts
    cos, sin = np.cos(angles / 2.0), np.sin(angles / 2.0)
    src, phase, bits = _pauli_tables(n_qubits)
    psi = np.zeros((rows, 2**n_qubits), dtype=complex)
    psi[:, 0] = 1.0
    event, col = 0, 0
    for pos, gate in enumerate(gates):
        if gate.kind == "cz":
            psi = psi * np.where(bits[gate.control] & bits[gate.target], -1.0, 1.0)
        else:
            row, q = "ixyz".index(gate.kind[1]), gate.target
            psi = _rotate(psi, cos[:, col, None], sin[:, col, None], src[row, q],
                          -1j * phase[row, q])
            col += 1
        if kicks is not None:
            for qubit in events[pos]:  # a per-row Pauli, 0..3 for I, X, Y, Z
                which = kicks[:, event]
                psi = phase[which, qubit] * np.take_along_axis(psi, src[which, qubit], axis=1)
                event += 1
    return psi


# ---------------------------------------------------------------------------
# the general group-matrix route of the fused block kernel

# exp(-i a P / 2) = cos(a/2) I + sin(a/2) (-iP) is the matrix
# [[alpha, -conj(beta)], [beta, conj(alpha)]] with alpha = cos + sin * u and
# beta = sin * v for the (u, v) of -iP below (the identity for no rotation)
_SU2 = {-1: (0.0, 0.0), 0: (0.0, -1j), 1: (0.0, 1.0), 2: (-1j, 0.0)}
# a Pauli kick, rows 0..3 for I, X, Y, Z: i times the SU(2) form of -iP
_KICK_ALPHA = np.array([1.0, 0.0, 0.0, -1j])
_KICK_BETA = np.array([0.0, -1j, 1.0, 0.0])


def forward(circuit: qsim.Circuit, x: np.ndarray, theta: np.ndarray,
            noise: Optional[NoiseSpec] = None, rng: Optional[np.random.Generator] = None,
            shift_cols: Optional[np.ndarray] = None):
    """``qsim._forward`` by the general route, with its signature and return:
    every (event, row) multiplies its drawn Pauli, the identity too, from
    dense (events, rows) alpha and beta tables; every rotation step, a padded
    one too, multiplies the general product alpha = cos + sin u, beta = sin v,
    reading its values through the step index; the shared head and each
    shifted entry inside it multiply as separate products; the state starts
    at |0...0> and runs every pass up to the tail; and each row's tail flip
    is the XOR of the bits of the tail events that drew X or Y, from the
    dense table, for every row. It draws the same noise arrays in the same
    order, and is the bit-for-bit reference for the per-axis steps, sparse
    kicks, step slices and product-state first block of ``qsim._forward``."""
    values = qsim._angle_values(circuit, x, theta)
    ws = qsim._Workspace()
    key, jittered, kicks, phase, flips = None, None, None, 1.0, None
    jitter = noise is not None and noise.gate_error is not None
    if noise is not None and noise.depolarizing is not None:
        key = "sublayer"
    plan = qsim._plan(circuit, key, jitter, len(x), len(values), shift_cols, ws)
    rows = plan.rows
    if noise is not None and noise.enabled:
        if rng is None:
            raise UsageError("noise simulation requires an rng stream")
        if noise.gate_error is not None:
            trainable = np.broadcast_to(theta[circuit.param_index], (rows, circuit.param_index.size))
            jittered = qsim.perturb_gate_params(trainable, rng, noise.gate_error)
        if noise.depolarizing is not None:
            blocks = circuit.blocks[key]
            shape = (rows, blocks.n_events)
            coins = rng.random(shape)
            drawn = rng.integers(3, size=shape)
            drawn += 1
            drawn[coins >= noise.depolarizing] = 0
            phase = np.array([1.0, 1j, -1.0, -1j])[np.count_nonzero(drawn, axis=1) % 4]
            paulis = np.ascontiguousarray(drawn.T)  # event-major
            kicks = (_KICK_ALPHA[paulis], _KICK_BETA[paulis])
            if blocks.tail_bits.size:
                tail = np.arange(blocks.n_events)[blocks.tail_events]
                flips = np.zeros(rows, dtype=np.intp)
                for event, bit in zip(tail, blocks.tail_bits):
                    flips ^= np.where((paulis[event] == 1) | (paulis[event] == 2), bit, 0)
    blocks = circuit.blocks[key]
    trig = qsim._half_angles(values, jittered, plan, ws)
    steps = plan.index.copy()
    psi = np.zeros((2**circuit.n, rows), dtype=complex)
    psi[0] = phase
    matrices = _general_matrices(blocks, trig, kicks, plan)
    qsim._run_passes(blocks.passes, matrices, psi, ws)
    return psi, trig, steps, matrices, flips


def _general_rounds(blocks) -> dict:
    """step -> the (events, groups) of each round of kicks after that step (-1:
    before a group's first rotation), in the order they apply."""
    rounds: dict = {}
    for number, step in enumerate(blocks.rounds):
        events = np.flatnonzero(blocks.kick_round == number)
        rounds.setdefault(step, []).append((events, blocks.kick_group[events]))
    return rounds


def _general_matrices(blocks, trig, kicks, plan) -> np.ndarray:
    """Each group's per-row 2x2 as [a, conj(a), b, -conj(b)], shape (G, 4, B)."""
    rows = plan.rows
    n_steps, n_groups = blocks.cols.shape
    matrices = np.empty((n_groups, 4, rows), complex)
    if not n_groups:
        return matrices
    u = np.array([[_SU2[axis][0] for axis in step] for step in blocks.axes], complex)[..., None]
    v = np.array([[_SU2[axis][1] for axis in step] for step in blocks.axes], complex)[..., None]
    rounds = _general_rounds(blocks)
    shared = qsim._shared_steps(blocks, plan.stride)
    a = b = None
    if shared:
        head = plan.columns[blocks.cols[:shared]][..., None]  # (steps, G, 1)
        a, b = (np.empty((n_groups, rows), complex) for _ in range(2))
        for m, out in zip(_general_product(trig, head, u[:shared], v[:shared]), (a, b)):
            np.copyto(out, m)  # broadcast to the rows
        cols, shifted_rows, values = plan.shifted
        steps = blocks.step_of[cols]
        inside = steps < shared
        if cols.size and inside.any():  # one row and one group per shifted entry
            groups, shifted_rows = blocks.group_of[cols[inside]], shifted_rows[inside]
            own = head[:, groups]
            own[steps[inside], np.arange(groups.size), 0] = values[inside]
            pa, pb = _general_product(trig, own, u[:shared, groups], v[:shared, groups])
            a[groups, shifted_rows], b[groups, shifted_rows] = pa[:, 0], pb[:, 0]
    for events, groups in rounds.get(-1, ()):
        if a is None:
            a, b = np.ones((n_groups, rows), complex), np.zeros((n_groups, rows), complex)
        _general_kick(a, b, kicks, events, groups, right=True)
    cos, sin = trig[0][plan.index], trig[1][plan.index]
    for step in range(n_steps):
        if step >= shared:
            a, b = _general_rotate(a, b, cos[step], sin[step], u[step], v[step])
        for events, groups in rounds.get(step, ()):
            _general_kick(a, b, kicks, events, groups)
    matrices[:, 0] = a
    matrices[:, 1] = np.conjugate(a)
    matrices[:, 2] = b
    matrices[:, 3] = np.negative(np.conjugate(b))
    return matrices


def _general_rotate(a, b, cos, sin, u, v):
    """(a, b) of R M for M = (a, b) (None: the identity) and R the rotations
    with these half-angle tables and SU(2) coefficients. Each complex product
    keeps its operand order and goes to an array distinct from its operands:
    numpy's complex multiply fuses a multiply-add, so either change can move
    a bit."""
    # cos and sin as complex first, as a mixed float-complex product would
    # cast them
    ra, rb = np.array(sin, complex), np.array(cos, complex)
    alpha = np.multiply(ra, u)
    beta = np.multiply(ra, v)
    alpha += rb
    if a is None:
        return alpha, beta
    ra, rb = np.multiply(alpha, a), np.multiply(beta, a)
    ra -= np.multiply(np.conjugate(beta), b)
    rb += np.multiply(np.conjugate(alpha), b)
    return ra, rb


def _general_kick(a, b, kicks, events, groups, right=False) -> None:
    """Multiply the drawn Paulis of ``events`` onto ``groups``, in place: P M,
    or M P with ``right``; ``kicks`` holds the (events, B) alpha and beta
    tables of the drawn Paulis."""
    alpha, beta = kicks[0][events], kicks[1][events]
    ag, bg = a[groups], b[groups]
    if right:  # a M P: a alpha - conj(b) beta and b alpha + conj(a) beta
        ra, rb = np.multiply(ag, alpha), np.multiply(bg, alpha)
        ra -= np.multiply(np.conjugate(bg), beta)
        rb += np.multiply(np.conjugate(ag), beta)
    else:  # P M: alpha a - conj(beta) b and beta a + conj(alpha) b
        ra, rb = np.multiply(alpha, ag), np.multiply(beta, ag)
        ra -= np.multiply(np.conjugate(beta), bg)
        rb += np.multiply(np.conjugate(alpha), bg)
    a[groups], b[groups] = ra, rb


def _general_product(trig, index, u, v):
    """(a, b) of the rotations that read entries ``index`` (steps on axis 0)
    of the cos and sin tables ``trig``."""
    cos, sin = trig[0][index], trig[1][index]
    a = b = None
    for step in range(len(index)):
        a, b = _general_rotate(a, b, cos[step], sin[step], u[step], v[step])
    return a, b


# ---------------------------------------------------------------------------
# finite differences and one LSTM step backward


def finite_diff_check(params: dict, loss_fn, grads: dict, h: float = 1e-5) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn`` is re-evaluated with each entry of ``params`` perturbed in
    place; it must be a pure function of the current parameter values.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must be in [1e-7, 1e-3]")
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_fn()
            flat[idx] = orig - h
            lm = loss_fn()
            flat[idx] = orig
            num = (lp - lm) / (2.0 * h)
            denom = max(abs(num), abs(gflat[idx]), 1.0)
            worst = max(worst, abs(num - gflat[idx]) / denom)
    return worst


def lstm_gates_backward(dh: np.ndarray, dc: np.ndarray, cache):
    """The elementwise part of the backward pass through one step: from the
    upstream dh and dc, the gradient of the stacked gate pre-activations
    (order i, f, o, g). Returns (dpre, dc_prev)."""
    _, _, c_prev, i, f, o, g, _, tc = cache
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    dpre = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g * g),
        ]
    )
    return dpre, dc_prev


def lstm_step_backward(params: dict, dh: np.ndarray, dc: np.ndarray, cache):
    """Backward through one step. Returns (dx, dh_prev, dc_prev, grads)."""
    x, h_prev = cache[:2]
    dpre, dc_prev = lstm_gates_backward(dh, dc, cache)
    grads = {
        "Wx": np.outer(dpre, x),
        "Wh": np.outer(dpre, h_prev),
        "b": dpre,
    }
    dx = params["Wx"].T @ dpre
    dh_prev = params["Wh"].T @ dpre
    return dx, dh_prev, dc_prev, grads


# ---------------------------------------------------------------------------
# one rollout step's network calls as whole-array expressions


def dense_forward(params: dict, x: np.ndarray) -> np.ndarray:
    """y = W x + b for one input row, as a batch of one column."""
    return np.matmul(params["W"], x[..., None])[..., 0] + params["b"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step(params: dict, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One LSTM step, one sigmoid call per gate; returns (h, c, cache)."""
    hidden = h_prev.shape[0]
    pre = params["Wx"] @ x + params["Wh"] @ h_prev + params["b"]
    i = _sigmoid(pre[:hidden])
    f = _sigmoid(pre[hidden : 2 * hidden])
    o = _sigmoid(pre[2 * hidden : 3 * hidden])
    g = np.tanh(pre[3 * hidden :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, o, g, c, tc)


def softmax_entropy(logits: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax probabilities and entropy of one row by numpy reductions."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    logp = np.log(np.maximum(probs, 1e-300))
    return probs, float(-(probs * logp).sum())


def select_action(logits: np.ndarray, rng: Optional[np.random.Generator] = None,
                  greedy: bool = False) -> tuple[int, float, float]:
    """Action, log-probability and entropy by np.argmax, or by cumsum and
    searchsorted on one rng.random() draw."""
    probs, entropy = softmax_entropy(logits)
    if greedy:
        action = int(np.argmax(probs))
    else:
        cdf = probs.cumsum()
        if not np.isfinite(cdf[-1]):
            raise ValueError("action probabilities contain NaN or inf")
        cdf /= cdf[-1]
        action = int(cdf.searchsorted(rng.random(), side="right"))
    return action, float(np.log(probs[action])), entropy


def same_bits(got, want) -> bool:
    """Equal bytes, except that a NaN may have another payload: IEEE 754 does
    not fix which NaN an operation on two of them keeps, and the array route's
    reductions and the Python-float sums pair the operands differently."""
    got, want = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
    nan = np.isnan(want)
    return (got.shape == want.shape and (np.isnan(got) == nan).all()
            and got[~nan].tobytes() == want[~nan].tobytes())


SPECIAL_LOGITS = (np.inf, -np.inf, np.nan, 1e308, -1e308, 745.0, -745.0, 0.0, -0.0, 5e-324)


def logit_rows(rng, widths, count):
    """Rows of each width: normal logits over twelve decades of scale, and
    a third each with one and with two entries from SPECIAL_LOGITS."""
    for width in widths:
        for k in range(count):
            row = rng.normal(size=width) * 10.0 ** rng.integers(-6, 6)
            special = k % 3
            row[rng.integers(0, width, special)] = rng.choice(SPECIAL_LOGITS, special)
            yield row



# ---------------------------------------------------------------------------
# episode loss replay


def replay_loss(model, trace, returns, advantages=None) -> float:
    """Episode loss J_V - J_pi as a pure function of the current parameters,
    replaying the recorded observations and actions (returns stay frozen).

    By default the advantages in the policy term are recomputed from the
    replayed values. Passing ``advantages`` freezes them instead, which makes
    finite differences of this loss match the detached-advantage gradient
    computed by ``agent.episode_gradients``.
    """
    config = model.config
    values, logps, entropies = [], [], []
    _, hidden, logits = trunk_replay(model, trace)
    for h, z, action in zip(hidden, logits, trace.actions):
        probs, _, entropy = nn.softmax_logs(z)
        logps.append(float(np.log(probs[action])))
        entropies.append(entropy)
        values.append(model.critic.value(h))
    j_v, j_pi = agent.losses(values, returns, logps, entropies, config.entropy_weight)
    if advantages is not None:
        t = len(values)
        j_pi = float(sum(
            lp * a + config.entropy_weight * ent
            for lp, a, ent in zip(logps, advantages, entropies)
        ) / t)
    return j_v - j_pi


def trunk_replay(model, trace):
    """The trunk forward pass of the trace's observations, one step at a time
    with this module's expressions: per step the cache (encoder input, first
    activation, enc2 input, second activation, LSTM cache, actor input) that
    :func:`trunk_backward` reads, and the (T, hidden) hidden states and
    (T, actions) logits."""
    h = c = np.zeros(model.config.lstm_hidden)
    d = model.obs_dim
    caches, hidden, logits = [], [], []
    for row in trace.obs:
        obs, extras = row[:d], row[d:]
        a1 = np.tanh(dense_forward(model.enc1, obs))
        a2 = np.tanh(dense_forward(model.enc2, a1))
        h, c, cl = lstm_step(model.lstm, np.concatenate([a2, extras]), h, c)
        caches.append((obs, a1, a1, a2, cl, h))
        hidden.append(h)
        logits.append(dense_forward(model.actor, h))
    return caches, np.array(hidden), np.array(logits)


def _add_into(views: dict, grads: dict) -> None:
    for key, g in grads.items():
        views[key] += g


def trunk_backward(model, dlogits: np.ndarray, dh_extra: np.ndarray,
                   dh_next: np.ndarray, dc_next: np.ndarray, cache, grads: dict):
    """Backward through actor head, LSTM step and encoder for one step,
    adding the parameter gradients into ``grads``, the layer views of a
    gradient vector laid out like ``flat`` (see ``nn.views``).

    dh_extra carries the critic's pull on the hidden state; dh_next/dc_next
    come from the future timestep. Returns (dh_prev, dc_prev)."""
    c1, t1, c2, t2, cl, ca = cache
    dh_actor, g = nn.dense_backward(model.actor, dlogits, ca)
    _add_into(grads["actor"], g)
    dh = dh_actor + dh_extra + dh_next
    dx, dh_prev, dc_prev, g = lstm_step_backward(model.lstm, dh, dc_next, cl)
    _add_into(grads["lstm"], g)
    enc_out = model.config.encoder_out
    da2 = dx[:enc_out]
    dz2 = nn.tanh_backward(da2, t2)
    da1, g = nn.dense_backward(model.enc2, dz2, c2)
    _add_into(grads["enc2"], g)
    dz1 = nn.tanh_backward(da1, t1)
    _, g = nn.dense_backward(model.enc1, dz1, c1)
    _add_into(grads["enc1"], g)
    return dh_prev, dc_prev


def episode_gradients(model, trace, returns, noise_rng: Optional[np.random.Generator] = None):
    """Gradient of J_V - J_pi over one recorded episode, one step at a time:
    per step, the logit gradient, the critic gradient and a ``trunk_backward``
    whose per-layer gradient dicts are added into the gradient vector. The
    forward pass is :func:`trunk_replay`'s, not the rows the rollout wrote.
    Returns (grad, j_v, j_pi) like ``qnav.agent.episode_gradients``."""
    config = model.config
    t_len = trace.steps
    if t_len == 0:
        raise UsageError("empty episode")
    caches, hidden, logits = trunk_replay(model, trace)
    values, vgrads, dvdh = model.critic.value_and_grads(
        hidden, mode=config.gradient_mode, noise=config.noise, rng=noise_rng)
    values = values.tolist()

    j_v, j_pi = agent.losses(values, returns, trace.logps, trace.entropies,
                             config.entropy_weight)

    grad = np.zeros_like(model.flat)
    layer_grads = nn.views(grad, model.layers)
    critic_grads = nn.named(layer_grads["critic"])
    dh_next = np.zeros(config.lstm_hidden)
    dc_next = np.zeros(config.lstm_hidden)
    for t in range(t_len - 1, -1, -1):
        advantage = returns[t] - values[t]
        probs = nn.softmax(logits[t])
        onehot = np.zeros(env.N_ACTIONS)
        onehot[trace.actions[t]] = 1.0
        # d(J_V)/dV; the advantage path into J_pi is detached
        dv = 2.0 * (values[t] - returns[t]) / t_len
        dlogits = -(advantage * (onehot - probs)) / t_len
        dlogits += nn.entropy_backward(probs, -config.entropy_weight / t_len)

        for key, g in vgrads.items():
            critic_grads[key] += dv * g[t]
        dh_next, dc_next = trunk_backward(
            model, dlogits, dv * dvdh[t], dh_next, dc_next, caches[t], layer_grads)
    if config.max_grad_norm is not None:
        grad = nn.clip_by_global_norm(grad, config.max_grad_norm)
    return grad, j_v, j_pi


# ---------------------------------------------------------------------------
# the planner reference: a scene's cost map and path, and path tracking and
# rectangle overlap, one segment and one corner at a time


# EnvConfig.wheelbase, map_resolution and road_x_min as the planner-driven
# environment had them; all three went when its car began to drive the
# lane's centre line
WHEELBASE = 2.5
MAP_RESOLUTION = 1.0
ROAD_X_MIN = -10.0


def cost_map(obstacles) -> planner.CostMap:
    """The road, sidewalk and obstacle costs of one obstacle layout."""
    res = MAP_RESOLUTION
    x0 = ROAD_X_MIN
    y0 = env.ROAD_Y_MIN - env.SIDEWALK_WIDTH - 1.0
    y1 = env.ROAD_Y_MAX + env.SIDEWALK_WIDTH + 1.0
    nx = int(math.ceil((env.ROAD_X_MAX - x0) / res))
    ny = int(math.ceil((y1 - y0) / res))
    costs = np.full((ny, nx), planner.COST_BLOCKED, dtype=int)
    ys = y0 + (np.arange(ny) + 0.5) * res
    road = (ys >= env.ROAD_Y_MIN) & (ys <= env.ROAD_Y_MAX)
    walk = ((ys >= env.ROAD_Y_MIN - env.SIDEWALK_WIDTH) & (ys < env.ROAD_Y_MIN)) | (
        (ys > env.ROAD_Y_MAX) & (ys <= env.ROAD_Y_MAX + env.SIDEWALK_WIDTH)
    )
    costs[road, :] = planner.COST_ROAD
    costs[walk, :] = planner.COST_SIDEWALK
    for (ox0, oy0, ox1, oy1) in obstacles:
        ix0 = max(0, int(math.floor((ox0 - x0) / res)))
        iy0 = max(0, int(math.floor((oy0 - y0) / res)))
        ix1 = min(nx, int(math.ceil((ox1 - x0) / res)))
        iy1 = min(ny, int(math.ceil((oy1 - y0) / res)))
        costs[iy0:iy1, ix0:ix1] = planner.COST_BLOCKED
    return planner.CostMap(x0=x0, y0=y0, resolution=res, costs=costs)


def plan(scene: env.Scene) -> planner.Path:
    """The hybrid A* path of the scene's obstacle layout, from the car's start
    to its goal."""
    return planner.plan_path(cost_map(scene.obstacles), scene.car_start, scene.car_goal,
                             wheelbase=WHEELBASE, goal_tol=env.GOAL_TOL)


def lateral_offset(scene: env.Scene, x: float, y: float) -> float:
    """Signed offset of (x, y) from the straight line through the car's start
    toward its goal (left positive): the y of the point in the frame of that
    route."""
    sx, sy, _ = scene.car_start
    gx, gy = scene.car_goal
    heading = math.atan2(gy - sy, gx - sx)
    return -math.sin(heading) * (x - sx) + math.cos(heading) * (y - sy)


def tracking_steering(
    path: planner.Path,
    pose: tuple[float, float, float],
    speed: float,
    wheelbase: float = 2.5,
) -> float:
    """Steering bin that best tracks the path from the current pose.

    Pure-pursuit on a speed-scaled lookahead point, snapped to the discrete
    bins. Returns 0 for an empty path or when past its end.
    """
    if not path.poses:
        return 0.0
    x, y, heading = pose
    lookahead = max(4.0, 0.8 * speed)
    # nearest path index, then walk forward to the lookahead distance
    pts = path.poses
    dists = [math.hypot(px - x, py - y) for px, py, _ in pts]
    i = int(np.argmin(dists))
    target = pts[-1]
    for j in range(i, len(pts)):
        if math.hypot(pts[j][0] - x, pts[j][1] - y) >= lookahead:
            target = pts[j]
            break
    dx, dy = target[0] - x, target[1] - y
    dist = math.hypot(dx, dy)
    if dist < 0.5:
        return 0.0
    eta = math.atan2(dy, dx) - heading
    eta = (eta + math.pi) % (2 * math.pi) - math.pi
    desired = math.atan2(2.0 * wheelbase * math.sin(eta), dist)
    return min(planner.STEERING_BINS, key=lambda b: abs(b - desired))


def cross_track_error(path: planner.Path, x: float, y: float) -> float:
    """Signed lateral offset to the nearest path segment (left positive)."""
    if not path.poses:
        return 0.0
    if len(path.poses) == 1:
        px, py, _ = path.poses[0]
        return math.hypot(x - px, y - py)
    best = math.inf
    signed = 0.0
    pts = path.poses
    for (x1, y1, _), (x2, y2, _) in zip(pts[:-1], pts[1:]):
        vx, vy = x2 - x1, y2 - y1
        seg_len2 = vx * vx + vy * vy
        if seg_len2 == 0:
            continue
        t = max(0.0, min(1.0, ((x - x1) * vx + (y - y1) * vy) / seg_len2))
        cx, cy = x1 + t * vx, y1 + t * vy
        d = math.hypot(x - cx, y - cy)
        if d < best:
            best = d
            cross = vx * (y - y1) - vy * (x - x1)
            signed = math.copysign(d, cross) if cross != 0 else d
    return signed


def rects_overlap(ax, ay, ah, alen, awid, bx, by, bh, blen, bwid) -> bool:
    """Separating-axis test for two oriented rectangles."""
    corners = []
    for (cx, cy, ch, ln, wd) in ((ax, ay, ah, alen, awid), (bx, by, bh, blen, bwid)):
        c, s = math.cos(ch), math.sin(ch)
        pts = []
        for sx in (-ln / 2, ln / 2):
            for sy in (-wd / 2, wd / 2):
                pts.append((cx + c * sx - s * sy, cy + s * sx + c * sy))
        corners.append(pts)
    axes = []
    for h in (ah, bh):
        axes.append((math.cos(h), math.sin(h)))
        axes.append((-math.sin(h), math.cos(h)))
    for ux, uy in axes:
        proj = [[px * ux + py * uy for px, py in pts] for pts in corners]
        if max(proj[0]) < min(proj[1]) or max(proj[1]) < min(proj[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# the policy input as objects: one frozen record per observation and per slot


@dataclass(frozen=True)
class PedObservation:
    rel_pos: tuple[float, float]  # car frame, m
    rel_vel: tuple[float, float]  # car frame, m/s
    visible: float  # 1.0 for a sensed pedestrian, 0.0 for an empty slot


@dataclass(frozen=True)
class Observation:
    rel_goal: tuple[float, float]
    cross_track: float
    speed: float
    prev_accel: tuple[float, float, float]  # one-hot speed action
    prev_reward: float
    pedestrians: tuple[PedObservation, ...]

    def to_vector(self) -> np.ndarray:
        parts = [
            self.rel_goal[0] / 50.0,
            self.rel_goal[1] / 50.0,
            self.cross_track / 5.0,
            self.speed / 15.0,
            *self.prev_accel,
            self.prev_reward / 10.0,
        ]
        for ped in self.pedestrians:
            parts.extend([
                ped.rel_pos[0] / 50.0,
                ped.rel_pos[1] / 50.0,
                ped.rel_vel[0] / 3.0,
                ped.rel_vel[1] / 3.0,
                ped.visible,
            ])
        return np.array(parts)


def extras_vector(obs: Observation) -> np.ndarray:
    """LSTM side channel: reward, 2-dim velocity, previous speed action."""
    vx = obs.speed  # car frame: velocity is (v, 0)
    acc_scalar = float(obs.prev_accel.index(1.0)) - 1.0
    return np.array([obs.prev_reward / 10.0, vx / 15.0, 0.0, acc_scalar])


def build_observation(world: env.WorldState, path: Optional[planner.Path] = None) -> Observation:
    """The observation records; ``cross_track`` is the lateral offset from the
    straight route, or the cross-track error to ``path`` when one is given."""
    config = world.config
    car = world.car
    gx, gy = world.scene.car_goal
    rel_goal = to_car_frame(car, gx, gy)
    if path is None:
        cte = lateral_offset(world.scene, car.x, car.y)
    else:
        cte = cross_track_error(path, car.x, car.y)
    car_vel = (car.v * math.cos(car.heading), car.v * math.sin(car.heading))

    visible = []
    for ped in world.peds:
        dist = math.hypot(ped.x - car.x, ped.y - car.y)
        if dist > env.SENSE_RADIUS or env.is_occluded(world, ped):
            continue
        rel = to_car_frame(car, ped.x, ped.y)
        pvx = ped.speed * math.cos(ped.heading)
        pvy = ped.speed * math.sin(ped.heading)
        c, s = math.cos(car.heading), math.sin(car.heading)
        rvx = c * (pvx - car_vel[0]) + s * (pvy - car_vel[1])
        rvy = -s * (pvx - car_vel[0]) + c * (pvy - car_vel[1])
        visible.append((dist, PedObservation(rel, (rvx, rvy), 1.0)))
    visible.sort(key=lambda item: item[0])
    slots = [obs for _, obs in visible[: config.k_pedestrians]]
    while len(slots) < config.k_pedestrians:
        slots.append(PedObservation((0.0, 0.0), (0.0, 0.0), 0.0))

    onehot = [0.0, 0.0, 0.0]
    onehot[world.prev_action.acc] = 1.0
    return Observation(
        rel_goal=rel_goal,
        cross_track=cte,
        speed=car.v,
        prev_accel=tuple(onehot),
        prev_reward=world.prev_reward,
        pedestrians=tuple(slots),
    )


def observation_row(world: env.WorldState, path: Optional[planner.Path] = None) -> np.ndarray:
    """What ``env.build_observation`` returns: the encoder input, then the
    LSTM extras, built through the objects above."""
    obs = build_observation(world, path)
    return np.concatenate([obs.to_vector(), extras_vector(obs)])


# ---------------------------------------------------------------------------
# one env step, each helper taking the car frame and the reward terms anew


def to_car_frame(car: env.CarState, x: float, y: float) -> tuple[float, float]:
    dx, dy = x - car.x, y - car.y
    c, s = math.cos(car.heading), math.sin(car.heading)
    return c * dx + s * dy, -s * dx + c * dy


def rect_distance(car: env.CarState, x: float, y: float) -> float:
    """Distance from a point to the car's oriented footprint rectangle."""
    lx, ly = to_car_frame(car, x, y)
    dx = max(abs(lx) - env.CAR_LENGTH / 2.0, 0.0)
    dy = max(abs(ly) - env.CAR_WIDTH / 2.0, 0.0)
    return math.hypot(dx, dy)


def check_proximity(world: env.WorldState) -> list[str]:
    out = []
    for ped in world.peds:
        d = rect_distance(world.car, ped.x, ped.y)
        if d <= env.PED_RADIUS:
            out.append(env.HIT)
        elif d <= env.NEAR_MISS_MARGIN and world.car.v > 0:
            out.append(env.NEAR_MISS)
        else:
            out.append(env.CLEAR)
    return out


def car_collides(world: env.WorldState) -> bool:
    car = world.car
    for other in world.others:
        if rects_overlap(car.x, car.y, car.heading, env.CAR_LENGTH, env.CAR_WIDTH,
                         other.x, other.y, other.heading, env.CAR_LENGTH, env.CAR_WIDTH):
            return True
    for (bx0, by0, bx1, by1) in world.scene.obstacles:
        cx, cy = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
        if rects_overlap(car.x, car.y, car.heading, env.CAR_LENGTH, env.CAR_WIDTH,
                         cx, cy, 0.0, bx1 - bx0, by1 - by0):
            return True
    return False


def footprint_cost(world: env.WorldState) -> int:
    """Max value, under the car footprint (center and corners), of the cost
    map of the world's obstacle layout."""
    layout = cost_map(world.scene.obstacles)
    car = world.car
    c, s = math.cos(car.heading), math.sin(car.heading)
    pts = [(0.0, 0.0)]
    for sx in (-env.CAR_LENGTH / 2, env.CAR_LENGTH / 2):
        for sy in (-env.CAR_WIDTH / 2, env.CAR_WIDTH / 2):
            pts.append((sx, sy))
    return max(layout.cost_at(car.x + c * sx - s * sy, car.y + s * sx + c * sy)
               for sx, sy in pts)


def reward(world: env.WorldState, action: env.Action, goal_dist: float, prox: list[str],
           car_hit: bool) -> env.RewardBreakdown:
    """The reward terms by name, every inapplicable one left at its default."""
    car = world.car
    terms = {}
    if goal_dist <= env.GOAL_TOL:
        terms["goal"] = 200.0
    else:
        terms["not_goal"] = -goal_dist / 1000.0
    if env.HIT in prox or car_hit:
        beta = car.v / env.SPEED_LIMIT
        terms["hit"] = -100.0 * beta
        if car.v != 0:
            terms["obstacle"] = -float(max(footprint_cost(world), planner.COST_BLOCKED))
    if env.NEAR_MISS in prox:
        terms["near_miss"] = -10.0
    if car.v > env.SPEED_LIMIT:
        terms["over_speeding"] = -10.0
    if action.acc == env.DECELERATE and world.v_prev == 0:
        terms["braking"] = -1.0
    if action.steer != 0.0:
        terms["steer"] = -1.0
    return env.RewardBreakdown(**terms)


def step(world: env.WorldState, acc: int, path: Optional[planner.Path] = None):
    """What ``env.step`` computes, one helper call at a time: the car frame
    taken anew for the goal and each pedestrian, the reward by named terms
    and the observation through its records. The car steers 0.0, or, given a
    planned ``path``, by pure pursuit along it with the per-segment path
    queries, as the planner-driven environment did."""
    if world.done:
        raise UsageError("episode already finished")
    if acc not in (env.ACCELERATE, env.MAINTAIN, env.DECELERATE):
        raise UsageError(f"bad speed action {acc!r}")
    config = world.config
    car = world.car
    steer = 0.0
    if path is not None:
        steer = tracking_steering(path, (car.x, car.y, car.heading), car.v, WHEELBASE)
    action = env.Action(acc, steer)

    world.v_prev = car.v
    if acc == env.ACCELERATE:
        car.v = min(car.v + env.SPEED_STEP, env.V_MAX)
    elif acc == env.DECELERATE:
        car.v = max(car.v - env.SPEED_STEP, 0.0)

    car.x += car.v * math.cos(car.heading) * env.DT
    car.y += car.v * math.sin(car.heading) * env.DT
    car.heading = (car.heading + car.v / WHEELBASE * math.tan(steer) * env.DT) % (2 * math.pi)

    for ped in world.peds:
        gx, gy = ped.goal
        remaining = math.hypot(gx - ped.x, gy - ped.y)
        advance = min(ped.speed * env.DT, remaining)
        if remaining > 1e-9:
            ped.x += advance * (gx - ped.x) / remaining
            ped.y += advance * (gy - ped.y) / remaining
    for other in world.others:
        other.x += other.v * math.cos(other.heading) * env.DT
        other.y += other.v * math.sin(other.heading) * env.DT

    world.t += 1
    goal = world.scene.car_goal
    goal_dist = math.hypot(car.x - goal[0], car.y - goal[1])
    prox, car_hit = check_proximity(world), car_collides(world)
    breakdown = reward(world, action, goal_dist, prox, car_hit)
    if goal_dist <= env.GOAL_TOL:
        world.done, world.outcome = True, "goal"
    elif env.HIT in prox or car_hit:
        world.done, world.outcome = True, "collision"
    elif world.t >= config.max_steps:
        world.done, world.outcome = True, "timeout"

    world.prev_action = action
    world.prev_reward = breakdown.total
    row = observation_row(world, path)
    info = {"steer": steer, "proximity": prox, "outcome": world.outcome, "t": world.t}
    return world, row, breakdown, world.done, info
