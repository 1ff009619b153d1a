"""Minimal batched statevector simulator for small parametrized circuits.

Supports single-qubit Pauli rotations (RX/RY/RZ), a CZ entangler, per-qubit
Pauli-Z expectations, exact parameter-shift gradients, adjoint-mode
backpropagation, and two trajectory-style noise models (multiplicative gate
angle error and depolarizing Pauli kicks).

Rotation convention is exp(-i * theta * P / 2), so a single RY on |0> gives
<Z> = cos(theta). Qubit 0 is the most significant bit of a basis index.

Batch axis. The entry points ``run_circuit``, ``circuit_value``,
``adjoint_value_and_grad`` and ``param_shift_value_and_grad`` take a
:class:`Circuit` and ``x`` of shape ``(p,)`` or ``(B, p)`` (``theta`` is
shared by all rows) and evolve a ``(B, 2**n)`` state; a 1-d ``x`` gives the
unbatched return shapes. A gate list, its qubit count and its sublayer marks
are compiled into a circuit by :func:`compile_circuit`, once, by whoever
runs it: a critic compiles its own and passes it to every call. The circuit
holds every rotation's angle source and index; all <Z_i> come from one
``|psi|**2 @ sign.T`` with a Z-sign table per qubit count.

Forward pass. The compiled circuit splits into blocks separated by runs of
CZs; each CZ run is one +/-1 mask. Inside a block, everything that acts on
one qubit, its rotations and the depolarizing kicks that land on it, in
circuit order, multiplies into one per-row 2x2 matrix (M <- R M, and M <- P M
for a kick, also one that opens the block). All blocks' products are
computed at once, one rotation step across every (block, qubit) group at a
time, so the state sees one pass per group and one per CZ run, up to the
tail (below). At the defaults (4 qubits, 2 layers, 6 sublayers) that is 29
passes and 24 groups instead of 138 gates, with or without sublayer noise's
24 kicks. A 2x2 on one qubit maps amplitude k to a combination of k and k
with that qubit's bit flipped, so a pass is one gather along the amplitude
axis and a few elementwise products with per-row coefficients. The first
block acts on |0...0>, so its state is each row's tensor product of its
groups' first columns (a, b), multiplied in pass order onto the row's
phase: one product per group on a growing array, and 25 passes over the
state remain at the defaults.

Tail. The readout sees only |psi|^2, so the passes stop at the last group
that holds a rotation, and the CZ runs and kick-only groups after it, the
tail, never run. A +/-1 mask leaves |psi|^2 as it is, and so does a Z
kick; an X or Y kick on qubit q moves each amplitude k to k with q's bit
flipped, times a unit factor. So a row's final |psi|^2 at k is its |psi|^2
before the tail at k XOR f, where f, the row's tail flip, is the XOR of the
bits of the qubits its tail kicks with X or Y, and the readout reads it so,
with the same bits. The default circuit's tail is its last CZ run and,
under sublayer noise, the last sublayer's kick on each qubit (30 and 34
passes, and 28 groups under noise, when the tail ran). Its events are
still drawn, and the row's phase still counts its kicks, so the state
before the tail keeps its bits.

Each factor of a group matrix costs only what its form needs. A rotation
step applies, to the groups that turn about each axis at that step (fixed
when the circuit compiles), that axis's form: for RY a real cos/sin mix of
the matrix's columns, for RZ one diagonal phase, for RX the mix with -i; a
group with no rotation at that step passes through. A depolarizing kick
multiplies only the (event, row) pairs that drew X, Y or Z. Every complex
product keeps the operand order of the general SU(2) product (numpy's
complex multiply fuses a multiply-add, so the order can move a bit) and
goes to an array distinct from its operands, so the state and every
result have the bits of the general route; a matrix entry that is exactly
zero may differ from it in its sign.

Angles and shared steps. A call takes cos and sin of half of each distinct
angle value once: a fixed angle or a parameter once per call, a feature once
per input row (not once per re-upload), and per row only the trainable uses
that gate error jitters. The jittered angles go into the half-angle table in
(step, group, row) order, so a step at which every group turns by one reads
its per-row cos and sin as a slice of the tables; every other (step, group,
row) reads its value through an index. The leading rotation steps that all
rows share, up to the first jittered step or the first kick that follows a
rotation, multiply once per group, on (G,), and are broadcast to the rows;
kicks before a group's first rotation then multiply on the right of that
product (a Pauli factor only permutes and rephases, so the order changes no
bits). Per row only the remaining steps, the kicks and the state passes are
left.

Parameter shift. ``param_shift_value_and_grad`` runs, per input, one batch
of its unshifted circuit and one circuit per +/-pi/2 shift of each angle
use: 241 rows at the defaults. Each row differs from the first in one angle
only (and in its noise), so the rows share the input's values, each shifted
angle is one more value, and a row whose shifted angle falls among the
shared steps takes its own column of the shared product for that group.
A shifted jittered angle shifts in place in the table. Without noise every
step is shared; under gate error the three data rotations of each group of
the default circuit are, and its two trainable steps are slices.

Adjoint reverse pass. ``adjoint_value_and_grad`` runs the same passes
backwards on psi and lambda = O psi at once, undoing each CZ run with its
mask and each group with the adjoint of the forward call's 2x2. Before a
group is undone, it reads its Bloch vector: the real 3-vector
Im <lambda| P |psi> for P = X, Y, Z on its qubit, three per-row sums over
the amplitudes. Gates on the block's other qubits commute with the group,
so one read serves a whole block (up to 4 qubits; larger circuits read in
chunks, which bounds the read's copies of the state). The derivative of a
rotation about P is the P component of its group's vector just after it,
and undoing the rotation turns the other two components by its angle, so
one loop over rotation steps, last step first and all groups at once, gives
every derivative from the vectors with no further state pass. The walk back
ends at the read of the chunk that holds group 0, as nothing reads what it
would undo after it, and it starts before the tail's CZ runs: O is
diagonal, so it commutes with them, and a +/-1 mask undone is the bits it
was. At the defaults that is 25 passes and 6 reads back instead of 138
gates.

Noise. Under noise every row is its own trajectory. One simulation call
draws from ``rng`` as whole arrays, in this order:

1. gate error: U(0, 1) of shape (rows, trainable-rotation applications),
   in circuit order (``perturb_gate_params``);
2. depolarizing: the coins, U(0, 1) of shape (rows, events), then the Pauli
   choices, integers in [0, 3) for X, Y, Z of the same shape. An event
   kicks where its coin falls under p; each row's number of kicks gives the
   factors i that multiply into one phase per row, its tail events give its
   tail flip, and one ``np.flatnonzero`` of the coins under p lists the
   other (row, event) pairs that kick.

Depolarizing events follow circuit order: every qubit 0..n-1 after each
gate the circuit's sublayer marks name. Parameter shift makes one call per
input, so one input's draws are made before the next input's.

Workspace. A call writes its large arrays with ``out=`` into a workspace
(:class:`_Workspace`): the (2**n, B) state, its partner amplitudes and the
coefficient gather of a pass, the (G, 4, B) group matrices, the per-row
pairs of the rotation steps with their temporaries, the shared product's
columns, the (steps, G, B) value index with its cos and sin gathers, the
half-angle table with its cos and sin, the gate-error jitter and
depolarizing coins, the indices, factors and products of the drawn kicks
(sized by their count), the gather index of the tail flips and every array
of the adjoint reverse pass. Each name holds one flat buffer, sized for the
largest request so far, and a call works on a contiguous view of its
front, so a call of any row count up to that size reuses it. One workspace
is kept per thread and serves every call, of any circuit, noise and row
count, so a run of calls allocates (and makes the system fault in) those
arrays once, not each time. What depends on the circuit alone is kept on
it, read-only: the :class:`_Plan` of a call of one input (its angle table's
layout, its (steps, G, B) value index, the columns of its shared product
and the slices of its steps), one for a value and one for a
parameter-shift batch, which only whether depolarizing noise and gate error
are on change, and the 0/1 matrices that sum the adjoint's angle
derivatives into parameters and features. An array a call returns is
always its own copy, never a view of the workspace, so a later call cannot
change it.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import UsageError, check_finite

MAX_QUBITS = 12

ROTATIONS = ("rx", "ry", "rz")


@dataclass(frozen=True)
class GateOp:
    """One gate of a circuit's gate list.

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
            raise UsageError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cz":
            if self.control is None or self.control == self.target:
                raise UsageError("cz needs distinct control/target")
        else:
            if self.control is not None:
                raise UsageError("rotations take no control qubit")
            if self.source not in (None, "data", "param"):
                raise UsageError(f"bad angle source {self.source!r}")
            if self.source is not None and self.index is None:
                raise UsageError("data/param gates need an index")
            if self.source is None and self.angle is None:
                raise UsageError("fixed-angle rotation needs an angle")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for trajectory simulation.

    gate_error: multiplicative angle jitter theta -> theta*(1 + scale*U(0,1))
    on trainable rotation angles, re-sampled at every gate application.
    depolarizing: per-qubit Pauli kick with probability p, injected on every
    qubit at each sublayer boundary.
    """

    gate_error: Optional[float] = None  # scale, paper default 0.01
    depolarizing: Optional[float] = None  # p in [0, 1]

    def __post_init__(self):
        check_finite(self, ("gate_error",))
        if self.gate_error is not None and not self.gate_error >= 0:
            raise UsageError("gate_error scale must be >= 0")
        if self.depolarizing is not None and not 0.0 <= self.depolarizing <= 1.0:
            raise UsageError("depolarizing p must be in [0, 1]")

    @property
    def enabled(self) -> bool:
        return self.gate_error is not None or self.depolarizing is not None


# ---------------------------------------------------------------------------
# kernels over a (B, 2**n) state


def _check_n(n_qubits: int):
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise UsageError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")


@functools.lru_cache(maxsize=MAX_QUBITS)
def _tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Partner amplitudes and Z signs of each qubit.

    ``flip[q, k]`` is basis state k with qubit q's bit flipped, so
    ``(X_q psi)[k] = psi[flip[q, k]]``; ``sign[q, k]`` is the Z eigenvalue of
    basis state k on qubit q.
    """
    k = np.arange(2**n_qubits)
    weight = 1 << (n_qubits - 1 - np.arange(n_qubits))[:, None]
    flip = k ^ weight
    sign = np.where(k & weight, -1.0, 1.0)
    for arr in (flip, sign):
        arr.flags.writeable = False
    return flip, sign


def _cz_mask(control: int, target: int, n_qubits: int) -> np.ndarray:
    _, sign = _tables(n_qubits)
    return np.where((sign[control] < 0) & (sign[target] < 0), -1.0, 1.0)


def _expect(psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """All <Z_i> per row: |psi|^2 @ sign.T, shape (B, n)."""
    _, sign = _tables(n_qubits)
    return (psi.real**2 + psi.imag**2) @ sign.T


def _check_qubit(qubit: int, n: int):
    if not 0 <= qubit < n:
        raise UsageError(f"qubit index {qubit} out of range for {n} qubits")


def perturb_gate_params(theta: np.ndarray, rng: np.random.Generator, scale: float = 0.01,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Multiplicative angle jitter theta_k -> theta_k * (1 + scale * U(0,1)),
    one draw per entry of ``out`` if given (of a shape theta broadcasts to,
    such as rows of theta), else of theta."""
    jitter = rng.random(np.shape(theta)) if out is None else rng.random(out=out)
    jitter *= scale
    jitter += 1.0
    jitter *= theta
    return jitter


# ---------------------------------------------------------------------------
# compiled circuits

# exp(-i a P / 2) = cos(a/2) I + sin(a/2) (-iP) lies in SU(2), so it is the
# matrix [[alpha, -conj(beta)], [beta, conj(alpha)]], and so is a product of
# such matrices: a per-row 2x2 is two complex numbers (a, b), its first column.
# With c and s the half-angle cos and sin, alpha = c + s * u and beta = s * v
# for the (u, v) of -iP below, for axes 0, 1, 2 = X, Y, Z: (c, -i s) for RX,
# (c, s) for RY and (c - i s, 0) for RZ.
_SU2 = ((0.0, -1j), (0.0, 1.0), (-1j, 0.0))
# A Pauli kick is i times the SU(2) form of -iP, with rows 0..2 for X, Y, Z;
# the factors i multiply into one phase per row, i ** (number of kicks).
_KICK_ALPHA = np.array([0.0, 0.0, -1j])
_KICK_BETA = np.array([-1j, 1.0, 0.0])
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])
_READ_AMPLITUDES = 64  # per row, in the partner copies of one adjoint read


@dataclass(frozen=True)
class _Blocks:
    """A circuit fused into blocks, under one depolarizing setting.

    The circuit splits into blocks separated by runs of CZs, and each CZ run
    multiplies into one +/-1 mask. Inside a block, gates on different qubits
    commute, so everything that acts on one qubit (its rotations and its
    depolarizing kicks, in circuit order) multiplies into one per-row 2x2
    matrix, called a group. ``passes`` lists in circuit order
    ``(group, index, flip)`` for one group's 2x2 on its qubit (``index`` picks
    each amplitude's diagonal and off-diagonal coefficient out of the group's
    [a, conj(a), b, -conj(b)], and ``flip`` its partner amplitude), and
    ``(None, mask, None)`` for a CZ run. The first block, the passes before
    the first CZ run, acts on |0...0> and so leaves a product state: its
    groups are groups 0 .. F - 1, one per qubit, and ``first`` lists their
    qubits in pass order.

    Group g's matrix is the product of its rotations, step s = 0 .. S-1
    reading angle column ``cols[s, g]`` about axis ``axes[s, g]`` (0, 1, 2 for
    X, Y, Z); a group with fewer rotations has axis -1 and reads the zero
    angle in column ``n_rotations`` for the rest. ``turns[s]`` groups step s by
    form: ``(((axis, groups), ...), still)``, the groups that turn about each
    axis and those with no rotation there (None if there are none), each a
    slice when consecutive. Angle column c is step ``step_of[c]`` of group
    ``group_of[c]``. Depolarizing event e multiplies onto group
    ``kick_group[e]`` in round ``kick_round[e]``; round r follows rotation step
    ``rounds[r]`` (-1: precedes the group's first rotation, so it multiplies
    on the right), the rounds listed in the order they apply, and a round
    kicks each group at most once. No kick falls between two of the first
    ``kick_free`` steps.

    The passes end with the last group that holds a rotation. The CZ runs
    and kick-only groups after it, the tail, are left out: the readout
    absorbs them (see "Tail" in the module docstring). Their events
    ``tail_events`` (a slice when consecutive) have group and round -1, and
    kick the qubits whose bits are ``tail_bits``.

    ``param_order`` lists the trainable angle columns (by their position in
    ``Circuit.param_cols``) in (step, group) order; ``trainable[s]`` is the
    rank there of step s's first if every group turns by a trainable angle
    at step s, else None.

    For the adjoint reverse pass, a block's groups read their Bloch vectors in
    one or more chunks, and ``reads[g]`` is set for the last group g of each:
    ``(groups, flips, xy)``, the chunk's groups as a slice and, per group, its
    qubit's partner amplitudes and the weights of its X and Y sums over the
    amplitudes, 1 and the Z sign. A group's Bloch vector has rows
    ``k * G + g``, k = 0..2 for X, Y, Z; ``axis_rows[s, :, g]`` lists the rows
    of its step-s axis and of the two after it, cyclically (X for the
    identity).
    """

    passes: tuple
    first: tuple
    reads: dict
    cols: np.ndarray  # (S, G)
    axes: np.ndarray  # (S, G)
    turns: tuple  # (S,)
    step_of: np.ndarray  # (rotations,)
    group_of: np.ndarray  # (rotations,)
    axis_rows: np.ndarray  # (S, 3, G)
    kick_group: np.ndarray  # (events,)
    kick_round: np.ndarray  # (events,)
    rounds: tuple
    kick_free: int
    n_events: int
    tail_events: object  # slice or (tail events,)
    tail_bits: np.ndarray  # (tail events,)
    param_order: np.ndarray  # (trainable columns,)
    trainable: tuple  # (S,)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A gate list compiled for batched simulation on ``n`` qubits by
    :func:`compile_circuit`; every entry point takes one.

    ``blocks[key]`` is the fused circuit (:class:`_Blocks`) without
    depolarizing events (``key=None``), which the adjoint reverse pass walks
    backwards, or with those after each sublayer mark (``key="sublayer"``),
    which the marks shape alone, so one circuit serves every route. Angle
    columns number the rotations in circuit order; ``data_cols``/``data_index``
    and ``param_cols``/``param_index`` map data and trainable columns to their
    source entries. A call's angle values (see :func:`_angle_values`) hold a
    zero, then ``fixed_angles``, then theta at ``params`` and the input at
    ``features`` (the entries some gate uses), and column c reads value
    ``value_index[c]`` in its first row. ``sums`` holds, per input width,
    the 0/1 matrices that sum the adjoint's angle-column derivatives into
    theta and into the features (see :func:`_source_sums`). ``plans`` holds
    the :class:`_Plan` of a call of one input per (``blocks`` key, gate
    error on, parameter-shift batch): nothing else changes it, so
    :func:`_forward` builds it on the first such call, read-only.
    """

    n: int
    n_rotations: int  # angle columns, one per rotation
    blocks: dict
    fixed_angles: np.ndarray
    data_cols: np.ndarray
    data_index: np.ndarray
    param_cols: np.ndarray
    param_index: np.ndarray
    params: np.ndarray
    features: np.ndarray
    value_index: np.ndarray  # (rotations + 1,), the last column the identity
    sums: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)


def _span(indices: np.ndarray):
    """``indices`` as a slice if they are consecutive, else as they are."""
    if indices.size and indices[-1] - indices[0] == indices.size - 1:
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


def _selection(indices: np.ndarray, size: int):
    """``indices`` among ``size`` as None if they are all, else as :func:`_span`
    gives them."""
    return None if indices.size == size else _span(indices)


def _turns(axes: np.ndarray) -> tuple:
    """One step's groups by form (see ``_Blocks.turns``), from their axes."""
    turning = tuple((axis, _selection(np.flatnonzero(axes == axis), axes.size))
                    for axis in range(3) if (axes == axis).any())
    still = np.flatnonzero(axes < 0)
    return turning, _selection(still, axes.size) if still.size else None


def _fuse(gates: tuple, steps: list, events: tuple, n_qubits: int, n_rotations: int,
          param_cols: list) -> _Blocks:
    """Fuse a circuit, with a depolarizing event on each qubit that ``events[pos]``
    lists after gate ``pos``, into blocks (see :class:`_Blocks`). ``steps[pos]``
    is ``(col, None)`` for a rotation, with its angle column, and
    ``(None, mask)`` for a CZ; ``param_cols`` are the trainable columns."""
    flip, sign = _tables(n_qubits)
    bits = (sign < 0).astype(np.intp)
    rotations: list = []  # per group: (col, kind) of each rotation
    qubits: list = []  # per group: its qubit
    kicks: list = []  # per event: (group, step, k), its group's k-th kick after that step
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
            qubits.append(qubit)
            passes.append((block[qubit], np.stack([bits[qubit], 3 - bits[qubit]]),
                           flip[qubit]))
        return block[qubit]

    for gate, (col, mask), targets in zip(gates, steps, events):
        if col is None:
            run = mask if run is None else run * mask
            block.clear()
        else:
            rotations[group(gate.target)].append((col, gate.kind))
        for qubit in targets:
            g = group(qubit)
            step = len(rotations[g]) - 1
            kicks.append((g, step, nth[g, step]))
            nth[g, step] += 1
    if run is not None:
        passes.append((None, run[:, None], None))
    # the tail: the CZ runs and kick-only groups after the last group that
    # holds a rotation, which the readout absorbs; groups are numbered in
    # pass order, so the tail's come last
    body = max((pos + 1 for pos, (g, _, _) in enumerate(passes) if g is not None and rotations[g]),
               default=0)
    passes = passes[:body]
    n_groups = sum(g is not None for g, _, _ in passes)
    tail = [e for e, (g, _, _) in enumerate(kicks) if g >= n_groups]
    tail_bits = np.array([1 << (n_qubits - 1 - qubits[kicks[e][0]]) for e in tail], dtype=np.intp)
    rotations, qubits = rotations[:n_groups], qubits[:n_groups]

    shape = (max(map(len, rotations), default=0), len(rotations))
    cols = np.full(shape, n_rotations, dtype=np.intp)
    step_of, group_of = np.zeros((2, n_rotations), dtype=np.intp)
    axes = np.full(shape, -1, dtype=np.intp)
    for g, ops in enumerate(rotations):
        for s, (col, kind) in enumerate(ops):
            cols[s, g] = col
            step_of[col], group_of[col] = s, g
            axes[s, g] = "xyz".index(kind[1])
    axis_rows = np.stack([(np.maximum(axes, 0) + k) % 3 * shape[1] + np.arange(shape[1])
                          for k in range(3)], axis=1)
    # rounds in the order they apply: before a group's first rotation the
    # kicks multiply on the right, so the last applies first
    rounds = sorted({(step, k) for g, step, k in kicks if g < n_groups},
                    key=lambda round_: (round_[0], -round_[1] if round_[0] < 0 else round_[1]))
    number = {round_: r for r, round_ in enumerate(rounds)}
    # trainable columns in (step, group) order, and the rank there of each
    # step's first if every group turns by a trainable angle at that step
    params = {col: j for j, col in enumerate(param_cols)}
    order, trainable = [], []
    for step in cols.tolist():
        trainable.append(len(order) if all(col in params for col in step) else None)
        order += [params[col] for col in step if col in params]
    # A read copies each of its groups' partner amplitudes, so a block's groups
    # (numbered consecutively) read in chunks whose copies hold at most
    # _READ_AMPLITUDES amplitudes per row, or one group's: one read per block
    # for small circuits, and never more than a state's worth of copies.
    per_read = max(1, _READ_AMPLITUDES >> n_qubits)
    reads = {}
    for in_block, entries in itertools.groupby(passes, key=lambda entry: entry[0] is not None):
        if in_block:
            ids = [entry[0] for entry in entries]
            for first in range(ids[0], ids[-1] + 1, per_read):
                last = min(first + per_read, ids[-1] + 1) - 1
                on = qubits[first : last + 1]
                reads[last] = (slice(first, last + 1), flip[on],
                               np.stack([np.ones_like(sign[on]), sign[on]], axis=1))
    kick_free = min((step + 1 for step, _ in rounds if step >= 0), default=shape[0])
    opening = sum(1 for _ in itertools.takewhile(lambda entry: entry[0] is not None, passes))
    kick_group = [g if g < n_groups else -1 for g, _, _ in kicks]
    return _Blocks(passes=tuple(passes), first=tuple(qubits[:opening]), reads=reads, cols=cols,
                   axes=axes, turns=tuple(map(_turns, axes)), step_of=step_of,
                   group_of=group_of, axis_rows=axis_rows,
                   kick_group=np.array(kick_group, dtype=np.intp),
                   kick_round=np.array([number[step, k] if g >= 0 else -1
                                        for g, (_, step, k) in zip(kick_group, kicks)], dtype=np.intp),
                   rounds=tuple(step for step, _ in rounds), kick_free=kick_free,
                   n_events=len(kicks), tail_events=_span(np.array(tail, dtype=np.intp)),
                   tail_bits=tail_bits, param_order=np.array(order, dtype=np.intp),
                   trainable=tuple(trainable))


def compile_circuit(gates: Sequence[GateOp], n_qubits: int,
                    sublayer_marks: Sequence[int] = ()) -> Circuit:
    """Compile ``gates`` on ``n_qubits`` for the entry points. ``sublayer_marks``
    lists gate positions after which per-sublayer depolarizing events are
    injected on every qubit."""
    _check_n(n_qubits)
    gates = tuple(gates)
    steps = []
    sources: dict = {None: ([], []), "data": ([], []), "param": ([], [])}
    marked = frozenset(sublayer_marks)
    per_sublayer = []
    for pos, gate in enumerate(gates):
        _check_qubit(gate.target, n_qubits)
        if gate.kind == "cz":
            _check_qubit(gate.control, n_qubits)
            steps.append((None, _cz_mask(gate.control, gate.target, n_qubits)))
        else:
            col = sum(len(cols) for cols, _ in sources.values())
            cols, values = sources[gate.source]
            cols.append(col)
            values.append(gate.angle if gate.source is None else gate.index)
            steps.append((col, None))
        per_sublayer.append(tuple(range(n_qubits)) if pos in marked else ())
    (fixed_cols, fixed), (data_cols, data_idx), (param_cols, param_idx) = (
        sources[None], sources["data"], sources["param"])
    n_rotations = sum(g.kind != "cz" for g in gates)
    events = {None: ((),) * len(gates), "sublayer": tuple(per_sublayer)}
    param_idx, data_idx = np.array(param_idx, dtype=np.intp), np.array(data_idx, dtype=np.intp)
    params, features = np.unique(param_idx), np.unique(data_idx)
    value_index = np.zeros(n_rotations + 1, dtype=np.intp)
    value_index[fixed_cols] = 1 + np.arange(len(fixed_cols))
    value_index[param_cols] = 1 + len(fixed) + np.searchsorted(params, param_idx)
    value_index[data_cols] = 1 + len(fixed) + len(params) + np.searchsorted(features, data_idx)
    return Circuit(
        n=n_qubits,
        n_rotations=n_rotations,
        blocks={key: _fuse(gates, steps, kicked, n_qubits, n_rotations, param_cols)
                for key, kicked in events.items()},
        fixed_angles=np.array(fixed, dtype=float),
        data_cols=np.array(data_cols, dtype=np.intp),
        data_index=data_idx,
        param_cols=np.array(param_cols, dtype=np.intp),
        param_index=param_idx,
        params=params,
        features=features,
        value_index=value_index,
    )


def _rows(x) -> tuple[np.ndarray, bool]:
    """(B, p) view of the input and whether it was a single vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise UsageError(f"inputs must have shape (p,) or (B, p), got {x.shape}")
    return np.atleast_2d(x), x.ndim == 1


_NO_SHIFTS = (np.zeros(0, dtype=np.intp),) * 3


def _angle_values(circuit: Circuit, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The call's noise-free angle values: a zero, ``circuit.fixed_angles``,
    theta at ``circuit.params`` and each row's features at
    ``circuit.features``, so a fixed angle and a parameter are one value for
    all rows and a feature one per row of ``x``."""
    if circuit.data_index.size and circuit.data_index.max() >= x.shape[1]:
        raise UsageError(f"data index {circuit.data_index.max()} outside feature vector "
                          f"of length {x.shape[1]}")
    if circuit.param_index.size and circuit.param_index.max() >= len(theta):
        raise UsageError(f"param index {circuit.param_index.max()} outside theta "
                          f"of length {len(theta)}")
    values = np.concatenate([[0.0], circuit.fixed_angles, theta[circuit.params],
                             x[:, circuit.features].ravel()])
    if not np.isfinite(values).all():  # training diverged: a runtime fault, not misuse
        raise ValueError("rotation angle must be finite")
    return values


def _check_params_used(circuit: Circuit, theta: np.ndarray) -> None:
    """Gradients are taken for every parameter, so each must feed some gate."""
    if circuit.params.size < len(theta):  # else each is used, or one is out of range
        unused = sorted(set(range(len(theta))) - set(circuit.params.tolist()))
        raise UsageError(f"parameters never used by any gate: {unused}")


class _Workspace:
    """Named arrays that calls write with ``out=`` (see "Workspace" in the
    module docstring)."""

    def __init__(self):
        self.arrays: dict = {}  # name -> its flat buffer
        self.views: dict = {}  # name -> the last two arrays handed out from it

    def array(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """A contiguous array of this shape and dtype at the front of the
        buffer ``name``, holding whatever its last writer left there; the
        buffer is replaced by one of this size if it is smaller or of
        another dtype. Two requests of one name share memory, so a call is
        done with the first before it makes the second. A name's last two
        views are reused, so calls that alternate between two row counts (a
        parameter-shift batch and a one-row value) carve no new ones."""
        views = self.views.get(name, ())
        for view in views:
            if view.shape == shape and view.dtype == dtype:
                return view
        size = math.prod(shape)
        buffer = self.arrays.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self.arrays[name] = np.empty(size, dtype)
            views = ()
        view = buffer[:size].reshape(shape)
        self.views[name] = (view, *views[:1])
        return view


# .workspace: this thread's kept workspace
_retained = threading.local()


def _workspace() -> _Workspace:
    """This thread's kept workspace, which every call runs in."""
    ws = getattr(_retained, "workspace", None)
    if ws is None:
        ws = _retained.workspace = _Workspace()
    return ws


def _evolve(circuit: Circuit, x: np.ndarray, theta: np.ndarray, noise: Optional[NoiseSpec] = None,
            rng: Optional[np.random.Generator] = None,
            shift_cols: Optional[np.ndarray] = None) -> np.ndarray:
    """The (B, 2**n) states the readout sees, one trajectory per row: the
    final states up to a phase on each amplitude. They are the states
    :func:`_forward` leaves before the tail, each row's amplitudes permuted by
    its tail flip, as a copy of the workspace's (for one row psi.T is already
    contiguous, so np.ascontiguousarray would return a view of it)."""
    psi, _, _, _, flips = _forward(circuit, x, theta, noise, rng, shift_cols)
    if flips is None:
        return psi.T.copy()
    # row r's amplitude k is psi[k ^ flips[r], r]
    rows = psi.shape[1]
    index = np.bitwise_xor(flips[:, None], np.arange(len(psi)),
                           out=_workspace().array("flipped index", (rows, len(psi)), np.intp))
    index *= rows
    index += np.arange(rows)[:, None]
    return psi.take(index, mode="clip")


def _forward(circuit: Circuit, x: np.ndarray, theta: np.ndarray, noise: Optional[NoiseSpec] = None,
             rng: Optional[np.random.Generator] = None, shift_cols: Optional[np.ndarray] = None):
    """The forward pass of one call: the amplitude-major (2**n, B) state it
    leaves before the tail, which stays in this thread's workspace, the cos
    and sin tables of its half angles (see :class:`_Plan`), its (steps, G, B)
    step index, its group matrices (see :func:`_block_matrices`) and each
    row's tail flip (see :func:`_kicks`), or None if no row flips.

    Row r runs input ``x[r]``. With ``shift_cols``, the circuit's trainable
    angle columns and then its data columns (U in all), ``x`` is one input
    and the rows are its parameter-shift batch: row 0 as is, row 1 + k with
    pi/2 added to column ``shift_cols[k]`` and row 1 + U + k with -pi/2.
    Draws the noise arrays in the order the module docstring fixes; gate
    error scales the trainable angles before the shifts are added.
    """
    values = _angle_values(circuit, x, theta)
    ws = _workspace()
    gate_error = depolarizing = None
    if noise is not None and noise.enabled:
        if rng is None:
            raise UsageError("noise simulation requires an rng stream")
        gate_error, depolarizing = noise.gate_error, noise.depolarizing
    key, jitter = None if depolarizing is None else "sublayer", gate_error is not None
    blocks = circuit.blocks[key]
    if len(x) == 1:  # kept on the circuit, read-only (see Circuit)
        plan = circuit.plans.get((key, jitter, shift_cols is not None))
        if plan is None:
            plan = circuit.plans[key, jitter, shift_cols is not None] = _plan(
                circuit, key, jitter, 1, len(values), shift_cols, ws)
    else:
        plan = _plan(circuit, key, jitter, len(x), len(values), None, ws)
    rows = plan.rows
    jittered, kicks, phase, flips = None, (), 1.0, None
    if jitter:
        shape = (rows, circuit.param_cols.size)
        jittered = perturb_gate_params(theta.take(circuit.param_index), rng, gate_error,
                                       ws.array("jitter", shape))
    if depolarizing is not None:
        shape = (rows, blocks.n_events)
        coins = rng.random(shape, out=ws.array("coins", shape))
        paulis = rng.integers(3, size=shape)  # X, Y, Z; integers takes no out
        kicked = np.less(coins, depolarizing, out=ws.array("kicked", shape, bool))
        kicks, phase, flips = _kicks(blocks, kicked, paulis, ws)
    trig = _half_angles(values, jittered, plan, ws)
    matrices = _block_matrices(blocks, trig, kicks, ws, plan)
    psi = _product_state(blocks, circuit.n, matrices, phase, ws)
    _run_passes(blocks.passes[len(blocks.first) :], matrices, psi, ws)
    return psi, trig, plan.index, matrices, flips


def _kicks(blocks: _Blocks, kicked: np.ndarray, paulis: np.ndarray,
           ws: _Workspace) -> tuple[list, np.ndarray, Optional[np.ndarray]]:
    """The drawn Paulis ``paulis`` (rows, events), 0, 1, 2 for X, Y, Z, of the
    (row, event) pairs ``kicked`` whose coin fell under p: per round of
    ``blocks.rounds``, the ``(pairs, alpha, beta)`` of its kicks, each pair a
    flat index into a (G, rows) array; each row's phase i ** (its number of
    kicks, the tail's too); and each row's tail flip, the XOR of the bits of
    the qubits that its tail kicks with X or Y, or None if no row flips. The
    per-kick arrays are the workspace's; ``kicked`` is left with no tail kick."""
    rows = len(kicked)
    counts = kicked.sum(axis=1)
    counts &= 3
    phase = _I_POWERS[counts]
    flips, tail = None, blocks.tail_events
    if blocks.tail_bits.size and kicked[:, tail].any():
        flipped = kicked[:, tail] & (paulis[:, tail] < 2)
        if flipped.any():
            flips = np.bitwise_xor.reduce(flipped * blocks.tail_bits, axis=1)
        kicked[:, tail] = False
    at = np.flatnonzero(kicked)
    if not at.size:
        return [], phase, flips
    row, events, pairs = ws.array("kick indices", (3,) + at.shape, np.intp)
    np.divmod(at, blocks.n_events, out=(row, events))
    blocks.kick_group.take(events, out=pairs, mode="clip")
    pairs *= rows
    pairs += row
    drawn = paulis.take(at, out=row, mode="clip")
    alpha, beta = ws.array("kick factors", (2,) + at.shape, complex)
    kicks = (pairs, _KICK_ALPHA.take(drawn, out=alpha, mode="clip"),
             _KICK_BETA.take(drawn, out=beta, mode="clip"))
    if len(blocks.rounds) <= 1:
        return [kicks], phase, flips
    rounds = blocks.kick_round.take(events, out=row, mode="clip")
    order = np.argsort(rounds, kind="stable")
    bounds = np.searchsorted(rounds.take(order, out=events, mode="clip"),
                             np.arange(1, len(blocks.rounds)))
    kicks = [arr.take(order, out=ws.array(f"sorted kick {name}", at.shape, arr.dtype), mode="clip")
             for name, arr in zip(("pairs", "alpha", "beta"), kicks)]
    return list(zip(*(np.split(arr, bounds) for arr in kicks))), phase, flips


class _Head(NamedTuple):
    """The leading rotation steps every row shares (:func:`_shared_steps`),
    as one product over columns: the groups' own, after one column per
    shifted entry that falls among those steps. Column c reads value
    ``index[s, c]`` at step s, and ``turns[s]`` groups the columns by form
    (see ``_Blocks.turns``); shifted column k belongs to group ``groups[k]``
    in row ``rows[k]``."""

    index: np.ndarray  # (steps, shifted + G)
    turns: tuple
    groups: np.ndarray
    rows: np.ndarray


class _Plan(NamedTuple):
    """What a call's angle values do not change: its angle table's layout,
    its step index and its :class:`_Head`. A call of one input, a value or
    a parameter-shift batch, keeps its plan on the circuit (see Circuit);
    any other builds its own.

    The half-angle table holds the call's values, then, under gate error,
    each row's jittered trainable angles in (step, group, row) order, which
    ``jitter`` gathers from the (rows, trainable uses) draws, then one value
    per shifted entry that ``moves`` makes: the value at ``sources[i]``
    plus ``addends[i]``. Jittered trainable entries shift in place:
    ``inplace`` adds its ``addends[i]`` to entry ``positions[i]``. Row r of
    angle column c reads entry ``columns[c] + stride[c] * r``, except the
    moved entries: ``shifted = (cols, rows, values)`` gives row ``rows[i]``
    of column ``cols[i]`` entry ``values[i]``. ``index[s, g, r]`` is the entry
    that group g reads at step s in row r. Each step after the head reads
    its cos and sin as the slice ``trig[k]`` of the tables if every group
    turns by a jittered angle there, else as the next step of the gather of
    ``gather``.
    """

    rows: int
    columns: np.ndarray  # (rotations + 1,)
    stride: np.ndarray  # (rotations + 1,)
    shifted: tuple
    jitter: Optional[np.ndarray]  # (trainable uses, rows)
    moves: tuple  # (sources, addends)
    inplace: tuple  # (positions, addends)
    index: np.ndarray  # (steps, G, rows)
    head: _Head
    trig: tuple  # (steps after the head,)
    gather: Optional[np.ndarray]  # (gathered steps, G, rows)


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_MOVES = (_NO_ROWS, np.zeros(0))


def _plan(circuit: Circuit, key: Optional[str], jitter: bool, inputs: int, n_values: int,
          shift_cols: Optional[np.ndarray], ws: _Workspace) -> _Plan:
    """The :class:`_Plan` of a call on ``circuit.blocks[key]``, under gate
    error if ``jitter``, of ``inputs`` rows of input and ``n_values`` angle
    values, or with ``shift_cols`` of a one-input parameter-shift batch (see
    :func:`_forward`). A plan of one input is read-only and owns its step
    index; another's stays in the workspace."""
    blocks = circuit.blocks[key]
    rows = inputs if shift_cols is None else 1 + 2 * len(shift_cols)
    columns = circuit.value_index.copy()
    stride = np.zeros(circuit.n_rotations + 1, dtype=np.intp)
    if inputs != 1:
        stride[circuit.data_cols] = circuit.features.size
    size, gather_jitter = n_values, None
    if jitter:
        order = blocks.param_order
        columns[circuit.param_cols] = n_values + np.argsort(order) * rows
        stride[circuit.param_cols] = 1
        gather_jitter = order[:, None] + order.size * np.arange(rows)
        size += order.size * rows
    shifted, moves, inplace = _NO_SHIFTS, _NO_MOVES, _NO_MOVES
    if shift_cols is not None:
        cols, shifted_rows = np.tile(shift_cols, 2), np.arange(1, rows)  # row 1 + i shifts cols[i]
        addends = np.repeat([np.pi / 2, -np.pi / 2], len(shift_cols))
        sources = columns[cols] + stride[cols] * shifted_rows
        own = np.zeros(circuit.n_rotations + 1, dtype=bool)
        own[circuit.param_cols] = jitter
        own = own[cols]
        inplace, moves = (sources[own], addends[own]), (sources[~own], addends[~own])
        shifted = (cols[~own], shifted_rows[~own], size + np.arange(moves[0].size))
    shared = _shared_steps(blocks, stride)
    index = _step_index(blocks, columns, stride, shifted, rows, ws)
    if inputs == 1:
        index = index.copy()
    width = blocks.cols.shape[1] * rows
    trig = tuple(None if first is None or not jitter
                 else slice(n_values + first * rows, n_values + first * rows + width)
                 for first in blocks.trainable[shared:])
    gathered = [shared + k for k, part in enumerate(trig) if part is None]
    gather = None
    if gathered:
        gather = index[shared:] if len(gathered) == len(trig) else index[gathered]
    plan = _Plan(rows, columns, stride, shifted, gather_jitter, moves, inplace, index,
                 _head(blocks, shared, columns, shifted), trig, gather)
    if inputs == 1:
        for arr in (plan.columns, plan.stride, *plan.shifted, plan.jitter, *plan.moves,
                    *plan.inplace, plan.index, plan.head.index, plan.gather):
            if arr is not None:
                arr.flags.writeable = False
    return plan


def _head(blocks: _Blocks, shared: int, columns: np.ndarray, shifted: tuple) -> _Head:
    """The :class:`_Head` of the first ``shared`` steps of a call whose
    columns and shifted entries are ``columns`` and ``shifted`` (see
    :class:`_Plan`)."""
    index = columns[blocks.cols[:shared]]
    cols, rows, values = shifted
    steps = blocks.step_of[cols]
    inside = steps < shared
    if not cols.size or not inside.any():
        return _Head(index, blocks.turns[:shared], _NO_ROWS, _NO_ROWS)
    groups = blocks.group_of[cols[inside]]
    own = index[:, groups]
    own[steps[inside], np.arange(groups.size)] = values[inside]
    axes = np.concatenate([blocks.axes[:shared, groups], blocks.axes[:shared]], axis=1)
    return _Head(np.concatenate([own, index], axis=1), tuple(map(_turns, axes)), groups,
                 rows[inside])


def _half_angles(values: np.ndarray, jittered: Optional[np.ndarray], plan: _Plan,
                 ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Cos and sin of half of each entry of a call's angle table (see
    :class:`_Plan`): its values of :func:`_angle_values`, each row's
    ``jittered`` trainable angles and the shifted entries."""
    sources, addends = plan.moves
    size = len(values) + (0 if jittered is None else jittered.size)
    half = ws.array("half", (size + sources.size,))
    half[: len(values)] = values
    if jittered is not None:
        jittered.take(plan.jitter, out=half[len(values) : size].reshape(plan.jitter.shape),
                      mode="clip")
    positions, turns = plan.inplace
    if positions.size:
        half[positions] += turns
    if sources.size:
        moved = half[size:]
        np.take(half, sources, out=moved)
        moved += addends
    half *= 0.5
    return np.cos(half, out=ws.array("cos", half.shape)), np.sin(half, out=ws.array("sin", half.shape))


def _run_passes(passes: tuple, matrices: np.ndarray, psi: np.ndarray, ws: _Workspace) -> None:
    """Apply ``passes`` in order to the amplitude-major state ``psi``, in place."""
    coef = ws.array("coef", (2,) + psi.shape, complex)
    part = ws.array("partner", psi.shape, complex)
    for group, index, flip in passes:
        if group is None:  # a CZ run, index holds its mask
            psi *= index
        else:
            # indices come from the circuit, in range; "clip" writes straight into out
            matrices[group].take(index, axis=0, out=coef, mode="clip")
            psi.take(flip, axis=0, out=part, mode="clip")
            part *= coef[1]
            psi *= coef[0]
            psi += part


def _step_index(blocks: _Blocks, columns: np.ndarray, stride: np.ndarray, shifted: tuple,
                rows: int, ws: _Workspace) -> np.ndarray:
    """Per row, the entry each group reads at each step, shape (steps, G,
    rows), in the workspace (see :class:`_Plan`)."""
    cols = blocks.cols
    index = ws.array("index", cols.shape + (rows,), np.intp)
    np.multiply(stride[cols][..., None], np.arange(rows), out=index)
    index += columns[cols][..., None]
    shifted_cols, shifted_rows, values = shifted
    index[blocks.step_of[shifted_cols], blocks.group_of[shifted_cols], shifted_rows] = values
    return index


def _shared_steps(blocks: _Blocks, stride: np.ndarray) -> int:
    """How many leading rotation steps read one value in every row (shifted
    entries aside), by the columns' ``stride`` (see :class:`_Plan`), and
    precede every kick that follows a rotation."""
    varies = (stride[blocks.cols] != 0).any(axis=1)
    return min(int(varies.argmax()) if varies.any() else len(varies), blocks.kick_free)


def _turn(turns: tuple, a, b, cos: np.ndarray, sin: np.ndarray, out: tuple, temps: tuple):
    """(a, b) of R M for M = (a, b) (None: the identity) and R the step's
    rotations, grouped by form as ``turns`` (see ``_Blocks.turns``), with these
    half-angle cos and sin; written into the pair ``out``, distinct from
    (a, b), which are left as scratch. ``temps`` are two arrays of a's shape."""
    turning, still = turns
    if still is not None:  # no rotation: the group passes through
        if a is None:
            out[0][still], out[1][still] = 1.0, 0.0
        else:
            out[0][still], out[1][still] = a[still], b[still]
    for axis, groups in turning:
        if groups is None:  # every group
            _rotate(axis, a, b, cos, sin, *out, *temps)
        elif isinstance(groups, slice):
            _rotate(axis, None if a is None else a[groups], None if b is None else b[groups],
                    cos[groups], sin[groups], out[0][groups], out[1][groups],
                    *(temp[groups] for temp in temps))
        else:  # gathered, then written back
            parts = [None if m is None else m[groups] for m in (a, b)]
            ra, rb = np.empty((2, groups.size) + cos.shape[1:], complex)
            _rotate(axis, *parts, cos[groups], sin[groups], ra, rb,
                    *(temp[groups] for temp in temps))
            out[0][groups], out[1][groups] = ra, rb
    return out


def _rotate(axis: int, a, b, cos, sin, ra, rb, alpha, beta) -> None:
    """(a, b) of R M into (ra, rb), for M = (a, b) (None: the identity) and R
    rotations about one axis, with each its half-angle cos and sin; alpha and
    beta are scratch, and so are a and b. Each complex product keeps the
    operand order of the general SU(2) product and goes to an array distinct
    from its operands: numpy's complex multiply fuses a multiply-add, so
    either change can move a bit. cos and sin are made complex before they
    multiply, as a mixed float-complex product would allocate cast buffers."""
    if a is None:  # the rotation itself: alpha = c + s u, beta = s v
        u, v = _SU2[axis]
        np.copyto(alpha, sin)
        np.multiply(alpha, u, out=ra)
        np.multiply(alpha, v, out=rb)
        np.copyto(beta, cos)
        ra += beta
        return
    np.copyto(alpha, cos)
    if axis == 2:  # diagonal: (alpha a, conj(alpha) b) with alpha = c - i s
        np.subtract(alpha.imag, sin, out=alpha.imag)
        np.multiply(alpha, a, out=ra)
        np.multiply(np.conjugate(alpha, out=alpha), b, out=rb)
        return
    # (alpha a - conj(beta) b, beta a + conj(alpha) b) with alpha = c and beta
    # = s (RY) or -i s (RX); alpha and RY's beta are real, so only RX's beta
    # is conjugated
    if axis == 1:
        np.copyto(beta, sin)
    else:
        np.copyto(rb, sin)
        np.multiply(rb, _SU2[0][1], out=beta)
    np.multiply(alpha, a, out=ra)
    np.multiply(beta, a, out=rb)
    if axis == 0:
        np.conjugate(beta, out=beta)
    ra -= np.multiply(beta, b, out=a)
    rb += np.multiply(alpha, b, out=a)


def _kick(a: np.ndarray, b: np.ndarray, kicks: tuple, ws: _Workspace, right: bool = False) -> None:
    """Multiply the drawn Paulis of one round onto their (group, row) pairs of
    the (G, rows) arrays (a, b), in place: P M, or M P with ``right``.
    ``kicks`` is that round's ``(pairs, alpha, beta)`` (see :func:`_kicks`);
    the per-pair products are the workspace's."""
    pairs, alpha, beta = kicks
    if not pairs.size:
        return
    ag, bg, ra, rb, conj, product = ws.array("kick products", (6,) + pairs.shape, complex)
    # pairs come from the circuit, in range; "clip" writes straight into out
    a.take(pairs, out=ag, mode="clip")
    b.take(pairs, out=bg, mode="clip")
    if right:  # a M P: a alpha - conj(b) beta and b alpha + conj(a) beta
        np.multiply(ag, alpha, out=ra)
        np.multiply(bg, alpha, out=rb)
        ra -= np.multiply(np.conjugate(bg, out=conj), beta, out=product)
        rb += np.multiply(np.conjugate(ag, out=conj), beta, out=product)
    else:  # P M: alpha a - conj(beta) b and beta a + conj(alpha) b
        np.multiply(alpha, ag, out=ra)
        np.multiply(beta, ag, out=rb)
        ra -= np.multiply(np.conjugate(beta, out=conj), bg, out=product)
        rb += np.multiply(np.conjugate(alpha, out=conj), bg, out=product)
    a.put(pairs, ra, mode="clip")
    b.put(pairs, rb, mode="clip")


def _block_matrices(blocks: _Blocks, trig: tuple, kicks: list, ws: _Workspace,
                    plan: _Plan) -> np.ndarray:
    """Each group's per-row 2x2 as [a, conj(a), b, -conj(b)], shape (G, 4, B),
    from the cos and sin tables ``trig`` of the call's half angles.

    The leading steps every row shares multiply once, as the product of
    ``plan.head`` on (columns, 1), and are broadcast to the rows; a row whose
    shifted column falls among them takes its own column for that column's
    group. Kicks before a group's first rotation then multiply on the right
    (a Pauli factor only permutes and rephases, so the order changes no
    bits), and the remaining steps and kicks run on the rows, each step
    reading its cos and sin as ``plan.trig`` and ``plan.gather`` say.
    ``kicks`` holds each round's drawn Paulis (see :func:`_kicks`).
    """
    rows = plan.rows
    n_steps, n_groups = blocks.cols.shape
    matrices = ws.array("matrices", (n_groups, 4, rows), complex)
    if not n_groups:  # no rotations and no kicks, so no groups
        return matrices
    head = plan.head
    shared = len(head.index)
    # (a, b) and the pair the next rotation step writes, in turn
    pairs = [tuple(ws.array(name, (n_groups, rows), complex) for name in names)
             for names in (("a", "b"), ("next a", "next b"))]
    temps = tuple(ws.array(name, (n_groups, rows), complex) for name in ("alpha", "beta"))
    a = b = None
    if shared:
        cos, sin = (table.take(head.index, out=ws.array(f"head {name}", head.index.shape),
                               mode="clip") for name, table in zip(("cos", "sin"), trig))
        pair = (None, None)
        names = ("head a", "head b", "next head a", "next head b", "head alpha", "head beta")
        scratch = [ws.array(name, (head.index.shape[1], 1), complex) for name in names]
        for step in range(shared):
            out = scratch[2:4] if pair[0] is scratch[0] else scratch[:2]
            pair = _turn(head.turns[step], *pair, cos[step, :, None], sin[step, :, None], out,
                         scratch[4:])
        a, b = pairs[0]
        shifted = head.groups.size
        for m, out in zip(pair, (a, b)):
            np.copyto(out, m[shifted:])  # broadcast to the rows
            if shifted:
                out[head.groups, head.rows] = m[:shifted, 0]
    rounds = iter(zip(blocks.rounds, kicks))
    step_kicks = next(rounds, None)
    while step_kicks is not None and step_kicks[0] < 0:
        if a is None:
            a, b = pairs[0]
            a.fill(1.0)
            b.fill(0.0)
        _kick(a, b, step_kicks[1], ws, right=True)
        step_kicks = next(rounds, None)
    # each later step's cos and sin: a slice of the tables, or gathered
    gathered = iter(())
    if plan.gather is not None:
        gathered = zip(*(table.take(plan.gather, out=ws.array(f"step {name}", plan.gather.shape),
                                    mode="clip") for name, table in zip(("cos", "sin"), trig)))
    steps = [next(gathered) if part is None else
             tuple(table[part].reshape(n_groups, rows) for table in trig) for part in plan.trig]
    for step in range(n_steps):
        if step >= shared:
            out = pairs[1] if a is pairs[0][0] else pairs[0]
            a, b = _turn(blocks.turns[step], a, b, *steps[step - shared], out, temps)
        while step_kicks is not None and step_kicks[0] == step:
            _kick(a, b, step_kicks[1], ws)
            step_kicks = next(rounds, None)
    # each through a contiguous temporary: a ufunc writing a strided out
    # allocates a buffer for it, a plain assignment does not
    conj_a, neg_conj_b = temps
    matrices[:, 0] = a
    matrices[:, 1] = np.conjugate(a, out=conj_a)
    matrices[:, 2] = b
    matrices[:, 3] = np.negative(np.conjugate(b, out=neg_conj_b), out=neg_conj_b)
    return matrices


def _product_state(blocks: _Blocks, n_qubits: int, matrices: np.ndarray, phase,
                   ws: _Workspace) -> np.ndarray:
    """The amplitude-major state that the first block leaves from |0...0>
    with amplitude ``phase``: per row, the tensor product of its groups' first
    columns (a, b), multiplied in pass order as the passes would multiply
    them, each onto the product so far. The products alternate between the
    state and its partner array, so that none is written in place, and end
    in the state unless the block's qubits are out of order or leave a qubit
    idle; then the product is copied in, its axes put in qubit order."""
    rows, first = matrices.shape[-1], blocks.first
    psi = ws.array("psi", (2**n_qubits, rows), complex)
    part = ws.array("partner", psi.shape, complex)
    in_place = first == tuple(range(n_qubits))
    if not first:
        psi.fill(0.0)
        psi[0] = phase
        return psi
    product = np.asarray(phase).reshape(1, 1, -1)
    for group in range(len(first)):
        out = psi if (len(first) - group) % 2 == in_place else part
        size = 2 * product.shape[0]
        # the (2, B) pair (a, b) of each row onto each amplitude so far
        product = np.multiply(product, matrices[group, ::2],
                              out=out[:size].reshape(size // 2, 2, rows))
        product = product.reshape(size, 1, rows)
    if not in_place:
        psi.fill(0.0)
        state = psi.reshape((2,) * n_qubits + (rows,))
        span = tuple(slice(None) if q in first else 0 for q in range(n_qubits))
        order = np.argsort(first)
        np.copyto(state[span], product.reshape((2,) * len(first) + (rows,))
                  .transpose(*order, len(first)))
    return psi


def _source_sums(circuit: Circuit, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 matrices that sum each angle column's derivative into its
    parameter and into its feature of an input of ``width`` features; built
    once per circuit and width, read-only."""
    sums = circuit.sums.get(width)
    if sums is None:
        to_theta = np.zeros((circuit.n_rotations + 1, circuit.params.size))
        to_theta[circuit.param_cols, circuit.param_index] = 1.0
        to_x = np.zeros((circuit.n_rotations + 1, width))
        to_x[circuit.data_cols, circuit.data_index] = 1.0
        for arr in (to_theta, to_x):
            arr.flags.writeable = False
        sums = circuit.sums[width] = (to_theta, to_x)
    return sums


# ---------------------------------------------------------------------------
# public simulation entry points


def run_circuit(
    circuit: Circuit,
    x: np.ndarray,
    theta: np.ndarray,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run the circuit and return (<Z_0>, ..., <Z_{n-1}>) per row.

    Returns shape (n,) for a single input and (B, n) for a batch, one
    trajectory per row.
    """
    x, single = _rows(x)
    z = _expect(_evolve(circuit, x, np.asarray(theta, dtype=float), noise, rng), circuit.n)
    return z[0] if single else z


def circuit_value(
    circuit: Circuit,
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Linear readout bias + sum_i w_i <Z_i>: a float, or shape (B,) for a batch."""
    z = run_circuit(circuit, x, theta, noise, rng)
    value = bias + z @ np.asarray(weights, dtype=float)
    return float(value) if z.ndim == 1 else value


def param_shift_value_and_grad(
    circuit: Circuit,
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
    noise: Optional[NoiseSpec] = None,
    rng: Optional[np.random.Generator] = None,
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
    x, single = _rows(x)
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_params_used(circuit, theta)
    cols = np.concatenate([circuit.param_cols, circuit.data_cols])
    uses = len(cols)
    values = np.empty(len(x))
    d_theta = np.zeros((len(x), len(theta)))
    d_x = np.zeros(x.shape)
    z = np.empty((len(x), circuit.n))
    for row in range(len(x)):
        zs = _expect(_evolve(circuit, x[row : row + 1], theta, noise, rng, cols), circuit.n)
        v = bias + zs @ weights
        diff = (v[1 : 1 + uses] - v[1 + uses :]) / 2.0
        np.add.at(d_theta[row], circuit.param_index, diff[: circuit.param_cols.size])
        np.add.at(d_x[row], circuit.data_index, diff[circuit.param_cols.size :])
        values[row], z[row] = v[0], zs[0]
    if single:
        return float(values[0]), d_theta[0], d_x[0], z[0], 1.0
    return values, d_theta, d_x, z, 1.0


def adjoint_value_and_grad(
    circuit: Circuit,
    x: np.ndarray,
    theta: np.ndarray,
    weights: np.ndarray,
    bias: float,
):
    """Backpropagation through the simulation via the adjoint method.

    Returns (value, d/dtheta, d/dx, d/dweights, d/dbias) of the readout
    V = bias + sum_i w_i <Z_i>, exactly and in a single reverse pass over
    all rows at once. Noiseless by construction; trajectory noise breaks the
    unitary reverse pass, so noisy gradients must use the parameter-shift
    path.
    """
    x, single = _rows(x)
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_params_used(circuit, theta)
    rows, ws, blocks = len(x), _workspace(), circuit.blocks[None]
    # reads: the value each (step, group, row) reads
    psi, (half_cos, half_sin), reads, matrices, _ = _forward(circuit, x, theta)
    _, sign = _tables(circuit.n)
    z = _expect(np.ascontiguousarray(psi.T), circuit.n)
    value = bias + z @ weights
    # psi in the first `rows` columns, lambda = O psi with O = sum_i w_i Z_i in
    # the rest; lambda goes through a contiguous temporary, as a ufunc writing
    # a strided out allocates a buffer for it
    state = ws.array("state", (2**circuit.n, 2 * rows), complex)
    weighted = np.multiply(psi, (weights @ sign)[:, None], out=ws.array("lambda", psi.shape, complex))
    state[:, :rows] = psi
    state[:, rows:] = weighted
    psi, lam = state[:, :rows], state[:, rows:]

    # Walk the passes backwards, undoing each on psi and lambda, up to the
    # read of group 0's chunk. Before a block is undone, read each of its
    # groups' sums of conj(lambda) psi: gates on other qubits in the block
    # commute with the group, so its Bloch vector does not depend on how much
    # of the rest of the block is undone. The tail's CZ runs are diagonal, so
    # they commute with O and leave O psi's and psi's bits as they are.
    n_groups = len(matrices)
    # [conj(a), a, -b, conj(b)] of the adjoint 2x2, for psi's and lambda's columns
    inverse = matrices.take([1, 0, 2, 3], axis=1, out=ws.array("inverse", matrices.shape, complex),
                            mode="clip")
    inverse[:, 2:] *= -1
    both = ws.array("inverse of both", (n_groups, 4, 2 * rows), complex)
    both[..., :rows] = inverse
    both[..., rows:] = inverse
    bloch = ws.array("bloch", (n_groups, 3, rows), complex)
    # the forward pass is done with its coefficient and partner arrays
    coef = ws.array("coef", (2,) + state.shape, complex)
    part = ws.array("partner", state.shape, complex)
    for group, index, partner in reversed(blocks.passes):
        if group is None:
            state *= index
            continue
        if group in blocks.reads:  # the last group of a chunk: read the chunk
            span, flips, xy = blocks.reads[group]
            bra = np.conjugate(lam, out=ws.array("bra", lam.shape, complex))
            # indices come from the circuit, in range; "clip" writes straight into out
            flipped = psi.take(flips, axis=0, out=ws.array("flipped", flips.shape + (rows,), complex),
                               mode="clip")
            # real weights, so each sum runs on the (re, im) float view
            products = np.multiply(bra, flipped, out=ws.array("products", flipped.shape, complex))
            np.matmul(xy, products.view(float), out=bloch[span, :2].view(float))
            products = np.multiply(bra, psi, out=ws.array("products", psi.shape, complex))
            np.matmul(xy[:, 1], products.view(float), out=bloch[span, 2].view(float))
            if span.start == 0:  # the last read: nothing undone after it is read
                break
        both[group].take(index, axis=0, out=coef, mode="clip")
        state.take(partner, axis=0, out=part, mode="clip")
        part *= coef[1]
        state *= coef[0]
        state += part
    # y[k * G + g] is component k of group g's vector, X: Im sum conj(lam)
    # psi[flip], Y: -Re sum sign conj(lam) psi[flip], Z: Im sum sign conj(lam) psi
    y = ws.array("y", (3 * n_groups, rows))
    np.copyto(y.reshape(3, n_groups, rows), bloch.imag.transpose(1, 0, 2))
    np.negative(bloch[:, 1].real, out=y[n_groups : 2 * n_groups])

    # Each rotation's derivative is Im <lambda| P |psi> just after it, the P
    # component of its group's vector there; undoing the rotation turns the
    # other two components by its angle. Padded steps land in the last column.
    # cos and sin of the whole angles, once per value: 1 - 2 sin^2 and 2 sin cos
    whole_cos = np.square(half_sin, out=ws.array("whole cos", half_sin.shape))
    whole_cos *= 2.0
    np.subtract(1.0, whole_cos, out=whole_cos)
    whole_sin = np.multiply(half_sin, half_cos, out=ws.array("whole sin", half_sin.shape))
    whole_sin *= 2.0
    # the forward pass is done with its step gathers
    cos = whole_cos.take(reads, out=ws.array("step cos", reads.shape), mode="clip")
    sin = whole_sin.take(reads, out=ws.array("step sin", reads.shape), mode="clip")
    d_steps = ws.array("d steps", reads.shape)
    pair, rotated, turned = (ws.array(name, (2, n_groups, rows))
                             for name in ("pair", "rotated", "turned"))
    for step in reversed(range(len(blocks.cols))):
        own, others = blocks.axis_rows[step, 0], blocks.axis_rows[step, 1:]
        y.take(own, axis=0, out=d_steps[step], mode="clip")
        y.take(others, axis=0, out=pair, mode="clip")
        np.multiply(cos[step], pair, out=rotated)
        np.multiply(sin[step], pair[::-1], out=turned)  # (y1, y2) <- c (y1, y2) + (s y2, -s y1)
        rotated[0] += turned[0]
        rotated[1] -= turned[1]
        y[others] = rotated
    d_angle = ws.array("d angle", (circuit.n_rotations + 1, rows))
    d_angle.fill(0.0)
    d_angle[blocks.cols] = d_steps
    # each angle column's derivative summed into its parameter or feature
    to_theta, to_x = _source_sums(circuit, x.shape[1])
    d_theta, d_x = d_angle.T @ to_theta, d_angle.T @ to_x
    if single:
        return float(value[0]), d_theta[0], d_x[0], z[0], 1.0
    return value, d_theta, d_x, z, 1.0
