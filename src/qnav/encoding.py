"""Sublayered data-reuploading circuit layouts.

A p-dimensional input is split across k = ceil(p / 3n) sublayers per layer,
each sublayer encoding 3 features per qubit as rotation angles followed by a
trainable hardware-efficient block (RY+RZ per qubit, CZ daisy chain). The
input is re-encoded in full in every layer. The 3nk - p slots past its end
are padding: a zero feature would be a zero-angle rotation, so each slot is
emitted as a fixed ``angle=0.0`` rotation and the circuit reads the length-p
input as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import UsageError
from .qsim import GateOp


@dataclass(frozen=True)
class CircuitLayout:
    """Static plan for one embedding circuit."""

    p: int  # input dimension
    n: int  # qubits
    layers: int
    sublayers: int  # k = ceil(p / 3n)
    pad_len: int  # 3nk - p
    param_count: int  # layers * sublayers * 2n

    def manifest(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "L": self.layers,
            "k": self.sublayers,
            "pad_len": self.pad_len,
            "pqc_param_count": self.param_count,
        }


def plan_layout(p: int, n: int, layers: int) -> CircuitLayout:
    """Compute sublayer count, padding and trainable-parameter count."""
    if p < 1 or n < 1 or layers < 1:
        raise UsageError(f"p, n, L must all be >= 1 (got {p}, {n}, {layers})")
    k = math.ceil(p / (3 * n))
    pad_len = 3 * n * k - p
    return CircuitLayout(
        p=p,
        n=n,
        layers=layers,
        sublayers=k,
        pad_len=pad_len,
        param_count=layers * k * 2 * n,
    )


def build_circuit(layout: CircuitLayout) -> tuple[list[GateOp], tuple[int, ...]]:
    """Emit the deterministic gate sequence for a layout.

    Returns the gate list and the positions of the last gate of each sublayer
    (used to place per-sublayer depolarizing events).

    Per layer l and sublayer m: each qubit q first encodes features
    3n(m-1) + 3q .. + 3q + 2 as RZ, RY, RZ angles (a slot at or past p as a
    fixed zero angle), then applies trainable RY and RZ rotations, and the
    sublayer closes with a CZ daisy chain CZ(0,1) .. CZ(n-2, n-1).
    """
    gates: list[GateOp] = []
    marks: list[int] = []
    n, k = layout.n, layout.sublayers
    for layer in range(layout.layers):
        for m in range(k):
            base = 3 * n * m
            for q in range(n):
                for j, axis in enumerate(("rz", "ry", "rz")):
                    index = base + 3 * q + j
                    gates.append(GateOp(axis, target=q, source="data", index=index)
                                 if index < layout.p else GateOp(axis, target=q, angle=0.0))
            pbase = (layer * k + m) * 2 * n
            for q in range(n):
                gates.append(GateOp("ry", target=q, source="param", index=pbase + 2 * q))
                gates.append(GateOp("rz", target=q, source="param", index=pbase + 2 * q + 1))
            for q in range(n - 1):
                gates.append(GateOp("cz", target=q + 1, control=q))
            marks.append(len(gates) - 1)
    return gates, tuple(marks)
