"""Sublayered data-reuploading circuit layouts.

A p-dimensional input is split across k = ceil(p / 3n) sublayers per layer,
each sublayer encoding 3 features per qubit as rotation angles followed by a
trainable hardware-efficient block (RY+RZ per qubit, CZ daisy chain). The
input is zero-padded to length 3nk and re-encoded in full in every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def pad_input(x: np.ndarray, layout: CircuitLayout) -> np.ndarray:
    """Append the zero padding the layout expects to an input of shape (p,)
    or to every row of a batch of shape (B, p)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != layout.p:
        raise UsageError(f"expected inputs of length {layout.p}, got shape {x.shape}")
    return np.concatenate([x, np.zeros(x.shape[:-1] + (layout.pad_len,))], axis=-1)


def build_circuit(layout: CircuitLayout) -> tuple[list[GateOp], tuple[int, ...]]:
    """Emit the deterministic gate sequence for a layout.

    Returns the gate list and the positions of the last gate of each sublayer
    (used to place per-sublayer depolarizing events).

    Per layer l and sublayer m: each qubit q first encodes features
    3n(m-1) + 3q .. + 3q + 2 of the padded vector as RZ, RY, RZ angles,
    then applies trainable RY and RZ rotations, and the sublayer closes with
    a CZ daisy chain CZ(0,1) .. CZ(n-2, n-1).
    """
    gates: list[GateOp] = []
    marks: list[int] = []
    n, k = layout.n, layout.sublayers
    for layer in range(layout.layers):
        for m in range(k):
            base = 3 * n * m
            for q in range(n):
                for j, axis in enumerate(("rz", "ry", "rz")):
                    gates.append(GateOp(axis, target=q, source="data", index=base + 3 * q + j))
            pbase = (layer * k + m) * 2 * n
            for q in range(n):
                gates.append(GateOp("ry", target=q, source="param", index=pbase + 2 * q))
                gates.append(GateOp("rz", target=q, source="param", index=pbase + 2 * q + 1))
            for q in range(n - 1):
                gates.append(GateOp("cz", target=q + 1, control=q))
            marks.append(len(gates) - 1)
    return gates, tuple(marks)
