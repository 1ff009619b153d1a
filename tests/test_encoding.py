"""Circuit layout planning: sublayer math, padding slots, and gate emission."""

import numpy as np
import pytest

from qnav import UsageError, encoding, qsim


def test_layout_32_4_1():
    layout = encoding.plan_layout(p=32, n=4, layers=1)
    assert layout.sublayers == 3
    assert layout.pad_len == 4
    assert layout.param_count == 24
    # with the n-weights + 1-bias readout head
    assert layout.param_count + layout.n + 1 == 29


@pytest.mark.parametrize("n,layers,total", [
    (4, 1, 29), (4, 2, 53), (4, 3, 77),
    (6, 1, 31), (6, 2, 55), (6, 3, 79),
])
def test_parameter_count_table(n, layers, total):
    layout = encoding.plan_layout(p=32, n=n, layers=layers)
    assert layout.param_count + n + 1 == total


def test_layout_24_4_3_no_padding():
    layout = encoding.plan_layout(p=24, n=4, layers=3)
    assert layout.sublayers == 2
    assert layout.pad_len == 0


def test_layout_6_2_1():
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    assert layout.sublayers == 1
    assert layout.pad_len == 0
    assert layout.param_count == 4
    assert layout.param_count + layout.n + 1 == 7


def test_layout_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = int(rng.integers(1, 80))
        n = int(rng.integers(1, 9))
        layers = int(rng.integers(1, 4))
        layout = encoding.plan_layout(p, n, layers)
        assert layout.sublayers == -(-p // (3 * n))  # ceil
        assert layout.pad_len == 3 * n * layout.sublayers - p
        assert 0 <= layout.pad_len < 3 * n
        assert layout.param_count == layers * layout.sublayers * 2 * n


@pytest.mark.parametrize("p,n,layers", [(0, 4, 1), (32, 0, 1), (32, 4, 0)])
def test_plan_layout_rejects_nonpositive(p, n, layers):
    with pytest.raises(UsageError):
        encoding.plan_layout(p, n, layers)


def test_padding_slots_are_fixed_zero_angle_rotations():
    """The default layout's 138 gates hold its 4 padding slots per layer as
    fixed zero-angle rotations, on the qubit and axis a feature there would
    take, and no data gate reads past p."""
    layout = encoding.plan_layout(p=32, n=4, layers=2)
    gates, _ = encoding.build_circuit(layout)
    fixed = [g for g in gates if g.kind != "cz" and g.source is None]
    assert len(gates) == 138 and len(fixed) == 8 == layout.layers * layout.pad_len
    assert all(g.angle == 0.0 and g.index is None for g in fixed)
    # per layer: slot 32 on qubit 2's last RZ, slots 33..35 on qubit 3's RZ, RY, RZ
    assert [(g.target, g.kind) for g in fixed] == [
        (2, "rz"), (3, "rz"), (3, "ry"), (3, "rz")] * 2
    assert max(g.index for g in gates if g.source == "data") == layout.p - 1


def test_no_padding_emits_no_fixed_rotations():
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    gates, _ = encoding.build_circuit(layout)
    assert layout.pad_len == 0
    assert all(g.source is not None for g in gates if g.kind != "cz")
    assert sorted(g.index for g in gates if g.source == "data") == list(range(6))


def test_gate_count_6_2_1():
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    gates, marks = encoding.build_circuit(layout)
    # 3*2 encoding + 2*2 ansatz rotations + 1 CZ
    assert len(gates) == 11
    assert marks == (10,)


def test_gate_count_formula():
    for (p, n, layers) in [(32, 4, 2), (10, 3, 1), (6, 2, 3)]:
        layout = encoding.plan_layout(p, n, layers)
        gates, marks = encoding.build_circuit(layout)
        per_sublayer = 3 * n + 2 * n + (n - 1)
        assert len(gates) == layers * layout.sublayers * per_sublayer
        assert len(marks) == layers * layout.sublayers
        assert marks[-1] == len(gates) - 1


def test_feature_and_param_coverage():
    """Each feature is consumed once per layer, each padding slot is a fixed
    zero angle once per layer, and each theta is consumed exactly once."""
    layout = encoding.plan_layout(p=20, n=4, layers=3)
    gates, _ = encoding.build_circuit(layout)
    data_counts = np.zeros(layout.p, dtype=int)
    param_counts = np.zeros(layout.param_count, dtype=int)
    fixed = 0
    for gate in gates:
        if gate.source == "data":
            data_counts[gate.index] += 1
        elif gate.source == "param":
            param_counts[gate.index] += 1
        elif gate.kind != "cz":
            assert gate.angle == 0.0
            fixed += 1
    assert np.all(data_counts == layout.layers)
    assert fixed == layout.pad_len * layout.layers == 12
    assert np.all(param_counts == 1)


def test_encoding_axis_order():
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    gates, _ = encoding.build_circuit(layout)
    q0 = [g for g in gates if g.source == "data" and g.target == 0]
    assert [g.kind for g in q0] == ["rz", "ry", "rz"]


def test_build_circuit_deterministic():
    layout = encoding.plan_layout(p=14, n=3, layers=2)
    assert encoding.build_circuit(layout) == encoding.build_circuit(layout)


def test_zero_angle_composability():
    for (p, n, layers) in [(6, 2, 1), (32, 4, 2), (11, 3, 1)]:
        layout = encoding.plan_layout(p, n, layers)
        gates, _ = encoding.build_circuit(layout)
        z = qsim.run_circuit(qsim.compile_circuit(gates, n), np.zeros(p),
                             np.zeros(layout.param_count))
        np.testing.assert_allclose(z, np.ones(n), atol=1e-12)


def test_manifest_fields():
    layout = encoding.plan_layout(p=32, n=4, layers=2)
    m = layout.manifest()
    assert m == {
        "p": 32, "n": 4, "L": 2, "k": 3, "pad_len": 4,
        "pqc_param_count": 48,
    }
