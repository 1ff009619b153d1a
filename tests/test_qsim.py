"""Statevector simulator: gate algebra, gradients, and noise trajectories."""

import dataclasses
import functools
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnav import UsageError, encoding, qsim
from qnav.qsim import GateOp, NoiseSpec, compile_circuit

import oracles


def random_gates(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        if n_qubits > 1 and rng.uniform() < 0.2:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(GateOp("cz", target=int(a), control=int(b)))
        else:
            kind = ("rx", "ry", "rz")[rng.integers(3)]
            gates.append(GateOp(kind, target=int(rng.integers(n_qubits)),
                                angle=float(rng.uniform(-np.pi, np.pi))))
    return gates


def final_states(gates, n, x, theta=np.zeros(0), marks=(), noise=None, rng=None):
    """The (B, 2**n) states that the readout of a (B, p) input sees, through
    the compile, angle and evolution steps that ``run_circuit`` takes: the
    final states up to a phase on each amplitude, as the tail is left out."""
    return qsim._evolve(compile_circuit(gates, n, marks), x, theta, noise, rng)


# ---------------------------------------------------------------------------
# states and gates


def test_init_state_ground():
    np.testing.assert_array_equal(final_states([], 1, np.zeros((1, 0)))[0], [1, 0])
    np.testing.assert_array_equal(final_states([], 2, np.zeros((1, 0)))[0], [1, 0, 0, 0])
    assert abs(np.linalg.norm(final_states([], 4, np.zeros((1, 0)))[0]) - 1.0) < 1e-15


@pytest.mark.parametrize("n", [0, -1, 13])
def test_init_state_rejects_bad_counts(n):
    with pytest.raises(UsageError):
        compile_circuit([], n)


def test_ry_pi_flips_z():
    z = qsim.run_circuit(compile_circuit([GateOp("ry", 0, angle=math.pi)], 1), np.zeros(0),
                         np.zeros(0))
    assert z[0] == pytest.approx(-1.0, abs=1e-12)


def test_rz_fixes_ground_population():
    for angle in (0.3, -1.7, 2.9):
        z = qsim.run_circuit(compile_circuit([GateOp("rz", 0, angle=angle)], 1), np.zeros(0),
                             np.zeros(0))
        assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_cz_phases_11_only():
    """A CZ flips the sign of |11> alone. A last CZ is in the tail, which
    the readout absorbs, so an identity rotation after it keeps it in the
    state."""
    flips = [GateOp("ry", q, angle=math.pi) for q in (0, 1)]  # |11> up to phase
    cz, identity = GateOp("cz", target=1, control=0), GateOp("rz", 0, angle=0.0)
    state = final_states(flips + [identity], 2, np.zeros((1, 0)))[0]
    probs_before = np.abs(state) ** 2
    flipped = final_states(flips + [cz, identity], 2, np.zeros((1, 0)))[0]
    np.testing.assert_allclose(np.abs(flipped) ** 2, probs_before, atol=1e-12)
    assert flipped[3] == pytest.approx(-state[3], abs=1e-12)
    assert flipped[:3] == pytest.approx(state[:3], abs=1e-12)
    assert final_states(flips + [cz], 2, np.zeros((1, 0))).tobytes() == (
        final_states(flips, 2, np.zeros((1, 0))).tobytes())


def test_expectation_z_cos_theta():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=20)
    z = qsim.run_circuit(compile_circuit([GateOp("ry", 0, source="data", index=0)], 1),
                         thetas[:, None], np.zeros(0))
    for theta, z0 in zip(thetas, z[:, 0]):
        assert z0 == pytest.approx(math.cos(theta), abs=1e-12)


def test_expectation_z_minus_one_on_excited():
    z = qsim.run_circuit(compile_circuit([GateOp("ry", 1, angle=math.pi)], 2), np.zeros(0),
                         np.zeros(0))
    assert z[1] == pytest.approx(-1.0, abs=1e-12)
    assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_z_index_checked():
    """Every qubit index a circuit names is checked against the qubit count."""
    for gate in (GateOp("ry", 2, angle=0.1), GateOp("cz", target=0, control=2)):
        with pytest.raises(UsageError):
            compile_circuit([gate], 2)


def test_gateop_validation():
    with pytest.raises(UsageError):
        GateOp("hadamard", 0)
    with pytest.raises(UsageError):
        GateOp("cz", 0, control=0)
    with pytest.raises(UsageError):
        GateOp("ry", 0)  # no angle, no source
    with pytest.raises(UsageError):
        GateOp("ry", 0, source="data")  # missing index


def test_equal_gate_lists_compare_and_hash_equal():
    """GateOp is a plain frozen dataclass: separately built equal lists
    compare and hash equal, and a gate survives a pickle round trip."""
    layout = encoding.plan_layout(7, 3, 2)
    first, _ = encoding.build_circuit(layout)
    second, _ = encoding.build_circuit(layout)
    assert first == second and all(a is not b for a, b in zip(first, second))
    assert [hash(g) for g in first] == [hash(g) for g in second]
    assert hash(tuple(first)) == hash(tuple(second))
    for gate in first + [GateOp("rx", 1, angle=-0.0), GateOp("cz", target=0, control=2)]:
        fields = (gate.kind, gate.target, gate.control, gate.angle, gate.source, gate.index)
        assert gate == GateOp(*fields) and hash(gate) == hash(GateOp(*fields))
        assert pickle.loads(pickle.dumps(gate)) == gate
    assert GateOp("ry", 0, angle=0.0) == GateOp("ry", 0, angle=-0.0)
    assert hash(GateOp("ry", 0, angle=0.0)) == hash(GateOp("ry", 0, angle=-0.0))
    assert GateOp("ry", 0, angle=0.5) != GateOp("rz", 0, angle=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].target = 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), n_gates=st.integers(1, 50))
def test_norm_preserved_random_circuits(seed, n, n_gates):
    rng = np.random.default_rng(seed)
    state = final_states(random_gates(rng, n, n_gates), n, np.zeros((1, 0)))[0]
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_gates_match_dense_matrix_oracle():
    rng = np.random.default_rng(11)
    n = 2
    gates = random_gates(rng, n, 12)
    rho = oracles.dm_init(n)
    for gate in gates:
        if gate.kind == "cz":
            u = oracles.cz_matrix(gate.control, gate.target, n)
        else:
            u = oracles.lift(oracles.rotation_matrix(gate.kind, gate.angle), gate.target, n)
        rho = oracles.dm_apply_unitary(rho, u)
    z = qsim.run_circuit(compile_circuit(gates, n), np.zeros(0), np.zeros(0))
    for q in range(n):
        assert z[q] == pytest.approx(oracles.dm_expect_z(rho, q, n), abs=1e-12)


# ---------------------------------------------------------------------------
# run_circuit


def test_run_circuit_identity():
    z = qsim.run_circuit(compile_circuit([], 4), np.zeros(0), np.zeros(0))
    np.testing.assert_allclose(z, np.ones(4), atol=1e-15)


def test_run_circuit_single_param_gate():
    gates = [GateOp("ry", 0, source="param", index=0)]
    z = qsim.run_circuit(compile_circuit(gates, 1), np.zeros(0), np.array([1.0]))
    assert z[0] == pytest.approx(math.cos(1.0), abs=1e-12)


def test_run_circuit_zero_angles_any_layout():
    layout = encoding.plan_layout(p=10, n=3, layers=2)
    gates, marks = encoding.build_circuit(layout)
    x = np.zeros(3 * layout.n * layout.sublayers)
    z = qsim.run_circuit(compile_circuit(gates, layout.n, marks), x,
                         np.zeros(layout.param_count))
    np.testing.assert_allclose(z, np.ones(3), atol=1e-12)


def test_run_circuit_bad_index_is_layout_error():
    circuit = compile_circuit([GateOp("ry", 0, source="data", index=5)], 1)
    with pytest.raises(UsageError):
        qsim.run_circuit(circuit, np.zeros(2), np.zeros(0))


# ---------------------------------------------------------------------------
# gradients


def test_param_shift_single_ry_at_zero():
    circuit = compile_circuit([GateOp("ry", 0, source="param", index=0)], 1)
    grad = qsim.param_shift_value_and_grad(circuit, np.zeros(0), np.array([0.0]),
                                           np.array([1.0]), 0.0)[1]
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_param_shift_single_ry_at_half_pi():
    circuit = compile_circuit([GateOp("ry", 0, source="param", index=0)], 1)
    grad = qsim.param_shift_value_and_grad(circuit, np.zeros(0), np.array([np.pi / 2]),
                                           np.array([1.0]), 0.0)[1]
    assert grad[0] == pytest.approx(-1.0, abs=1e-12)


def test_param_shift_unused_parameter_rejected():
    circuit = compile_circuit([GateOp("ry", 0, source="param", index=0)], 1)
    with pytest.raises(UsageError):
        qsim.param_shift_value_and_grad(circuit, np.zeros(0), np.zeros(2), np.array([1.0]), 0.0)


def test_adjoint_unused_parameter_rejected():
    """Both gradient modes agree on a valid layout: every parameter feeds a gate."""
    circuit = compile_circuit([GateOp("ry", 0, source="param", index=0)], 1)
    with pytest.raises(UsageError, match=r"never used by any gate: \[1\]"):
        qsim.adjoint_value_and_grad(circuit, np.zeros(0), np.zeros(2), np.array([1.0]), 0.0)
    cz_only, n, p, _ = HAND_BUILT["cz-only"]
    for grad in (qsim.adjoint_value_and_grad, qsim.param_shift_value_and_grad):
        with pytest.raises(UsageError, match=r"never used by any gate: \[0, 1\]"):
            grad(compile_circuit(cz_only, n), np.zeros(p), np.zeros(2), np.ones(n), 0.0)


def finite_diff(circuit, x, theta, w, b, h=1e-5):
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        grad[k] = (qsim.circuit_value(circuit, x, tp, w, b)
                   - qsim.circuit_value(circuit, x, tm, w, b)) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(5))
def test_gradient_three_way_agreement(seed):
    """param-shift == adjoint == finite differences on reuploading circuits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    layers = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3 * n + 1))
    layout = encoding.plan_layout(p, n, layers)
    circuit = compile_circuit(encoding.build_circuit(layout)[0], n)
    x = rng.uniform(-1, 1, size=p)
    theta = rng.uniform(-np.pi, np.pi, size=layout.param_count)
    w = rng.uniform(-1, 1, size=n)
    b = float(rng.uniform(-1, 1))

    _, ps, ps_x, _, _ = qsim.param_shift_value_and_grad(circuit, x, theta, w, b)
    value, d_theta, d_x, z, d_b = qsim.adjoint_value_and_grad(circuit, x, theta, w, b)
    fd = finite_diff(circuit, x, theta, w, b)

    assert value == pytest.approx(qsim.circuit_value(circuit, x, theta, w, b), abs=1e-12)
    np.testing.assert_allclose(ps, d_theta, atol=1e-10)
    np.testing.assert_allclose(ps, fd, atol=1e-6)
    # data gradient agrees with its own finite difference
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += 1e-5
        xm[k] -= 1e-5
        num = (qsim.circuit_value(circuit, xp, theta, w, b)
               - qsim.circuit_value(circuit, xm, theta, w, b)) / 2e-5
        assert ps_x[k] == pytest.approx(num, abs=1e-6)
        assert d_x[k] == pytest.approx(num, abs=1e-6)
    # readout gradients
    np.testing.assert_allclose(z, qsim.run_circuit(circuit, x, theta), atol=1e-12)
    assert d_b == 1.0


# ---------------------------------------------------------------------------
# noise


def test_perturb_gate_params_bounds():
    rng = np.random.default_rng(0)
    theta = np.array([0.0, 1.0, -2.0])
    out = qsim.perturb_gate_params(theta, rng)
    assert out[0] == 0.0
    assert 1.0 <= out[1] < 1.01
    assert -2.02 < out[2] <= -2.0


def test_depolarize_p_zero_is_identity():
    gates, rows = [GateOp("ry", 0, angle=0.4)], np.zeros((100, 0))
    state = final_states(gates, 1, rows)
    out = final_states(gates, 1, rows, marks=(0,), noise=NoiseSpec(depolarizing=0.0),
                       rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out, state)


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
def test_depolarize_matches_density_matrix_oracle(p):
    """Trajectory-mean <Z> vs the exact channel, single qubit after RY(0.7)."""
    rng = np.random.default_rng(42)
    angle = 0.7
    n_traj = 10_000
    samples = qsim.run_circuit(compile_circuit([GateOp("ry", 0, angle=angle)], 1, (0,)),
                               np.zeros((n_traj, 0)), np.zeros(0),
                               noise=NoiseSpec(depolarizing=p), rng=rng)[:, 0]
    rho = oracles.dm_apply_unitary(oracles.dm_init(1),
                                   oracles.rotation_matrix("ry", angle))
    rho = oracles.dm_depolarize(rho, 0, p, 1)
    exact = oracles.dm_expect_z(rho, 0, 1)
    # the closed form of the channel
    assert exact == pytest.approx((1.0 - 4.0 * p / 3.0) * math.cos(angle), abs=1e-12)
    se = samples.std(ddof=1) / math.sqrt(n_traj)
    assert abs(samples.mean() - exact) <= 3.0 * max(se, 1e-12)


def test_two_qubit_circuit_depolarizing_oracle():
    """Full run_circuit trajectories vs the exact density-matrix evolution."""
    p = 0.2
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    gates, marks = encoding.build_circuit(layout)
    rng_data = np.random.default_rng(3)
    x = rng_data.uniform(-1, 1, size=6)
    theta = rng_data.uniform(-np.pi, np.pi, size=layout.param_count)
    noise = NoiseSpec(depolarizing=p)

    rho = oracles.dm_init(2)
    marks_set = set(marks)
    for pos, gate in enumerate(gates):
        if gate.kind == "cz":
            u = oracles.cz_matrix(gate.control, gate.target, 2)
        else:
            angle = x[gate.index] if gate.source == "data" else theta[gate.index]
            u = oracles.lift(oracles.rotation_matrix(gate.kind, angle), gate.target, 2)
        rho = oracles.dm_apply_unitary(rho, u)
        if pos in marks_set:
            for q in range(2):
                rho = oracles.dm_depolarize(rho, q, p, 2)
    exact = np.array([oracles.dm_expect_z(rho, q, 2) for q in range(2)])

    rng = np.random.default_rng(99)
    n_traj = 10_000
    acc = qsim.run_circuit(compile_circuit(gates, 2, marks), np.tile(x, (n_traj, 1)), theta,
                           noise=noise, rng=rng)
    se = acc.std(axis=0, ddof=1) / math.sqrt(n_traj)
    assert np.all(np.abs(acc.mean(axis=0) - exact) <= 3.0 * np.maximum(se, 1e-12))


def test_gate_error_perturbs_only_param_angles():
    gates = [GateOp("ry", 0, source="data", index=0),
             GateOp("ry", 0, source="param", index=0)]
    noise = NoiseSpec(gate_error=0.01)
    x, theta = np.array([0.5]), np.array([0.0])
    # theta = 0: multiplicative jitter has no effect, so output is exact
    z = qsim.run_circuit(compile_circuit(gates, 1), x, theta, noise=noise,
                         rng=np.random.default_rng(0))
    assert z[0] == pytest.approx(math.cos(0.5), abs=1e-12)


def test_noise_requires_rng():
    circuit = compile_circuit([GateOp("ry", 0, source="param", index=0)], 1)
    with pytest.raises(UsageError):
        qsim.run_circuit(circuit, np.zeros(0), np.array([1.0]), noise=NoiseSpec(gate_error=0.01))


def test_noisy_run_deterministic_per_seed():
    layout = encoding.plan_layout(p=6, n=2, layers=1)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 2, marks)
    x = np.linspace(-1, 1, 6)
    theta = np.linspace(0.1, 0.8, layout.param_count)
    noise = NoiseSpec(gate_error=0.01, depolarizing=0.1)
    runs = [qsim.run_circuit(circuit, x, theta, noise=noise, rng=np.random.default_rng(123))
            for _ in range(2)]
    np.testing.assert_array_equal(runs[0], runs[1])


def test_noise_spec_validation():
    with pytest.raises(UsageError):
        NoiseSpec(gate_error=-0.1)
    with pytest.raises(UsageError):
        NoiseSpec(gate_error=float("nan"))
    with pytest.raises(UsageError):
        NoiseSpec(depolarizing=float("nan"))
    with pytest.raises(UsageError):
        NoiseSpec(depolarizing=1.5)
    for name in ("gate_error", "depolarizing"):  # a YAML `true` would pass as 1
        with pytest.raises(UsageError, match=f"{name} must be a finite number"):
            NoiseSpec(**{name: True})
    assert not NoiseSpec().enabled
    assert NoiseSpec(gate_error=0.01).enabled


# ---------------------------------------------------------------------------
# batched simulation against the scalar and dense references


def reuploading_case(rng, n, layers, batch):
    p = int(rng.integers(1, 6 * n + 1))
    layout = encoding.plan_layout(p, n, layers)
    gates, marks = encoding.build_circuit(layout)
    x = rng.uniform(-1, 1, size=(batch, p))
    theta = rng.uniform(-np.pi, np.pi, size=layout.param_count)
    w = rng.uniform(-1, 1, size=n)
    b = float(rng.uniform(-1, 1))
    return gates, marks, x, theta, w, b


def dense_expectations(gates, x, theta, n):
    """<Z_q> from the full unitary built out of Kronecker products."""
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for gate in gates:
        if gate.kind == "cz":
            u = oracles.cz_matrix(gate.control, gate.target, n)
        else:
            angle = oracles.angle_matrix([gate], x, theta)[0, 0]
            u = oracles.lift(oracles.rotation_matrix(gate.kind, angle), gate.target, n)
        state = u @ state
    rho = np.outer(state, state.conj())
    return np.array([oracles.dm_expect_z(rho, q, n) for q in range(n)])


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_forward_and_adjoint_match_references(n, layers):
    rng = np.random.default_rng(100 * n + layers)
    for batch in (1, 7, 50):
        gates, _, x, theta, w, b = reuploading_case(rng, n, layers, batch)
        circuit = compile_circuit(gates, n)
        z = qsim.run_circuit(circuit, x, theta)
        value, d_theta, d_x, dw, db = qsim.adjoint_value_and_grad(circuit, x, theta, w, b)
        assert z.shape == (batch, n) and value.shape == (batch,)
        assert d_theta.shape == (batch, theta.size) and d_x.shape == x.shape
        assert db == 1.0
        for i in range(batch):
            ref_value, ref_theta, ref_x, ref_z, _ = oracles.adjoint_value_and_grad(
                gates, x[i], theta, w, b, n)
            np.testing.assert_allclose(z[i], oracles.run_circuit(gates, x[i], theta, n),
                                       rtol=0, atol=1e-12)
            assert value[i] == pytest.approx(ref_value, abs=1e-12)
            np.testing.assert_allclose(d_theta[i], ref_theta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(d_x[i], ref_x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dw[i], ref_z, rtol=0, atol=1e-12)
        for i in range(min(batch, 7)):
            np.testing.assert_allclose(z[i], dense_expectations(gates, x[i], theta, n),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_param_shift_matches_scalar_reference(n, layers):
    rng = np.random.default_rng(200 * n + layers)
    for batch in (1, 7):
        gates, _, x, theta, w, b = reuploading_case(rng, n, layers, batch)
        value, d_theta, d_x, z, _ = qsim.param_shift_value_and_grad(compile_circuit(gates, n),
                                                                    x, theta, w, b)
        # the scalar reference runs 2 circuits per angle use; first and last row suffice
        # here, test_batch_rows_equal_unbatched_calls covers the rows in between
        for i in sorted({0, batch - 1}):
            np.testing.assert_allclose(
                d_theta[i], oracles.param_shift_gradient(gates, x[i], theta, w, b, n),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                d_x[i], oracles.param_shift_gradient(gates, x[i], theta, w, b, n, wrt="data"),
                rtol=0, atol=1e-12)
            assert value[i] == pytest.approx(oracles.circuit_value(gates, x[i], theta, w, b, n),
                                             abs=1e-12)
            np.testing.assert_allclose(z[i], dense_expectations(gates, x[i], theta, n),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,layers,p", [(4, 2, 32), (1, 2, 9), (3, 2, 20), (2, 1, 7)])
def test_source_sums_give_the_bits_of_add_at(n, layers, p):
    """Both gradient routes sum each angle column's derivative into its
    parameter and its feature by the circuit's 0/1 matrices, with the bytes
    of np.add.at over the parameter-shift differences in use order: on
    zero, -0.0, 1e-300 and 1e200 differences and on normal ones over twelve
    decades of scale, signs mixed."""
    layout = encoding.plan_layout(p, n, layers)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, n, marks)
    cols = np.concatenate([circuit.param_cols, circuit.data_cols])
    n_params = circuit.param_cols.size
    rng = np.random.default_rng(31 * n + p)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200])
    for rows in (1, 6):
        diff = rng.normal(size=(rows, len(cols))) * 10.0 ** rng.integers(-6, 6, (rows, len(cols)))
        mask = rng.random(diff.shape) < 0.4
        diff[mask] = rng.choice(special, mask.sum())
        d_angle = np.zeros((circuit.n_rotations + 1, rows))
        d_angle[cols] = diff.T
        d_theta, d_x = qsim._sum_sources(circuit, d_angle, p)
        want_theta, want_x = np.zeros((rows, layout.param_count)), np.zeros((rows, p))
        for row in range(rows):
            np.add.at(want_theta[row], circuit.param_index, diff[row, :n_params])
            np.add.at(want_x[row], circuit.data_index, diff[row, n_params:])
        assert d_theta.tobytes() == want_theta.tobytes()
        assert d_x.tobytes() == want_x.tobytes()


def test_batch_rows_equal_unbatched_calls():
    rng = np.random.default_rng(17)
    gates, marks, x, theta, w, b = reuploading_case(rng, 3, 2, 7)
    circuit = compile_circuit(gates, 3, marks)
    z = qsim.run_circuit(circuit, x, theta)
    values = qsim.circuit_value(circuit, x, theta, w, b)
    adjoint = qsim.adjoint_value_and_grad(circuit, x, theta, w, b)
    shifted = qsim.param_shift_value_and_grad(circuit, x, theta, w, b)
    for i in range(len(x)):
        np.testing.assert_allclose(z[i], qsim.run_circuit(circuit, x[i], theta),
                                   rtol=0, atol=1e-12)
        assert values[i] == pytest.approx(qsim.circuit_value(circuit, x[i], theta, w, b),
                                          abs=1e-12)
        for batched, single in zip(
                (adjoint, shifted),
                (qsim.adjoint_value_and_grad(circuit, x[i], theta, w, b),
                 qsim.param_shift_value_and_grad(circuit, x[i], theta, w, b))):
            assert isinstance(single[0], float)
            for part in range(4):
                np.testing.assert_allclose(np.asarray(batched[part])[i], single[part],
                                           rtol=0, atol=1e-12)


def test_empty_batch_gives_empty_results():
    """A (0, p) batch gives empty results, with and without noise, and both
    gradient modes give the same batched shapes with zero rows."""
    layout = encoding.plan_layout(5, 2, 1)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 2, marks)
    x, theta = np.zeros((0, 6)), np.zeros(layout.param_count)
    noise = NoiseSpec(gate_error=0.01, depolarizing=0.5)
    assert qsim.run_circuit(circuit, x, theta).shape == (0, 2)
    assert qsim.run_circuit(circuit, x, theta, noise, np.random.default_rng(0)).shape == (0, 2)
    expected = [(0,), (0, 4), (0, 6), (0, 2)]
    for grad in (qsim.param_shift_value_and_grad, qsim.adjoint_value_and_grad):
        parts = grad(circuit, x, theta, np.ones(2), 0.0)
        assert [np.shape(part) for part in parts[:4]] == expected
        assert parts[4] == 1.0



def test_non_finite_angle_is_a_runtime_fault():
    """A NaN angle means training diverged: a plain ValueError, not misuse."""
    circuit = compile_circuit([GateOp("ry", 0, source="data", index=0)], 1)
    with pytest.raises(ValueError, match="finite") as info:
        qsim.run_circuit(circuit, np.array([np.nan]), np.zeros(0))
    assert not isinstance(info.value, UsageError)

_DATA = [GateOp(kind, q, source="data", index=i)
         for i, (kind, q) in enumerate([("rx", 0), ("ry", 1), ("rz", 2), ("ry", 0)])]


def _param(kind, qubit, index):
    return GateOp(kind, qubit, source="param", index=index)


def _cz(control, target):
    return GateOp("cz", target=target, control=control)


# (gates, n, p, parameters) of circuits that build_circuit never emits
HAND_BUILT = {
    "fixed-angles": ([GateOp("rx", 0, angle=0.3), _param("ry", 1, 0), _DATA[0],
                      GateOp("rz", 0, angle=-1.2), _cz(0, 1), GateOp("ry", 1, angle=2.1),
                      _DATA[1], GateOp("rx", 0, angle=0.0), _cz(1, 0),
                      GateOp("rz", 1, angle=0.7)], 2, 2, 1),
    "shared-param": ([_param("ry", 0, 0), _param("rz", 1, 0), _param("rx", 0, 1), _DATA[1],
                      _cz(0, 1), _param("rx", 1, 0), _DATA[0], _param("ry", 0, 1),
                      _param("ry", 0, 0)], 2, 2, 2),
    "cz-runs": ([_param("ry", 0, 0), _DATA[2], _cz(0, 1), _cz(1, 2), _cz(0, 2),
                 _param("rx", 2, 1), _DATA[1], _cz(2, 1), _cz(1, 0), _DATA[0],
                 _param("rz", 1, 2), _cz(0, 2)], 3, 3, 3),
    "idle-qubit": ([_DATA[0], _param("ry", 2, 0), _DATA[2], _cz(0, 1), _cz(1, 2),
                    _param("rz", 0, 1), _DATA[3], _DATA[2], _cz(0, 2), _DATA[1]], 3, 4, 2),
    "no-cz": ([_DATA[0], _param("ry", 2, 0), _DATA[2], _param("rz", 0, 1), _DATA[3], _DATA[1],
               GateOp("rx", 1, angle=0.4)], 3, 4, 2),
    "cz-only": ([_cz(0, 1), _cz(1, 2), _cz(0, 2)], 3, 2, 0),
    "one-qubit": ([_DATA[0], _param("ry", 0, 0), _DATA[3], _param("rz", 0, 1),
                   GateOp("rx", 0, angle=1.3), GateOp("ry", 0, source="data", index=1),
                   GateOp("rz", 0, angle=-0.4)], 1, 4, 2),
}


def assert_adjoint_matches_oracle(gates, n, x, theta, w, b):
    """Batched and single-row adjoint calls against the scalar reference;
    returns the batched result."""
    circuit = compile_circuit(gates, n)
    batched = qsim.adjoint_value_and_grad(circuit, x, theta, w, b)
    value, d_theta, d_x, z, d_b = batched
    assert d_theta.shape == (len(x), len(theta)) and d_x.shape == x.shape and d_b == 1.0
    for i in range(len(x)):
        ref = oracles.adjoint_value_and_grad(gates, x[i], theta, w, b, n)
        single = qsim.adjoint_value_and_grad(circuit, x[i], theta, w, b)
        for got in (single, (value[i], d_theta[i], d_x[i], z[i], d_b)):
            assert got[0] == pytest.approx(ref[0], abs=1e-12)
            for part in (1, 2, 3):
                np.testing.assert_allclose(got[part], ref[part], rtol=0, atol=1e-12)
    return batched


@pytest.mark.parametrize("case", list(HAND_BUILT))
def test_adjoint_matches_scalar_reference_on_hand_built_circuits(case):
    gates, n, p, params = HAND_BUILT[case]
    rng = np.random.default_rng(len(gates))
    x = rng.uniform(-np.pi, np.pi, size=(6, p))
    theta = rng.uniform(-np.pi, np.pi, size=params)
    _, d_theta, d_x, _, _ = assert_adjoint_matches_oracle(
        gates, n, x, theta, rng.uniform(-1, 1, size=n), 0.3)
    if case == "cz-only":
        assert not d_x.any()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7])
def test_adjoint_matches_scalar_reference_with_mixed_encoding_axes(n):
    """The layout's circuit with each qubit's first feature encoded by RX, not
    RZ. Also covers blocks read in chunks (5 qubits) and one group at a time (7)."""
    rng = np.random.default_rng(n)
    layout = encoding.plan_layout(3 * n + 2, n, 2)
    gates = [dataclasses.replace(g, kind="rx") if g.source == "data" and g.index % 3 == 0 else g
             for g in encoding.build_circuit(layout)[0]]
    assert {g.kind for g in gates} >= {"rx", "ry", "rz"}
    x = rng.uniform(-1, 1, size=(5, layout.p))
    theta = rng.uniform(-np.pi, np.pi, size=layout.param_count)
    assert_adjoint_matches_oracle(gates, n, x, theta, rng.uniform(-1, 1, size=n), -0.2)


def test_noisy_batched_param_shift_deterministic_per_seed():
    rng = np.random.default_rng(23)
    gates, marks, x, theta, w, b = reuploading_case(rng, 2, 2, 3)
    noise = NoiseSpec(gate_error=0.01, depolarizing=0.1)
    circuit = compile_circuit(gates, 2, marks)
    runs = [
        qsim.param_shift_value_and_grad(circuit, x, theta, w, b, noise=noise,
                                        rng=np.random.default_rng(seed))
        for seed in (5, 5, 6)
    ]
    for part in range(4):
        np.testing.assert_array_equal(runs[0][part], runs[1][part])
    assert not np.array_equal(runs[0][1], runs[2][1])
    noiseless = qsim.param_shift_value_and_grad(circuit, x, theta, w, b)
    assert not np.array_equal(runs[0][1], noiseless[1])


# ---------------------------------------------------------------------------
# the fused block kernel against the gate-at-a-time evolution

# (noise, every_gate): with every_gate the circuit is compiled with a sublayer
# mark after each of its gates, so kicks also fall between a group's rotations
NOISE_SETTINGS = [
    (None, False),
    (NoiseSpec(gate_error=0.01), False),
    (NoiseSpec(depolarizing=0.5), False),
    (NoiseSpec(gate_error=0.01, depolarizing=0.5), False),
    (NoiseSpec(depolarizing=0.5), True),
    (NoiseSpec(gate_error=0.01, depolarizing=0.5), True),
]
NOISE_IDS = ["None", "noise1", "noise2", "noise3", "noise4", "noise5"]


def shift_batch(gates):
    """Angle columns of a parameter-shift batch (trainable uses, then data uses,
    in circuit order) and the shifts of its rows: none, +pi/2 on each column,
    -pi/2 on each column."""
    rotations = [gate for gate in gates if gate.kind != "cz"]
    cols = np.array([col for source in ("param", "data")
                     for col, gate in enumerate(rotations) if gate.source == source], dtype=np.intp)
    shifts = np.zeros((1 + 2 * len(cols), len(rotations)))
    shifts[1 + np.arange(len(cols)), cols] = np.pi / 2
    shifts[1 + len(cols) + np.arange(len(cols)), cols] = -np.pi / 2
    return cols, shifts


def assert_same_trajectories(gates, n, marks, x, theta, seed):
    """Per-row inputs, and the parameter-shift batch of the first input, give
    the gate-at-a-time rng draws, and states whose |psi|^2, all the readout
    sees, and <Z> are the gate-at-a-time ones, under every noise setting."""
    angles = oracles.angle_matrix(gates, x, theta)
    cols, shifts = shift_batch(gates)
    batches = [(x, None, angles, None),
               (x[:1], cols, np.broadcast_to(angles[0], shifts.shape), shifts)]
    for noise, every_gate in NOISE_SETTINGS:
        kicked = range(len(gates)) if every_gate else marks
        circuit = compile_circuit(gates, n, kicked)
        for inputs, shift_cols, rows, shift in batches:
            fused, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            psi = qsim._evolve(circuit, inputs, theta, noise, fused, shift_cols)
            expected = oracles.evolve(gates, n, kicked, rows, noise, ref, shift)
            assert psi.shape == expected.shape
            np.testing.assert_allclose(np.abs(psi) ** 2, np.abs(expected) ** 2, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(qsim._expect(psi, n), qsim._expect(expected, n), rtol=0,
                                       atol=1e-12)
            assert fused.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fused_evolution_matches_gate_at_a_time(n, layers):
    """Same states and the same rng draws, with marks mid-rotation-run, right
    before a CZ, on the first CZ of a run and on the last gate."""
    rng = np.random.default_rng(300 * n + layers)
    gates, layout_marks, x, theta, _, _ = reuploading_case(rng, n, layers, 6)
    cz = [pos for pos, gate in enumerate(gates) if gate.kind == "cz"]
    marks = sorted({*layout_marks, 1, len(gates) - 1, *(cz[:1] + [cz[0] - 1] if cz else [])})
    assert_same_trajectories(gates, n, marks, x, theta, seed=n + layers)


@pytest.mark.parametrize("case", ["no-rotations", "no-cz", "empty"])
def test_fused_evolution_matches_gate_at_a_time_without_rotations_or_czs(case):
    n = 3
    gates = {
        "no-rotations": [GateOp("cz", target=1, control=0), GateOp("cz", target=2, control=1),
                         GateOp("cz", target=2, control=0)],
        "no-cz": [GateOp("rx", 0, angle=0.3), GateOp("ry", 2, source="param", index=0),
                  GateOp("rz", 0, source="data", index=0), GateOp("ry", 1, angle=-1.1)],
        "empty": [],
    }[case]
    x = np.random.default_rng(1).uniform(-1, 1, size=(5, 1))
    marks = [0, len(gates) - 1] if gates else []
    assert_same_trajectories(gates, n, marks, x, np.array([0.7]), seed=9)


@pytest.mark.parametrize("case", list(HAND_BUILT))
def test_fused_evolution_matches_gate_at_a_time_on_hand_built_circuits(case):
    """Fixed angles, parameters shared by several gates, a group that opens
    with a trainable rotation (so gate error leaves no shared steps), CZ runs
    and idle qubits, with marks on the first and the last gate and mid-run."""
    gates, n, p, params = HAND_BUILT[case]
    rng = np.random.default_rng(len(gates) + p)
    x = rng.uniform(-np.pi, np.pi, size=(4, p))
    theta = rng.uniform(-np.pi, np.pi, size=params)
    marks = sorted({0, len(gates) // 2, len(gates) - 1})
    assert_same_trajectories(gates, n, marks, x, theta, seed=len(gates))


def test_shared_steps_of_the_default_circuit():
    """Each group of the default circuit opens with three data rotations and
    then two trainable ones. A call multiplies once, for all rows, every step
    of a noise-free parameter-shift batch, only the data steps under gate
    error, just the first when a kick follows every gate, and none for
    inputs that differ per row."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 4, marks)
    every_gate = compile_circuit(gates, 4, range(len(gates)))
    x = np.linspace(-1, 1, 64).reshape(2, 32)
    theta = np.linspace(-3, 3, layout.param_count)
    cols, _ = shift_batch(gates)

    def shared(inputs, jitter=False, circuit=circuit):
        single = len(inputs) == 1
        plan = qsim._plan(circuit, jitter, len(inputs),
                          len(qsim._angle_values(circuit, inputs, theta)),
                          cols if single else None, qsim._Workspace())
        return qsim._shared_steps(circuit.blocks, plan.stride)

    assert circuit.blocks.cols.shape == (5, 24)
    assert shared(x[:1]) == 5
    assert shared(x[:1], jitter=True) == 3
    assert shared(x[:1], circuit=every_gate) == 1
    assert shared(x) == 0


# ---------------------------------------------------------------------------
# the per-form group matrices against the general route

# every noise setting, also with no kick and with every kick drawn
EXACT_SETTINGS = NOISE_SETTINGS + [
    (NoiseSpec(depolarizing=p), every_gate) for p in (0.0, 1.0) for every_gate in (False, True)
] + [(NoiseSpec(gate_error=0.01, depolarizing=1.0), True)]
EXACT_IDS = NOISE_IDS + ["p0", "p0-every-gate", "p1", "p1-every-gate", "jitter-p1-every-gate"]


def as_floats(arr):
    """A complex array as its (re, im) floats, for oracles.same_bits."""
    return np.ascontiguousarray(arr).view(float)


def assert_forward_matches_general_route(gates, n, marks, x, theta, exact_matrices=True):
    """qsim._forward against oracles.forward under every exact setting: a
    batch, a one-row batch and the first input's parameter-shift batch give
    the same states before the tail, group matrices and tail flips, bit for
    bit, and the same rng draws. With ``exact_matrices`` False the matrices
    may differ in the sign of an entry that is exactly zero."""
    for noise, every_gate in EXACT_SETTINGS:
        circuit = compile_circuit(gates, n, range(len(gates)) if every_gate else marks)
        cols = np.concatenate([circuit.param_cols, circuit.data_cols])
        for inputs, shift_cols in ((x, None), (x[:1], None), (x[:1], cols)):
            fast, general = np.random.default_rng(3), np.random.default_rng(3)
            psi, _, _, matrices, flips = qsim._forward(circuit, inputs, theta, noise, fast,
                                                       shift_cols)
            want = oracles.forward(circuit, inputs, theta, noise, general, shift_cols)
            assert oracles.same_bits(as_floats(psi), as_floats(want[0]))
            no_flips = np.zeros(psi.shape[1], dtype=np.intp)
            assert np.array_equal(no_flips if flips is None else flips,
                                  no_flips if want[4] is None else want[4])
            got, expected = as_floats(matrices), as_floats(want[3])
            if not exact_matrices:  # x + 0.0 is x, except that -0.0 becomes 0.0
                got, expected = got + 0.0, expected + 0.0
            assert oracles.same_bits(got, expected)
            assert fast.bit_generator.state == general.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forward_gives_the_bits_of_the_general_route(n):
    """Layout circuits, also with a mark on every gate, so that kicks fall
    between rotation steps and onto groups that no rotation follows."""
    rng = np.random.default_rng(400 + n)
    gates, marks, x, theta, _, _ = reuploading_case(rng, n, 2, 5)
    assert_forward_matches_general_route(gates, n, marks, x, theta)


@pytest.mark.parametrize("case", list(HAND_BUILT))
def test_forward_gives_the_bits_of_the_general_route_on_hand_built_circuits(case):
    """Mixed axes in one step (RX among them), fixed zero angles, idle qubits
    and CZ runs first. A group left exactly diagonal or exactly off-diagonal
    (RZ only, a lone kick, no rotation at a step) can hold an exact zero whose
    sign the per-form product and the general one set differently; the states
    are the same bits all the same."""
    gates, n, p, params = HAND_BUILT[case]
    rng = np.random.default_rng(len(gates) + 7)
    x = rng.uniform(-np.pi, np.pi, size=(4, p))
    theta = rng.uniform(-np.pi, np.pi, size=params)
    marks = sorted({0, len(gates) // 2, len(gates) - 1})
    assert_forward_matches_general_route(gates, n, marks, x, theta, exact_matrices=False)


@pytest.mark.parametrize("noise,every_gate", EXACT_SETTINGS, ids=EXACT_IDS)
def test_entry_points_give_the_bits_of_the_general_route(noise, every_gate, monkeypatch):
    """run_circuit, param_shift_value_and_grad and (noise-free)
    adjoint_value_and_grad return the bits they return when their forward
    pass takes the general route, on layout and hand-built circuits."""
    rng = np.random.default_rng(17)
    cases = [default_case(n, 2, n)[:2] + (n,) for n in (1, 4)]
    cases += [(gates, sorted({0, len(gates) - 1}), n) for gates, n, _, _ in HAND_BUILT.values()]
    for gates, marks, n in cases:
        rotations = [gate for gate in gates if gate.kind != "cz"]
        p = 1 + max((g.index for g in rotations if g.source == "data"), default=0)
        params = 1 + max((g.index for g in rotations if g.source == "param"), default=-1)
        x = rng.uniform(-np.pi, np.pi, size=(3, p))
        theta, w = rng.uniform(-np.pi, np.pi, size=params), rng.uniform(-1, 1, size=n)
        circuit = compile_circuit(gates, n, range(len(gates)) if every_gate else marks)

        def results():
            out = [qsim.run_circuit(circuit, inputs, theta, noise, np.random.default_rng(5))
                   for inputs in (x, x[0])]
            out += qsim.param_shift_value_and_grad(circuit, x, theta, w, 0.3, noise,
                                                   np.random.default_rng(6))[:4]
            if noise is None:
                out += qsim.adjoint_value_and_grad(circuit, x, theta, w, 0.3)[:4]
            return out

        fast = results()
        with monkeypatch.context() as patch:
            patch.setattr(qsim, "_forward", oracles.forward)
            general = results()
        assert len(fast) == len(general)
        for got, want in zip(fast, general):
            assert oracles.same_bits(got, want)


# ---------------------------------------------------------------------------
# the tail: CZ runs and kick-only groups after the last rotation


def tail_events(blocks):
    return np.arange(blocks.n_events)[blocks.tail_events]


def test_the_default_circuit_leaves_its_tail_to_the_readout():
    """The default circuit ends in a CZ run and, under sublayer noise, in the
    last sublayer's kick on each qubit. Both are left out of the passes: 29
    passes and 24 groups with and without noise (30 passes without noise and
    34 passes and 28 groups under it when the tail ran). The draws are the
    same: 24 events, the last 4 kicking qubits 0..3 in the readout."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    blocks = compile_circuit(gates, 4, marks).blocks
    groups = [g for g, _, _ in blocks.passes if g is not None]
    assert len(blocks.passes) == 29 and groups == list(range(24))
    assert blocks.cols.shape == (5, 24) and (blocks.axes >= 0).all()
    assert blocks.passes[-1][0] == 23  # the last group with a rotation
    assert sum(g is None for g, _, _ in blocks.passes) == 5
    assert blocks.n_events == 24 and blocks.rounds == (-1,)
    assert blocks.tail_events == slice(20, 24) and blocks.tail_bits.tolist() == [8, 4, 2, 1]
    assert (blocks.kick_group[20:] == -1).all() and (blocks.kick_group[:20] >= 0).all()


def kept_tail(gates, n):
    """``gates`` followed by an identity rotation on every qubit, so that
    nothing after their last rotation is a tail: the route that runs the
    tail's passes on the state, reference for the readout that absorbs it."""
    return list(gates) + [GateOp("rz", q, angle=0.0) for q in range(n)]


_LAYOUT_GATES, _LAYOUT_MARKS = encoding.build_circuit(encoding.plan_layout(14, 4, 2))
TAIL_CASES = {  # (gates, n, marks): a CZ-run tail, kick tails, no tail, all tail
    "cz-last": (HAND_BUILT["cz-runs"][0], 3, [0, 5]),
    "kicks-last": (_LAYOUT_GATES, 4, list(_LAYOUT_MARKS)),
    "rotation-last": ([_DATA[0], _param("ry", 1, 0), _cz(0, 1), _DATA[1],
                       _param("rz", 0, 1), GateOp("rx", 1, angle=0.4)], 2, [0, 5]),
    "no-rotation": (HAND_BUILT["cz-only"][0], 3, [0, 1, 2]),
}
TAIL_SETTINGS = [None, NoiseSpec(gate_error=0.01), NoiseSpec(depolarizing=0.5),
                 NoiseSpec(depolarizing=1.0), NoiseSpec(gate_error=0.01, depolarizing=1.0)]


@pytest.mark.parametrize("case", list(TAIL_CASES))
def test_the_readout_absorbs_the_tail_bit_for_bit(case):
    """Values, gradients, <Z> and rng draws of every entry point are, bit for
    bit, those of the same circuit run with its tail's passes, under every
    noise setting. At p = 1 every row of the kick tails kicks each of its
    qubits, so most rows flip."""
    gates, n, marks = TAIL_CASES[case]
    rotations = [gate for gate in gates if gate.kind != "cz"]
    p = 1 + max((g.index for g in rotations if g.source == "data"), default=0)
    params = 1 + max((g.index for g in rotations if g.source == "param"), default=-1)
    rng = np.random.default_rng(len(gates))
    x = rng.uniform(-np.pi, np.pi, size=(3, p))
    theta, w = rng.uniform(-np.pi, np.pi, size=params), rng.uniform(-1, 1, size=n)
    circuit = compile_circuit(gates, n, marks)
    reference = compile_circuit(kept_tail(gates, n), n, marks)
    for blocks in (circuit.blocks, reference.blocks):
        assert not blocks.passes or blocks.passes[-1][0] is not None  # ends in a rotation
    assert tail_events(reference.blocks).size == 0
    assert tail_events(circuit.blocks).size == {"cz-last": 0, "kicks-last": 4,
                                                "rotation-last": 0, "no-rotation": 9}[case]
    for noise in TAIL_SETTINGS:

        def results(circuit):
            rng = np.random.default_rng(5)
            out = [qsim.run_circuit(circuit, inputs, theta, noise, rng) for inputs in (x, x[0])]
            out.append(qsim.circuit_value(circuit, x[1], theta, w, 0.3, noise, rng))
            out += qsim.param_shift_value_and_grad(circuit, x, theta, w, 0.3, noise, rng)[:4]
            if noise is None:
                out += qsim.adjoint_value_and_grad(circuit, x, theta, w, 0.3)[:4]
            return out, rng.bit_generator.state

        got, drawn = results(circuit)
        want, ref_drawn = results(reference)
        assert drawn == ref_drawn and len(got) == len(want)
        for part, ref in zip(got, want):
            assert oracles.same_bits(part, ref)
        if case == "kicks-last" and noise is not None and noise.depolarizing == 1.0:
            flips = qsim._forward(circuit, x[:1], theta, noise, np.random.default_rng(1),
                                  np.concatenate([circuit.param_cols, circuit.data_cols]))[4]
            assert np.count_nonzero(flips) > 0.9 * len(flips)


# ---------------------------------------------------------------------------
# padding slots and the one fused form


def zero_padded_route(gates, layout):
    """``gates`` with each padding slot read as a data gate, as the layout's
    circuit read an input zero-padded to length 3nk: the route the fixed
    zero angles replace."""
    width, slot, padded = 3 * layout.n * layout.sublayers, 0, []
    for gate in gates:
        if gate.kind != "cz" and gate.source != "param":
            if gate.source is None:
                gate = GateOp(gate.kind, gate.target, source="data", index=slot % width)
            assert gate.index == slot % width
            slot += 1
        padded.append(gate)
    return padded


def test_padding_slots_keep_the_bits_of_a_zero_padded_input():
    """The adjoint and noise-free parameter-shift values and gradients and
    circuit_value of a length-p input are, bit for bit, those of the circuit
    that reads each padding slot from an input padded with zeros (its d/dx
    cut to the first p columns), on one input and on a batch: for hand-picked
    layouts, with one qubit and with no padding among them, and random ones."""
    rng = np.random.default_rng(29)
    layouts = [(1, 1, 5), (1, 2, 9), (2, 1, 7), (3, 2, 20), (4, 2, 32), (2, 2, 6), (1, 1, 3)]
    layouts += [(int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 25)))
                for _ in range(4)]
    for n, layers, p in layouts:
        layout = encoding.plan_layout(p, n, layers)
        gates, marks = encoding.build_circuit(layout)
        circuit = compile_circuit(gates, n, marks)
        reference = compile_circuit(zero_padded_route(gates, layout), n, marks)
        assert circuit.data_cols.size == layers * p
        assert reference.data_cols.size == layers * (p + layout.pad_len)
        x = rng.uniform(-1, 1, size=(4, p))
        padded = np.concatenate([x, np.zeros((4, layout.pad_len))], axis=1)
        theta, w = rng.uniform(-np.pi, np.pi, layout.param_count), rng.uniform(-1, 1, n)
        for inputs, zeros in ((x, padded), (x[0], padded[0])):
            for call in (qsim.adjoint_value_and_grad, qsim.param_shift_value_and_grad):
                value, d_theta, d_x, z, _ = call(circuit, inputs, theta, w, 0.3)
                want = call(reference, zeros, theta, w, 0.3)
                assert d_x.shape == inputs.shape
                assert_bits_equal((value, d_theta, d_x, z),
                                  (want[0], want[1], want[2][..., :p], want[3]))
            assert_bits_equal((qsim.circuit_value(circuit, inputs, theta, w, 0.3),),
                              (qsim.circuit_value(reference, zeros, theta, w, 0.3),))


def test_one_fused_form_serves_every_call(monkeypatch):
    """The default circuit is fused once: noise-free, gate-error and
    depolarizing calls and adjoint calls all run ``circuit.blocks``, one
    :class:`qsim._Blocks`, and the plans it keeps for one input are keyed by
    (gate error on, parameter-shift batch) alone. Its parameter-shift batch
    is 1 + 2 * (48 trainable + 64 data uses) = 225 rows, as the 8 padding
    slots are fixed angles."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 4, marks)
    assert type(circuit.blocks) is qsim._Blocks
    assert (circuit.param_cols.size, circuit.data_cols.size) == (48, 64)
    seen = []
    block_matrices = qsim._block_matrices

    def spy(blocks, *args):
        seen.append(blocks)
        return block_matrices(blocks, *args)

    monkeypatch.setattr(qsim, "_block_matrices", spy)
    rng = np.random.default_rng(30)
    x = np.tanh(rng.normal(size=(3, 32)))
    theta, w = rng.uniform(-np.pi, np.pi, layout.param_count), np.ones(4)
    noises = [None, NoiseSpec(gate_error=0.01), NoiseSpec(depolarizing=0.05),
              NoiseSpec(gate_error=0.01, depolarizing=0.05)]
    for noise in noises:
        qsim.param_shift_value_and_grad(circuit, x[0], theta, w, 0.1, noise, rng)
        qsim.circuit_value(circuit, x[1], theta, w, 0.1, noise, rng)
        qsim.run_circuit(circuit, x, theta, noise, rng)
    qsim.adjoint_value_and_grad(circuit, x, theta, w, 0.1)
    assert len(seen) == 3 * len(noises) + 1
    assert all(blocks is circuit.blocks for blocks in seen)
    assert set(circuit.plans) == {(False, True), (False, False), (True, True), (True, False)}
    assert circuit.plans[False, True].rows == circuit.plans[True, True].rows == 225


# ---------------------------------------------------------------------------
# the kept workspace and the circuit-held parameter-shift index


def default_case(n, layers, seed):
    layout = encoding.plan_layout(3 * n + 2, n, layers)
    gates, marks = encoding.build_circuit(layout)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(3, 3 * n + 2))
    theta = rng.uniform(-np.pi, np.pi, size=layout.param_count)
    return gates, marks, x, theta, rng.uniform(-1, 1, size=n), n


def forget_workspace():
    """Drop this thread's kept workspace."""
    vars(qsim._retained).clear()


def compiled(case, every_gate=False):
    """The circuit of a :func:`default_case`, compiled afresh, with a sublayer
    mark after each gate if ``every_gate``."""
    gates, marks, _, _, _, n = case
    return compile_circuit(gates, n, range(len(gates)) if every_gate else marks)


def plan_key(noise, shift=True):
    """The key of the plan a circuit keeps for one input under ``noise``: of
    its parameter-shift batch, or with ``shift`` False of a value. Only gate
    error changes it."""
    return noise is not None and noise.gate_error is not None, shift


def assert_bits_equal(got, expected):
    for part, ref in zip(got, expected):
        assert np.asarray(part).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("noise,every_gate", NOISE_SETTINGS, ids=NOISE_IDS)
def test_interleaved_calls_give_the_bits_of_calls_made_alone(noise, every_gate):
    """Parameter-shift calls of two circuits, alternating with run_circuit
    batches and adjoint calls, give the values and rng draws of the same calls
    each made with no kept workspace and a freshly compiled circuit, so with
    the parameter-shift plan built afresh; each circuit keeps the plans of
    this noise only, and the adjoint's."""
    cases = [default_case(4, 2, 1), default_case(3, 3, 2)]

    def calls():
        for row in range(3):
            for k, (_, _, x, theta, w, _) in enumerate(cases):
                yield k, lambda circuit, rng: qsim.param_shift_value_and_grad(
                    circuit, x[row], theta, w, 0.2, noise, rng)
                yield k, lambda circuit, rng: (qsim.run_circuit(circuit, x[: row + 1], theta,
                                                                noise, rng),)
                yield k, lambda circuit, rng: qsim.adjoint_value_and_grad(circuit, x[row:], theta,
                                                                          w, 0.2)

    def run(alone):
        circuits = [compiled(case, every_gate) for case in cases]
        rngs = [np.random.default_rng(7), np.random.default_rng(8)]
        results = []
        for k, call in calls():
            if alone:
                forget_workspace()
                circuits[k] = compiled(cases[k], every_gate)
            results.append(call(circuits[k], rngs[k]))
        return results, [rng.bit_generator.state for rng in rngs], circuits

    forget_workspace()
    interleaved, states, circuits = run(alone=False)
    for circuit in circuits:  # the one-input adjoint call keeps the noise-free value plan
        assert set(circuit.plans) == {plan_key(noise), plan_key(noise, False),
                                      plan_key(None, False)}
    alone, alone_states, _ = run(alone=True)
    for got, expected in zip(interleaved, alone):
        assert_bits_equal(got, expected)
    assert states == alone_states


@pytest.mark.parametrize("case", ["default", "one-row"])
def test_returned_arrays_never_alias_the_workspace(case):
    """Results and final states stay as returned through later calls, and share
    no memory with the kept workspace, also for a batch of one row (a circuit
    with no angle uses)."""
    if case == "default":
        gates, marks, x, theta, w, n = default_case(4, 2, 3)
    else:
        gates, marks, n = [GateOp("rx", 0, angle=0.3), GateOp("cz", target=1, control=0)], [0], 2
        x, theta, w = np.zeros((3, 0)), np.zeros(0), np.ones(2)
    circuit = compile_circuit(gates, n, marks)
    cols = np.concatenate([circuit.param_cols, circuit.data_cols])
    noise, rng = NoiseSpec(gate_error=0.01, depolarizing=0.5), np.random.default_rng(4)
    kept = []
    for row in range(len(x)):
        kept.append(qsim._evolve(circuit, x[row : row + 1], theta, noise, rng, cols))
        kept.extend(qsim.param_shift_value_and_grad(circuit, x[row], theta, w, 0.2, noise,
                                                    rng)[1:4])
    assert kept[0].shape == (1 + 2 * len(cols), 2**n)
    copies = [arr.copy() for arr in kept]
    qsim.param_shift_value_and_grad(circuit, x, theta, w, 0.2, noise, rng)
    workspace = qsim._retained.workspace.arrays.values()
    for arr, copy in zip(kept, copies):
        assert arr.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(arr, buffer) for buffer in workspace)


@pytest.mark.parametrize("p", [0.05, 1.0])
def test_parameter_shift_call_allocates_no_per_call_arrays(p):
    """After a warm-up call, a noisy parameter-shift call of the default circuit
    on one input allocates only small arrays, also when every kick is drawn:
    its traced peak is a fraction of the arrays it works in (about 1.6 MB
    when each call allocated its own, and 0.9 MB at p = 1 when the kicks
    did)."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 4, marks)
    x = np.linspace(-1, 1, 64).reshape(2, 32)
    theta = np.linspace(-3, 3, layout.param_count)
    noise, rng = NoiseSpec(gate_error=0.01, depolarizing=p), np.random.default_rng(0)
    args = (theta, np.ones(4), 0.1, noise, rng)
    qsim.param_shift_value_and_grad(circuit, x[0], *args)
    tracemalloc.start()
    try:
        qsim.param_shift_value_and_grad(circuit, x[1], *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("p", [0.05, 1.0])
def test_one_row_noisy_value_allocates_no_per_call_arrays(p):
    """After a warm-up call, a noisy one-row value of the default circuit (a
    truncated episode's bootstrap) allocates only small temporaries, also
    when every kick is drawn: its traced peak stays under 24 KB (about 14 KB
    at p = 1, where each of its 24 events kicks)."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    circuit = compile_circuit(gates, 4, marks)
    x = np.linspace(-1, 1, 64).reshape(2, 32)
    theta = np.linspace(-3, 3, layout.param_count)
    noise, rng = NoiseSpec(gate_error=0.01, depolarizing=p), np.random.default_rng(0)
    args = (theta, np.ones(4), 0.1, noise, rng)
    qsim.circuit_value(circuit, x[0], *args)
    tracemalloc.start()
    try:
        qsim.circuit_value(circuit, x[1], *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 1024


@pytest.mark.parametrize("noise,every_gate", NOISE_SETTINGS, ids=NOISE_IDS)
def test_kept_step_index_equals_a_fresh_build(noise, every_gate):
    """The plans a circuit keeps from its first parameter-shift call and its
    first one-input value (the step index, the shared head, the layout of
    the angle table and the step slices) are, bit for bit, those a fresh
    build gives for a later call with other inputs and parameters: the
    circuit and whether gate error is on fix them.
    The kept arrays are read-only."""
    case = default_case(4, 2, 5)
    _, _, x, theta, w, _ = case
    forget_workspace()
    circuit = compiled(case, every_gate)
    cols = np.concatenate([circuit.param_cols, circuit.data_cols])
    rng = np.random.default_rng(6)
    kept = []
    for row in range(len(x)):
        qsim.param_shift_value_and_grad(circuit, x[row], theta + row, w, 0.2, noise, rng)
        qsim.run_circuit(circuit, x[row], theta + row, noise, rng)
        assert set(circuit.plans) == {plan_key(noise), plan_key(noise, False)}
        kept.append(dict(circuit.plans))
    assert all(plans[key] is kept[0][key] for plans in kept for key in plans)  # built once
    n_values = len(qsim._angle_values(circuit, x[-1:], theta + len(x) - 1))
    gate_error, _ = plan_key(noise)
    for shift_cols in (cols, None):
        plan = kept[0][plan_key(noise, shift_cols is not None)]
        for arr in (plan.index, plan.head.index, plan.columns, plan.stride):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            plan.index[0, 0, 0] = 0
        fresh = qsim._plan(circuit, gate_error, 1, n_values, shift_cols, qsim._Workspace())
        assert plan.rows == fresh.rows and plan.trig == fresh.trig
        assert repr(plan.head.turns) == repr(fresh.head.turns)
        for got, want in [(plan.columns, fresh.columns), (plan.stride, fresh.stride),
                          *zip(plan.shifted, fresh.shifted), (plan.jitter, fresh.jitter),
                          *zip(plan.moves, fresh.moves), *zip(plan.inplace, fresh.inplace),
                          (plan.index, fresh.index), (plan.gather, fresh.gather),
                          *zip(plan.head[:1] + plan.head[2:], fresh.head[:1] + fresh.head[2:])]:
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_workspace_reuses_its_last_two_views_of_a_name():
    """Requests that alternate between two shapes get the same two views of
    one buffer back, carving none anew; a third shape drops the view carved
    first, and a larger request replaces the buffer and drops the views of
    the old one."""
    ws = qsim._Workspace()
    big, one = ws.array("psi", (16, 241), complex), ws.array("psi", (16, 1), complex)
    for _ in range(2):
        assert ws.array("psi", (16, 241), complex) is big
        assert ws.array("psi", (16, 1), complex) is one
    assert np.shares_memory(big, one) and big.flags.c_contiguous
    seven = ws.array("psi", (16, 7), complex)
    assert ws.array("psi", (16, 241), complex) is not big
    assert ws.array("psi", (16, 7), complex) is seven
    assert ws.array("psi", (16, 1), complex) is not one
    ws.array("psi", (16, 300), complex)
    assert len(ws.views["psi"]) == 1
    assert ws.array("psi", (16, 1), complex) is not one
    assert all(np.shares_memory(view, ws.arrays["psi"]) for view in ws.views["psi"])
    assert ws.array("psi", (16, 1), float).dtype == float


# ---------------------------------------------------------------------------
# adjoint calls and run_circuit batches in the kept workspace


def test_adjoint_calls_of_any_row_count_give_the_bits_of_fresh_workspace_calls():
    """Adjoint calls of 50, 1, 37, 200 and 50 rows, alternating between a
    4-qubit and a 2-qubit circuit with a run_circuit batch after each, give the
    bits of the same calls each made in a fresh workspace, also with every
    kept float buffer filled with NaN before each call: no call reads what
    it has not written. The kept buffers grow to the largest call and stay
    that size."""
    cases = [default_case(4, 2, 11), default_case(2, 1, 12)]
    circuits = [compiled(case) for case in cases]
    rng = np.random.default_rng(13)
    calls = []
    for rows in (50, 1, 37, 200, 50):
        for circuit, (_, _, x, theta, w, _) in zip(circuits, cases):
            inputs = rng.uniform(-1, 1, size=(rows, x.shape[1]))
            calls.append(functools.partial(qsim.adjoint_value_and_grad,
                                           circuit, inputs, theta, w, 0.2))
            calls.append(functools.partial(qsim.run_circuit, circuit, inputs[::-1], theta))
    expected = []
    for call in calls:
        forget_workspace()
        expected.append(call())
    forget_workspace()
    sizes = []
    for call, want in zip(calls, expected):
        kept = getattr(qsim._retained, "workspace", None)
        for buffer in kept.arrays.values() if kept is not None else ():
            if buffer.dtype.kind in "fc":
                buffer.fill(np.nan)
        got = call()
        for part, ref in zip(got, want):
            np.testing.assert_array_equal(part, ref)
        assert_bits_equal(got, want)
        sizes.append(qsim._retained.workspace.arrays["psi"].size)
    assert sizes[-1] == max(sizes) == 16 * 200


@pytest.mark.parametrize("rows", [1, 50])
def test_mutating_a_returned_array_leaves_the_next_call_unchanged(rows):
    """Every array an adjoint call or a run_circuit batch returns is its own:
    none shares memory with the kept workspace, and writing into them
    changes nothing a later call returns."""
    case = default_case(4, 2, 14)
    _, _, x, theta, w, _ = case
    circuit = compiled(case)
    inputs = np.random.default_rng(15).uniform(-1, 1, size=(rows, x.shape[1]))
    calls = [lambda: qsim.adjoint_value_and_grad(circuit, inputs, theta, w, 0.2)[:4],
             lambda: (qsim.run_circuit(circuit, inputs, theta),)]
    for call in calls:
        first = call()
        expected = [part.copy() for part in first]
        buffers = qsim._retained.workspace.arrays.values()
        for part in first:
            assert not any(np.shares_memory(part, buffer) for buffer in buffers)
            part[...] = np.nan
        assert_bits_equal(call(), expected)


def test_warm_adjoint_call_allocates_no_per_call_arrays():
    """After a warm-up call, a 50-row adjoint call of the default circuit
    allocates only its outputs and small arrays: its traced peak is a
    fraction of the arrays it works in (about 1.1 MB when each call
    allocated its own)."""
    layout = encoding.plan_layout(32, 4, 2)
    circuit = compile_circuit(encoding.build_circuit(layout)[0], 4)
    rng = np.random.default_rng(16)
    x = [np.tanh(rng.normal(size=(50, 32))) for _ in range(2)]
    theta = rng.uniform(-np.pi, np.pi, layout.param_count)
    qsim.adjoint_value_and_grad(circuit, x[0], theta, np.ones(4), 0.1)
    tracemalloc.start()
    try:
        qsim.adjoint_value_and_grad(circuit, x[1], theta, np.ones(4), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 1024


# ---------------------------------------------------------------------------
# one forward route, one kept workspace


@pytest.mark.parametrize("rows", [1, 50])
@pytest.mark.parametrize("case", ["default", *HAND_BUILT])
def test_adjoint_forward_pass_gives_the_bits_of_run_circuit(case, rows):
    """The value and <Z> of an adjoint call are, bit for bit, those that
    circuit_value and run_circuit give for the same batch, and for one row
    also for the same single input: all run the one forward pass."""
    rng = np.random.default_rng(rows)
    if case == "default":
        layout = encoding.plan_layout(32, 4, 2)
        gates, _ = encoding.build_circuit(layout)
        n, params = 4, layout.param_count
        x = np.tanh(rng.normal(size=(rows, 32)))
    else:
        gates, n, p, params = HAND_BUILT[case]
        x = rng.uniform(-np.pi, np.pi, size=(rows, p))
    theta = rng.uniform(-np.pi, np.pi, size=params)
    w = rng.uniform(-1, 1, size=n)
    circuit = compile_circuit(gates, n)
    for inputs in [x] + ([x[0]] if rows == 1 else []):
        value, _, _, z, _ = qsim.adjoint_value_and_grad(circuit, inputs, theta, w, 0.3)
        expected = (qsim.circuit_value(circuit, inputs, theta, w, 0.3),
                    qsim.run_circuit(circuit, inputs, theta))
        assert type(value) is type(expected[0]) and z.shape == expected[1].shape
        assert_bits_equal((value, z), expected)


def test_one_kept_workspace_serves_every_call():
    """Adjoint calls, run_circuit batches and noisy parameter-shift calls of
    two circuits, interleaved, leave this thread one kept workspace and no
    other: the module keeps one thread-local store, it holds exactly one
    workspace, no circuit holds one, and its state buffer is sized for the
    largest call, the 225-row shift batch of the default circuit."""
    layout = encoding.plan_layout(32, 4, 2)
    gates, marks = encoding.build_circuit(layout)
    rng = np.random.default_rng(17)
    x = np.tanh(rng.normal(size=(3, 32)))
    cases = [(gates, marks, x, rng.uniform(-np.pi, np.pi, layout.param_count), np.ones(4), 4),
             default_case(2, 1, 18)]
    circuits = [compiled(case) for case in cases]
    noise = NoiseSpec(gate_error=0.01, depolarizing=0.05)
    forget_workspace()
    for row in range(3):
        for circuit, (_, _, x, theta, w, _) in zip(circuits, cases):
            qsim.adjoint_value_and_grad(circuit, x[row:], theta, w, 0.2)
            qsim.run_circuit(circuit, x[: row + 1], theta, noise, rng)
            qsim.param_shift_value_and_grad(circuit, x[row], theta, w, 0.2, noise, rng)
    assert [obj for obj in vars(qsim).values()
            if isinstance(obj, threading.local)] == [qsim._retained]
    kept = list(vars(qsim._retained).values())
    assert len(kept) == 1 and type(kept[0]) is qsim._Workspace
    for circuit in circuits:
        assert not any(isinstance(value, qsim._Workspace) for value in vars(circuit).values())
    shift_rows = 1 + 2 * (circuits[0].param_cols.size + circuits[0].data_cols.size)
    assert shift_rows == 225
    assert kept[0].arrays["psi"].size == shift_rows * 16
