"""Classical stack: forward examples and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnav import UsageError, nn

import oracles


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    params = {"W": np.eye(3), "b": np.zeros(3)}
    x = np.array([1.0, -2.0, 0.5])
    y, _ = nn.dense_forward(params, x)
    np.testing.assert_array_equal(y, x)


def test_dense_bias_only():
    params = {"W": np.zeros((2, 3)), "b": np.array([4.0, -1.0])}
    y, _ = nn.dense_forward(params, np.ones(3))
    np.testing.assert_array_equal(y, [4.0, -1.0])


def test_dense_2x2_example():
    params = {"W": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.zeros(2)}
    y, _ = nn.dense_forward(params, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(y, [3.0, 7.0])


def test_dense_shape_error():
    params = {"W": np.eye(3), "b": np.zeros(3)}
    with pytest.raises(UsageError):
        nn.dense_forward(params, np.zeros(4))


def test_dense_gradients():
    rng = np.random.default_rng(1)
    params = nn.dense_init(rng, 5, 3)
    x = rng.normal(size=5)
    dy = rng.normal(size=3)

    def loss():
        y, _ = nn.dense_forward(params, x)
        return float(dy @ y)

    _, cache = nn.dense_forward(params, x)
    _, grads = nn.dense_backward(params, dy, cache)
    assert oracles.finite_diff_check(params, loss, grads) < 1e-9  # linear: exact


# ---------------------------------------------------------------------------
# layer norm


def test_dense_and_layer_norm_batch_rows_equal_single_calls():
    """Forward and backward on a (T, d) batch give, row by row, the bits of
    T single calls; parameter gradients come back per row."""
    rng = np.random.default_rng(12)
    dense = nn.dense_init(rng, 7, 5)
    dense["b"][:] = rng.normal(size=5)
    norm = {"gain": rng.normal(size=5), "bias": rng.normal(size=5)}
    x = rng.normal(size=(4, 7))
    dy = rng.normal(size=(4, 5))
    z, cz = nn.dense_forward(dense, x)
    y, cy = nn.layer_norm_forward(norm, z)
    dz, gn = nn.layer_norm_backward(norm, dy, cy)
    dx, gd = nn.dense_backward(dense, dz, cz)
    assert gd["W"].shape == (4, 5, 7) and gn["gain"].shape == (4, 5)
    for t in range(4):
        z1, cz1 = nn.dense_forward(dense, x[t])
        y1, cy1 = nn.layer_norm_forward(norm, z1)
        dz1, gn1 = nn.layer_norm_backward(norm, dy[t], cy1)
        dx1, gd1 = nn.dense_backward(dense, dz1, cz1)
        np.testing.assert_array_equal(z1, dense["W"] @ x[t] + dense["b"])
        np.testing.assert_array_equal(dx1, dense["W"].T @ dz1)
        for batch, single in ((z, z1), (y, y1), (dz, dz1), (dx, dx1)):
            np.testing.assert_array_equal(batch[t], single)
        for key in gd1:
            np.testing.assert_array_equal(gd[key][t], gd1[key])
        for key in gn1:
            np.testing.assert_array_equal(gn[key][t], gn1[key])


def test_layer_norm_constant_input_gives_bias():
    params = {"gain": np.ones(4), "bias": np.array([1.0, 2.0, 3.0, 4.0])}
    y, _ = nn.layer_norm_forward(params, np.full(4, 7.0))
    np.testing.assert_allclose(y, params["bias"], atol=1e-6)


def test_layer_norm_standardizes():
    params = nn.layer_norm_init(6)
    y, _ = nn.layer_norm_forward(params, np.array([3.0, -1.0, 2.0, 0.5, 9.0, -4.0]))
    assert abs(y.mean()) < 1e-12
    assert y.var() == pytest.approx(1.0, abs=1e-4)


def test_layer_norm_two_point_example():
    params = nn.layer_norm_init(2)
    y, _ = nn.layer_norm_forward(params, np.array([1.0, -1.0]))
    np.testing.assert_allclose(y, [1.0, -1.0], atol=1e-4)


def test_layer_norm_gradients():
    rng = np.random.default_rng(2)
    params = nn.layer_norm_init(5)
    params["gain"] = rng.normal(size=5)
    params["bias"] = rng.normal(size=5)
    x = rng.normal(size=5)
    dy = rng.normal(size=5)

    def loss():
        y, _ = nn.layer_norm_forward(params, x)
        return float(dy @ y)

    _, cache = nn.layer_norm_forward(params, x)
    dx, grads = nn.layer_norm_backward(params, dy, cache)
    assert oracles.finite_diff_check(params, loss, grads) < 1e-5
    # input gradient via a wrapper parameter
    xp = {"x": x}

    def loss_x():
        y, _ = nn.layer_norm_forward(params, xp["x"])
        return float(dy @ y)

    assert oracles.finite_diff_check(xp, loss_x, {"x": dx}) < 1e-5


# ---------------------------------------------------------------------------
# softmax / entropy


def test_softmax_uniform():
    probs, _, entropy = nn.softmax_logs(np.zeros(3))
    np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)
    assert entropy == pytest.approx(math.log(3), abs=1e-12)


def test_softmax_degenerate():
    _, _, entropy = nn.softmax_logs(np.array([50.0, 0.0, 0.0]))
    assert entropy < 1e-10


def test_softmax_two_logits():
    probs, _, entropy = nn.softmax_logs(np.zeros(2))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    assert entropy == pytest.approx(math.log(2), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_properties(logits):
    probs, _, entropy = nn.softmax_logs(np.array(logits))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)
    assert -1e-12 <= entropy <= math.log(len(logits)) + 1e-12


def test_entropy_floor_keeps_the_bits_of_clip():
    """The log floor np.maximum(p, 1e-300) gives the bits of the former
    np.clip(p, 1e-300, None) on probabilities that are 0, subnormal or NaN."""

    def clipped_backward(probs, dH):
        logp = np.log(np.clip(probs, 1e-300, None))
        ent = -(probs * logp).sum(axis=-1, keepdims=True)
        return dH * (-probs * (logp + ent))

    rows = []
    for logits in ([0.0, -800.0, -800.0], [0.0, -744.0, -710.0], [np.nan, 0.0, 0.0],
                   [0.3, -0.2, 0.1]):
        probs, _, entropy = nn.softmax_logs(np.array(logits))
        clipped = float(-(probs * np.log(np.clip(probs, 1e-300, None))).sum())
        np.testing.assert_array_equal(entropy, clipped)
        np.testing.assert_array_equal(nn.entropy_backward(probs, 0.7),
                                      clipped_backward(probs, 0.7))
        rows.append(probs)
    rows = np.array(rows)
    assert rows[0, 1] == 0.0 and 0.0 < rows[1, 1] < np.finfo(float).tiny
    assert np.isnan(rows[2]).all()
    np.testing.assert_array_equal(nn.entropy_backward(rows, 0.7), clipped_backward(rows, 0.7))


def test_softmax_entropy_keeps_the_bits_of_the_array_route():
    """One row reduced on Python floats gives the probabilities and entropy
    of numpy's reductions, for every width that numpy sums left to right,
    with a tree of 8 partial sums, or in halves (over 128)."""
    rng = np.random.default_rng(14)
    with np.errstate(all="ignore"):
        for row in oracles.logit_rows(rng, [*range(1, 10), 16, 23, 128, 129, 300], 300):
            probs, _, entropy = nn.softmax_logs(row)
            want_probs, want_entropy = oracles.softmax_entropy(row)
            assert oracles.same_bits(probs, want_probs), row
            assert oracles.same_bits(entropy, want_entropy), row


def test_entropy_backward_matches_fd():
    rng = np.random.default_rng(3)
    logits = {"z": rng.normal(size=4)}

    def loss():
        _, _, ent = nn.softmax_logs(logits["z"])
        return ent

    probs, _, _ = nn.softmax_logs(logits["z"])
    grad = nn.entropy_backward(probs, 1.0)
    assert oracles.finite_diff_check(logits, loss, {"z": grad}) < 1e-7


def test_softmax_and_entropy_backward_batch_rows_equal_single_calls():
    """softmax and entropy_backward on (T, A) rows give, row by row, the
    bits of T single calls."""
    rng = np.random.default_rng(13)
    for shape in ((6, 3), (4, 11)):
        logits = rng.normal(size=shape) * 4.0
        logits[0, 0] = 60.0  # a near one-hot row
        probs = nn.softmax(logits)
        dlogits = nn.entropy_backward(probs, -0.37)
        assert probs.shape == dlogits.shape == shape
        for t in range(shape[0]):
            single = nn.softmax(logits[t])
            np.testing.assert_array_equal(probs[t], single)
            np.testing.assert_array_equal(dlogits[t], nn.entropy_backward(single, -0.37))


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_step_keeps_the_bits_of_one_sigmoid_per_gate():
    """The fused in-place i, f, o sigmoids give the outputs and cache of the
    per-gate expressions, also where exp overflows or the input is not finite."""
    rng = np.random.default_rng(15)
    params = nn.lstm_init(rng, 36, 32)
    params["b"][:96] = rng.choice([0.0, 800.0, -800.0, np.inf, -np.inf, np.nan], 96,
                                  p=[0.8, 0.05, 0.05, 0.03, 0.03, 0.04])
    with np.errstate(all="ignore"):
        for scale in (1e-3, 1.0, 30.0, 1e3):
            x, h, c = (rng.normal(size=n) * scale for n in (36, 32, 32))
            got, want = nn.lstm_step(params, x, h, c), oracles.lstm_step(params, x, h, c)
            for part, ref in zip((*got[:2], *got[2]), (*want[:2], *want[2])):
                assert part.tobytes() == ref.tobytes()


def test_dense_forward_of_one_row_keeps_the_bits_of_a_batch_of_one():
    rng = np.random.default_rng(16)
    for out_dim, in_dim in ((64, 28), (32, 64), (3, 32), (1, 1), (5, 130)):
        params = nn.dense_init(rng, in_dim, out_dim)
        params["b"] = rng.normal(size=out_dim)
        x = rng.normal(size=in_dim) * 10.0 ** rng.integers(-3, 3)
        y, cache = nn.dense_forward(params, x)
        assert y.tobytes() == oracles.dense_forward(params, x).tobytes()
        assert cache is x


def test_lstm_zero_weights_zero_output():
    params = {"Wx": np.zeros((8, 3)), "Wh": np.zeros((8, 2)), "b": np.zeros(8)}
    h, c, _ = nn.lstm_step(params, np.ones(3), np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(h, np.zeros(2))
    np.testing.assert_array_equal(c, np.zeros(2))


def test_lstm_outputs_bounded():
    rng = np.random.default_rng(4)
    params = nn.lstm_init(rng, 6, 5)
    h = np.zeros(5)
    c = np.zeros(5)
    for _ in range(20):
        h, c, _ = nn.lstm_step(params, rng.normal(size=6) * 3, h, c)
        assert np.all(np.abs(h) < 1.0)


def test_lstm_shape_error():
    params = nn.lstm_init(np.random.default_rng(0), 6, 5)
    with pytest.raises(UsageError):
        nn.lstm_step(params, np.zeros(7), np.zeros(5), np.zeros(5))


def test_lstm_gradients():
    rng = np.random.default_rng(5)
    params = nn.lstm_init(rng, 4, 3)
    x = rng.normal(size=4)
    h0 = rng.normal(size=3)
    c0 = rng.normal(size=3)
    dh = rng.normal(size=3)
    dc = rng.normal(size=3)

    def loss():
        h, c, _ = nn.lstm_step(params, x, h0, c0)
        return float(dh @ h + dc @ c)

    _, _, cache = nn.lstm_step(params, x, h0, c0)
    dx, dh_prev, dc_prev, grads = oracles.lstm_step_backward(params, dh, dc, cache)
    assert oracles.finite_diff_check(params, loss, grads) < 1e-5

    wrapped = {"x": x, "h0": h0, "c0": c0}

    def loss_inputs():
        h, c, _ = nn.lstm_step(params, wrapped["x"], wrapped["h0"], wrapped["c0"])
        return float(dh @ h + dc @ c)

    assert oracles.finite_diff_check(
        wrapped, loss_inputs, {"x": dx, "h0": dh_prev, "c0": dc_prev}) < 1e-5


def test_random_shape_gradient_suite():
    """50 random shapes across the stack, all within 1e-5 relative."""
    rng = np.random.default_rng(6)
    for case in range(50):
        kind = case % 3
        if kind == 0:
            in_dim, out_dim = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            params = nn.dense_init(rng, in_dim, out_dim)
            x = rng.normal(size=in_dim)
            dy = rng.normal(size=out_dim)

            def loss():
                y, _ = nn.dense_forward(params, x)
                return float(dy @ np.tanh(y))

            y, cache = nn.dense_forward(params, x)
            _, grads = nn.dense_backward(params, dy * (1 - np.tanh(y) ** 2), cache)
        elif kind == 1:
            dim = int(rng.integers(2, 10))
            params = nn.layer_norm_init(dim)
            params["gain"] = rng.normal(size=dim)
            x = rng.normal(size=dim)
            dy = rng.normal(size=dim)

            def loss():
                y, _ = nn.layer_norm_forward(params, x)
                return float(dy @ y)

            _, cache = nn.layer_norm_forward(params, x)
            _, grads = nn.layer_norm_backward(params, dy, cache)
        else:
            in_dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            params = nn.lstm_init(rng, in_dim, hidden)
            x = rng.normal(size=in_dim)
            h0 = rng.normal(size=hidden)
            c0 = rng.normal(size=hidden)
            dh = rng.normal(size=hidden)

            def loss():
                h, _, _ = nn.lstm_step(params, x, h0, c0)
                return float(dh @ h)

            _, _, cache = nn.lstm_step(params, x, h0, c0)
            _, _, _, grads = oracles.lstm_step_backward(params, dh, np.zeros(hidden), cache)
        assert oracles.finite_diff_check(params, loss, grads) < 1e-5


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_no_change():
    params = np.array([1.0, -2.0])
    before = params.copy()
    nn.Adam().update(params, np.zeros(2))
    np.testing.assert_array_equal(params, before)


def test_adam_first_step_is_lr_times_sign():
    params = np.array([0.0, 0.0])
    grads = np.array([0.3, -7.0])
    opt = nn.Adam(lr=0.0005)
    opt.update(params, grads)
    np.testing.assert_allclose(params, [-0.0005, 0.0005], rtol=1e-4)


def test_adam_deterministic():
    out = []
    for _ in range(2):
        params = np.linspace(0, 1, 4)
        opt = nn.Adam()
        for step in range(5):
            opt.update(params, np.cos(params) + step)
        out.append(params.copy())
    np.testing.assert_array_equal(out[0], out[1])


def test_adam_steps_give_the_bits_of_the_textbook_expressions():
    """The in-place step computes each bias-corrected Adam expression in the
    same order, so parameters and moments match it bit for bit."""
    rng = np.random.default_rng(11)
    params = rng.normal(size=50)
    ref, m, v = params.copy(), np.zeros(50), np.zeros(50)
    opt = nn.Adam(lr=0.003)
    for t in range(1, 6):
        grads = rng.normal(size=50)
        opt.update(params, grads)
        m += (1.0 - opt.beta1) * (grads - m)
        v += (1.0 - opt.beta2) * (grads * grads - v)
        mhat, vhat = m / (1.0 - opt.beta1**t), v / (1.0 - opt.beta2**t)
        ref -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)
        for got, expected in ((params, ref), (opt.m, m), (opt.v, v)):
            assert got.tobytes() == expected.tobytes()


def test_adam_shape_mismatch():
    with pytest.raises(UsageError):
        nn.Adam().update(np.zeros(2), np.zeros(3))


def test_adam_flat_update_equals_per_array_updates():
    """One update of a packed vector moves every view exactly as separate
    Adam runs over each array would."""
    rng = np.random.default_rng(5)
    tree = {"a": {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}, "c": rng.normal(size=2)}
    flat, views = nn.pack(tree)
    apart = {name: arr.copy() for name, arr in nn.named(tree).items()}
    opt, opts = nn.Adam(lr=0.01), {name: nn.Adam(lr=0.01) for name in apart}
    for _ in range(4):
        grad = rng.normal(size=flat.size)
        opt.update(flat, grad)
        for name, g in nn.named(nn.views(grad, tree)).items():
            opts[name].update(apart[name], g)
    for name, view in nn.named(views).items():
        np.testing.assert_array_equal(view, apart[name])


# ---------------------------------------------------------------------------
# flat parameter vectors


def test_pack_views_share_memory_in_order():
    tree = {"enc": {"W": np.arange(6.0).reshape(2, 3), "b": np.array([6.0])}, "v": np.array([7.0, 8.0])}
    flat, views = nn.pack(tree)
    np.testing.assert_array_equal(flat, np.arange(9.0))
    assert flat.dtype == np.float64 and flat.flags["C_CONTIGUOUS"]
    assert views["enc"]["W"].shape == (2, 3)
    assert list(nn.named(views)) == ["enc.W", "enc.b", "v"]
    for view in nn.named(views).values():
        assert np.shares_memory(view, flat)
    views["enc"]["W"][1, 2] = -1.0
    assert flat[5] == -1.0
    with pytest.raises(UsageError):
        nn.views(np.zeros(10), tree)


# ---------------------------------------------------------------------------
# utilities


def test_finite_diff_check_validates_h():
    with pytest.raises(ValueError):
        oracles.finite_diff_check({"w": np.zeros(1)}, lambda: 0.0, {"w": np.zeros(1)}, h=1e-2)


def test_clip_by_global_norm():
    grads = np.array([3.0, 4.0])
    clipped = nn.clip_by_global_norm(grads, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    untouched = nn.clip_by_global_norm(grads, 10.0)
    np.testing.assert_array_equal(untouched, grads)
