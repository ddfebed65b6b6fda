"""Training loop: forward/backward, normalizers, ADAM, structured stages."""

import numpy as np
import pytest

from sstc.codes import CodeParams
from sstc.datasets import gaussian_blobs
from sstc.errors import ValidationError
from sstc.kernel import bn_eval_affine, compressed_forward
from sstc.prune import SparsitySchedule, structured_prune
from sstc.quantize import find_step_size, quantize_weight
from sstc.store import deserialize_model, serialize_model
from sstc import training as tr


def _fd_gradients(net, X, y, arrays, grads, rng, samples=40, h=1e-5):
    """Central-difference check over randomly sampled coordinates."""
    worst = 0.0
    for arr, g in zip(arrays, grads):
        for _ in range(samples):
            ix = tuple(rng.integers(s) for s in arr.shape)
            orig = arr[ix]
            arr[ix] = orig + h
            lp = tr.cross_entropy(tr.forward(net, X, "float", "train"), y)
            arr[ix] = orig - h
            lm = tr.cross_entropy(tr.forward(net, X, "float", "train"), y)
            arr[ix] = orig
            fd = (lp - lm) / (2 * h)
            an = g[ix]
            denom = max(abs(fd), abs(an))
            if denom > 1e-8:
                worst = max(worst, abs(fd - an) / denom)
            else:
                assert abs(fd - an) < 1e-8
    return worst


def _toy_net(normalizer="none", seed=0, dims=(6, 8, 8, 3)):
    specs = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        specs.append(tr.LayerSpec(a, b, normalizer="none" if last else normalizer))
    return tr.build_network(specs, seed=seed)


def test_forward_identity_relu():
    net = tr.build_network([tr.LayerSpec(2, 2)], seed=0)
    net.layers[0].W = np.eye(2)
    net.layers[0].b = np.zeros(2)
    fwd = tr.forward(net, np.array([[1.0, -1.0]]), mode="float", phase="eval")
    assert np.allclose(fwd.logits, [[1.0, -1.0]])
    # relu variant via a 2-layer net
    net2 = tr.build_network([tr.LayerSpec(2, 2), tr.LayerSpec(2, 2)], seed=0)
    net2.layers[0].W = np.eye(2)
    net2.layers[0].b = np.zeros(2)
    net2.layers[1].W = np.eye(2)
    net2.layers[1].b = np.zeros(2)
    fwd2 = tr.forward(net2, np.array([[1.0, -1.0]]), mode="float", phase="eval")
    assert np.allclose(fwd2.logits, [[1.0, 0.0]])


def test_softmax_outputs_sum_to_one():
    rng = np.random.default_rng(0)
    net = _toy_net("batch_norm", seed=1)
    fwd = tr.forward(net, rng.normal(size=(32, 6)), mode="float", phase="train")
    assert np.allclose(fwd.probs.sum(axis=1), 1.0, atol=1e-6)


def test_quantized_forward_matches_float_on_already_ternary_weights():
    ternary = tr.WeightPolicy("ternary")
    specs = [tr.LayerSpec(6, 8, policy=ternary),
             tr.LayerSpec(8, 8, policy=ternary),
             tr.LayerSpec(8, 3, policy=ternary)]
    net = tr.build_network(specs, seed=2)
    rng = np.random.default_rng(2)
    for layer in net.layers:
        layer.W = 0.5 * rng.integers(-1, 2, size=layer.W.shape).astype(float)
        layer.delta = 0.5
        layer.refresh_quantized()
        assert np.array_equal(layer.W_q, layer.W)
    X = rng.normal(size=(8, 6))
    f_q = tr.forward(net, X, mode="quantized", phase="train")
    f_f = tr.forward(net, X, mode="float", phase="train")
    assert np.allclose(f_q.logits, f_f.logits, atol=1e-6)


def test_batch_norm_forward_examples():
    x = np.full((8, 3), 5.0)
    out, cache = tr.batch_norm_forward(x, np.ones(3), np.zeros(3))
    assert np.allclose(out, 0.0)  # constant features normalize to zero
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=(64, 5))
    out, cache = tr.batch_norm_forward(x, np.ones(5), np.zeros(5))
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)
    # the eval fold of running stats equal to batch stats reproduces train output
    scale, shift = bn_eval_affine(np.ones(5), np.zeros(5), cache["mu"], cache["var"], 1e-5)
    assert np.allclose(x * scale + shift, out, atol=1e-9)


def test_batch_norm_requires_two_samples():
    with pytest.raises(ValidationError):
        tr.batch_norm_forward(np.ones((1, 3)), np.ones(3), np.zeros(3))


def test_batch_norm_gradient_check():
    rng = np.random.default_rng(4)
    net = _toy_net("batch_norm", seed=5, dims=(8, 16, 3))
    X = rng.normal(size=(16, 8))
    y = rng.integers(3, size=16)
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    layer = net.layers[0]
    worst = _fd_gradients(net, X, y, [layer.gamma, layer.beta],
                          [grads[0]["gamma"], grads[0]["beta"]], rng)
    assert worst < 1e-4


def test_weight_norm_examples():
    rng = np.random.default_rng(5)
    U = rng.normal(size=(4, 6))
    V, _ = tr.weight_norm_forward(U)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-6)
    V10, _ = tr.weight_norm_forward(10.0 * U)
    assert np.allclose(V, V10, atol=1e-12)  # projective invariance
    with pytest.raises(ValidationError, match="zero norm"):
        tr.weight_norm_forward(np.zeros((2, 3)))


def test_weight_norm_gradient_check():
    rng = np.random.default_rng(6)
    net = _toy_net("weight_norm", seed=7, dims=(6, 12, 3))
    X = rng.normal(size=(12, 6))
    y = rng.integers(3, size=12)
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    worst = _fd_gradients(net, X, y, [net.layers[0].W], [grads[0]["W"]], rng)
    assert worst < 1e-4


def test_masked_gradient_is_zero():
    rng = np.random.default_rng(7)
    net = _toy_net(seed=8)
    mask = np.ones_like(net.layers[0].W)
    mask[1] = 0.0
    net.layers[0].set_mask(mask)
    X = rng.normal(size=(16, 6))
    y = rng.integers(3, size=16)
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    assert np.all(grads[0]["W"][1] == 0.0)


def test_gradient_check_full_net_with_mask():
    rng = np.random.default_rng(8)
    net = _toy_net("batch_norm", seed=9)
    mask = (rng.random(net.layers[0].W.shape) < 0.6).astype(float)
    mask[0, 0] = 1.0
    net.layers[0].set_mask(mask)
    X = rng.normal(size=(16, 6))
    y = rng.integers(3, size=16)
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    arrays = [net.layers[0].W, net.layers[1].W, net.layers[2].W, net.layers[1].b]
    gs = [grads[0]["W"], grads[1]["W"], grads[2]["W"], grads[1]["b"]]
    assert _fd_gradients(net, X, y, arrays, gs, rng) < 1e-4


def test_saturated_softmax_has_tiny_gradient():
    net = tr.build_network([tr.LayerSpec(2, 2)], seed=0)
    net.layers[0].W = np.array([[40.0, 0.0], [0.0, 40.0]])
    net.layers[0].b = np.zeros(2)
    X = np.eye(2)
    y = np.array([0, 1])  # predictions already correct and saturated
    fwd = tr.forward(net, X, "float", "train")
    grads = tr.backward_masked(net, y, fwd)
    norm = np.sqrt(sum((g["W"] ** 2).sum() + (g["b"] ** 2).sum() for g in grads))
    assert norm < 1e-3


def test_backward_rejects_eval_phase_pass():
    net = _toy_net(seed=10)
    fwd = tr.forward(net, np.ones((2, 6)), "float", "eval")
    with pytest.raises(ValidationError, match="train-phase forward"):
        tr.backward_masked(net, np.array([0, 1]), fwd)


def test_adam_zero_gradient_is_noop():
    net = _toy_net(seed=11)
    before = [layer.W.copy() for layer in net.layers]
    zero = [{"W": np.zeros_like(l.W), "b": np.zeros_like(l.b), "gamma": None, "beta": None}
            for l in net.layers]
    tr.adam_step(net, zero, tr.TrainConfig())
    for b, layer in zip(before, net.layers):
        assert np.array_equal(b, layer.W)


def test_adam_first_step_magnitude():
    net = tr.build_network([tr.LayerSpec(1, 1)], seed=0)
    net.layers[0].W = np.array([[0.5]])
    g = [{"W": np.array([[1.0]]), "b": np.zeros(1), "gamma": None, "beta": None}]
    tr.adam_step(net, g, tr.TrainConfig(learning_rate=1e-3))
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert net.layers[0].W[0, 0] == pytest.approx(0.5 - 1e-3, abs=2e-7)


def test_masked_entries_stay_zero_over_many_steps():
    rng = np.random.default_rng(12)
    params = CodeParams(4, 2)
    specs = [tr.LayerSpec(6, 8, normalizer="batch_norm",
                          policy=tr.WeightPolicy("sst", params)),
             tr.LayerSpec(8, 3, policy=tr.WeightPolicy("ternary"))]
    net = tr.build_network(specs, seed=12)
    net.layers[0].set_mask(np.kron(np.ones((2, 6)), np.array([[1], [1], [0], [0]])))
    for layer in net.layers:
        if layer.quantizable:
            layer.refresh_delta()
    cfg = tr.TrainConfig()
    for _ in range(1000):
        X = rng.normal(size=(8, 6))
        y = rng.integers(3, size=8)
        fwd = tr.forward(net, X, "quantized", "train")
        grads = tr.backward_masked(net, y, fwd)
        tr.adam_step(net, grads, cfg)
    assert np.all(net.layers[0].W[net.layers[0].mask == 0] == 0.0)
    assert np.all(net.layers[0].W_q[net.layers[0].mask == 0] == 0.0)
    assert tr.mask_violation(net) == 0.0


def test_evaluate_perfect_and_constant():
    net = tr.build_network([tr.LayerSpec(2, 2)], seed=0)
    net.layers[0].W = 10 * np.eye(2)
    net.layers[0].b = np.zeros(2)
    X = np.eye(2)
    assert tr.evaluate(net, X, np.array([0, 1]), mode="float") == 0.0
    # constant predictor on balanced labels
    rng = np.random.default_rng(13)
    netc = tr.build_network([tr.LayerSpec(4, 10)], seed=0)
    netc.layers[0].W = np.zeros((10, 4))
    netc.layers[0].b = np.zeros(10)
    netc.layers[0].b[3] = 5.0
    y = np.repeat(np.arange(10), 50)
    X = rng.normal(size=(500, 4))
    assert tr.evaluate(netc, X, y, mode="float") == pytest.approx(90.0, abs=1e-9)
    with pytest.raises(ValidationError):
        tr.evaluate(net, np.zeros((0, 2)), np.zeros(0, dtype=int), mode="float")


def test_quantized_eval_before_any_stage_is_error():
    net = tr.build_network([tr.LayerSpec(4, 2, policy=tr.WeightPolicy("ternary"))], seed=0)
    with pytest.raises(ValidationError):
        tr.evaluate(net, np.zeros((2, 4)), np.array([0, 1]), mode="quantized")


def _blob_setup(params, seed, normalizer="batch_norm", orientation="column"):
    X, y = gaussian_blobs(3000, num_classes=3, dim=32, seed=seed)
    data = tr.TrainData.from_arrays(X, y, val_fraction=0.15, seed=seed)
    specs = [
        tr.LayerSpec(32, 64, normalizer=normalizer,
                     policy=tr.WeightPolicy("sst", params, orientation)),
        tr.LayerSpec(64, 64, normalizer=normalizer,
                     policy=tr.WeightPolicy("sst", params, orientation)),
        tr.LayerSpec(64, 3, policy=tr.WeightPolicy("ternary")),
    ]
    return tr.build_network(specs, seed=seed), data


def test_structured_training_on_blobs_reaches_target_accuracy():
    params = CodeParams(8, 2)
    net, data = _blob_setup(params, seed=21)
    cfg = tr.TrainConfig(epochs=6, batch_size=64, seed=21)
    history = tr.train_structured(net, data, params, cfg, float_epochs=6)
    train_acc = 100.0 - tr.evaluate(net, data.X_train, data.y_train, mode="quantized")
    assert train_acc >= 95.0
    assert len(history) == 12
    assert all("train_loss" in rec and "val_mcr" in rec for rec in history)
    assert tr.mask_violation(net) == 0.0
    assert tr.check_code_validity(net)


def test_full_budget_stage_reduces_to_plain_ternary():
    params = CodeParams(8, 8)
    net, data = _blob_setup(params, seed=22)
    cfg = tr.TrainConfig(epochs=2, batch_size=64, seed=22)
    tr.train_structured(net, data, params, cfg, float_epochs=2)
    for layer in net.layers[:2]:
        assert layer.mask.all()  # k = n prunes nothing


def test_training_is_deterministic():
    params = CodeParams(8, 2)
    results = []
    for _ in range(2):
        net, data = _blob_setup(params, seed=23)
        cfg = tr.TrainConfig(epochs=2, batch_size=64, seed=23)
        tr.train_structured(net, data, params, cfg, float_epochs=2)
        results.append([layer.W.copy() for layer in net.layers])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_learning_rate_decays_on_plateau_down_to_floor():
    state = tr._LrState(tr.TrainConfig(learning_rate=1e-3))
    state.observe(10.0)  # first epoch sets the best MCR
    lrs = []
    for _ in range(16):
        state.observe(10.0)  # flat: never a new best
        lrs.append(state.lr)
    # one decay by 0.2 after every 4 flat epochs: 2e-4, 4e-5, then the floor
    assert lrs[:3] == [1e-3] * 3
    assert lrs[3] == pytest.approx(2e-4) and lrs[3:7] == [lrs[3]] * 4
    assert lrs[7] == pytest.approx(4e-5) and lrs[7:11] == [lrs[7]] * 4
    assert lrs[11:] == [1.6e-5] * 5
    state.observe(9.0)  # a new best resets the streak, the rate stays
    assert state.lr == 1.6e-5 and state.streak == 0


def test_schedule_layer_conflict_detected_before_training():
    net, data = _blob_setup(CodeParams(8, 2), seed=25)
    bad = SparsitySchedule.gradual(16, [4, 3], 1)
    with pytest.raises(ValidationError, match="n="):
        tr.train_structured(net, data, bad, tr.TrainConfig(seed=25))
    bad_target = SparsitySchedule.gradual(8, [4, 3], 1)
    with pytest.raises(ValidationError, match="targets"):
        tr.train_structured(net, data, bad_target, tr.TrainConfig(seed=25))


def test_policy_orientation_and_layer_shape_checked_before_training():
    with pytest.raises(ValidationError, match="orientation must be one of .* got 'diagonal'"):
        tr.WeightPolicy("sst", CodeParams(4, 1), "diagonal")
    X, y = gaussian_blobs(60, num_classes=3, dim=12, seed=3)
    data = tr.TrainData.from_arrays(X, y, val_fraction=0.2, seed=3)
    net = tr.build_network([
        tr.LayerSpec(12, 8, policy=tr.WeightPolicy("sst", CodeParams(8, 1), "row")),
        tr.LayerSpec(8, 3, policy=tr.WeightPolicy("ternary"))], seed=3)
    with pytest.raises(ValidationError,
                       match=r"layer 0 shape \(8, 12\): column count 12 not divisible by n=8"):
        tr.train_structured(net, data, CodeParams(8, 1), tr.TrainConfig(epochs=1, seed=3))


def test_gradual_masks_follow_schedule():
    params = CodeParams(8, 1)
    net, data = _blob_setup(params, seed=26)
    sched = SparsitySchedule.gradual(8, [4, 2, 1], 1)
    tr.train_structured(net, data, sched, tr.TrainConfig(epochs=1, batch_size=64, seed=26),
                        float_epochs=2)
    for layer in net.layers[:2]:
        counts = layer.mask.reshape(-1, 8, layer.mask.shape[1]).sum(axis=1)
        assert counts.max() <= 1


def test_row_orientation_trains_and_serializes():
    params = CodeParams(8, 2)
    net, data = _blob_setup(params, seed=27, orientation="row")
    cfg = tr.TrainConfig(epochs=2, batch_size=64, seed=27)
    tr.train_structured(net, data, params, cfg, float_epochs=2)
    model = tr.network_to_model(net)
    assert model.layers[0].format.orientation == "row"
    back = deserialize_model(serialize_model(model))
    assert back == model


def test_serialized_model_evaluation_matches_in_memory():
    params = CodeParams(8, 2)
    net, data = _blob_setup(params, seed=28)
    cfg = tr.TrainConfig(epochs=3, batch_size=64, seed=28)
    tr.train_structured(net, data, params, cfg, float_epochs=3)
    in_memory = tr.evaluate(net, data.X_val, data.y_val, mode="quantized")
    model = deserialize_model(serialize_model(tr.network_to_model(net)))
    probs = compressed_forward(model, data.X_val)
    mcr = 100.0 * np.mean(np.argmax(probs, axis=1) != data.y_val)
    assert mcr == in_memory


def test_weight_norm_training_keeps_unit_rows_and_code_validity():
    params = CodeParams(8, 2)
    net, data = _blob_setup(params, seed=29, normalizer="weight_norm")
    cfg = tr.TrainConfig(epochs=2, batch_size=64, seed=29)
    tr.train_structured(net, data, params, cfg, float_epochs=2)
    assert tr.check_code_validity(net)
    V = net.layers[0].effective_weights()
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-9)


# --- dense reference of the training step -------------------------------------
# ADAM over every weight with dense moments, W *= mask after each update and
# W_q = quantize_weight(effective weights) over the whole matrix

def _reference_state(net):
    return [{"W": l.W.copy(), "b": l.b.copy(),
             "gamma": getattr(l, "gamma", np.zeros(0)).copy(),
             "beta": getattr(l, "beta", np.zeros(0)).copy(),
             "mask": np.ones_like(l.W), "moments": {}, "delta": None, "W_q": None}
            for l in net.layers]


def _reference_effective(layer, state):
    U = state["W"] * state["mask"]
    return tr.weight_norm_forward(U)[0] if layer.spec.normalizer == "weight_norm" else U


def _reference_set_mask(state, mask):
    state["mask"] = np.asarray(mask, dtype=np.float64)
    state["W"] *= state["mask"]
    if "W" in state["moments"]:
        m, v = state["moments"]["W"]
        m *= state["mask"]
        v *= state["mask"]


def _reference_refresh_delta(layer, state):
    state["delta"] = float(np.float32(find_step_size(_reference_effective(layer, state))))


def _reference_adam_step(net, ref, grads, t, lr):
    for layer, state, g in zip(net.layers, ref, grads):
        for name, grad in g.items():
            if grad is None:
                continue
            param = state[name]
            m, v = state["moments"].setdefault(
                name, (np.zeros(param.shape), np.zeros(param.shape)))
            m += (1 - tr.BETA1) * (grad - m)
            v += (1 - tr.BETA2) * (grad * grad - v)
            mhat = m / (1 - tr.BETA1 ** t)
            vhat = v / (1 - tr.BETA2 ** t)
            param -= lr * mhat / (np.sqrt(vhat) + tr.ADAM_EPS)
        state["W"] *= state["mask"]
        if layer.quantizable and state["delta"] is not None:
            state["W_q"] = quantize_weight(_reference_effective(layer, state), state["delta"])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_reference(net, ref):
    for i, (layer, state) in enumerate(zip(net.layers, ref)):
        for name in ("W", "b", "gamma", "beta"):
            assert _same_bits(getattr(layer, name, np.zeros(0)), state[name]), (i, name)
        if layer.quantizable:
            assert _same_bits(layer.W_q, state["W_q"]), (i, "W_q")
            assert layer.delta == state["delta"], (i, "delta")
        for name, (m, v) in state["moments"].items():
            got = layer.moments[name]
            if name == "W" and layer.kept is not None:  # scatter the kept moments back
                got = tuple(np.zeros(layer.W.size) for _ in got)
                for dense, kept in zip(got, layer.moments[name]):
                    dense[layer.kept] = kept
                got = tuple(a.reshape(layer.W.shape) for a in got)
            assert _same_bits(got[0], m) and _same_bits(got[1], v), (i, name, "moments")


@pytest.mark.parametrize("orientation", ["column", "row"])
@pytest.mark.parametrize("normalizer", ["batch_norm", "weight_norm", "none"])
def test_step_matches_dense_reference_bitwise(normalizer, orientation):
    target = CodeParams(16, 3)
    specs = [tr.LayerSpec(32, 32, normalizer, tr.WeightPolicy("sst", target, orientation)),
             tr.LayerSpec(32, 32, normalizer, tr.WeightPolicy("sst", target, orientation)),
             tr.LayerSpec(32, 3, policy=tr.WeightPolicy("ternary"))]
    net = tr.build_network(specs, seed=31)
    ref = _reference_state(net)
    X, y = gaussian_blobs(64, num_classes=3, dim=32, seed=31)
    rng = np.random.default_rng(31)
    lr = 3e-3

    def steps(count, mode):
        for _ in range(count):
            batch = rng.permutation(len(X))[:16]
            fwd = tr.forward(net, X[batch], mode=mode, phase="train")
            grads = tr.backward_masked(net, y[batch], fwd)
            _reference_adam_step(net, ref, grads, net.step_count + 1, lr)
            tr.adam_step(net, grads, tr.TrainConfig(), lr=lr)
            _assert_matches_reference(net, ref)

    steps(3, "float")  # nothing pruned yet: every moment is dense
    for params in (CodeParams(16, 4), target):
        for layer, state in zip(net.layers, ref):
            if layer.spec.policy.kind == "sst":
                mask = structured_prune(layer.W, params, orientation)
                layer.set_mask(mask)
                _reference_set_mask(state, mask)
            layer.refresh_delta()
            if layer.quantizable:
                _reference_refresh_delta(layer, state)
                state["W_q"] = quantize_weight(_reference_effective(layer, state), state["delta"])
        assert net.layers[0].kept.size == net.layers[0].W.size * params.k // params.n
        steps(4, "quantized")


def test_batch_norm_matches_the_plain_formulas_bitwise():
    rng = np.random.default_rng(32)
    x = rng.normal(1.0, 2.0, size=(37, 11))
    gamma, beta = rng.normal(size=11), rng.normal(size=11)
    out, cache = tr.batch_norm_forward(x, gamma, beta, eps=1e-5)
    mu, var = x.mean(axis=0), x.var(axis=0)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * invstd
    assert _same_bits(cache["mu"], mu) and _same_bits(cache["var"], var)
    assert _same_bits(cache["xhat"], xhat) and _same_bits(out, gamma * xhat + beta)
    dout = rng.normal(size=(37, 11))
    dx, dgamma, dbeta = tr.batch_norm_backward(dout, cache)
    dxhat = dout * gamma
    assert _same_bits(dgamma, (dout * xhat).sum(axis=0))
    assert _same_bits(dbeta, dout.sum(axis=0))
    assert _same_bits(dx, (invstd / 37) * (37 * dxhat - dxhat.sum(axis=0)
                                           - xhat * (dxhat * xhat).sum(axis=0)))
