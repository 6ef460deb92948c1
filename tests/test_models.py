"""Core math: parameter sets, exact gradients, clipping, SGD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqdp.models import (
    ModelSpec,
    _logits,
    ParamSet,
    ShapeMismatchError,
    clip_gradient_l1,
    init_params,
    l1_distance,
    l1_norm,
    loss_and_grad,
    predict,
    sgd_step,
)

LOGISTIC = ModelSpec("logistic", input_dim=2, num_classes=3)
MLP = ModelSpec("mlp", input_dim=3, num_classes=3, hidden_dim=4)


def names(layout):
    """The tensor names of a Layout, in order."""
    return tuple(name for name, *_ in layout.entries)


def reference_l1_distance(a, b):
    """l1_norm of a - b with the difference built as a ParamSet, which
    refuses an overflowing element by name: the oracle for l1_distance."""
    assert a.layout == b.layout
    return l1_norm(ParamSet.from_vector(a.layout, a.vector - b.vector))


def random_instance(spec, rng, n=6):
    params = init_params(spec, rng)
    x = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, size=n)
    return params, x, y


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("perceptron", 2, 3)
    with pytest.raises(ValueError):
        ModelSpec("logistic", 0, 3)
    with pytest.raises(ValueError):
        ModelSpec("logistic", 2, 1)
    with pytest.raises(ValueError):
        ModelSpec("mlp", 2, 3, hidden_dim=0)


def test_paramset_rejects_non_finite():
    with pytest.raises(ValueError):
        ParamSet({"w": np.array([1.0, np.nan])})
    with pytest.raises(ValueError):
        ParamSet({"w": np.array([np.inf])})


def test_paramset_arithmetic_and_conformability():
    a = ParamSet({"w": np.array([1.0, 2.0]), "b": np.array([3.0])})
    b = ParamSet({"w": np.array([10.0, 20.0]), "b": np.array([30.0])})
    s = a + b
    assert np.array_equal(s["w"], [11.0, 22.0]) and np.array_equal(s["b"], [33.0])
    assert np.array_equal(a.scale(2.0)["w"], [2.0, 4.0])
    with pytest.raises(ShapeMismatchError):
        a + ParamSet({"w": np.array([1.0, 2.0, 3.0]), "b": np.array([3.0])})
    with pytest.raises(ShapeMismatchError):
        a + ParamSet({"w": np.array([1.0, 2.0])})
    with pytest.raises(ShapeMismatchError, match=r"shape \(4,\) does not fit a layout of 3"):
        ParamSet.from_vector(a.layout, np.zeros(4))


def test_init_logistic_tensors():
    params = init_params(LOGISTIC, np.random.default_rng(0))
    assert names(params.layout) == ("w", "b")
    assert params["w"].shape == (3, 2)
    assert params["b"].shape == (3,)
    assert np.all(params["b"] == 0.0)
    limit = 1.0 / math.sqrt(2)
    assert np.all(np.abs(params["w"]) <= limit)


def test_init_mlp_tensors():
    params = init_params(MLP, np.random.default_rng(0))
    assert names(params.layout) == ("w1", "b1", "w2", "b2")
    assert params["w1"].shape == (4, 3)
    assert params["b1"].shape == (4,)
    assert params["w2"].shape == (3, 4)
    assert params["b2"].shape == (3,)
    assert np.all(params["b1"] == 0.0) and np.all(params["b2"] == 0.0)
    assert np.all(np.abs(params["w1"]) <= 1.0 / math.sqrt(3))
    assert np.all(np.abs(params["w2"]) <= 1.0 / math.sqrt(4))


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_init_params_equals_a_per_layer_oracle(spec):
    """Layer by layer from the input side, one generator: the weights
    uniform on +-1/sqrt(fan_in), then the biases zero, with no other draw."""
    layers = [("w", "b")] if spec.kind == "logistic" else [("w1", "b1"), ("w2", "b2")]
    widths = [spec.input_dim] + [spec.hidden_dim] * (len(layers) - 1) + [spec.num_classes]
    gen = np.random.default_rng(5)
    expected = {}
    for (w, b), fan_in, fan_out in zip(layers, widths, widths[1:]):
        limit = 1.0 / math.sqrt(fan_in)
        expected[w] = gen.uniform(-limit, limit, size=(fan_out, fan_in))
        expected[b] = np.zeros(fan_out)

    used = np.random.default_rng(5)
    params = init_params(spec, used)
    assert names(params.layout) == tuple(expected)
    for name, value in expected.items():
        assert np.array_equal(params[name], value), name
    assert used.random() == gen.random()


def test_init_deterministic_and_roughly_centered():
    a = init_params(MLP, np.random.default_rng(7))
    b = init_params(MLP, np.random.default_rng(7))
    for name, *_ in a.layout.entries:
        assert np.array_equal(a[name], b[name])
    big = ModelSpec("logistic", input_dim=400, num_classes=10)
    w = init_params(big, np.random.default_rng(1))["w"]
    limit = 1.0 / math.sqrt(400)
    assert abs(w.mean()) < 0.05 * limit


def test_loss_at_zero_params_is_log_k():
    for spec in (LOGISTIC, MLP):
        layout = init_params(spec, np.random.default_rng(0)).layout
        params = ParamSet.from_vector(layout, np.zeros(layout.size))
        x = np.random.default_rng(1).standard_normal((5, spec.input_dim))
        y = np.array([0, 1, 2, 0, 1])
        loss, _ = loss_and_grad(spec, params, x, y)
        assert abs(loss - math.log(spec.num_classes)) < 1e-12


def test_predict_tie_goes_to_lowest_class():
    layout = init_params(LOGISTIC, np.random.default_rng(0)).layout
    params = ParamSet.from_vector(layout, np.zeros(layout.size))
    # zero params make every class equally likely
    out = predict(LOGISTIC, params, np.array([[1.0, -1.0]]))
    assert out[0] == 0


def test_predict_takes_the_largest_logit():
    """A logit 1e-17 above the others wins, though exp rounds the three
    class probabilities to equal values."""
    params = ParamSet({"w": np.zeros((3, 2)), "b": np.array([0.0, 1e-17, 0.0])})
    assert predict(LOGISTIC, params, np.array([[1.0, -1.0]]))[0] == 1


def _flatten(params):
    return np.concatenate([params[name].ravel() for name, *_ in params.layout.entries])


def _finite_difference_grad(spec, params, x, y, step=1e-5):
    """Central differences on the loss, one coordinate at a time."""
    grads = {}
    for name, *_ in params.layout.entries:
        value = params[name]
        g = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = {k: params[k].copy() for k, *_ in params.layout.entries}
            bumped[name][idx] += step
            up, _ = loss_and_grad(spec, ParamSet(bumped), x, y)
            bumped[name][idx] -= 2 * step
            down, _ = loss_and_grad(spec, ParamSet(bumped), x, y)
            g[idx] = (up - down) / (2 * step)
        grads[name] = g
    return ParamSet(grads)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP], ids=["logistic", "mlp"])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(42)
    instances = 100
    for _ in range(instances):
        params, x, y = random_instance(spec, rng, n=int(rng.integers(1, 8)))
        _, analytic = loss_and_grad(spec, params, x, y)
        numeric = _finite_difference_grad(spec, params, x, y)
        a, f = _flatten(analytic), _flatten(numeric)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        assert np.max(np.abs(a - f) / denom) <= 1e-4


def test_duplicating_samples_preserves_loss_and_grad():
    rng = np.random.default_rng(3)
    params, x, y = random_instance(MLP, rng)
    loss1, grad1 = loss_and_grad(MLP, params, x, y)
    loss2, grad2 = loss_and_grad(MLP, params, np.vstack([x, x]), np.concatenate([y, y]))
    assert abs(loss1 - loss2) < 1e-14
    for name, *_ in grad1.layout.entries:
        assert np.allclose(grad1[name], grad2[name], rtol=1e-13, atol=1e-16)


def _reference_logits(spec, params, x):
    """Out-of-place forward pass: every intermediate is a new array."""
    if spec.kind == "logistic":
        return x @ params["w"].T + params["b"], None
    h = np.tanh(x @ params["w1"].T + params["b1"])
    return h @ params["w2"].T + params["b2"], h


def _reference_loss_and_grad(spec, params, x, y):
    n = x.shape[0]
    logits, hidden = _reference_logits(spec, params, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), y]))
    e = np.exp(shifted)
    onehot = np.zeros_like(logits)
    onehot[np.arange(n), y] = 1.0
    dlogits = (e / e.sum(axis=1, keepdims=True) - onehot) / n
    if spec.kind == "logistic":
        return loss, [dlogits.T @ x, dlogits.sum(axis=0)]
    dh = (dlogits @ params["w2"]) * (1.0 - hidden * hidden)
    return loss, [dh.T @ x, dh.sum(axis=0), dlogits.T @ hidden, dlogits.sum(axis=0)]


# 4096 rows make the hidden activation (2 MiB) and the logistic logits
# (320 KiB) larger than 256 KiB, where numpy reuses temporaries in place
@pytest.mark.parametrize("n", [6, 4096])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_forward_pass_equals_out_of_place_reference(kind, n):
    spec = ModelSpec(kind, input_dim=8, num_classes=10, hidden_dim=64 if kind == "mlp" else 0)
    params, x, y = random_instance(spec, np.random.default_rng(11), n=n)
    vector_before, x_before = params.vector.copy(), x.copy()

    logits, hidden = _logits(spec, params, x)
    ref_logits, ref_hidden = _reference_logits(spec, params, x)
    assert np.array_equal(logits, ref_logits)
    assert (hidden is None) if kind == "logistic" else np.array_equal(hidden, ref_hidden)

    assert np.array_equal(predict(spec, params, x), np.argmax(ref_logits, axis=1))

    loss, grad = loss_and_grad(spec, params, x, y)
    ref_loss, ref_parts = _reference_loss_and_grad(spec, params, x, y)
    assert loss == ref_loss
    for name, ref in zip(names(grad.layout), ref_parts):
        assert np.array_equal(grad[name], ref), name

    assert np.array_equal(params.vector, vector_before)
    assert np.array_equal(x, x_before)


def test_l1_norm_examples():
    assert l1_norm(ParamSet({"a": np.array([3.0, -4.0]), "b": np.array([0.0])})) == 7.0
    assert l1_norm(ParamSet({"a": np.zeros(5)})) == 0.0


def test_l1_norm_is_one_sum_over_the_vector():
    spec = ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=256)
    params = init_params(spec, np.random.default_rng(3))
    whole = np.add.reduce(np.abs(params.vector))
    # at this size and seed per-tensor sums round differently, so the
    # equality below pins the summation order
    per_tensor = sum(np.add.reduce(np.abs(params.vector[off : off + size]))
                     for _, _, off, size in params.layout.entries)
    assert whole != per_tensor
    assert l1_norm(params) == whole


def test_l1_distance_equals_norm_of_difference():
    spec = ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=256)
    a = init_params(spec, np.random.default_rng(3))
    b = init_params(spec, np.random.default_rng(4))
    assert l1_distance(a, b) == reference_l1_distance(a, b)
    assert l1_distance(b, a) == reference_l1_distance(b, a)
    assert l1_distance(a, a) == 0.0
    c = ParamSet({"w": np.array([1.5, -2.0]), "empty": np.zeros((0, 3)), "b": np.array([0.25])})
    d = ParamSet({"w": np.array([-0.5, 1.0]), "empty": np.zeros((0, 3)), "b": np.array([1.0])})
    assert l1_distance(c, d) == reference_l1_distance(c, d) == 5.75


def test_l1_distance_rejects_non_conformable_and_overflow():
    a = ParamSet({"w": np.zeros(2)})
    with pytest.raises(ShapeMismatchError):
        l1_distance(a, ParamSet({"w": np.zeros(3)}))
    with pytest.raises(ShapeMismatchError):
        l1_distance(a, ParamSet({"v": np.zeros(2)}))
    big = ParamSet({"w": np.array([1e308, 0.0]), "b": np.array([-1e308])})
    small = ParamSet({"w": np.array([-1e308, 0.0]), "b": np.array([1e308])})
    with np.errstate(over="ignore"):
        for x, y in ((big, small), (small, big)):
            with pytest.raises(ValueError, match="'w'"):
                reference_l1_distance(x, y)
            with pytest.raises(ValueError, match="^the difference in tensor 'w' overflows$"):
                l1_distance(x, y)
        # a finite difference whose sum overflows is inf for both, not an error
        half = ParamSet({"w": np.array([1e308, 1e308])})
        zero = ParamSet({"w": np.zeros(2)})
        assert l1_distance(half, zero) == reference_l1_distance(half, zero) == np.inf


def test_named_tensors_are_read_only_views():
    params = init_params(MLP, np.random.default_rng(10))
    with pytest.raises(ValueError):
        params["w1"][0, 0] = 1.0
    with pytest.raises(ValueError):
        params.vector[0] = 1.0
    assert np.shares_memory(params["w1"], params.vector)


def test_clip_example_and_passthrough():
    g = ParamSet({"a": np.array([3.0, -3.0])})
    clipped = clip_gradient_l1(g, 3.0)
    assert np.array_equal(clipped["a"], [1.5, -1.5])
    small = ParamSet({"a": np.array([0.5, -0.5])})
    assert clip_gradient_l1(small, 3.0) is small


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 50.0))
def test_clip_bounds_norm_and_is_idempotent(seed, xi):
    rng = np.random.default_rng(seed)
    small = ParamSet({"w": rng.standard_normal((3, 2)) * 10, "b": rng.standard_normal(3)})
    # mlp_dp's 64-128-10 layout, 9,610 elements, from well within to far above xi
    layout = init_params(ModelSpec("mlp", input_dim=64, num_classes=10, hidden_dim=128), rng).layout
    wide = ParamSet.from_vector(layout, rng.standard_normal(layout.size) * 10.0 ** rng.uniform(-6, 0))
    for g in (small, wide):
        once = clip_gradient_l1(g, xi)
        assert l1_norm(once) <= xi or l1_norm(g) <= xi
        twice = clip_gradient_l1(once, xi)
        assert np.array_equal(once.vector, twice.vector)


def test_clipped_norm_never_exceeds_bound_bulk():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g = ParamSet({"w": rng.standard_normal(8) * rng.uniform(0.1, 100)})
        xi = rng.uniform(0.01, 10)
        assert l1_norm(clip_gradient_l1(g, xi)) <= xi


def test_sgd_example_and_linearity():
    params = ParamSet({"w": np.zeros(1)})
    grad = ParamSet({"w": np.ones(1)})
    stepped = sgd_step(params, grad, 0.1)
    assert np.array_equal(stepped["w"], [-0.1])
    # two half-steps of a fixed gradient land where one full step does
    rng = np.random.default_rng(5)
    p = ParamSet({"w": rng.standard_normal(4)})
    g = ParamSet({"w": rng.standard_normal(4)})
    half = sgd_step(sgd_step(p, g, 0.05), g, 0.05)
    full = sgd_step(p, g, 0.1)
    assert np.allclose(half["w"], full["w"], rtol=1e-12, atol=1e-15)


def test_sgd_validation():
    p = ParamSet({"w": np.zeros(2)})
    g = ParamSet({"w": np.zeros(3)})
    with pytest.raises(ShapeMismatchError):
        sgd_step(p, g, 0.1)
