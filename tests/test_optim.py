import numpy as np
import pytest

from ressmooth.errors import ConfigError
from ressmooth.nn import DenseLayer, GradientSet, Network
from ressmooth.optim import (_BLOCK, OPTIMIZERS, AdaGrad, AdaGradConfig, Adam, AdamConfig,
                             Sgd, SgdConfig, label_smooth, lr_at, make_optimizer)


def scalar_net(w=1.0, b=0.0):
    return Network([DenseLayer(np.array([[w]]), np.array([b]))], ["identity"])


def grads_of(net, gw_value=0.0, gb_value=0.0):
    return GradientSet([np.full_like(l.weights, gw_value) for l in net.layers],
                       [np.full_like(l.bias, gb_value) for l in net.layers])


# --- learning rate schedule ------------------------------------------------------

def test_lr_at_phases():
    cfg = SgdConfig()
    assert lr_at(cfg, 0.0) == 0.1
    assert lr_at(cfg, 0.75) == 0.001  # boundary belongs to the low phase
    assert lr_at(cfg, 0.9) == 0.001


def test_lr_at_two_distinct_values():
    cfg = SgdConfig()
    values = {lr_at(cfg, p) for p in np.linspace(0.0, 1.0, 1001)}
    assert values == {0.1, 0.001}


# --- SGD -------------------------------------------------------------------------

def test_sgd_noop_without_gradient_or_decay():
    net = scalar_net(w=1.3)
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.0))
    opt.step(net, grads_of(net), progress=0.0)
    assert net.layers[0].weights[0, 0] == 1.3


def test_sgd_weight_decay_hand_case():
    net = scalar_net(w=1.0)
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.1))
    opt.step(net, grads_of(net), progress=0.0)  # lr 0.1: w' = 1 - 0.1 * 0.1
    assert net.layers[0].weights[0, 0] == pytest.approx(0.99, abs=1e-15)


def test_sgd_biases_escape_weight_decay():
    net = scalar_net(w=1.0, b=1.0)
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.1))
    opt.step(net, grads_of(net), progress=0.0)
    assert net.layers[0].weights[0, 0] != 1.0
    assert net.layers[0].bias[0] == 1.0


def test_sgd_decay_only_norm_strictly_decreases():
    net = Network([DenseLayer(np.random.default_rng(0).normal(size=(4, 4)), np.zeros(4))],
                  ["identity"])
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.01))
    norms = [float(np.linalg.norm(net.layers[0].weights))]
    for _ in range(50):
        opt.step(net, grads_of(net), progress=0.0)
        norms.append(float(np.linalg.norm(net.layers[0].weights)))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_sgd_momentum_accumulates():
    net = scalar_net(w=0.0)
    opt = Sgd(net, SgdConfig(momentum=0.5, weight_decay=0.0))
    opt.step(net, grads_of(net, gw_value=1.0), progress=0.0)  # v=1, w=-0.1
    opt.step(net, grads_of(net, gw_value=1.0), progress=0.0)  # v=1.5, w=-0.25
    assert net.layers[0].weights[0, 0] == pytest.approx(-0.25, abs=1e-15)


def test_sgd_deterministic_over_100_steps():
    def run():
        rng = np.random.default_rng(21)
        net = Network([DenseLayer(rng.normal(size=(3, 5)), np.zeros(3))], ["identity"])
        opt = Sgd(net, SgdConfig(momentum=0.9, weight_decay=1e-3))
        for step in range(100):
            g = GradientSet([rng.normal(size=(3, 5))], [rng.normal(size=3)])
            opt.step(net, g, progress=step / 100)
        return net.layers[0].weights.copy(), net.layers[0].bias.copy()

    w1, b1 = run()
    w2, b2 = run()
    assert np.array_equal(w1, w2)
    assert np.array_equal(b1, b2)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_sgd_in_place_step_matches_out_of_place_formula(weight_decay):
    """The update, bitwise, against v = m * v + (g + wd * w); w -= lr * v with
    fresh arrays, across the learning-rate drop and with a -0.0 gradient."""
    rng = np.random.default_rng(38)
    dims = [(6, 5), (3, 6)]
    net = Network([DenseLayer(rng.normal(size=d), rng.normal(size=d[0])) for d in dims],
                  ["relu", "identity"])
    cfg = SgdConfig(momentum=0.9, weight_decay=weight_decay)
    opt = Sgd(net, cfg)
    ref_w = [l.weights.copy() for l in net.layers]
    ref_b = [l.bias.copy() for l in net.layers]
    vel_w = [np.zeros_like(w) for w in ref_w]
    vel_b = [np.zeros_like(b) for b in ref_b]
    for step in range(40):
        g = GradientSet([rng.normal(size=d) for d in dims], [rng.normal(size=d[0]) for d in dims])
        g.weights[0][0, 0] = -0.0
        opt.step(net, g, progress=step / 40)
        lr = lr_at(cfg, step / 40)
        for i in range(len(dims)):
            vel_w[i] = cfg.momentum * vel_w[i] + (g.weights[i] + weight_decay * ref_w[i])
            ref_w[i] = ref_w[i] - lr * vel_w[i]
            vel_b[i] = cfg.momentum * vel_b[i] + g.biases[i]
            ref_b[i] = ref_b[i] - lr * vel_b[i]
    for layer, w, b in zip(net.layers, ref_w, ref_b):
        assert layer.weights.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()


def test_sgd_blocked_step_matches_out_of_place_formula_past_one_block():
    """A layer of more than one block, with a ragged last one: bitwise equal
    to the fresh-array update over 30 steps."""
    rows = 5
    cols = _BLOCK // rows + 7  # 5 x 6560 = 32800 elements: one full block and 32 more
    assert rows * cols > _BLOCK and (rows * cols) % _BLOCK != 0
    rng = np.random.default_rng(39)
    net = Network([DenseLayer(rng.normal(size=(rows, cols)), rng.normal(size=rows))],
                  ["identity"])
    cfg = SgdConfig(momentum=0.9, weight_decay=1e-3)
    opt = Sgd(net, cfg)
    ref_w, ref_b = net.layers[0].weights.copy(), net.layers[0].bias.copy()
    vel_w, vel_b = np.zeros_like(ref_w), np.zeros_like(ref_b)
    for step in range(30):
        g = GradientSet([rng.normal(size=(rows, cols))], [rng.normal(size=rows)])
        g.weights[0][-1, -1] = -0.0
        opt.step(net, g, progress=step / 30)
        lr = lr_at(cfg, step / 30)
        vel_w = cfg.momentum * vel_w + (g.weights[0] + cfg.weight_decay * ref_w)
        ref_w = ref_w - lr * vel_w
        vel_b = cfg.momentum * vel_b + g.biases[0]
        ref_b = ref_b - lr * vel_b
    assert net.layers[0].weights.tobytes() == ref_w.tobytes()
    assert net.layers[0].bias.tobytes() == ref_b.tobytes()


def _two_layer_net_and_grads(seed, steps):
    """A 6-5-3 network and `steps` gradient sets, each with a -0.0 entry and
    a zero entry; the last layer's bias gradient is zero in every step."""
    rng = np.random.default_rng(seed)
    dims = [(5, 6), (3, 5)]
    net = Network([DenseLayer(rng.normal(size=d), rng.normal(size=d[0])) for d in dims],
                  ["relu", "identity"])
    grads = []
    for _ in range(steps):
        g = GradientSet([rng.normal(size=d) for d in dims], [rng.normal(size=d[0]) for d in dims])
        g.weights[0][0, 0] = -0.0
        g.weights[1][1, 2] = 0.0
        g.biases[1][:] = 0.0
        grads.append(g)
    return net, grads


def test_adam_in_place_step_matches_textbook_formula():
    net, grads = _two_layer_net_and_grads(40, 35)
    cfg = AdamConfig(lr=0.01)
    opt = Adam(net, cfg)
    params = [a.copy() for l in net.layers for a in (l.weights, l.bias)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, g in enumerate(grads, start=1):
        opt.step(net, g)
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        flat = [a for pair in zip(g.weights, g.biases) for a in pair]
        for i, gi in enumerate(flat):
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * gi
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * gi * gi
            params[i] = params[i] - cfg.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.eps)
    got = [a for l in net.layers for a in (l.weights, l.bias)]
    for p, want in zip(got, params):
        assert p.tobytes() == want.tobytes()


def test_adagrad_in_place_step_matches_textbook_formula():
    net, grads = _two_layer_net_and_grads(41, 35)
    cfg = AdaGradConfig(lr=0.01)
    opt = AdaGrad(net, cfg)
    params = [a.copy() for l in net.layers for a in (l.weights, l.bias)]
    acc = [np.zeros_like(p) for p in params]
    for g in grads:
        opt.step(net, g)
        flat = [a for pair in zip(g.weights, g.biases) for a in pair]
        for i, gi in enumerate(flat):
            acc[i] = acc[i] + gi * gi
            params[i] = params[i] - cfg.lr * gi / (np.sqrt(acc[i]) + cfg.eps)
    got = [a for l in net.layers for a in (l.weights, l.bias)]
    for p, want in zip(got, params):
        assert p.tobytes() == want.tobytes()


# --- Adam --------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    net = scalar_net(w=0.7)
    opt = Adam(net, AdamConfig())
    for _ in range(5):
        opt.step(net, grads_of(net))
    assert net.layers[0].weights[0, 0] == 0.7


def test_adam_first_step_magnitude_is_lr():
    for scale in (1e-3, 1.0, 1e3):
        net = scalar_net(w=0.0)
        opt = Adam(net, AdamConfig(lr=0.01))
        opt.step(net, grads_of(net, gw_value=scale))
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        assert net.layers[0].weights[0, 0] == pytest.approx(-0.01, rel=1e-4)


def test_adam_config_validation():
    with pytest.raises(ConfigError):
        AdamConfig(lr=0.0)
    with pytest.raises(ConfigError):
        AdamConfig(beta1=1.0)


# --- AdaGrad -------------------------------------------------------------------------

def test_adagrad_step_ratio_closed_form():
    # constant gradient 1: accumulated squares after k steps equal k, so
    # step_k = lr / (sqrt(k) + eps); step_10 / step_40 should be ~2
    net = scalar_net(w=0.0)
    opt = AdaGrad(net, AdaGradConfig(lr=0.1))
    positions = [0.0]
    for _ in range(40):
        opt.step(net, grads_of(net, gw_value=1.0))
        positions.append(float(net.layers[0].weights[0, 0]))
    step_10 = positions[9] - positions[10]
    step_40 = positions[39] - positions[40]
    assert step_10 / step_40 == pytest.approx(2.0, rel=0.05)
    # exact closed form for the k-th step
    assert step_10 == pytest.approx(0.1 / np.sqrt(10.0), rel=1e-6)


def test_adagrad_config_validation():
    with pytest.raises(ConfigError):
        AdaGradConfig(lr=-1.0)


# --- factory ---------------------------------------------------------------------------

def test_make_optimizer_dispatch():
    net = scalar_net()
    assert len({rule for _, rule in OPTIMIZERS.values()}) == len(OPTIMIZERS)
    for config_class, rule in OPTIMIZERS.values():
        assert type(make_optimizer(config_class(), net)) is rule
    with pytest.raises(ConfigError):
        make_optimizer(object(), net)


# --- label smoothing --------------------------------------------------------------------

def test_label_smooth_identity_at_zero():
    y = np.eye(4)[1]
    assert np.array_equal(label_smooth(y, 0.0), y)


def test_label_smooth_hand_case():
    y = np.eye(10)[3]
    got = label_smooth(y, 0.1)
    assert got[3] == pytest.approx(0.91, abs=1e-15)
    assert got[0] == pytest.approx(0.01, abs=1e-15)


def test_label_smooth_rows_sum_to_one():
    rng = np.random.default_rng(22)
    y = np.eye(7)[rng.integers(0, 7, size=20)]
    got = label_smooth(y, 0.3)
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-12


def test_label_smooth_epsilon_validation():
    with pytest.raises(ConfigError):
        label_smooth(np.eye(3)[0], 1.0)
    with pytest.raises(ConfigError):
        label_smooth(np.eye(3)[0], -0.1)


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SgdConfig(lr_high=0.001, lr_low=0.1)
    with pytest.raises(ConfigError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        SgdConfig(weight_decay=-0.1)
