import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_of
from ressmooth.errors import ConfigError
from ressmooth.nn import build_network
from ressmooth.optim import (_BLOCK, OPTIMIZERS, AdaGrad, AdaGradConfig, Adam, AdamConfig,
                             Sgd, SgdConfig, label_smooth, lr_at, make_optimizer)


def scalar_net(w=1.0, b=0.0):
    return net_of([(np.array([[w]]), np.array([b]))], "identity")


def grads_of(net, gw_value=0.0, gb_value=0.0):
    """A gradient vector: gw_value on every weight, gb_value on every bias."""
    grads = np.full_like(net.params, gb_value)
    grads[:net.n_weights] = gw_value
    return grads


def random_net(dims, seed):
    """Random weights and biases; hidden layers relu, identity output."""
    net = build_network(dims, "identity")
    net.params[:] = np.random.default_rng(seed).normal(size=net.params.size)
    return net


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
    assert net.weights[0][0, 0] == 1.3


def test_sgd_weight_decay_hand_case():
    net = scalar_net(w=1.0)
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.1))
    opt.step(net, grads_of(net), progress=0.0)  # lr 0.1: w' = 1 - 0.1 * 0.1
    assert net.weights[0][0, 0] == pytest.approx(0.99, abs=1e-15)


def test_sgd_biases_escape_weight_decay():
    net = scalar_net(w=1.0, b=1.0)
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.1))
    opt.step(net, grads_of(net), progress=0.0)
    assert net.weights[0][0, 0] != 1.0
    assert net.biases[0][0] == 1.0


def test_sgd_decay_only_norm_strictly_decreases():
    net = net_of([(np.random.default_rng(0).normal(size=(4, 4)), np.zeros(4))], "identity")
    opt = Sgd(net, SgdConfig(momentum=0.0, weight_decay=0.01))
    norms = [float(np.linalg.norm(net.weights[0]))]
    for _ in range(50):
        opt.step(net, grads_of(net), progress=0.0)
        norms.append(float(np.linalg.norm(net.weights[0])))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_sgd_momentum_accumulates():
    net = scalar_net(w=0.0)
    opt = Sgd(net, SgdConfig(momentum=0.5, weight_decay=0.0))
    opt.step(net, grads_of(net, gw_value=1.0), progress=0.0)  # v=1, w=-0.1
    opt.step(net, grads_of(net, gw_value=1.0), progress=0.0)  # v=1.5, w=-0.25
    assert net.weights[0][0, 0] == pytest.approx(-0.25, abs=1e-15)


def test_sgd_deterministic_over_100_steps():
    def run():
        rng = np.random.default_rng(21)
        net = net_of([(rng.normal(size=(3, 5)), np.zeros(3))], "identity")
        opt = Sgd(net, SgdConfig(momentum=0.9, weight_decay=1e-3))
        for step in range(100):
            opt.step(net, rng.normal(size=net.params.size), progress=step / 100)
        return net.params.copy()

    assert np.array_equal(run(), run())


def _sgd_reference(net, cfg, grads, steps):
    """`steps` updates of v = m * v + (g + wd * w); w -= lr * v on the weight
    prefix and v = m * v + g; b -= lr * v on the biases, fresh arrays each;
    returns the final (weights, biases) prefix and suffix."""
    n_w = net.n_weights
    w, b = net.params[:n_w].copy(), net.params[n_w:].copy()
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    for step, g in enumerate(grads):
        lr = lr_at(cfg, step / steps)
        vw = cfg.momentum * vw + (g[:n_w] + cfg.weight_decay * w)
        w = w - lr * vw
        vb = cfg.momentum * vb + g[n_w:]
        b = b - lr * vb
    return w, b


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_sgd_in_place_step_matches_out_of_place_formula(weight_decay):
    """The update, bitwise, against the fresh-array formula across the
    learning-rate drop and with -0.0 weight and bias gradients."""
    rng = np.random.default_rng(38)
    net = random_net([5, 6, 3], seed=37)
    cfg = SgdConfig(momentum=0.9, weight_decay=weight_decay)
    grads = [rng.normal(size=net.params.size) for _ in range(40)]
    for g in grads:
        g[0] = g[-1] = -0.0
    w, b = _sgd_reference(net, cfg, grads, 40)
    opt = Sgd(net, cfg)
    for step, g in enumerate(grads):
        opt.step(net, g, progress=step / 40)
    assert net.params[:net.n_weights].tobytes() == w.tobytes()
    assert net.params[net.n_weights:].tobytes() == b.tobytes()


def test_sgd_blocked_step_matches_out_of_place_formula_past_one_block():
    """A weight prefix of more than one block, with a ragged last one, and a
    bias suffix: bitwise equal to the fresh-array update over 30 steps."""
    rows = 5
    cols = _BLOCK // rows + 7  # 5 x 6560 = 32800 weights: one full block and 32 more
    assert rows * cols > _BLOCK and (rows * cols) % _BLOCK != 0
    rng = np.random.default_rng(39)
    net = random_net([cols, rows], seed=40)
    cfg = SgdConfig(momentum=0.9, weight_decay=1e-3)
    grads = [rng.normal(size=net.params.size) for _ in range(30)]
    for g in grads:
        g[net.n_weights - 1] = -0.0
    w, b = _sgd_reference(net, cfg, grads, 30)
    opt = Sgd(net, cfg)
    for step, g in enumerate(grads):
        opt.step(net, g, progress=step / 30)
    assert net.params[:net.n_weights].tobytes() == w.tobytes()
    assert net.params[net.n_weights:].tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 40), min_size=3, max_size=5),
       seed=st.integers(0, 2**32 - 1), momentum=st.sampled_from([0.0, 0.9]))
def test_sgd_decay_leaves_a_minus_zero_bias_velocity_minus_zero(dims, seed, momentum):
    """Decay touches only the weight prefix: a -0.0 bias velocity plus a -0.0
    bias gradient stays -0.0, where a masked g + 0 * b would give +0.0 for
    every bias >= +0.0."""
    net = random_net(dims, seed)
    net.params[net.n_weights:] = np.abs(net.params[net.n_weights:])
    cfg = SgdConfig(momentum=momentum, weight_decay=1e-3)
    opt = Sgd(net, cfg)
    grads = np.random.default_rng(seed).normal(size=net.params.size)
    grads[net.n_weights:] = -0.0
    opt.vel[net.n_weights:] = -0.0
    opt.step(net, grads, progress=0.0)
    bias_vel = opt.vel[net.n_weights:]
    assert np.all(bias_vel == 0.0) and np.all(np.signbit(bias_vel))


def _two_layer_net_and_grads(seed, steps):
    """A 6-5-3 network and `steps` gradient vectors, each with a -0.0 entry
    and a zero entry; the last layer's bias gradient is zero in every step."""
    rng = np.random.default_rng(seed)
    net = random_net([6, 5, 3], seed + 100)
    grads = []
    for _ in range(steps):
        g = rng.normal(size=net.params.size)
        g[0] = -0.0
        g[net.n_weights - 3] = 0.0
        g[-3:] = 0.0
        grads.append(g)
    return net, grads


def test_adam_in_place_step_matches_textbook_formula():
    net, grads = _two_layer_net_and_grads(40, 35)
    cfg = AdamConfig(lr=0.01)
    opt = Adam(net, cfg)
    params = net.params.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grads, start=1):
        opt.step(net, g.copy())  # the step leaves its update in the vector it is given
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        params = params - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    assert net.params.tobytes() == params.tobytes()


def test_adagrad_in_place_step_matches_textbook_formula():
    net, grads = _two_layer_net_and_grads(41, 35)
    cfg = AdaGradConfig(lr=0.01)
    opt = AdaGrad(net, cfg)
    params = net.params.copy()
    acc = np.zeros_like(params)
    for g in grads:
        opt.step(net, g.copy())
        acc = acc + g * g
        params = params - cfg.lr * g / (np.sqrt(acc) + cfg.eps)
    assert net.params.tobytes() == params.tobytes()


# --- Adam --------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    net = scalar_net(w=0.7)
    opt = Adam(net, AdamConfig())
    for _ in range(5):
        opt.step(net, grads_of(net))
    assert net.weights[0][0, 0] == 0.7


def test_adam_first_step_magnitude_is_lr():
    for scale in (1e-3, 1.0, 1e3):
        net = scalar_net(w=0.0)
        opt = Adam(net, AdamConfig(lr=0.01))
        opt.step(net, grads_of(net, gw_value=scale))
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        assert net.weights[0][0, 0] == pytest.approx(-0.01, rel=1e-4)


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
        positions.append(float(net.weights[0][0, 0]))
    step_10 = positions[9] - positions[10]
    step_40 = positions[39] - positions[40]
    assert step_10 / step_40 == pytest.approx(2.0, rel=0.05)
    # exact closed form for the k-th step
    assert step_10 == pytest.approx(0.1 / np.sqrt(10.0), rel=1e-6)


def test_adagrad_config_validation():
    with pytest.raises(ConfigError):
        AdaGradConfig(lr=-1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: AdamConfig(lr=-1.0), r"^lr and eps must be > 0, got -1.0, 1e-08$"),
    (lambda: AdamConfig(eps=0.0), r"^lr and eps must be > 0, got 0.001, 0.0$"),
    (lambda: AdamConfig(beta2=1.0), r"^betas must be in \[0, 1\), got 0.9, 1.0$"),
    (lambda: AdamConfig(beta1=-0.5), r"^betas must be in \[0, 1\), got -0.5, 0.999$"),
    (lambda: AdaGradConfig(lr=-1.0), r"^lr and eps must be > 0, got -1.0, 1e-10$"),
    (lambda: AdaGradConfig(eps=0.0), r"^lr and eps must be > 0, got 0.005, 0.0$"),
], ids=["adam_lr", "adam_eps", "adam_beta2", "adam_beta1", "adagrad_lr", "adagrad_eps"])
def test_adam_and_adagrad_refusals_name_their_values(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


# --- factory ---------------------------------------------------------------------------

def test_make_optimizer_dispatch():
    net = scalar_net()
    assert len({rule for _, rule in OPTIMIZERS.values()}) == len(OPTIMIZERS)
    for config_class, rule in OPTIMIZERS.values():
        assert type(make_optimizer(config_class(), net)) is rule


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


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SgdConfig(lr_high=0.001, lr_low=0.1)
    with pytest.raises(ConfigError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        SgdConfig(weight_decay=-0.1)
