import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_of
from oracles import (backward, forward, fresh_backward_batch, fresh_forward_batch,
                     fresh_softmax_rows)
from ressmooth.errors import FormatError, ShapeError
from ressmooth.nn import (Network, backward_batch, build_network, forward_batch,
                          load_checkpoint, load_parameters, save_checkpoint)


layer_dims = st.lists(st.integers(1, 40), min_size=3, max_size=5)  # 2-4 layers


def random_net(dims, output_activation="softmax", seed=0):
    return build_network(dims, output_activation, np.random.default_rng(seed))


# --- initialization -------------------------------------------------------------

def test_he_init_std_and_biases():
    net = random_net([100, 50], seed=1)
    draws = net.weights[0].ravel()  # 5000 draws
    target = np.sqrt(2.0 / 100.0)
    assert abs(np.std(draws) - target) < 0.1 * target
    assert np.array_equal(net.biases[0], np.zeros(50))


def test_he_init_deterministic_per_seed():
    a = random_net([20, 10, 5], seed=7)
    b = random_net([20, 10, 5], seed=7)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, random_net([20, 10, 5], seed=8).params)


# --- forward ---------------------------------------------------------------------
# The training path runs batches; each property is checked on a 1-row and on
# a multi-row batch.

def test_forward_identity_layer():
    net = net_of([(np.eye(3), np.zeros(3))], "identity")
    xb = np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.25]])
    for rows in (1, 2):
        assert np.array_equal(forward_batch(net, xb[:rows])[-1], xb[:rows])


def test_forward_relu():
    # relu on the hidden layer only: the identity output negates its result
    net = net_of([(np.eye(2), np.zeros(2)), (-np.eye(2), np.zeros(2))], "identity")
    xb = np.array([[-1.0, 2.0], [3.0, -4.0]])
    assert forward_batch(net, xb[:1])[1].tolist() == [[0.0, 2.0]]
    assert forward_batch(net, xb)[1].tolist() == [[0.0, 2.0], [3.0, 0.0]]
    assert forward_batch(net, xb)[-1].tolist() == [[0.0, -2.0], [-3.0, 0.0]]


def test_forward_softmax_symmetry():
    net = net_of([(np.eye(2), np.zeros(2))], "softmax")
    xb = np.array([[0.0, 0.0], [7.5, 7.5], [-3.0, -3.0]])
    assert forward_batch(net, xb[:1])[-1].tolist() == [[0.5, 0.5]]
    assert forward_batch(net, xb)[-1].tolist() == [[0.5, 0.5]] * 3


def test_softmax_normalization_and_range():
    rng = np.random.default_rng(2)
    net = random_net([6, 10])
    for rows in (1, 10):
        p = forward_batch(net, rng.normal(size=(rows, 6)))[-1]
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_softmax_shift_invariance():
    w = np.random.default_rng(3).normal(size=(5, 4))
    net_plain = net_of([(w, np.zeros(5))], "softmax")
    net_shifted = net_of([(w, np.full(5, 123.0))], "softmax")
    xb = np.array([[0.1, -0.4, 0.9, 0.2], [2.0, 0.5, -1.5, 0.0], [0.0, 0.0, 0.0, 0.0]])
    for rows in (1, 3):
        a = forward_batch(net_plain, xb[:rows])[-1]
        b = forward_batch(net_shifted, xb[:rows])[-1]
        assert np.allclose(a, b, atol=1e-12)


def test_forward_is_deterministic():
    net = random_net([8, 6, 4], seed=5)
    xb = np.random.default_rng(6).random((5, 8))
    for rows in (1, 5):
        assert np.array_equal(forward_batch(net, xb[:rows])[-1],
                              forward_batch(net, xb[:rows])[-1])


# --- backward ------------------------------------------------------------------

def test_backward_zero_gradient():
    net = random_net([5, 3])
    xb = np.random.default_rng(8).random((4, 5))
    for rows in (1, 4):
        grads = backward_batch(net, forward_batch(net, xb[:rows]), np.zeros((rows, 3)),
                               np.full_like(net.params, np.nan))
        assert np.array_equal(grads, np.zeros_like(net.params))


def test_backward_linear_sum_loss():
    # identity net, loss = sum over rows of sum(h): dL/dW = sum_b outer(1, x_b), dL/db = B
    net = net_of([(np.eye(3), np.zeros(3))], "identity")
    xb = np.array([[0.2, -0.6, 1.5], [1.0, 0.5, -2.0]])
    for rows in (1, 2):
        gw, gb = net.views(backward_batch(net, forward_batch(net, xb[:rows]),
                                          np.ones((rows, 3)), np.empty_like(net.params)))
        assert np.allclose(gw[0], np.outer(np.ones(3), xb[:rows].sum(axis=0)), atol=1e-15)
        assert gb[0].tolist() == [float(rows)] * 3


@pytest.mark.parametrize("output_activation", ["identity", "softmax"])
def test_backward_matches_finite_differences(fd_grad, output_activation):
    rng = np.random.default_rng(9)
    net = random_net([7, 6, 4], output_activation=output_activation, seed=10)
    for rows in (1, 3):
        xb = rng.random((rows, 7))
        directions = rng.normal(size=(rows, 4))  # a random linear functional of each output row

        def loss():
            return float(np.sum(directions * forward_batch(net, xb)[-1]))

        analytic = backward_batch(net, forward_batch(net, xb), directions,
                                  np.empty_like(net.params))
        (fd,) = fd_grad(loss, [net.params])
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)


# --- batch path vs the per-sample oracle --------------------------------------------

def test_forward_batch_matches_per_sample():
    net = random_net([9, 7, 5], seed=11)
    xb = np.random.default_rng(12).random((6, 9))
    batch = forward_batch(net, xb)[-1]
    for i in range(6):
        single = forward(net, xb[i]).prediction
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-14)


def test_backward_batch_sums_per_sample_gradients():
    net = random_net([9, 7, 5], seed=13)
    rng = np.random.default_rng(14)
    xb = rng.random((6, 9))
    gb = rng.normal(size=(6, 5))
    batch = backward_batch(net, forward_batch(net, xb), gb, np.empty_like(net.params))
    acc = np.zeros_like(net.params)
    for i in range(6):
        acc += backward(net, forward(net, xb[i]), gb[i])
    assert np.allclose(batch, acc, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("output_activation", ["softmax", "identity"])
def test_batch_passes_bitwise_match_fresh_array_forms(output_activation):
    """The in-place bias add, relu, softmax, relu mask (from the activation)
    and softmax backward against the same expressions with a fresh array
    each, kept in `oracles`."""
    net = random_net([9, 7, 6, 5], output_activation=output_activation, seed=15)
    rng = np.random.default_rng(16)
    xb = rng.normal(size=(11, 9))
    gb = rng.normal(size=(11, 5))
    gb[0, 0] = -0.0
    acts, want = forward_batch(net, xb), fresh_forward_batch(net, xb)
    assert len(acts) == 1 + len(want.post)
    for g, w in zip(acts, [want.x, *want.post]):
        assert g.tobytes() == w.tobytes()
    got_grads = backward_batch(net, acts, gb.copy(), np.empty_like(net.params))
    assert got_grads.tobytes() == fresh_backward_batch(net, want, gb).tobytes()


def test_softmax_rows_bitwise_matches_fresh_array_form():
    rng = np.random.default_rng(17)
    z = np.concatenate([rng.normal(0.0, 30.0, size=(20, 10)), np.full((1, 10), -745.0)])
    net = net_of([(np.eye(10), np.zeros(10))], "softmax")
    logits = fresh_forward_batch(net, z).pre[0]
    assert forward_batch(net, z)[-1].tobytes() == fresh_softmax_rows(logits).tobytes()


# --- architecture validation ------------------------------------------------------

def test_network_chain_validation():
    with pytest.raises(ShapeError):
        Network([4], "softmax")
    with pytest.raises(ShapeError):
        Network([4, 3], "sigmoid")
    with pytest.raises(ShapeError):  # relu is a hidden layer's, never the output's
        Network([4, 3], "relu")
    with pytest.raises(ShapeError):  # the pairs do not chain 4 -> 3 -> 2
        net_of([(np.zeros((3, 4)), np.zeros(3)), (np.zeros((2, 5)), np.zeros(2))], "softmax")


# --- checkpoints -------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(dims=layer_dims, seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip(tmp_path_factory, dims, seed):
    rng = np.random.default_rng(seed)
    net = build_network(dims)
    net.params[:] = rng.normal(size=net.params.size)
    net.params[rng.integers(0, net.params.size)] = -0.0
    path = tmp_path_factory.mktemp("ckpt") / "net.rsm"
    save_checkpoint(net, path)
    restored = load_parameters(build_network(dims), load_checkpoint(path))
    assert restored.params.tobytes() == net.params.tobytes()
    save_checkpoint(restored, path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bogus.rsm"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    net = random_net([4, 2], seed=16)
    path = tmp_path / "net.rsm"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    net = random_net([4, 3, 2], seed=18)
    path = tmp_path / "net.rsm"
    save_checkpoint(net, path)
    end = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match=f"4 trailing bytes at offset {end} "):
        load_checkpoint(path)


# a 4-3-2 checkpoint: magic and layer count (8 bytes), then per layer its two
# dims (8 bytes), weights and biases; w0 starts at byte 16, b0 at 112, w1 at
# 144 and b1 at 192
@pytest.mark.parametrize("bad, offset", [
    ({(0, "w", (1, 1)): np.nan}, 56),
    ({(0, "b", 2): np.inf}, 128),
    ({(1, "w", (0, 0)): -np.inf}, 144),
    ({(1, "b", 1): np.nan}, 200),
    ({(1, "w", (1, 2)): np.inf, (0, "b", 0): np.nan}, 112),  # the first in the file is named
], ids=["w0-nan", "b0-inf", "w1-neg-inf", "b1-nan", "first-of-two"])
def test_a_non_finite_checkpoint_value_is_a_format_error_at_its_offset(tmp_path, bad, offset):
    net = random_net([4, 3, 2], seed=19)
    for (layer, kind, at), value in bad.items():
        (net.weights if kind == "w" else net.biases)[layer][at] = value
    path = tmp_path / "net.rsm"
    save_checkpoint(net, path)
    with pytest.raises(FormatError, match=rf"^non-finite value at offset {offset} in "
                                          rf"{re.escape(str(path))}$"):
        load_checkpoint(path)


def test_load_parameters_shape_mismatch(tmp_path):
    net = random_net([4, 2], seed=17)
    path = tmp_path / "net.rsm"
    save_checkpoint(net, path)
    with pytest.raises(ShapeError):
        load_parameters(build_network([4, 3]), load_checkpoint(path))


def test_load_parameters_layer_count_mismatch(tmp_path):
    path = tmp_path / "net.rsm"
    save_checkpoint(random_net([4, 2], seed=17), path)
    with pytest.raises(ShapeError, match=r"^checkpoint has 1 layers, network has 2$"):
        load_parameters(build_network([4, 3, 2]), load_checkpoint(path))


# --- the flat parameter layout -------------------------------------------------------

def _offset(view, flat):
    return (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // 8


@settings(max_examples=60, deadline=None)
@given(dims=layer_dims)
def test_views_tile_the_vector_weights_first(dims):
    net = build_network(dims)
    grads = np.empty_like(net.params)
    for flat, (weights, biases) in ((net.params, (net.weights, net.biases)),
                                    (grads, net.views(grads))):
        at = 0
        for view, shape in [*zip(weights, net.shapes), *zip(biases, [s[:1] for s in net.shapes])]:
            assert view.shape == shape and view.flags.c_contiguous
            assert np.shares_memory(view, flat) and _offset(view, flat) == at
            at += view.size
        assert at == flat.size
    assert net.n_weights == sum(w.size for w in net.weights)


@settings(max_examples=60, deadline=None)
@given(dims=layer_dims, rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       output_activation=st.sampled_from(["softmax", "identity"]))
def test_backward_into_the_views_bitwise_matches_fresh_arrays(dims, rows, seed,
                                                               output_activation):
    rng = np.random.default_rng(seed)
    net = build_network(dims, output_activation, rng)
    net.params[net.n_weights:] = rng.normal(size=net.params.size - net.n_weights)
    # relu units with a zero weight row and a +-0.0 bias, at least one per
    # hidden layer, next to units whose z is negative: their z is exactly
    # zero. A BLAS may sum the zero products to +0.0 whatever their signs, so
    # the oracle's z is set to -0.0 at some of them. Production masks by
    # a > 0, the oracle by z > 0; they must agree at +0.0 and -0.0
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        dead = rng.random(w.shape[0]) < 0.3
        dead[0] = True
        w[dead] = 0.0
        b[dead] = rng.choice([0.0, -0.0], size=int(dead.sum()))
    xb = rng.normal(size=(rows, dims[0]))
    gb = rng.normal(size=(rows, dims[-1]))
    gb[0, 0] = -0.0
    want = fresh_forward_batch(net, xb)
    for z in want.pre[:-1]:
        zero = z == 0.0
        assert zero.any()
        z[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    grads = np.full_like(net.params, np.nan)
    got = backward_batch(net, forward_batch(net, xb), gb.copy(), grads)
    assert got is grads
    assert got.tobytes() == fresh_backward_batch(net, want, gb).tobytes()
