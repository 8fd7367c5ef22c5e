"""A small dense classifier with explicit forward caches and hand-derived
backpropagation. No autodiff: `backward_batch` consumes the loss gradient
w.r.t. the network output and chains it through the layers.

`forward_batch`/`backward_batch` work on a whole [B, N] mini-batch with
matrix products; batch gradients are summed over the batch. The per-sample
reference passes they are tested against live in the tests (`oracles.py`).

Checkpoint format (little-endian): magic b"RSM1", uint32 layer count, then
per layer uint32 out_dim, uint32 in_dim, the row-major float64 weight buffer
and the float64 bias buffer, in declaration order.
"""

import struct

import numpy as np

from .errors import FormatError, ShapeError

ACTIVATIONS = ("relu", "softmax", "identity")
CHECKPOINT_MAGIC = b"RSM1"


class DenseLayer:
    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        # C-contiguous, so the optimizers can update them through flat views
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        bias = np.ascontiguousarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeError(f"bad layer shapes: weights {weights.shape}, bias {bias.shape}")
        self.weights = weights
        self.bias = bias

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


class Network:
    """Ordered dense layers with one activation per layer."""

    def __init__(self, layers, activations):
        layers = list(layers)
        activations = list(activations)
        if not layers or len(layers) != len(activations):
            raise ShapeError("need one activation per layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ShapeError(f"unknown activation {act!r}")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ShapeError(f"layer chain broken: {prev.out_dim} -> {nxt.in_dim}")
        self.layers = layers
        self.activations = activations

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def build_network(dims, output_activation="softmax") -> Network:
    """Zero-initialized network with the given layer widths; hidden layers are relu."""
    if len(dims) < 2:
        raise ShapeError("need at least input and output dims")
    layers, acts = [], []
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        layers.append(DenseLayer(np.zeros((n_out, n_in)), np.zeros(n_out)))
        acts.append(output_activation if i == len(dims) - 2 else "relu")
    return Network(layers, acts)


def he_init(network: Network, rng: np.random.Generator) -> Network:
    """Fresh network with weights ~ Normal(0, sqrt(2 / fan_in)), zero biases."""
    layers = []
    for layer in network.layers:
        std = np.sqrt(2.0 / layer.in_dim)
        layers.append(DenseLayer(rng.normal(0.0, std, size=layer.weights.shape),
                                 np.zeros(layer.out_dim)))
    return Network(layers, list(network.activations))


class ForwardCache:
    """Pre-activations and activations of one forward pass."""

    def __init__(self, x, pre, post):
        self.x = x
        self.pre = pre
        self.post = post

    @property
    def prediction(self):
        return self.post[-1]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


class GradientSet:
    """One gradient array per parameter array, aligned with the network."""

    def __init__(self, weights, biases):
        self.weights = list(weights)
        self.biases = list(biases)


def forward_batch(network: Network, xb: np.ndarray) -> ForwardCache:
    """Forward pass for a [B, N] batch; caches every pre-activation and activation.

    Inputs are not checked for finiteness here: they come from a `Dataset`,
    which validates its float inputs once when it is built."""
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != network.input_dim:
        raise ShapeError(f"expected [B, {network.input_dim}] inputs, got {xb.shape}")
    pre, post = [], []
    a = xb
    for layer, act in zip(network.layers, network.activations):
        z = a @ layer.weights.T
        z += layer.bias
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "identity":
            a = z
        else:
            a = _softmax_rows(z)
        pre.append(z)
        post.append(a)
    return ForwardCache(xb, pre, post)


def backward_batch(network: Network, cache: ForwardCache, dl_dout: np.ndarray) -> GradientSet:
    """Backward pass for a batch cache; gradients are summed over the batch."""
    dl_dout = np.asarray(dl_dout, dtype=np.float64)
    if dl_dout.shape != cache.post[-1].shape:
        raise ShapeError(f"expected output gradient of shape {cache.post[-1].shape}")
    k = len(network.layers)
    grads_w = [None] * k
    grads_b = [None] * k
    delta = dl_dout
    for i in reversed(range(k)):
        z = cache.pre[i]
        act = network.activations[i]
        if act == "relu":  # delta * (z > 0), with the mask made as float64 in place
            dz = np.greater(z, 0.0, out=np.empty_like(z))
            dz *= delta
        elif act == "identity":
            dz = delta
        else:
            p = cache.post[i]
            dz = delta - np.sum(p * delta, axis=1, keepdims=True)
            dz *= p
        a_in = cache.post[i - 1] if i > 0 else cache.x
        grads_w[i] = dz.T @ a_in
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            delta = dz @ network.layers[i].weights
    return GradientSet(grads_w, grads_b)


def save_checkpoint(network: Network, path):
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(network.layers)))
        for layer in network.layers:
            f.write(struct.pack("<II", layer.out_dim, layer.in_dim))
            f.write(layer.weights.astype("<f8").tobytes(order="C"))
            f.write(layer.bias.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read back the (weights, bias) pairs written by `save_checkpoint`."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at offset 0 in {path}")
    offset = 4
    try:
        (count,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        pairs = []
        for _ in range(count):
            out_dim, in_dim = struct.unpack_from("<II", raw, offset)
            offset += 8
            w_bytes = out_dim * in_dim * 8
            if offset + w_bytes + out_dim * 8 > len(raw):
                raise FormatError(f"checkpoint truncated at offset {offset} in {path}")
            w = np.frombuffer(raw, "<f8", out_dim * in_dim, offset).reshape(out_dim, in_dim)
            offset += w_bytes
            b = np.frombuffer(raw, "<f8", out_dim, offset)
            offset += out_dim * 8
            pairs.append((w.astype(np.float64), b.astype(np.float64)))
    except struct.error as exc:
        raise FormatError(f"checkpoint truncated at offset {offset} in {path}") from exc
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes at offset {offset} in {path}")
    return pairs


def load_parameters(network: Network, pairs) -> Network:
    """New network with this architecture and the given parameter pairs."""
    if len(pairs) != len(network.layers):
        raise ShapeError(f"checkpoint has {len(pairs)} layers, network has {len(network.layers)}")
    layers = []
    for layer, (w, b) in zip(network.layers, pairs):
        if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
            raise ShapeError(f"checkpoint layer shape {w.shape} does not match {layer.weights.shape}")
        layers.append(DenseLayer(w.copy(), b.copy()))
    return Network(layers, list(network.activations))
