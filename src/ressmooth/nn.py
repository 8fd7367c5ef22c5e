"""A dense classifier over one flat parameter vector, relu on every layer but
the last, with hand-derived backpropagation. No autodiff: `forward_batch`
returns every layer's activation, each computed in place over its logits,
and `backward_batch` chains the loss gradient w.r.t. the network output back
through them; a relu's mask comes from its activation (a > 0 exactly where
z > 0).

`forward_batch`/`backward_batch` take a whole [B, N] mini-batch as given:
shapes and dtypes are checked where arrays enter (see `forward_batch`). The
per-sample reference passes they are tested against are in `oracles.py`.

Checkpoint format (little-endian): magic b"RSM1", uint32 layer count, then
per layer uint32 out_dim, uint32 in_dim, the row-major float64 weight buffer
and the float64 bias buffer, in declaration order.
"""

import struct

import numpy as np

from . import data
from .errors import FormatError, ShapeError

OUTPUT_ACTIVATIONS = ("softmax", "identity")
CHECKPOINT_MAGIC = b"RSM1"


class Network:
    """Dense layers, relu on all but the last, which applies `output_activation`,
    over one float64 vector `params` laid out weights first: [W0, W1, ...,
    b0, b1, ...]. `weights[i]` ([out, in], row-major) and `biases[i]` are
    views of it, so the weights are the prefix of `n_weights` entries."""

    def __init__(self, dims, output_activation):
        self.dims = list(dims)
        self.output_activation = output_activation
        if len(self.dims) < 2 or output_activation not in OUTPUT_ACTIVATIONS:
            raise ShapeError(f"need two or more dims and an output activation in "
                             f"{OUTPUT_ACTIVATIONS}, got {self.dims}, {output_activation!r}")
        self.shapes = list(zip(self.dims[1:], self.dims))
        sizes = [out_dim * in_dim for out_dim, in_dim in self.shapes] + self.dims[1:]
        ends = np.cumsum(sizes).tolist()
        self._bounds = list(zip([0, *ends[:-1]], ends))  # built once: views() runs every step
        self.n_weights = ends[len(self.shapes) - 1]
        try:
            self.params = np.zeros(ends[-1])
        except (ValueError, MemoryError) as exc:  # too many entries to address, or to allocate
            raise ShapeError(f"dims {self.dims} need {ends[-1]} parameters, "
                             "more than can be allocated") from exc
        self.weights, self.biases = self.views(self.params)

    def views(self, flat: np.ndarray):
        """(weight views, bias views) of a vector in the parameter layout."""
        parts = [flat[lo:hi] for lo, hi in self._bounds]
        k = len(self.shapes)
        return [p.reshape(s) for p, s in zip(parts, self.shapes)], parts[k:]


def build_network(dims, output_activation="softmax", rng=None) -> Network:
    """Network with the given layer widths. With an rng the weights are
    He-initialized, ~ Normal(0, sqrt(2 / fan_in)), drawn layer by layer;
    biases, and everything without an rng, are zero."""
    network = Network(dims, output_activation)
    if rng is not None:
        for w in network.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return network


def forward_batch(network: Network, xb: np.ndarray) -> list:
    """Forward pass for a [B, N] batch: the activations [xb, a_1, ..., a_L],
    the prediction last. Each layer's activation is computed in place over
    its logits, so no logits are kept.

    Inputs are taken as given: a `Dataset` checks their shape, dtype and values,
    and the split check or `load_parameters` fits the network to their width."""
    acts = [xb]
    for w, b in zip(network.weights, network.biases):
        z = acts[-1] @ w.T
        z += b
        if len(acts) < len(network.weights):  # a hidden layer
            np.maximum(z, 0.0, out=z)
        elif network.output_activation == "softmax":
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        acts.append(z)
    return acts


def backward_batch(network: Network, acts: list, dl_dout: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """Backward pass over the activations of `forward_batch`; gradients are
    summed over the batch.

    Writes them into `grads`, a vector in the parameter layout, and returns
    it. The training loop passes the same vector every step, so the next call
    overwrites it, and Adam and AdaGrad consume it: they leave their update
    there."""
    grads_w, grads_b = network.views(grads)
    delta = dl_dout
    for i in reversed(range(len(network.weights))):
        a = acts[i + 1]
        if i < len(network.weights) - 1:  # relu: delta * (a > 0), the mask of z > 0, in place
            dz = np.greater(a, 0.0, out=np.empty_like(a))
            dz *= delta
        elif network.output_activation == "identity":
            dz = delta
        else:
            dz = delta - np.sum(a * delta, axis=1, keepdims=True)
            dz *= a
        np.matmul(dz.T, acts[i], out=grads_w[i])
        dz.sum(axis=0, out=grads_b[i])
        if i > 0:
            delta = dz @ network.weights[i]
    return grads


def save_checkpoint(network: Network, path):
    """Write the checkpoint through `data.write_whole`, from the parameters' own views."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(network.weights))]
    for w, b in zip(network.weights, network.biases):
        parts += [struct.pack("<II", *w.shape), *(a.astype("<f8", copy=False) for a in (w, b))]
    data.write_whole(path, parts)


def load_checkpoint(path):
    """Read-only little-endian views of the finite (weights, bias) pairs `save_checkpoint` wrote."""
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
            values = np.frombuffer(raw, "<f8", out_dim * (in_dim + 1), offset)
            if (bad := np.flatnonzero(~np.isfinite(values))).size:
                raise FormatError(f"non-finite value at offset {offset + 8 * bad[0]} in {path}")
            pairs.append((values[:w_bytes // 8].reshape(out_dim, in_dim), values[w_bytes // 8:]))
            offset += w_bytes + out_dim * 8
    except struct.error as exc:
        raise FormatError(f"checkpoint truncated at offset {offset} in {path}") from exc
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes at offset {offset} in {path}")
    return pairs


def load_parameters(network: Network, pairs) -> Network:
    """Copy the given (weights, bias) pairs into the network; returns it."""
    if len(pairs) != len(network.weights):
        raise ShapeError(f"checkpoint has {len(pairs)} layers, network has {len(network.weights)}")
    for w, b, (w_new, b_new) in zip(network.weights, network.biases, pairs):
        if w_new.shape != w.shape or b_new.shape != b.shape:
            raise ShapeError(f"checkpoint layer shape {w_new.shape} does not match {w.shape}")
        w[...] = w_new
        b[...] = b_new
    return network
