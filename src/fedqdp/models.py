"""Dense-parameter classifiers: softmax regression and a one-hidden-layer MLP.

Model parameters are named float64 tensors packed into one contiguous
vector, and every whole-model operation works on that vector.
Gradients are exact analytic gradients of the mean softmax cross-entropy;
the optimizer is plain SGD with an optional hard L1-norm bound on the
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when two parameter sets are not conformable for arithmetic."""


class Layout:
    """Where each named tensor lives in a flat vector: (name, shape, offset,
    size) per tensor, in order, with no gaps.

    Sets derived from one another share one Layout object, which makes
    their conformability check an identity test.
    """

    __slots__ = ("entries", "names", "size", "_index")

    def __init__(self, shapes):
        entries = []
        offset = 0
        for name, shape in shapes:
            shape = tuple(int(d) for d in shape)
            size = int(np.prod(shape, dtype=np.int64))
            entries.append((str(name), shape, offset, size))
            offset += size
        self.entries: tuple[tuple[str, tuple[int, ...], int, int], ...] = tuple(entries)
        self.names = tuple(e[0] for e in entries)
        self.size = offset
        self._index = {e[0]: e for e in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Layout) and self.entries == other.entries)

    def view(self, vector: np.ndarray, name: str) -> np.ndarray:
        """The named tensor as a view into vector, in its own shape."""
        _, shape, offset, size = self._index[name]
        return vector[offset : offset + size].reshape(shape)


class ParamSet:
    """Named float64 tensors stored as one read-only contiguous vector.

    Indexing by name returns a read-only view in the tensor's shape.
    Arithmetic requires both operands to have identical names, order, and
    shapes, and returns a new ParamSet. Every constructed set is validated
    to be finite.
    """

    __slots__ = ("_layout", "_vector")

    def __init__(self, entries):
        arrays = {name: np.asarray(value, dtype=np.float64)
                  for name, value in dict(entries).items()}
        layout = Layout((name, arr.shape) for name, arr in arrays.items())
        vector = (np.concatenate([arr.ravel() for arr in arrays.values()])
                  if arrays else np.zeros(0))
        self._init(layout, vector)

    @classmethod
    def from_vector(cls, layout: Layout, vector: np.ndarray) -> "ParamSet":
        """Wrap a flat float64 vector laid out by layout.

        The set takes ownership: the vector is marked read-only, and the
        caller must not keep a writable alias to it.
        """
        out = cls.__new__(cls)
        out._init(layout, vector)
        return out

    def _init(self, layout: Layout, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (layout.size,):
            raise ShapeMismatchError(
                f"vector of shape {vector.shape} does not fit a layout of {layout.size} elements"
            )
        if not np.isfinite(vector).all():
            bad = next(name for name, _, off, size in layout.entries
                       if not np.isfinite(vector[off : off + size]).all())
            raise ValueError(f"tensor {bad!r} contains non-finite values")
        vector.flags.writeable = False
        self._layout = layout
        self._vector = vector

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def vector(self) -> np.ndarray:
        """Every tensor, flattened and concatenated in layout order (read-only)."""
        return self._vector

    def __getitem__(self, name: str) -> np.ndarray:
        return self._layout.view(self._vector, name)

    def __repr__(self) -> str:
        shapes = ", ".join(f"{name}:{shape}" for name, shape, _, _ in self._layout.entries)
        return f"ParamSet({shapes})"

    @property
    def num_elements(self) -> int:
        return self._layout.size

    def _require_conformable(self, other: "ParamSet") -> None:
        if self._layout != other._layout:
            raise ShapeMismatchError(f"{self!r} and {other!r} differ in tensor names or shapes")

    def __add__(self, other: "ParamSet") -> "ParamSet":
        self._require_conformable(other)
        return ParamSet.from_vector(self._layout, self._vector + other._vector)

    def scale(self, factor: float) -> "ParamSet":
        return ParamSet.from_vector(self._layout, self._vector * float(factor))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. kind is 'logistic' or 'mlp'."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in ("logistic", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"mlp needs hidden_dim >= 1, got {self.hidden_dim}")


# (weight, bias) names of the softmax layer that produces the logits
_OUTPUT_LAYER = {"logistic": ("w", "b"), "mlp": ("w2", "b2")}


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Initial parameters: weights uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)],
    biases zero, drawn layer by layer from the input side. Same generator
    state gives bit-identical parameters."""

    def layer(weight, bias, rows, cols):
        limit = 1.0 / np.sqrt(cols)
        return {weight: rng.uniform(-limit, limit, size=(rows, cols)), bias: np.zeros(rows)}

    tensors, fan_in = {}, spec.input_dim
    if spec.kind == "mlp":
        tensors.update(layer("w1", "b1", spec.hidden_dim, fan_in))
        fan_in = spec.hidden_dim
    tensors.update(layer(*_OUTPUT_LAYER[spec.kind], spec.num_classes, fan_in))
    return ParamSet(tensors)


def _logits(spec: ModelSpec, params: ParamSet, x: np.ndarray):
    """Returns (logits, hidden activations or None).

    The MLP's tanh layer feeds the output layer; the logistic model is the
    output layer alone, applied to x. The bias add and tanh write into the
    matmul output, so a forward pass over n rows holds one (n, hidden_dim)
    array, not two. The values equal the out-of-place
    tanh(x @ w1.T + b1) @ w2.T + b2.
    """
    hidden = None
    if spec.kind == "mlp":
        hidden = x @ params["w1"].T
        hidden += params["b1"]
        np.tanh(hidden, out=hidden)
    w, b = _OUTPUT_LAYER[spec.kind]
    logits = (x if hidden is None else hidden) @ params[w].T
    logits += params[b]
    return logits, hidden


def predict(spec: ModelSpec, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Predicted class ids of the float64 rows of x: the largest logit wins,
    and exact ties go to the lowest class id."""
    logits, _ = _logits(spec, params, x)
    return np.argmax(logits, axis=1)


def loss_and_grad(spec: ModelSpec, params: ParamSet, x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy over the batch and its exact gradient.

    Returns (loss, ParamSet of gradients) with the gradient laid out
    exactly like the parameters. One exponential serves both the loss and
    the softmax, and each gradient tensor is written straight into its
    segment of the flat vector; the values equal the out-of-place formulas.

    The batch is not checked: x is a non-empty float64 (n, input_dim) array
    and y holds n integer labels in [0, num_classes), as LabeledDataset and
    the config's model/data match ensure.
    """
    n = x.shape[0]
    rows = np.arange(n)
    logits, hidden = _logits(spec, params, x)

    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[rows, y]
    dlogits = np.exp(logits, out=logits)
    total = np.add.reduce(dlogits, axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(total[:, 0]) - picked) / n)

    dlogits /= total
    dlogits[rows, y] -= 1.0
    dlogits /= n

    layout = params.layout
    flat = np.empty(layout.size)
    w, b = _OUTPUT_LAYER[spec.kind]
    np.matmul(dlogits.T, x if hidden is None else hidden, out=layout.view(flat, w))
    np.add.reduce(dlogits, axis=0, out=layout.view(flat, b))
    if hidden is not None:
        dh = dlogits @ params[w]
        # tanh' = 1 - hidden^2, formed in the activation's own buffer
        hidden *= hidden
        np.subtract(1.0, hidden, out=hidden)
        dh *= hidden
        np.matmul(dh.T, x, out=layout.view(flat, "w1"))
        np.add.reduce(dh, axis=0, out=layout.view(flat, "b1"))
    return loss, ParamSet.from_vector(layout, flat)


def l1_norm(params: ParamSet) -> float:
    """Sum of absolute values over every element of every tensor, taken
    as one sum over the flat vector."""
    return float(np.add.reduce(np.abs(params.vector)))


def l1_distance(a: ParamSet, b: ParamSet) -> float:
    """The L1 norm of the elementwise difference a - b, summed over the
    flat vector like l1_norm, without building a difference set.

    Raises ShapeMismatchError when the sets do not conform, and ValueError
    naming the tensor when an element of the difference overflows.
    """
    a._require_conformable(b)
    diff = a.vector - b.vector
    np.abs(diff, out=diff)
    total = float(np.add.reduce(diff))
    # finite - finite is finite or +-inf, so only an infinite total needs a look
    if total == np.inf and np.isinf(diff).any():
        bad = next(name for name, _, off, size in a.layout.entries
                   if np.isinf(diff[off : off + size]).any())
        raise ValueError(f"the difference in tensor {bad!r} overflows")
    return total


def clip_gradient_l1(grad: ParamSet, xi: float) -> ParamSet:
    """Hard-bound the gradient's L1 norm at xi, which must be positive
    (DpConfig ensures it).

    Returns grad itself when the norm is already within the bound,
    otherwise rescales onto the bound. Rescaling repeats while float
    rounding leaves the norm a few ulp above xi, which makes the operation
    exactly idempotent.
    """
    out, norm = grad, l1_norm(grad)
    while norm > xi:
        out = out.scale(xi / norm)
        norm = l1_norm(out)
    return out


def sgd_step(params: ParamSet, grad: ParamSet, eta: float) -> ParamSet:
    """One gradient descent step: params - eta * grad."""
    params._require_conformable(grad)
    step = grad.vector * eta
    np.subtract(params.vector, step, out=step)
    return ParamSet.from_vector(params.layout, step)
