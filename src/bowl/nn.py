"""Minimal feed-forward network with batch normalization and SGD-momentum.

Dense / BatchNorm / ReLU layers carry hand-written backward passes. The one
read-only pass ``eval_rows`` gives every row's logits and, on request, two
per-row reductions of the batch-norm activations (eta0 for the OoD scores,
spread for the entropies); a caller pays only for the reductions it asks for.
The output head can grow rows as new classes appear, preserving existing
logits exactly.

Parameter arena: a ``Network`` keeps all its parameters in one flat vector
(``flat_params``) and their gradients in another (``flat_grads``). Every
``Param.data`` and ``Param.grad`` is a view into them, laid out in
``named_parameters()`` order: the body's layers first, the head's weight and
bias last, from ``head_offset`` on. Backward passes write gradients into the
arena in place, and ``SgdOptimizer.step`` updates the whole vector at once.
Growing the head rebuilds the arena; the optimizer then keeps the body's
momentum and restarts the head's at zero.
"""

from __future__ import annotations

import numpy as np

from .serialization import FormatError, read_tensors, write_tensors


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN/inf loss; the run must abort."""


class Param:
    """A trainable array together with its gradient buffer (in a ``Network``,
    both are views into its arena)."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = np.zeros_like(data)


class Dense:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32):
        limit = 1.0 / np.sqrt(in_dim)
        weight = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.weight = Param(weight.astype(dtype))
        self.bias = Param(np.zeros(out_dim, dtype=dtype))
        self._x: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[1]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise ValueError(f"dense layer expects {self.in_dim} inputs, got {x.shape[1]}")
        if train:
            self._x = x
        y = x @ self.weight.data
        y += self.bias.data
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write the parameter gradients; return the input gradient, or None
        when ``input_grad`` is false (the network's first layer)."""
        np.matmul(self._x.T, dy, out=self.weight.grad)
        np.add.reduce(dy, axis=0, out=self.bias.grad)
        return dy @ self.weight.data.T if input_grad else None

    def params(self, prefix: str) -> list[tuple[str, Param]]:
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class BatchNorm:
    """Per-channel normalization with tracked running statistics.

    Train mode normalizes with batch statistics (biased variance) and updates
    the running estimates in place by EMA ``running <- (1 - m) * running + m *
    batch``. Eval mode normalizes with the running estimates and never mutates
    state.
    """

    def __init__(self, dim: int, eps: float = 1e-5, stat_momentum: float = 0.1,
                 dtype=np.float32):
        if not 0.0 < stat_momentum <= 1.0:
            raise ValueError("stat_momentum must be in (0, 1]")
        self.gamma = Param(np.ones(dim, dtype=dtype))
        self.beta = Param(np.zeros(dim, dtype=dtype))
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.eps = eps
        self.stat_momentum = stat_momentum
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.gamma.data.shape[0]

    def forward(self, x: np.ndarray, train: bool, row_stats=None) -> np.ndarray:
        """Normalize ``x``. With ``row_stats``, an (eta0, spread) pair of float64
        per-row accumulators, add each row's sum of squared standardized
        activations z to eta0 and its mean squared output y to spread; a None
        accumulator is skipped."""
        if x.shape[1] != self.dim:
            raise ValueError(f"batchnorm expects {self.dim} channels, got {x.shape[1]}")
        if train:
            n = x.shape[0]
            if n < 2:
                raise ValueError("train-mode batch norm needs batch size >= 2")
            # One pass, the same float ops as np.mean and np.var (whose sum is
            # np.add.reduce): sum, divide by n; d is taken once for var and z.
            mean = np.add.reduce(x, axis=0)
            mean /= n
            d = x - mean
            var = np.add.reduce(d * d, axis=0)
            var /= n
            inv = 1.0 / np.sqrt(var + self.eps)
            z = d * inv
            m = self.stat_momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mean
            self.running_var *= 1.0 - m
            self.running_var += m * var
            self._cache = (z, inv)
        else:
            z = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        y = z * self.gamma.data
        y += self.beta.data
        if row_stats is not None:
            eta0, spread = row_stats
            if eta0 is not None:
                eta0 += np.square(z, dtype=np.float64).sum(axis=1)
            if spread is not None:
                spread += np.square(y, dtype=np.float64).mean(axis=1)
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        z, inv = self._cache
        n = z.shape[0]
        np.add.reduce(dy * z, axis=0, out=self.gamma.grad)
        np.add.reduce(dy, axis=0, out=self.beta.grad)
        if not input_grad:
            return None
        dz = dy * self.gamma.data
        # Gradient through the batch statistics themselves:
        # (inv / n) * (n * dz - sum(dz) - z * sum(dz * z)).
        dx = dz * n
        dx -= np.add.reduce(dz, axis=0)
        dx -= z * np.add.reduce(dz * z, axis=0)
        dx *= inv / n
        return dx

    def params(self, prefix: str) -> list[tuple[str, Param]]:
        return [(f"{prefix}.gamma", self.gamma), (f"{prefix}.beta", self.beta)]


class ReLU:
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        return dy * self._mask if input_grad else None

    def params(self, prefix: str) -> list[tuple[str, Param]]:
        return []


class Network:
    """Ordered layers plus a dense output head mapping to known class ids.

    All parameters live in one flat arena, head last (see the module
    docstring); ``copy.deepcopy`` and pickling rebuild it for the copy.
    """

    def __init__(self, layers: list, head: Dense, class_ids: list[int] | None = None):
        if not any(isinstance(l, BatchNorm) for l in layers):
            raise ValueError("network requires at least one batch-norm layer")
        self.layers = layers
        self.head = head
        self.class_ids = list(class_ids) if class_ids is not None else list(range(head.out_dim))
        if len(self.class_ids) != head.out_dim:
            raise ValueError("class_ids length must match head width")
        self.in_dim = next((l.in_dim for l in layers if isinstance(l, Dense)), head.in_dim)
        # Batch-norm entries per row: the dimension d of the eta1 score.
        self.bn_dim = sum(l.dim for l in layers if isinstance(l, BatchNorm))
        self._build_arena()

    def _build_arena(self) -> None:
        """Copy every parameter and gradient into two fresh flat vectors, head
        last, and rebind each ``Param`` to views of them."""
        params = [p for _, p in self.named_parameters()]
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) != 1:
            raise ValueError(f"all parameters must share one dtype, got "
                             f"{sorted(map(str, dtypes))}")
        total = sum(p.data.size for p in params)
        self.flat_params = np.empty(total, dtype=dtypes.pop())
        self.flat_grads = np.empty_like(self.flat_params)
        start = 0
        for p in params:
            end = start + p.data.size
            self.flat_params[start:end] = p.data.reshape(-1)
            self.flat_grads[start:end] = p.grad.reshape(-1)
            p.data = self.flat_params[start:end].reshape(p.data.shape)
            p.grad = self.flat_grads[start:end].reshape(p.grad.shape)
            start = end
        self.head_offset = total - self.head.weight.data.size - self.head.bias.data.size

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["flat_params"], state["flat_grads"]
        return state

    def __setstate__(self, state):
        # A copied Param holds a copy of its view, no longer part of an arena.
        self.__dict__.update(state)
        self._build_arena()

    @property
    def n_classes(self) -> int:
        return self.head.out_dim

    def head_rows(self, labels: np.ndarray) -> np.ndarray:
        """Head-row index of every label; each label must be a known class."""
        class_ids = np.asarray(self.class_ids, dtype=np.int64)
        order = np.argsort(class_ids)
        pos = np.searchsorted(class_ids, labels, sorter=order)
        rows = order[np.minimum(pos, len(order) - 1)]
        if not np.array_equal(class_ids[rows], labels):
            raise ValueError("label outside the head's classes")
        return rows

    def forward(self, x: np.ndarray, train: bool, row_stats=None) -> np.ndarray:
        """Run the network on (n, d) rows and return its logits: batch
        statistics when ``train`` (updating the running ones), the running
        statistics otherwise. ``row_stats``, an (eta0, spread) pair of float64
        per-row accumulators or None, collects every batch-norm layer's
        per-row reductions (see ``BatchNorm.forward`` and ``eval_rows``)."""
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} does not match network dim {self.in_dim}")
        for layer in self.layers:
            if isinstance(layer, BatchNorm):
                x = layer.forward(x, train, row_stats)
            else:
                x = layer.forward(x, train)
        return self.head.forward(x, train)

    def backward(self, dlogits: np.ndarray) -> None:
        dy = self.head.backward(dlogits)
        for i in range(len(self.layers) - 1, -1, -1):
            # Nobody reads the gradient with respect to the network's input.
            dy = self.layers[i].backward(dy, input_grad=i > 0)

    def named_parameters(self) -> list[tuple[str, Param]]:
        out: list[tuple[str, Param]] = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.params(f"layer{i}"))
        out.extend(self.head.params("head"))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.named_parameters()}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                state[f"layer{i}.running_mean"] = layer.running_mean
                state[f"layer{i}.running_var"] = layer.running_var
        state["head.class_ids"] = np.asarray(self.class_ids, dtype=np.uint32)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load every tensor of ``state_dict()``, each checked by name and shape."""
        for name, target in self.state_dict().items():
            if name == "head.class_ids":
                continue
            if name not in state:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            if state[name].shape != target.shape:
                raise ValueError(f"shape mismatch for {name!r}: "
                                 f"{state[name].shape} vs {target.shape}")
            target[...] = state[name].astype(target.dtype)
        if "head.class_ids" in state:
            self.class_ids = [int(c) for c in state["head.class_ids"]]


def build_mlp(in_dim: int, hidden: list[int], n_classes: int,
              rng: np.random.Generator, eps: float = 1e-5,
              stat_momentum: float = 0.1, dtype=np.float32,
              class_ids: list[int] | None = None) -> Network:
    """Dense -> BatchNorm -> ReLU stack for each hidden width, then a head."""
    if not hidden:
        raise ValueError("need at least one hidden layer to host batch norm")
    layers: list = []
    prev = in_dim
    for width in hidden:
        layers.append(Dense(prev, width, rng, dtype=dtype))
        layers.append(BatchNorm(width, eps=eps, stat_momentum=stat_momentum, dtype=dtype))
        layers.append(ReLU())
        prev = width
    head = Dense(prev, n_classes, rng, dtype=dtype)
    return Network(layers, head, class_ids)


EVAL_CHUNK = 512


def eval_rows(net: Network, x: np.ndarray, *, eta0: bool = False,
              spread: bool = False) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The one read-only pass: (logits, eta0, spread) of every row of ``x``.

    Runs in eval mode, ``EVAL_CHUNK`` rows per forward pass. eta0 is a row's
    sum of squared standardized batch-norm activations over all layers (the
    raw OoD score, of dimension ``net.bn_dim``); spread is the mean over
    layers of its mean squared post-affine activation. Both are float64, and
    each is computed only when its flag asks for it; otherwise it is None.
    The logits do not depend on the flags. Eval-mode rows do not interact, so
    a row's numbers do not depend on the other rows, up to how the matrix
    product rounds at a given row count.
    """
    x = np.asarray(x)
    n = len(x)
    eta0_rows = np.zeros(n) if eta0 else None
    spread_rows = np.zeros(n) if spread else None
    logits = np.empty((n, net.n_classes), np.result_type(x.dtype, net.flat_params.dtype))
    for start in range(0, n, EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        row_stats = (eta0_rows[rows] if eta0 else None,
                     spread_rows[rows] if spread else None)
        logits[rows] = net.forward(x[rows], False, row_stats)
    if spread:
        spread_rows /= sum(isinstance(layer, BatchNorm) for layer in net.layers)
    return logits, eta0_rows, spread_rows


def softmax64(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ``logits`` as a new float64 array."""
    probs = logits.astype(np.float64)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. logits.

    ``targets`` are head-row indices. Accumulates in float64 for stability,
    returns the gradient in the logits dtype.
    """
    probs = softmax64(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(-np.log(probs[rows, targets] + 1e-300).mean())
    probs[rows, targets] -= 1.0  # the gradient now, up to the mean's 1/n
    probs /= n
    return loss, probs.astype(logits.dtype)


class SgdOptimizer:
    """SGD with momentum and weight decay, one update of a network's arena.

    The velocity is one vector laid out like the arena: body parameters first,
    the head last. ``step`` computes v <- momentum * v + (grad + decay * w) and
    w <- w - lr * v on the whole vector, the same float ops per element as a
    per-parameter step. When the arena grows (``expand_head``), the body's
    velocity carries over and the head's restarts at zero, old rows included.
    """

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.9,
                 weight_decay: float = 0.0005):
        if learning_rate < 0 or momentum < 0 or weight_decay < 0:
            raise ValueError("optimizer hyperparameters must be nonnegative")
        # Python floats, so they take the parameters' dtype in every op.
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: np.ndarray | None = None
        self.step_count = 0

    def step(self, net: Network) -> None:
        w = net.flat_params
        v = self.velocity
        if v is None or v.shape != w.shape:
            v = np.zeros_like(w)
            if self.velocity is not None:
                body = net.head_offset
                v[:body] = self.velocity[:body]
            self.velocity = v
        g = w * self.weight_decay
        g += net.flat_grads
        v *= self.momentum
        v += g
        w -= v * self.learning_rate
        self.step_count += 1


def backward_and_step(net: Network, x: np.ndarray, targets: np.ndarray,
                      opt: SgdOptimizer) -> float:
    """One gradient step on a batch; returns the pre-step mean cross-entropy."""
    logits = net.forward(x, True)
    loss, dlogits = softmax_cross_entropy(logits, np.asarray(targets))
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss diverged: {loss}")
    net.backward(dlogits)
    opt.step(net)
    return loss


def train_one_epoch(net: Network, inputs: np.ndarray, labels: np.ndarray,
                    opt: SgdOptimizer, minibatch_size: int,
                    rng: np.random.Generator) -> tuple[int, float]:
    """The one minibatch loop: a shuffled pass over labeled rows; returns
    (steps, mean minibatch loss).

    Gathers the rows once in shuffled order and steps through them in
    ceil(n / minibatch) slices, so every row is visited exactly once.
    Train-mode batch norm needs >= 2 rows, so a lone last row is duplicated:
    the copy has a well-defined (zero) batch variance and the same mean loss.
    Every label must be one of the head's classes.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("cannot train on an empty set")
    order = rng.permutation(n)
    inputs = np.asarray(inputs)[order]
    targets = net.head_rows(np.asarray(labels))[order]
    steps = 0
    total_loss = 0.0
    for start in range(0, n, minibatch_size):
        x = inputs[start:start + minibatch_size]
        y = targets[start:start + minibatch_size]
        if len(y) == 1:
            x, y = np.repeat(x, 2, axis=0), np.repeat(y, 2)
        total_loss += backward_and_step(net, x, y, opt)
        steps += 1
    return steps, total_loss / steps


def expand_head(net: Network, new_class_ids: list[int], rng: np.random.Generator) -> Network:
    """Grow the output head by a row per class in ``new_class_ids``, keeping old
    rows bit-identical.

    New rows use the fresh-dense init scheme (uniform +-1/sqrt(fan_in), zero bias).
    """
    # Validate before touching the head, so a rejected call changes nothing.
    n_new = len(new_class_ids)
    if n_new < 1:
        raise ValueError("head expansion requires at least one new class")
    head = net.head
    dtype = head.weight.data.dtype
    limit = 1.0 / np.sqrt(head.in_dim)
    new_cols = rng.uniform(-limit, limit, size=(head.in_dim, n_new)).astype(dtype)
    head.weight = Param(np.concatenate([head.weight.data, new_cols], axis=1))
    head.bias = Param(np.concatenate([head.bias.data, np.zeros(n_new, dtype=dtype)]))
    net._build_arena()
    net.class_ids.extend(int(c) for c in new_class_ids)
    return net


def save_checkpoint(net: Network, path: str) -> None:
    write_tensors(path, {k: _as_storable(v) for k, v in net.state_dict().items()})


def read_checkpoint(path: str) -> tuple[list[int], dict[str, np.ndarray]]:
    """A checkpoint's head class ids and all its tensors, from one read."""
    state = read_tensors(path)
    if "head.class_ids" not in state:
        raise FormatError(f"checkpoint {path!r} has no tensor 'head.class_ids'")
    return [int(c) for c in state["head.class_ids"]], state


def _as_storable(array: np.ndarray) -> np.ndarray:
    if array.dtype == np.uint32:
        return array
    return array.astype(np.float32)
