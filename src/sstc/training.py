"""Fully-connected network training with structured sparse ternary weights.

The retraining loop keeps two weight sets per layer: float shadow weights W
that receive gradient updates, and quantized weights W_q used in the
forward pass.  Gradients flow through the quantizer with the straight-
through convention (identity), are masked so pruned connections stay zero,
and are applied with ADAM.  The step size is re-fitted once per epoch and
at every stage boundary; W_q is re-quantized after every optimizer step.

Weight normalization is treated as a reparameterization of the float
weights: the effective weight is the row-normalized masked matrix, and the
quantizer acts on it, so serialized ternary weights already include the
normalization.  Batch normalization runs on batch statistics during
training and on the stored running statistics (folded to an affine) at
evaluation time.
"""

from dataclasses import dataclass, replace

import numpy as np

from .codes import CodeParams, rank_subvectors
from .datasets import train_val_split
from .errors import ValidationError
from .kernel import bn_eval_affine, softmax
from .prune import SparsitySchedule, structured_prune
from .quantize import QuantizerConfig, find_step_size, quantize_weight
from .store import (BatchNormParams, LayerFormat, ModelFile, WeightNormTag,
                    encode_layer, _grouped_subvectors)

ACTIVATIONS = ("relu", "softmax")
NORMALIZERS = ("none", "batch_norm", "weight_norm")
POLICY_KINDS = ("float", "ternary", "sst")


@dataclass(frozen=True)
class WeightPolicy:
    kind: str = "float"
    params: CodeParams = None
    orientation: str = "column"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValidationError(f"unknown weight policy {self.kind!r}")
        if self.kind == "sst" and self.params is None:
            raise ValidationError("sst policy requires code parameters")
        if self.kind != "sst" and self.params is not None:
            raise ValidationError(f"{self.kind} policy takes no code parameters")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    normalizer: str = "none"
    policy: WeightPolicy = WeightPolicy()
    prune: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValidationError("layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if self.normalizer not in NORMALIZERS:
            raise ValidationError(f"unknown normalizer {self.normalizer!r}")
        if self.policy.kind == "sst" and not self.prune:
            raise ValidationError(
                "sst layers must be prunable; quantize-only layers use the ternary policy"
            )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    lr_floor: float = 1.6e-5
    lr_decay: float = 0.2
    plateau_patience: int = 4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 100
    epochs: int = 10
    seed: int = 0
    quantizer: QuantizerConfig = QuantizerConfig()

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if not 0 < self.lr_decay < 1:
            raise ValidationError("lr decay factor must be in (0, 1)")


@dataclass
class TrainData:
    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray

    @classmethod
    def from_arrays(cls, X, y, val_fraction=0.1, seed=0):
        return cls(*train_val_split(X, y, val_fraction, seed))


# --- normalizer primitives -------------------------------------------------

def batch_norm_forward(x, gamma, beta, eps=1e-5):
    """Train-phase normalization over batch statistics; returns (out, cache).

    Needs at least two samples.  The eval phase folds the running
    statistics with `kernel.bn_eval_affine` instead.
    """
    if x.shape[0] < 2:
        raise ValidationError("batch norm needs a batch of at least 2 in train phase")
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * invstd
    out = gamma * xhat + beta
    return out, {"xhat": xhat, "invstd": invstd, "gamma": gamma,
                 "mu": mu, "var": var}


def batch_norm_backward(dout, cache):
    """Gradients of the train-phase normalization: (dx, dgamma, dbeta)."""
    if cache is None:
        raise ValidationError("batch norm backward requires a train-phase forward cache")
    xhat, invstd, gamma = cache["xhat"], cache["invstd"], cache["gamma"]
    batch = dout.shape[0]
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    dx = (invstd / batch) * (batch * dxhat - dxhat.sum(axis=0)
                             - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


def weight_norm_forward(U):
    """Rescale each output row of U to unit L2 norm; returns (V, cache)."""
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    if np.any(norms == 0):
        row = int(np.argmax(norms.ravel() == 0))
        raise ValidationError(f"weight norm: output row {row} has zero norm")
    V = U / norms
    return V, {"V": V, "norms": norms}


def weight_norm_backward(dV, cache):
    """Gradient through the row normalization back to the raw weights."""
    V, norms = cache["V"], cache["norms"]
    inner = (dV * V).sum(axis=1, keepdims=True)
    return (dV - inner * V) / norms


# --- network ----------------------------------------------------------------

class Layer:
    def __init__(self, spec: LayerSpec, rng: np.random.Generator):
        self.spec = spec
        bound = 1.0 / np.sqrt(spec.in_dim)
        self.W = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        self.b = np.zeros(spec.out_dim)
        self.mask = np.ones((spec.out_dim, spec.in_dim))
        self.delta = None
        self.W_q = None
        # the stage code currently enforced; the policy params are the target
        self.current_params = spec.policy.params
        if spec.normalizer == "batch_norm":
            self.gamma = np.ones(spec.out_dim)
            self.beta = np.zeros(spec.out_dim)
            self.run_mean = np.zeros(spec.out_dim)
            self.run_var = np.ones(spec.out_dim)
            self.bn_eps = 1e-5
            self.bn_momentum = 0.1
        self.moments = {}

    @property
    def quantizable(self):
        return self.spec.policy.kind in ("ternary", "sst")

    def effective_weights(self):
        """Float weights as used in the forward pass: masked, and row-
        normalized when the layer is weight-normalized."""
        U = self.W * self.mask
        if self.spec.normalizer == "weight_norm":
            V, _ = weight_norm_forward(U)
            return V
        return U

    def set_mask(self, mask):
        self.mask = np.asarray(mask, dtype=np.float64)
        self.W *= self.mask
        if "W" in self.moments:
            m, v = self.moments["W"]
            m *= self.mask
            v *= self.mask

    def refresh_delta(self, qconfig: QuantizerConfig):
        if not self.quantizable:
            return
        eff = self.effective_weights()
        self.delta = float(np.float32(find_step_size(eff, qconfig)))
        self.refresh_quantized(qconfig)

    def refresh_quantized(self, qconfig: QuantizerConfig):
        if not self.quantizable:
            return
        if self.delta is None:
            raise ValidationError("quantized refresh before any step-size fit")
        self.W_q = quantize_weight(self.effective_weights(), self.delta, qconfig.levels)

    def moment(self, name, shape):
        if name not in self.moments:
            self.moments[name] = (np.zeros(shape), np.zeros(shape))
        return self.moments[name]


class Network:
    def __init__(self, specs, seed: int = 0):
        specs = list(specs)
        if not specs:
            raise ValidationError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(specs, specs[1:])):
            if a.out_dim != b.in_dim:
                raise ValidationError(f"layer {i} emits {a.out_dim}, layer {i+1} expects {b.in_dim}")
        for i, s in enumerate(specs):
            if (s.activation == "softmax") != (i == len(specs) - 1):
                raise ValidationError("softmax is required on the final layer and only there")
        rng = np.random.default_rng(seed)
        self.layers = [Layer(s, rng) for s in specs]
        self.seed = seed
        self.step_count = 0
        self._last_pass = None


def build_network(specs, seed: int = 0) -> Network:
    return Network(specs, seed)


@dataclass
class ForwardPass:
    probs: np.ndarray
    logits: np.ndarray
    caches: list
    phase: str


def _layer_weight(layer: Layer, mode: str):
    if mode == "quantized" and layer.quantizable:
        if layer.W_q is None:
            raise ValidationError("quantized forward before quantization; run a stage first")
        return layer.W_q
    return layer.effective_weights()


def forward(net: Network, X, mode: str = "quantized", phase: str = "train") -> ForwardPass:
    """Run the network; returns probabilities, logits, and backward caches.

    Quantized mode evaluates with W_q on quantizable layers; float mode
    uses the masked (and possibly weight-normalized) float weights.  In
    eval phase, quantized mode rounds biases and batch-norm parameters to
    float32 first so results match a serialized model bit for bit.
    """
    if mode not in ("float", "quantized"):
        raise ValidationError(f"unknown mode {mode!r}")
    if phase not in ("train", "eval"):
        raise ValidationError(f"unknown phase {phase!r}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != net.layers[0].spec.in_dim:
        raise ValidationError(
            f"input dim {X.shape[1]} != first layer in_dim {net.layers[0].spec.in_dim}"
        )
    as_float32 = mode == "quantized" and phase == "eval"

    def stored(a):
        a = np.asarray(a, dtype=np.float64)
        return a.astype(np.float32).astype(np.float64) if as_float32 else a

    out = X
    caches = []
    for pos, layer in enumerate(net.layers):
        Wuse = _layer_weight(layer, mode)
        pre = out @ Wuse.T + stored(layer.b)
        bn_cache = None
        if layer.spec.normalizer == "batch_norm":
            if phase == "train":
                z, bn_cache = batch_norm_forward(pre, layer.gamma, layer.beta, layer.bn_eps)
                mom = layer.bn_momentum
                layer.run_mean = (1 - mom) * layer.run_mean + mom * bn_cache["mu"]
                layer.run_var = (1 - mom) * layer.run_var + mom * bn_cache["var"]
            else:
                scale, shift = bn_eval_affine(*(stored(a) for a in (
                    layer.gamma, layer.beta, layer.run_mean, layer.run_var, layer.bn_eps)))
                z = pre * scale + shift
        else:
            z = pre
        if layer.spec.activation == "relu":
            act = np.maximum(z, 0.0)
        else:
            act = z  # logits; softmax applied once below
        caches.append({"x": out, "W": Wuse, "z": z, "bn": bn_cache})
        out = act
    logits = out
    probs = softmax(logits)
    result = ForwardPass(probs=probs, logits=logits, caches=caches, phase=phase)
    net._last_pass = result
    return result


def cross_entropy(fwd: ForwardPass, labels) -> float:
    """Mean cross-entropy of one-hot ``labels`` (class indices accepted)."""
    logits = fwd.logits
    labels = np.asarray(labels)
    logz = logits - logits.max(axis=1, keepdims=True)
    logp = logz - np.log(np.exp(logz).sum(axis=1, keepdims=True))
    if labels.ndim == 1:
        picked = logp[np.arange(len(labels)), labels]
    else:
        picked = (logp * labels).sum(axis=1)
    return float(-picked.mean())


def backward_masked(net: Network, labels, fwd: ForwardPass = None):
    """Gradients of the mean cross-entropy w.r.t. the float parameters.

    Uses the straight-through convention: the quantized forward's weight
    gradient is credited to the effective float weights, propagated through
    weight normalization where present, then masked.  Requires a preceding
    train-phase forward.
    """
    fwd = fwd or net._last_pass
    if fwd is None:
        raise ValidationError("backward requires a forward pass first")
    if fwd.phase != "train":
        raise ValidationError("backward requires a train-phase forward")
    labels = np.asarray(labels)
    batch = fwd.probs.shape[0]
    onehot = labels if labels.ndim == 2 else np.eye(fwd.probs.shape[1])[labels]
    dz = (fwd.probs - onehot) / batch
    grads = []
    for pos in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[pos]
        cache = fwd.caches[pos]
        if layer.spec.activation == "relu":
            dz = dz * (cache["z"] > 0)
        dgamma = dbeta = None
        if layer.spec.normalizer == "batch_norm":
            dz, dgamma, dbeta = batch_norm_backward(dz, cache["bn"])
        db = dz.sum(axis=0)
        dWeff = dz.T @ cache["x"]
        if layer.spec.normalizer == "weight_norm":
            U = layer.W * layer.mask
            _, wn_cache = weight_norm_forward(U)
            dWeff = weight_norm_backward(dWeff, wn_cache)
        dW = dWeff * layer.mask
        grads.append({"W": dW, "b": db, "gamma": dgamma, "beta": dbeta})
        if pos:
            dz = dz @ cache["W"]
    grads.reverse()
    return grads


def adam_step(net: Network, grads, config: TrainConfig, t: int = None,
              lr: float = None) -> Network:
    """One bias-corrected ADAM update; refreshes W_q afterwards.

    Masked positions have zero gradients and are re-masked after the
    update, so they stay exactly zero.  ``lr`` overrides the configured
    rate so decay schedules need not rebuild the config.
    """
    if t is None:
        net.step_count += 1
        t = net.step_count
    b1, b2, eps = config.beta1, config.beta2, config.adam_eps
    lr = config.learning_rate if lr is None else lr
    for layer, g in zip(net.layers, grads):
        for name, grad in g.items():
            if grad is None:
                continue
            param = getattr(layer, name)
            m, v = layer.moment(name, param.shape)
            m += (1 - b1) * (grad - m)
            v += (1 - b2) * (grad * grad - v)
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            param -= lr * mhat / (np.sqrt(vhat) + eps)
        layer.W *= layer.mask
        if layer.quantizable and layer.delta is not None:
            layer.refresh_quantized(config.quantizer)
    return net


def evaluate(net: Network, X, y, mode: str = "quantized") -> float:
    """Miss-classification rate in percent (argmax, lowest index on ties)."""
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    wrong = 0
    for start in range(0, len(X), 2048):
        fwd = forward(net, X[start:start + 2048], mode=mode, phase="eval")
        wrong += int((np.argmax(fwd.probs, axis=1) != y[start:start + 2048]).sum())
    return 100.0 * wrong / len(X)


# --- training loops ---------------------------------------------------------

class _LrState:
    def __init__(self, config: TrainConfig):
        self.lr = config.learning_rate
        self.best = np.inf
        self.streak = 0
        self.config = config

    def observe(self, val_mcr: float):
        if val_mcr < self.best:
            self.best = val_mcr
            self.streak = 0
            return
        self.streak += 1
        if self.streak >= self.config.plateau_patience:
            self.lr = max(self.lr * self.config.lr_decay, self.config.lr_floor)
            self.streak = 0


def _epoch_batches(n, batch_size, rng, needs_pairs):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        batch = order[start:start + batch_size]
        if needs_pairs and batch.size < 2:
            continue  # batch norm cannot normalize a single sample
        yield batch


def _run_epoch(net, data, config, lr_state, mode, rng):
    has_bn = any(l.spec.normalizer == "batch_norm" for l in net.layers)
    total_loss = 0.0
    seen = 0
    for batch in _epoch_batches(len(data.X_train), config.batch_size, rng, has_bn):
        xb, yb = data.X_train[batch], data.y_train[batch]
        fwd = forward(net, xb, mode=mode, phase="train")
        loss = cross_entropy(fwd, yb)
        grads = backward_masked(net, yb, fwd)
        adam_step(net, grads, config, lr=lr_state.lr)
        total_loss += loss * batch.size
        seen += batch.size
    return total_loss / max(seen, 1)


def train_float(net: Network, data: TrainData, config: TrainConfig):
    """Plain float training with ADAM and plateau learning-rate decay."""
    rng = np.random.default_rng(config.seed + 1)
    lr_state = _LrState(config)
    history = []
    for epoch in range(config.epochs):
        train_loss = _run_epoch(net, data, config, lr_state, "float", rng)
        val_mcr = evaluate(net, data.X_val, data.y_val, mode="float")
        history.append({"stage": "float", "epoch": epoch, "lr": lr_state.lr,
                        "train_loss": train_loss, "val_mcr": val_mcr})
        lr_state.observe(val_mcr)
    return history


def _prunable(layer: Layer):
    return layer.spec.policy.kind == "sst" and layer.spec.prune


def _validate_schedule(net: Network, schedule: SparsitySchedule):
    sst_layers = [(i, l) for i, l in enumerate(net.layers) if l.spec.policy.kind == "sst"]
    for i, layer in sst_layers:
        target = layer.spec.policy.params
        if target.n != schedule.target.n:
            raise ValidationError(
                f"layer {i} uses n={target.n} but the schedule is for n={schedule.target.n}"
            )
        if _prunable(layer) and target.k != schedule.target.k:
            raise ValidationError(
                f"layer {i} targets {target} but the schedule ends at {schedule.target}"
            )
        dims = layer.W.shape
        grouped = dims[0] if layer.spec.policy.orientation == "column" else dims[1]
        if grouped % target.n:
            raise ValidationError(
                f"layer {i} shape {dims} not divisible by n={target.n} "
                f"({layer.spec.policy.orientation} orientation)"
            )


def check_code_validity(net: Network) -> bool:
    """Every quantized sub-vector must be encodable under its layer's code."""
    for i, layer in enumerate(net.layers):
        if layer.spec.policy.kind != "sst" or layer.W_q is None:
            continue
        params = layer.current_params
        trits = np.rint(layer.W_q / layer.delta).astype(np.int8)
        subvectors = _grouped_subvectors(trits, params, layer.spec.policy.orientation)
        rank_subvectors(subvectors, params)  # raises on budget violations
    return True


def mask_violation(net: Network) -> float:
    """Largest surviving magnitude at a pruned position (0 when clean)."""
    worst = 0.0
    for layer in net.layers:
        worst = max(worst, float(np.abs(layer.W * (1 - layer.mask)).max(initial=0.0)))
    return worst


def train_structured(net: Network, data: TrainData, schedule, config: TrainConfig,
                     float_epochs: int = 0):
    """Prune-quantize-retrain over a sparsity schedule (gradual or single).

    ``schedule`` may be a `SparsitySchedule` or a single `CodeParams`
    (retrained for config.epochs).  Each stage prunes the current float
    weights, refits the step sizes from them, quantizes, and retrains with
    masked straight-through updates.  Returns the per-epoch metrics
    history.
    """
    if isinstance(schedule, CodeParams):
        schedule = SparsitySchedule.single(schedule, config.epochs)
    _validate_schedule(net, schedule)
    history = []
    if float_epochs:
        history.extend(train_float(net, data, replace(config, epochs=float_epochs)))
    rng = np.random.default_rng(config.seed + 2)
    lr_state = _LrState(config)
    for params, stage_epochs in zip(schedule.stages, schedule.epochs_per_stage):
        for layer in net.layers:
            if _prunable(layer):
                layer.set_mask(structured_prune(layer.W, params, layer.spec.policy.orientation))
                layer.current_params = params
            if layer.quantizable:
                layer.refresh_delta(config.quantizer)
        check_code_validity(net)
        for epoch in range(stage_epochs):
            if epoch:
                for layer in net.layers:
                    layer.refresh_delta(config.quantizer)
            train_loss = _run_epoch(net, data, config, lr_state, "quantized", rng)
            val_mcr = evaluate(net, data.X_val, data.y_val, mode="quantized")
            history.append({"stage": str(params), "epoch": epoch, "lr": lr_state.lr,
                            "train_loss": train_loss, "val_mcr": val_mcr})
            lr_state.observe(val_mcr)
            check_code_validity(net)
        check_code_validity(net)
    return history


# --- serialization bridge ----------------------------------------------------

def network_to_model(net: Network, metadata: dict = None) -> ModelFile:
    """Freeze the network's quantized state into a model file."""
    layers = []
    names = []
    for i, layer in enumerate(net.layers):
        spec = layer.spec
        names.append(f"fc{i}")
        if spec.normalizer == "batch_norm":
            norm = BatchNormParams(layer.gamma, layer.beta, layer.run_mean,
                                   layer.run_var, layer.bn_eps)
        elif spec.normalizer == "weight_norm":
            norm = WeightNormTag()
        else:
            norm = None
        if spec.policy.kind == "float":
            fmt = LayerFormat("float32")
            layers.append(encode_layer(layer.effective_weights(), None, fmt,
                                       bias=layer.b, normalizer=norm, layer_name=names[-1]))
            continue
        if layer.W_q is None:
            raise ValidationError(f"layer {i} has no quantized weights to serialize")
        if spec.policy.kind == "sst":
            fmt = LayerFormat("sst", layer.current_params, spec.policy.orientation)
        else:
            fmt = LayerFormat("ternary2bit")
        layers.append(encode_layer(layer.W_q, layer.delta, fmt, bias=layer.b,
                                   normalizer=norm, layer_name=names[-1]))
    meta = {"seed": net.seed, "layer_names": names}
    meta.update(metadata or {})
    return ModelFile(layers=layers, metadata=meta)
