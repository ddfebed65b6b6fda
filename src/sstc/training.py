"""Fully-connected network training with structured sparse ternary weights.

The retraining loop keeps two weight sets per layer: float shadow weights W
that receive gradient updates, and quantized weights W_q used in the
forward pass.  Gradients flow through the quantizer with the straight-
through convention (identity), are masked so pruned connections stay zero,
and are applied with ADAM.  Once a layer is pruned, ADAM and the quantizer
touch only the kept positions: pruned weights are zeroed once, when the
mask is set, and never written again.  The step size is re-fitted once per
epoch and at every stage boundary; W_q is re-quantized after every
optimizer step.

Weight normalization is treated as a reparameterization of the float
weights: the effective weight is the row-normalized masked matrix, and the
quantizer acts on it, so serialized ternary weights already include the
normalization.  Batch normalization runs on batch statistics during
training and on the stored running statistics (folded to an affine) at
evaluation time.
"""

from dataclasses import dataclass, replace

import numpy as np

from .codes import ORIENTATIONS, CodeParams, rank_subvectors, subvectors
from .datasets import train_val_split
from .errors import ValidationError
from .kernel import bn_eval_affine, softmax
from .prune import SparsitySchedule, structured_prune
from .quantize import find_step_size, quantize_weight
from .store import BatchNormParams, LayerFormat, ModelFile, WeightNormTag, encode_layer

NORMALIZERS = ("none", "batch_norm", "weight_norm")
POLICY_KINDS = ("float", "ternary", "sst")

# ADAM moments and the plateau schedule: the rate decays by LR_DECAY after
# PLATEAU_PATIENCE epochs without a new best validation MCR, down to LR_FLOOR
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY = 0.2
PLATEAU_PATIENCE = 4
LR_FLOOR = 1.6e-5


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
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(f"orientation must be one of {ORIENTATIONS}, "
                                  f"got {self.orientation!r}")


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected layer.  Hidden layers apply relu and the final
    layer softmax; sst layers are pruned, ternary layers only quantized."""

    in_dim: int
    out_dim: int
    normalizer: str = "none"
    policy: WeightPolicy = WeightPolicy()

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValidationError("layer dimensions must be positive")
        if self.normalizer not in NORMALIZERS:
            raise ValidationError(f"unknown normalizer {self.normalizer!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 100
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")


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
    xhat = x - mu
    out = xhat * xhat
    var = out.sum(axis=0) / x.shape[0]  # the bits of x.var(axis=0)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat *= invstd
    np.multiply(gamma, xhat, out=out)
    out += beta
    return out, {"xhat": xhat, "invstd": invstd, "gamma": gamma,
                 "mu": mu, "var": var}


def batch_norm_backward(dout, cache):
    """Gradients of the train-phase normalization: (dx, dgamma, dbeta)."""
    if cache is None:
        raise ValidationError("batch norm backward requires a train-phase forward cache")
    xhat, invstd, gamma = cache["xhat"], cache["invstd"], cache["gamma"]
    batch = dout.shape[0]
    tmp = dout * xhat
    dgamma = tmp.sum(axis=0)
    dbeta = dout.sum(axis=0)
    # dx = (invstd / batch) * (batch * dxhat - dxhat.sum(axis=0)
    #                          - xhat * (dxhat * xhat).sum(axis=0)), in place
    dx = dout * gamma
    np.multiply(dx, xhat, out=tmp)
    np.multiply(xhat, tmp.sum(axis=0), out=tmp)
    dxhat_sum = dx.sum(axis=0)
    dx *= batch
    dx -= dxhat_sum
    dx -= tmp
    dx *= invstd / batch
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
        # flat positions the mask keeps; None while it keeps everything
        self.kept = None
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
        # ADAM (m, v) per parameter; a pruned layer's W moments are kept
        # only at its kept positions, as flat arrays
        self.moments = {}
        self._scratch = {}

    @property
    def quantizable(self):
        return self.spec.policy.kind in ("ternary", "sst")

    def masked_weights(self):
        """W with the pruned positions zeroed (W itself while nothing is)."""
        return self.W if self.kept is None else self.W * self.mask

    def effective_weights(self):
        """Float weights as used in the forward pass: masked, and row-
        normalized when the layer is weight-normalized."""
        U = self.masked_weights()
        if self.spec.normalizer == "weight_norm":
            V, _ = weight_norm_forward(U)
            return V
        return U

    def set_mask(self, mask):
        """Prune to ``mask``; moments of positions that stay kept carry
        over, newly kept positions start from zero."""
        self.mask = np.asarray(mask, dtype=np.float64)
        self.W *= self.mask
        kept = None if self.mask.all() else np.flatnonzero(self.mask)
        if "W" in self.moments:
            self.moments["W"] = tuple(self._dense(a) * self.mask if kept is None
                                      else self._dense(a).ravel()[kept]
                                      for a in self.moments["W"])
            self._scratch.pop("W", None)
        self.kept = kept

    def _dense(self, a):
        """``a``, held at the kept positions or dense, as a W-shaped array."""
        if self.kept is None:
            return a
        out = np.zeros(self.W.size)
        out[self.kept] = a
        return out.reshape(self.W.shape)

    def _quantizer_input(self):
        """The effective weights the quantizer sees: all of them, or the
        kept ones as a flat array once the layer is pruned."""
        if self.kept is None:
            return self.effective_weights()
        eff = self.effective_weights() if self.spec.normalizer == "weight_norm" else self.W
        return np.take(eff, self.kept)

    def refresh_delta(self):
        if not self.quantizable:
            return
        self.delta = float(np.float32(find_step_size(self._quantizer_input())))
        self.refresh_quantized()

    def refresh_quantized(self):
        if not self.quantizable:
            return
        if self.delta is None:
            raise ValidationError("quantized refresh before any step-size fit")
        q = quantize_weight(self._quantizer_input(), self.delta)
        if self.kept is not None:
            W_q = np.zeros(self.W.shape)
            W_q.reshape(-1)[self.kept] = q
            q = W_q
        self.W_q = q

    def adam_buffers(self, name, shape):
        """(m, v, scratch, scratch) of one parameter's ADAM update; each
        array is allocated once and then reused."""
        if name not in self.moments:
            self.moments[name] = (np.zeros(shape), np.zeros(shape))
        if name not in self._scratch:
            self._scratch[name] = (np.empty(shape), np.empty(shape))
        return (*self.moments[name], *self._scratch[name])


class Network:
    def __init__(self, specs, seed: int = 0):
        specs = list(specs)
        if not specs:
            raise ValidationError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(specs, specs[1:])):
            if a.out_dim != b.in_dim:
                raise ValidationError(f"layer {i} emits {a.out_dim}, layer {i+1} expects {b.in_dim}")
        rng = np.random.default_rng(seed)
        self.layers = [Layer(s, rng) for s in specs]
        self.seed = seed
        self.step_count = 0


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
    uses the masked (and possibly weight-normalized) float weights.
    Hidden layers apply relu; the final layer's logits go through softmax.
    In eval phase, quantized mode rounds biases and batch-norm parameters to
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
    last = len(net.layers) - 1
    for pos, layer in enumerate(net.layers):
        Wuse = _layer_weight(layer, mode)
        pre = out @ Wuse.T
        pre += stored(layer.b)
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
                pre *= scale
                pre += shift
                z = pre
        else:
            z = pre
        caches.append({"x": out, "W": Wuse, "z": z, "bn": bn_cache})
        out = z if pos == last else np.maximum(z, 0.0)
    return ForwardPass(probs=softmax(out), logits=out, caches=caches, phase=phase)


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


def backward_masked(net: Network, labels, fwd: ForwardPass):
    """Gradients of the mean cross-entropy w.r.t. the float parameters.

    Uses the straight-through convention: the quantized forward's weight
    gradient is credited to the effective float weights, propagated through
    weight normalization where present, then masked.  ``fwd`` must be a
    train-phase forward pass.
    """
    if fwd.phase != "train":
        raise ValidationError("backward requires a train-phase forward")
    labels = np.asarray(labels)
    batch = fwd.probs.shape[0]
    if labels.ndim == 2:
        dz = fwd.probs - labels
    else:
        dz = fwd.probs.copy()
        dz[np.arange(batch), labels] -= 1.0
    dz /= batch
    grads = []
    last = len(net.layers) - 1
    for pos in range(last, -1, -1):
        layer = net.layers[pos]
        cache = fwd.caches[pos]
        if pos != last:
            dz *= cache["z"] > 0
        dgamma = dbeta = None
        if layer.spec.normalizer == "batch_norm":
            dz, dgamma, dbeta = batch_norm_backward(dz, cache["bn"])
        db = dz.sum(axis=0)
        dWeff = dz.T @ cache["x"]
        if layer.spec.normalizer == "weight_norm":
            _, wn_cache = weight_norm_forward(layer.masked_weights())
            dWeff = weight_norm_backward(dWeff, wn_cache)
        if layer.kept is not None:
            dWeff *= layer.mask
        grads.append({"W": dWeff, "b": db, "gamma": dgamma, "beta": dbeta})
        if pos:
            dz = dz @ cache["W"]
    grads.reverse()
    return grads


def adam_step(net: Network, grads, config: TrainConfig, lr: float = None) -> Network:
    """One bias-corrected ADAM update; refreshes W_q afterwards.

    A pruned layer's W is updated only at its kept positions, from the
    gradient gathered there; pruned weights are never written, so they
    keep the zeros `Layer.set_mask` left.  Each update runs in place in
    buffers the layer reuses from step to step.  ``lr`` overrides the
    configured rate so decay schedules need not rebuild the config.
    """
    net.step_count += 1
    t = net.step_count
    lr = config.learning_rate if lr is None else lr
    for layer, g in zip(net.layers, grads):
        for name, grad in g.items():
            if grad is None:
                continue
            param = getattr(layer, name)
            kept = layer.kept if name == "W" else None
            m, v, step, denom = layer.adam_buffers(
                name, param.shape if kept is None else kept.shape)
            if kept is not None:
                grad = np.take(grad, kept, out=step, mode="clip")
            # m += (1 - BETA1) * (g - m); v += (1 - BETA2) * (g * g - v)
            np.multiply(grad, grad, out=denom)
            denom -= v
            denom *= 1 - BETA2
            v += denom
            np.subtract(grad, m, out=step)
            step *= 1 - BETA1
            m += step
            # param -= lr * mhat / (sqrt(vhat) + ADAM_EPS)
            np.divide(m, 1 - BETA1 ** t, out=step)
            step *= lr
            np.divide(v, 1 - BETA2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            if kept is None:
                param -= step
            else:
                np.take(param, kept, out=denom, mode="clip")
                denom -= step
                np.put(param, kept, denom)
        if layer.quantizable and layer.delta is not None:
            layer.refresh_quantized()
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

    def observe(self, val_mcr: float):
        if val_mcr < self.best:
            self.best = val_mcr
            self.streak = 0
            return
        self.streak += 1
        if self.streak >= PLATEAU_PATIENCE:
            self.lr = max(self.lr * LR_DECAY, LR_FLOOR)
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


def _validate_schedule(net: Network, schedule: SparsitySchedule):
    sst_layers = [(i, l) for i, l in enumerate(net.layers) if l.spec.policy.kind == "sst"]
    for i, layer in sst_layers:
        target = layer.spec.policy.params
        if target.n != schedule.target.n:
            raise ValidationError(
                f"layer {i} uses n={target.n} but the schedule is for n={schedule.target.n}"
            )
        if target.k != schedule.target.k:
            raise ValidationError(
                f"layer {i} targets {target} but the schedule ends at {schedule.target}"
            )
        try:
            subvectors(layer.W, target, layer.spec.policy.orientation)
        except ValidationError as exc:
            raise ValidationError(f"layer {i} shape {layer.W.shape}: {exc}") from None


def check_code_validity(net: Network) -> bool:
    """Every quantized sub-vector must be encodable under its layer's code."""
    for i, layer in enumerate(net.layers):
        if layer.spec.policy.kind != "sst" or layer.W_q is None:
            continue
        params = layer.current_params
        trits = np.rint(layer.W_q / layer.delta).astype(np.int8)
        # raises on budget violations
        rank_subvectors(subvectors(trits, params, layer.spec.policy.orientation), params)
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
            if layer.spec.policy.kind == "sst":
                layer.set_mask(structured_prune(layer.W, params, layer.spec.policy.orientation))
                layer.current_params = params
            layer.refresh_delta()
        check_code_validity(net)
        for epoch in range(stage_epochs):
            if epoch:
                for layer in net.layers:
                    layer.refresh_delta()
            train_loss = _run_epoch(net, data, config, lr_state, "quantized", rng)
            val_mcr = evaluate(net, data.X_val, data.y_val, mode="quantized")
            history.append({"stage": str(params), "epoch": epoch, "lr": lr_state.lr,
                            "train_loss": train_loss, "val_mcr": val_mcr})
            lr_state.observe(val_mcr)
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
