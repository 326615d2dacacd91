"""What a batch-norm layer knows about its inputs.

Every batch-norm layer standardizes with batch statistics during training
and keeps exponential-moving-average estimates of the input mean and
variance. Those running estimates are a per-channel Gaussian model of the
training distribution, and they are the anchor for everything else in this
package: outlier scores, query scores, and memory scores.

Run:  python3 demos/01_batchnorm_statistics.py
"""

import numpy as np

from bowl import BatchNorm, build_mlp, eval_rows

rng = np.random.default_rng(0)

# --- 1. Train-mode forward standardizes each channel ------------------------

bn = BatchNorm(4)
x = rng.normal(loc=[2.0, -1.0, 0.0, 5.0], scale=[1.0, 0.5, 2.0, 3.0],
               size=(256, 4)).astype(np.float32)
z = bn.forward(x, train=True)  # gamma=1, beta=0 at init, so the output is z

print("per-channel mean of standardized output:", np.round(z.mean(axis=0), 7))
print("per-channel var  of standardized output:", np.round(z.var(axis=0), 5))

# --- 2. Running statistics converge to the true moments ---------------------

bn = BatchNorm(4, stat_momentum=0.1)
true_mean = np.array([2.0, -1.0, 0.0, 5.0])
true_std = np.array([1.0, 0.5, 2.0, 3.0])
for step in [1, 10, 100, 500]:
    while getattr(bn, "_steps", 0) < step:
        batch = (true_mean + true_std * rng.normal(size=(128, 4))).astype(np.float32)
        bn.forward(batch, train=True)
        bn._steps = getattr(bn, "_steps", 0) + 1
    print(f"after {step:4d} batches: running_mean={np.round(bn.running_mean, 2)} "
          f"running_var={np.round(bn.running_var, 2)}")
print("true mean:", true_mean, " true var:", true_std**2)

# --- 3. Eval mode is a pure readout of the learned Gaussian -----------------

probe = np.tile(bn.running_mean, (1, 1)).astype(np.float32)
print("input at the running mean maps to beta exactly:",
      bn.forward(probe, train=False)[0])

# --- 4. One read-only pass reduces every layer's activations per sample -----

net = build_mlp(8, [16, 8], 4, rng)
logits, eta0, spread = eval_rows(net, rng.normal(size=(5, 8)).astype(np.float32))
print("\nbatch-norm layers read by the pass:",
      sum(isinstance(layer, BatchNorm) for layer in net.layers))
print("total standardized entries per sample (the score dimension d):", net.bn_dim)
