"""Test-side references for the read-only pass ``nn.eval_rows``.

``reference_rows`` runs one eval forward over the rows it is given, keeps
every batch-norm layer's standardized activations z and outputs y, and
reduces them afterwards: a row's eta0 sums its squared z over layers, and its
spread averages over layers each layer's mean squared y.
"""

import numpy as np

from bowl.nn import BatchNorm, Dense, Network
from bowl.ood import eta1_from_eta0


def reference_rows(net, x):
    """(logits, eta0, spread) of one eval forward over all of ``x``."""
    h = np.asarray(x)
    zs, ys = [], []
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            z = (h - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
            h = z * layer.gamma.data + layer.beta.data
            zs.append(z)
            ys.append(h)
        else:
            h = layer.forward(h, train=False)
    logits = h @ net.head.weight.data + net.head.bias.data
    n = h.shape[0]
    eta0 = np.zeros(n)
    for z in zs:
        eta0 += np.square(z.astype(np.float64)).reshape(n, -1).sum(axis=1)
    spread = np.zeros(n)
    for y in ys:
        spread += np.square(y.astype(np.float64).reshape(n, -1)).mean(axis=1)
    spread /= len(ys)
    return logits, eta0, spread


def per_batch_eta1(net, batches):
    """Batch scores the old way: one eval forward per batch, then eta1 of the
    batch's mean eta0."""
    return np.array([eta1_from_eta0(reference_rows(net, x)[1].mean(), net.bn_dim)
                     for x in batches])


def bn_net(dim, gammas=(1.0,)):
    """Batch-norm layers only, each with running mean 0, running variance 1
    and eps 0: in eval mode the first layer's z is the input exactly, and every
    later layer's z is the previous layer's output (gamma times its z)."""
    layers = [BatchNorm(dim, eps=0.0) for _ in gammas]
    for bn, gamma in zip(layers, gammas):
        bn.gamma.data[...] = gamma
    return Network(layers, Dense(dim, 2, np.random.default_rng(0)))
