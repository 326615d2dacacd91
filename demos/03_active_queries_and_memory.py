"""Choosing what to label and what to remember.

The query score multiplies two quantities computed from a trained model:
alpha (Gaussian entropy of a sample's post-batch-norm activation spread --
novelty) and beta (mean cosine similarity to the rest of the pool --
typicality). The memory score flips the similarity term: gamma_m =
H * (1 - mean cosine), so the fixed-size buffer keeps samples that are both
informative and mutually distinct.

Run:  python3 demos/03_active_queries_and_memory.py
"""

import numpy as np

from bowl import (CandidatePool, MemoryBuffer, SampleSet, SgdOptimizer, build_mlp,
                  init_buffer, mean_pairwise_cosine, memory_scores, query_scores,
                  sample_entropies, select_top, synth_generate, update_buffer)
from bowl.engine import _train_supervised

rng = np.random.default_rng(0)

train = synth_generate(4, 16, 0.3, 0.06, 1200, seed=1, clip_unit=True)
net = build_mlp(16, [16, 8], 4, np.random.default_rng(2))
opt = SgdOptimizer(0.1, 0.9, 5e-4)
_train_supervised(net, train.inputs, train.labels, opt, 30, 64,
                  np.random.default_rng(3))

# --- 1. Score a candidate pool ----------------------------------------------

pool_data = synth_generate(4, 16, 0.3, 0.06, 512, seed=4, clip_unit=True)
pool = CandidatePool()
pool.append_batch(pool_data.inputs, pool_data.labels, ids=np.arange(512))
gammas = query_scores(net, pool)  # one score per pool row, in pool order

alphas = sample_entropies(net, pool.inputs_matrix())
betas = mean_pairwise_cosine(pool.inputs_matrix())
print("alpha (novelty)   : min %.3f  median %.3f  max %.3f"
      % (alphas.min(), np.median(alphas), alphas.max()))
print("beta  (typicality): min %.3f  median %.3f  max %.3f"
      % (betas.min(), np.median(betas), betas.max()))
print("gamma = alpha*beta: min %.3f  median %.3f  max %.3f"
      % (gammas.min(), np.median(gammas), gammas.max()))

# --- 2. Acquire the top-scoring batch; labels are revealed only here ---------

queried = select_top(pool, gammas, acquisition_batch=64)
print(f"\nqueried {len(queried)} samples, pool shrank to {len(pool)}")
print("oracle label reveals so far:", pool.oracle_reveals)
print("top five queried ids:", queried.ids[:5].tolist())

# --- 3. Rank buffer + queried by memory score and keep the top slots --------

buffer = init_buffer(train.inputs, train.labels, 200, net, np.random.default_rng(5))
print("\nbuffer composition before update:", buffer.composition())

mem = memory_scores(buffer, queried, net)
buffer, inserted = update_buffer(buffer, queried, mem)
print(f"update kept capacity={buffer.capacity} entries; "
      f"{len(inserted)} queried samples displaced old ones")
print("buffer composition after update: ", buffer.composition())

# The distinctness term is easiest to see on a tiny candidate set: among
# {a, a, b} with equal entropy, the duplicated pair scores below the
# distinct member, so redundancy is what gets evicted first.
a = np.array([1.0, 0.2] + [0.0] * 14, dtype=np.float32)
b = np.array([0.0, 0.1, 1.0] + [0.0] * 13, dtype=np.float32)
tiny = MemoryBuffer(3, SampleSet(np.stack([a, a, b]), labels=[0, 0, 1], ids=[0, 1, 2],
                                 entropy=np.ones(3)))
gammas_tiny = memory_scores(tiny, SampleSet.empty(), net).gamma
print("\nmemory scores for {a, a, b} at equal entropy:",
      np.round(gammas_tiny, 3), "-> the duplicate pair ranks last")
