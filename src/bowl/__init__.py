"""Open-world learning from batch-normalization statistics.

The running mean and variance every batch-norm layer already tracks define a
per-layer Gaussian over intermediate activations. This package uses that one
statistical anchor three ways: to reject out-of-distribution stream batches,
to rank pool samples for active labeling, and to decide which samples a
fixed-size replay buffer keeps while the model trains continually.
"""

from .engine import LoopConfig, RunReport, evaluate, run_variant
from .memory import MemoryBuffer, init_buffer, memory_scores, update_buffer
from .metrics import auroc, average_accuracy, count_odp
from .nn import (BatchNorm, Dense, Network, ReLU, SgdOptimizer, backward_and_step,
                 build_mlp, eval_rows, expand_head, read_checkpoint, save_checkpoint,
                 softmax_cross_entropy, train_one_epoch)
from .ood import (ThresholdConfig, batch_ood_score, bootstrap_threshold, eta1_from_eta0,
                  filter_stream, predictive_entropy_per_sample, sample_eta1_scores)
from .query import (CandidatePool, entropy_term, mean_pairwise_cosine, query_scores,
                    sample_entropies, select_top)
from .samples import SampleSet
from .stream import (SENTINEL_LABEL, Dataset, MixSpec, SplitTasks, Stream, corrupt,
                     load_dataset, mix_streams, save_dataset, split_experiment,
                     synth_generate)

__version__ = "0.1.0"
