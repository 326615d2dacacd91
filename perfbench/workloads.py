"""The benchmark's three workloads: set-up, one timed operation, and checks.

Each workload drives bowl through the config loader and ``run_variant`` (what
``bowl run`` does) or through ``bowl.cli.main``. Module attributes are looked
up at call time (``engine.run_variant``, ``cli.main``) so the traced run's
wrappers see every call.

Checks compare outputs with ``reference`` (which does not import bowl) or
with properties the method must have, never with stored copies of output.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import os
import sys

import numpy as np

import reference

CONFIG = """\
[run]
seed = {seed}
[network]
hidden = 64,32
[loop]
acquisition_batch = {acquisition}
buffer_capacity = {capacity}
ood_batch_size = 8
epochs_per_update = 2
pretrain_epochs = {pretrain_epochs}
minibatch_size = 64
bootstrap_k = {bootstrap_k}
bootstrap_size = 3
bootstrap_alpha = 0.99
eval_every_update = false
[data]
n_classes = 10
dims = 64
separation = 0.24
within_std = 0.1
train_per_class = {train_per_class}
test_per_class = {test_per_class}
clip_unit = true
schedule = 0,1 | 2,3 | 4,5 | 6,7 | 8,9
"""

MIX = """\
[mix]
corrupted_fraction = 0.25
ood_fraction = 0.25
corruption = gaussian
severity = 0.5
"""

OOD_BATCH = 8
SEVERITY = 0.5
REL_TOL = 1e-4  # float32 rounding against the float64 reference
CHECKPOINT_SEED = 0

SIZES = {
    # 1x: the acceptance toy loop at 64 dims.
    "1x": dict(train_per_class=300, test_per_class=150, capacity=300, acquisition=128,
               pretrain_epochs=30, bootstrap_k=100),
    "8x": dict(train_per_class=2400, test_per_class=150, capacity=2400, acquisition=128,
               pretrain_epochs=30, bootstrap_k=100),
    "smoke": dict(train_per_class=96, test_per_class=20, capacity=96, acquisition=32,
                  pretrain_epochs=10, bootstrap_k=100),
}


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_config(path: str, seed: int, size: str, mixed: bool = False) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.format(seed=seed, **SIZES[size]) + (MIX if mixed else ""))
    return path


def close_eta1(got: np.ndarray, eta0: np.ndarray, eta1: np.ndarray) -> bool:
    """eta1 = eta0 - d ln(eta0) cancels, so float32 rounding scales with eta0."""
    return got.shape == eta1.shape and bool(
        np.all(np.abs(got - eta1) <= REL_TOL * np.maximum(1.0, eta0)))


def check_accuracy(state, inputs, labels, accuracy: float, what: str) -> None:
    """The program's accuracy equals the reference's up to near-tie samples."""
    known = np.isin(labels, np.asarray(state["head.class_ids"], dtype=np.int64))
    correct, ties = reference.accuracy_counts(state, inputs[known], labels[known])
    reported = round(accuracy * int(known.sum()))
    require(abs(correct - reported) <= ties,
            f"{what}: accuracy {accuracy:.6f} is {reported} correct, reference "
            f"{correct} (near ties {ties})")


def eta1_auroc_vs_corrupted(state, inputs: np.ndarray, seed: int) -> float:
    """Reference batch-eta1 AUROC of clean batches against gaussian-corrupted
    copies of the same batches."""
    from bowl import corrupt
    noisy = corrupt(inputs, "gaussian", SEVERITY, seed)
    return reference.pairwise_auroc(reference.eta_scores(state, inputs, OOD_BATCH)[1],
                                    reference.eta_scores(state, noisy, OOD_BATCH)[1])


# ---------------------------------------------------------------------------


class LoopWorkload:
    """Loop runs (variant, stream) on tasks built from one config per stream."""

    rounds_from = "ops"

    def __init__(self, runs: list[tuple[str, str]], size: str, check_rounds: bool = False):
        self.runs = runs
        self.size = size
        self.check_rounds = check_rounds

    def setup(self, work: str, seed: int) -> dict:
        from bowl.config import load_run_config
        state = {"seed": seed, "work": work, "tasks": {}, "nets": {}, "loop": {}}
        for stream in sorted({s for _, s in self.runs}):
            path = write_config(os.path.join(work, f"{stream}.cfg"), seed, self.size,
                                mixed=stream == "mixed")
            cfg = load_run_config(path)
            state["tasks"][stream] = cfg.build_tasks()
            state["nets"][stream] = cfg.build_network()
            state["loop"][stream] = cfg.loop_config()
        return state

    def setup_digest(self, state) -> str:
        return ""

    def op(self, state) -> dict:
        from bowl import engine
        from bowl.nn import NonFiniteLossError
        runs, failed = [], 0
        for variant, stream in self.runs:
            net = copy.deepcopy(state["nets"][stream])
            try:
                report = engine.run_variant(net, state["loop"][stream],
                                            state["tasks"][stream], variant)
            except (ValueError, NonFiniteLossError) as exc:
                print(f"{variant}/{stream} failed: {exc!r}", file=sys.stderr)
                runs.append((variant, stream, None, None))
                failed += 1
                continue
            if report.aborted:
                print(f"{variant}/{stream} aborted: {report.abort_reason}", file=sys.stderr)
                failed += 1
            runs.append((variant, stream, net, report))
        return {"attempted": len(self.runs), "failed": failed, "runs": runs}

    def outputs_digest(self, state, result) -> str:
        """Digest of every run's summary.txt and report.csv bytes."""
        from bowl import engine
        blobs = []
        for i, (_, _, _, report) in enumerate(result["runs"]):
            if report is None:
                continue
            summary = os.path.join(state["work"], f"summary-{i}.txt")
            csv = os.path.join(state["work"], f"report-{i}.csv")
            engine.write_summary(report, summary)
            engine.write_report_csv(report, csv)
            blobs += [read_bytes(summary), read_bytes(csv)]
        return digest(*blobs)

    def quality(self, state, result) -> dict:
        reports = [r for _, _, _, r in result["runs"] if r is not None]
        _, stream, net, _ = result["runs"][0]
        tasks = state["tasks"][stream]
        return {
            "final_accuracy": float(np.mean([r.final_accuracy for r in reports])),
            "odp": float(sum(r.odp for r in reports)),
            "auroc_eta1": eta1_auroc_vs_corrupted(net.state_dict(), tasks.test_inputs,
                                                  state["seed"]),
        }

    def check(self, state, result) -> None:
        for variant, stream, net, report in result["runs"]:
            if report is None or report.aborted:
                continue
            what = f"{variant}/{stream}"
            tasks = state["tasks"][stream]
            capacity = state["loop"][stream].buffer_capacity
            require(len(report.tasks) == tasks.n_timesteps, f"{what}: ran every task")
            accepted_samples = 0
            for rec in report.tasks:
                batches = tasks.streams[rec.timestep - 1]
                require(rec.accepted_batches + rec.rejected_batches == len(batches),
                        f"{what} t{rec.timestep}: accepted + rejected != stream batches")
                require(sum(rec.buffer_composition.values()) <= capacity,
                        f"{what} t{rec.timestep}: buffer over capacity")
                require(rec.pool_size <= OOD_BATCH * rec.accepted_batches,
                        f"{what} t{rec.timestep}: pool larger than accepted batches")
                accepted_samples += rec.pool_size
            stream_size = tasks.total_stream_size()
            if variant == "no_ood":
                require(accepted_samples == stream_size, f"{what}: no_ood admits everything")
            if variant in ("full", "no_ood"):
                require(report.oracle_reveals == accepted_samples,
                        f"{what}: reveals {report.oracle_reveals} != accepted "
                        f"{accepted_samples}")
            if variant in ("full", "no_ood", "random_query", "no_cl"):
                require(report.odp <= report.oracle_reveals <= stream_size,
                        f"{what}: odp {report.odp} <= reveals {report.oracle_reveals} "
                        f"<= stream {stream_size} fails")
            width = len(tasks.schedule[0]) + sum(rec.new_classes for rec in report.tasks)
            require(report.tasks[-1].head_width == width == net.n_classes
                    and width <= len({c for group in tasks.schedule for c in group}),
                    f"{what}: head width {report.tasks[-1].head_width}, expected {width}")
            check_accuracy(net.state_dict(), tasks.test_inputs, tasks.test_labels,
                           report.final_accuracy, what)

    # -- traced run: recompute one round per task -------------------------

    def capture(self):
        return RoundCapture() if self.check_rounds else None

    def check_capture(self, capture, results) -> None:
        """The first round of every task that had a pool was captured and ranks right."""
        expected = sum(1 for result in results for *_, report in result["runs"]
                       if report is not None for rec in report.tasks if rec.pool_size)
        capture.check(expected)


class RoundCapture:
    """Snapshots the first acquisition round of every task of a traced op: the
    model, the pool and what was queried; the buffer candidates and what was
    kept. Installed outside the tracer's wrappers."""

    def __init__(self):
        self.rounds: list[dict] = []
        self._pending: dict | None = None
        self._last_pool = None
        self._patched = []

    def install(self) -> None:
        from bowl import engine
        cap = self

        def wrap(name, before=None, after=None):
            original = getattr(engine, name)

            def wrapper(*args, **kwargs):
                if before:
                    before(*args)
                result = original(*args, **kwargs)
                if after:
                    after(args, result)
                return result

            setattr(engine, name, wrapper)
            self._patched.append((name, original))

        def on_query(net, pool, *rest):
            if pool is not cap._last_pool:  # first round of a new task
                cap._last_pool = pool
                cap._pending = {"state": {k: v.copy() for k, v in net.state_dict().items()},
                                "pool_inputs": pool.inputs_matrix().copy(),
                                "pool_ids": np.asarray(pool.ids)}

        def on_select(args, taken):
            if cap._pending is not None and "chosen" not in cap._pending:
                cap._pending["chosen"] = np.asarray([s.id for s in taken])

        def on_memory(buffer, queried, net, *rest):
            p = cap._pending
            if p is not None and "chosen" in p and "cand_inputs" not in p:
                p["cand_inputs"] = np.concatenate([buffer.inputs_matrix(),
                                                   np.stack([q.input for q in queried])])
                p["cand_ids"] = np.asarray(buffer.ids() + [q.id for q in queried])
                p["cached_entropy"] = np.asarray([e.entropy for e in buffer.entries])

        def on_update(args, result):
            p = cap._pending
            if p is not None and "cand_inputs" in p:
                p["kept"] = np.asarray(result[0].ids())
                cap.rounds.append(p)
                cap._pending = None

        wrap("query_scores", before=on_query)
        wrap("select_top", after=on_select)
        wrap("memory_scores", before=on_memory)
        wrap("update_buffer", after=on_update)

    def uninstall(self) -> None:
        from bowl import engine
        for name, original in reversed(self._patched):
            setattr(engine, name, original)
        self._patched.clear()
        self._last_pool = None

    def check(self, expected: int) -> None:
        require(len(self.rounds) == expected,
                f"captured {len(self.rounds)} first rounds, expected {expected}")
        for t, r in enumerate(self.rounds, start=1):
            state = r["state"]
            gamma_q = reference.spread_entropy(state, r["pool_inputs"]) * \
                reference.mean_cosine(r["pool_inputs"])
            _require_top(gamma_q, np.isin(r["pool_ids"], r["chosen"]), f"t{t} gamma_q")
            n_buf = len(r["cached_entropy"])
            entropy = np.concatenate([r["cached_entropy"],
                                      reference.spread_entropy(state, r["cand_inputs"][n_buf:])])
            gamma_m = entropy * (1.0 - reference.mean_cosine(r["cand_inputs"]))
            _require_top(gamma_m, np.isin(r["cand_ids"], r["kept"]), f"t{t} gamma_m")


def _require_top(score: np.ndarray, picked: np.ndarray, what: str) -> None:
    """Every picked row scores at least every other row, within rounding."""
    if picked.all() or not picked.any():
        return
    finite = np.isfinite(score)
    tol = REL_TOL * float(np.abs(score[finite]).max())
    low, high = score[picked].min(), score[~picked].max()
    require(low >= high - tol, f"{what}: lowest picked {low:.8g} < highest left {high:.8g}")


# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    from bowl import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _parse_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.split() if "=" in line)


def _read_scores(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().split()[1:]
    source = np.array([r.split(",", 1)[0] for r in rows])
    value = np.array([float(r.split(",", 1)[1]) for r in rows])
    return value[source == "in"], value[source == "out"]


class OodScoringWorkload:
    """Checkpoint from ``bowl run`` in set-up; ood-hist (batch and sample) and
    eval in the timed operation. Round latency and odp come from the
    checkpoint-training runs of set-up.

    The checkpoint is a fixture trained with config seed ``CHECKPOINT_SEED``;
    ``--seed`` draws the scored in-set and its corruption. A checkpoint per
    seed would make odp alone vary by 40 % between seeds (363 to 565 over
    seeds 1-5), which says nothing about scoring.
    """

    rounds_from = "setup"

    def __init__(self, size: str, n_eval: int):
        self.size = size
        self.n_eval = n_eval

    def setup(self, work: str, seed: int) -> dict:
        from bowl import Dataset, corrupt, load_dataset, save_dataset
        cfg = write_config(os.path.join(work, "clean.cfg"), CHECKPOINT_SEED, self.size)
        run_dir = os.path.join(work, "ckpt")
        rc, _ = _cli(["run", cfg, "--output-dir", run_dir])
        require(rc == 0, f"bowl run exited {rc}")
        in_set, out_set = os.path.join(work, "in.bnt"), os.path.join(work, "out.bnt")
        rc, _ = _cli(["gen-data", "--classes", "10", "--dims", "64", "--separation", "0.24",
                      "--std", "0.1", "--n", str(self.n_eval), "--seed", str(10_000 + seed),
                      "--clip-unit", "--out", in_set])
        require(rc == 0, f"bowl gen-data exited {rc}")
        clean = load_dataset(in_set)
        save_dataset(Dataset(corrupt(clean.inputs, "gaussian", SEVERITY, 20_000 + seed),
                             clean.labels), out_set)
        return {"seed": seed, "work": work, "cfg": cfg, "run_dir": run_dir,
                "ckpt": os.path.join(run_dir, "checkpoint.bnt"),
                "in": in_set, "out": out_set}

    def setup_digest(self, state) -> str:
        return digest(*(read_bytes(os.path.join(state["run_dir"], f))
                        for f in ("summary.txt", "report.csv", "checkpoint.bnt")),
                      read_bytes(state["in"]), read_bytes(state["out"]))

    def op(self, state) -> dict:
        common = [state["cfg"], "--checkpoint", state["ckpt"]]
        sets = ["--in-set", state["in"], "--out-set", state["out"]]
        calls = {
            "batch": ["ood-hist", *common, *sets, "--output-dir",
                      os.path.join(state["work"], "hist-batch")],
            "sample": ["ood-hist", *common, *sets, "--granularity", "sample",
                       "--output-dir", os.path.join(state["work"], "hist-sample")],
            "eval": ["eval", *common, "--dataset", state["in"]],
        }
        printed, failed = {}, 0
        for key, argv in calls.items():
            rc, text = _cli(argv)
            failed += int(rc != 0)
            printed[key] = _parse_kv(text) if rc == 0 else None
        return {"attempted": len(calls), "failed": failed, "printed": printed}

    def outputs_digest(self, state, result) -> str:
        files = [os.path.join(state["work"], d, f) for d in ("hist-batch", "hist-sample")
                 for f in ("hist_eta1.csv", "hist_pe.csv", "ood_summary.txt")]
        return digest(*(read_bytes(f) for f in files), repr(result["printed"]).encode())

    def quality(self, state, result) -> dict:
        with open(os.path.join(state["run_dir"], "summary.txt"), encoding="utf-8") as fh:
            summary = _parse_kv(fh.read())
        return {
            "final_accuracy": float(result["printed"]["eval"]["accuracy"]),
            "odp": float(summary["observed_data_points"]),
            "auroc_eta1": float(result["printed"]["batch"]["auroc_eta1"]),
        }

    def check(self, state, result) -> None:
        from bowl.config import load_run_config
        ckpt = reference.read_bnt(state["ckpt"])
        with open(os.path.join(state["run_dir"], "summary.txt"), encoding="utf-8") as fh:
            summary = _parse_kv(fh.read())
        tasks = load_run_config(state["cfg"]).build_tasks()
        check_accuracy(ckpt, tasks.test_inputs, tasks.test_labels,
                       float(summary["final_accuracy"]), "checkpoint run")
        data = {k: reference.read_bnt(state[k]) for k in ("in", "out")}
        expect = {gran: {k: reference.eta_scores(ckpt, d["inputs"], batch)
                         for k, d in data.items()}
                  for gran, batch in (("batch", OOD_BATCH), ("sample", None))}
        for gran in ("batch", "sample"):
            printed = result["printed"][gran]
            hist = os.path.join(state["work"], f"hist-{gran}")
            eta_in, eta_out = _read_scores(os.path.join(hist, "hist_eta1.csv"))
            pe_in, pe_out = _read_scores(os.path.join(hist, "hist_pe.csv"))
            require(close_eta1(eta_in, *expect[gran]["in"])
                    and close_eta1(eta_out, *expect[gran]["out"]),
                    f"{gran}: eta1 differs from the reference pass")
            for key, (a, b) in (("auroc_eta1", (eta_in, eta_out)),
                                ("auroc_predictive_entropy", (pe_in, pe_out))):
                oracle = reference.pairwise_auroc(a, b)
                require(abs(float(printed[key]) - oracle) <= 1e-6,
                        f"{gran}: printed {key}={printed[key]}, pairwise {oracle:.7f}")
            require(float(printed["auroc_eta1"]) >= float(printed["auroc_predictive_entropy"]),
                    f"{gran}: eta1 AUROC below predictive entropy's")
        labels = data["in"]["labels"].astype(np.int64)
        check_accuracy(ckpt, data["in"]["inputs"], labels,
                       float(result["printed"]["eval"]["accuracy"]), "eval")

    def capture(self):
        return None


def build(name: str, smoke: bool):
    """The workload called ``name`` at full or smoke size."""
    if name == "ablation":
        clean = [(v, "clean") for v in ("full", "no_ood", "random_query", "no_cl",
                                        "finetune", "balanced_buffer")]
        return LoopWorkload(clean + [("full", "mixed"), ("no_ood", "mixed")],
                            "smoke" if smoke else "1x")
    if name == "large-pool":
        return LoopWorkload([("full", "clean")], "smoke" if smoke else "8x", check_rounds=True)
    if name == "ood-scoring":
        return OodScoringWorkload("smoke" if smoke else "1x", 400 if smoke else 25_000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ablation", "large-pool", "ood-scoring")
