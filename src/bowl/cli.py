"""Command-line entry point: run experiments, ablation sweeps, OoD histogram
export, dataset generation, and checkpoint evaluation.

Exit codes: 0 success, 1 run failure (IO/numeric), 2 configuration error.
``--set`` overrides config keys; ``--output-dir`` overrides ``run.output_dir``
for the subcommands that write there (run, ablate, ood-hist).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import (_NONNEGATIVE, _POSITIVE, ConfigError, RunConfig, _at_least,
                     load_run_config)
from .engine import (VARIANTS, RunReport, count_correct, run_variant,
                     write_buffer_composition, write_report_csv, write_summary)
from .metrics import auroc
from .nn import EVAL_CHUNK, Network, NonFiniteLossError, read_checkpoint, save_checkpoint
from .ood import (batch_ood_score, export_score_csv, predictive_entropy_per_sample,
                  sample_eta1_scores, segment_means)
from .serialization import FormatError, atomic_write_text
from .stream import DatasetFile, save_dataset, synth_generate


def _flag(parse):
    """A config value parser as a flag type: a bad value exits 2, naming the
    flag and the rule it breaks."""
    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bowl",
                                     description="Batch-norm open-world learner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a run configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override a config key")

    run_p = sub.add_parser("run", help="execute one experiment")
    add_common(run_p)

    ablate_p = sub.add_parser("ablate", help="run the ablation grid over seeds")
    add_common(ablate_p)

    hist_p = sub.add_parser("ood-hist", help="export score histograms for two datasets")
    add_common(hist_p)
    hist_p.add_argument("--checkpoint", required=True)
    hist_p.add_argument("--in-set", required=True, help="in-distribution dataset file")
    hist_p.add_argument("--out-set", required=True, help="out-of-distribution dataset file")
    hist_p.add_argument("--granularity", choices=("batch", "sample"), default="batch")

    gen_p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    gen_p.add_argument("--classes", type=_flag(_at_least(1)), required=True)
    gen_p.add_argument("--dims", type=_flag(_at_least(1)), required=True)
    gen_p.add_argument("--separation", type=_flag(_POSITIVE), required=True)
    gen_p.add_argument("--std", type=_flag(_NONNEGATIVE), required=True)
    gen_p.add_argument("--n", type=_flag(_at_least(1)), required=True,
                       help="total sample count")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--clip-unit", action="store_true")
    gen_p.add_argument("--out", required=True)

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(eval_p)
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--dataset", required=True)

    for writer in (run_p, ablate_p, hist_p):  # eval writes nothing
        writer.add_argument("--output-dir", default=None, help="override run.output_dir")
    return parser


def _load_config(path: str, overrides) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    return load_run_config(path, overrides)


def _resolve_outdir(args, cfg: RunConfig) -> str:
    return args.output_dir or str(cfg["run.output_dir"])


def _restore_network(cfg: RunConfig, checkpoint: str) -> Network:
    state = read_checkpoint(checkpoint)
    net = cfg.build_network(class_ids=state["head.class_ids"])
    net.load_state_dict(state)
    return net


def _run(cfg: RunConfig, seed: int, tasks, variant: str, outdir: str) -> RunReport:
    """Train the seed's network on ``tasks`` as ``variant`` and write the run's
    report, summary, buffer composition and checkpoint to ``outdir``. A run
    that diverges ends as aborted, so numpy's overflow warnings on the way
    there are silenced."""
    net = cfg.build_network(seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = run_variant(net, cfg.loop_config(seed), tasks, variant)
    os.makedirs(outdir, exist_ok=True)
    write_report_csv(report, os.path.join(outdir, "report.csv"))
    write_summary(report, os.path.join(outdir, "summary.txt"))
    write_buffer_composition(report, os.path.join(outdir, "buffer_composition.csv"))
    save_checkpoint(net, os.path.join(outdir, "checkpoint.bnt"))
    return report


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    report = _run(cfg, cfg.seed, cfg.build_tasks(), cfg["run.variant"], outdir)
    print(f"{report.variant}: final_accuracy={report.final_accuracy:.4f} "
          f"steps={report.total_steps} odp={report.odp} -> {outdir}")
    if report.aborted:
        print(f"run aborted: {report.abort_reason}", file=sys.stderr)
        return 1
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    per_variant: dict[str, list[RunReport]] = {v: [] for v in VARIANTS}
    for seed in cfg.seeds:
        tasks = cfg.build_tasks(seed)  # shared: run_variant only reads it
        for variant in VARIANTS:
            run_dir = os.path.join(outdir, f"{variant}_seed{seed}")
            per_variant[variant].append(_run(cfg, seed, tasks, variant, run_dir))
    # (name, format, getter): each gives the columns <name>_mean and <name>_std over seeds.
    n_tasks = len(cfg["data.schedule"]) - 1
    columns = [*((f"acc_t{t}", ".6f", lambda r, t=t: r.task_accuracies.get(t, math.nan))
                 for t in range(1, n_tasks + 1)),
               ("odp", ".2f", lambda r: r.odp),
               ("steps", ".2f", lambda r: r.total_steps)]
    rows = [["variant"] + [f"{name}_{stat}" for name, _, _ in columns
                           for stat in ("mean", "std")]]
    for variant, reports in per_variant.items():
        cells = [variant]
        for _, fmt, get in columns:
            values = [get(r) for r in reports]
            cells += [format(np.mean(values), fmt), format(np.std(values), fmt)]
        rows.append(cells)
    atomic_write_text(os.path.join(outdir, "ablation.csv"),
                      "".join(",".join(row) + "\n" for row in rows))
    print(f"ablation grid ({len(VARIANTS)} variants x {len(cfg.seeds)} seeds) "
          f"-> {outdir}/ablation.csv")
    return 1 if any(r.aborted for reports in per_variant.values() for r in reports) else 0


def _scored_file(net: Network, path: str, flag: str) -> DatasetFile:
    """``path``, given as ``flag``, opened for block reads once its header
    shows rows of the network's width."""
    dataset = DatasetFile(path)
    if dataset.width != net.in_dim:
        raise FormatError(f"dataset {path!r} has width {dataset.width}, "
                          f"the checkpoint's network {net.in_dim}")
    if dataset.n == 0:
        raise FormatError(f"{flag} {path!r} holds no rows")
    return dataset


def _dataset_scores(net: Network, blocks, batch_size: int, granularity: str):
    """eta1 and predictive-entropy scores at batch or sample granularity, from
    one read-only pass over each (inputs, labels) block of a set; a batch's
    entropy is its rows' mean. Every block but the last holds whole batches,
    and only the scores are kept."""
    eta1, entropy = [], []
    for inputs, _ in blocks:
        if granularity == "sample":
            block_eta1, logits = sample_eta1_scores(net, inputs)
            block_entropy = predictive_entropy_per_sample(logits)
        else:
            n = len(inputs)
            sizes = [min(batch_size, n - s) for s in range(0, n, batch_size)]
            block_eta1, logits = batch_ood_score(net, inputs, sizes)
            block_entropy = segment_means(predictive_entropy_per_sample(logits), sizes)
        eta1.append(block_eta1)
        entropy.append(block_entropy)
    return np.concatenate(eta1 or [np.zeros(0)]), np.concatenate(entropy or [np.zeros(0)])


def cmd_ood_hist(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    net = _restore_network(cfg, args.checkpoint)
    sets = [_scored_file(net, args.in_set, "--in-set"),
            _scored_file(net, args.out_set, "--out-set")]
    batch = int(cfg["loop.ood_batch_size"])
    # Blocks of whole eval chunks (and whole batches) score as one pass over the set.
    step = EVAL_CHUNK if args.granularity == "sample" else math.lcm(EVAL_CHUNK, batch)
    (in_eta1, in_pe), (out_eta1, out_pe) = (
        _dataset_scores(net, dataset.blocks(step), batch, args.granularity)
        for dataset in sets)
    os.makedirs(outdir, exist_ok=True)
    export_score_csv(os.path.join(outdir, "hist_eta1.csv"), in_eta1, out_eta1, "eta1")
    export_score_csv(os.path.join(outdir, "hist_pe.csv"), in_pe, out_pe,
                     "predictive_entropy")
    auroc_eta1 = auroc(in_eta1, out_eta1)
    auroc_pe = auroc(in_pe, out_pe)
    summary = "\n".join([
        f"granularity={args.granularity}",
        f"n_in={len(in_eta1)}",
        f"n_out={len(out_eta1)}",
        f"auroc_eta1={auroc_eta1:.6f}",
        f"auroc_predictive_entropy={auroc_pe:.6f}",
    ]) + "\n"
    atomic_write_text(os.path.join(outdir, "ood_summary.txt"), summary)
    print(summary, end="")
    return 0


def cmd_gen_data(args) -> int:
    if args.dims < args.classes:
        raise ConfigError(f"--dims {args.dims} is below --classes {args.classes}: "
                          f"class means are the vertices of a regular simplex")
    dataset = synth_generate(args.classes, args.dims, args.separation, args.std,
                             args.n, args.seed, args.clip_unit)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} samples ({args.classes} classes, {args.dims} dims) "
          f"-> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    net = _restore_network(cfg, args.checkpoint)
    dataset = _scored_file(net, args.dataset, "--dataset")
    correct = sum(count_correct(net, inputs, labels)
                  for inputs, labels in dataset.blocks(EVAL_CHUNK))
    print(f"accuracy={correct / dataset.n:.6f} n={dataset.n}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "ablate": cmd_ablate,
    "ood-hist": cmd_ood_hist,
    "gen-data": cmd_gen_data,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 2 for a rejected flag, 0 for --help
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, NonFiniteLossError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
