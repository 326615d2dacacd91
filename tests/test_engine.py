import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bowl.engine as engine_mod
from bowl.engine import LoopConfig, RunReport, evaluate, run_variant, write_summary
from bowl.memory import MemoryBuffer, init_buffer, memory_scores
from bowl.nn import SgdOptimizer, build_mlp
from bowl.ood import ThresholdConfig, bootstrap_threshold, filter_stream
from bowl.query import CandidatePool, query_scores, sample_entropies
from bowl.samples import SampleSet
from bowl.stream import (SENTINEL_LABEL, MixSpec, SplitTasks, Stream, split_experiment,
                         synth_generate)

VARIANT_NAMES = list(engine_mod.VARIANTS)


def tiny_tasks(seed=0, n_classes=6, dims=8, npc=80, mix=None):
    train = synth_generate(n_classes, dims, 0.3, 0.1, npc * n_classes,
                           seed=100 + seed, clip_unit=True)
    test = synth_generate(n_classes, dims, 0.3, 0.1, 40 * n_classes,
                          seed=200 + seed, clip_unit=True)
    schedule = [[0, 1], [2, 3], [4, 5]]
    return split_experiment(train, test, schedule, 8, seed=300 + seed, mix=mix)


def tiny_config(seed=0, **overrides):
    defaults = dict(acquisition_batch=48, buffer_capacity=100,
                    epochs_per_update=1, pretrain_epochs=10, minibatch_size=32,
                    bootstrap=ThresholdConfig(30, 4, 0.99), learning_rate=0.1,
                    momentum=0.9, weight_decay=5e-4, eval_every_update=False,
                    seed=seed)
    defaults.update(overrides)
    return LoopConfig(**defaults)


def tiny_net(seed=0, dims=8):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return build_mlp(dims, [12, 6], 2, rng, class_ids=[0, 1])


class TestRunReport:
    def test_aborted_is_whether_a_reason_was_recorded(self):
        assert not RunReport("full", 0).aborted
        assert RunReport("full", 0, abort_reason="loss diverged: nan").aborted
        with pytest.raises(AttributeError):
            RunReport("full", 0).aborted = True


class TestEvaluate:
    def test_constant_predictor_hits_class_share(self):
        net = build_mlp(4, [6], 3, np.random.default_rng(0), class_ids=[0, 1, 2])
        net.head.weight.data[...] = 0.0
        net.head.bias.data[...] = [5.0, 0.0, 0.0]  # always predicts class 0
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 4)).astype(np.float32)
        y = np.repeat([0, 1, 2], 100)
        assert evaluate(net, x, y) == pytest.approx(1 / 3)

    def test_sentinel_excluded_from_denominator(self):
        net = build_mlp(4, [6], 2, np.random.default_rng(0), class_ids=[0, 1])
        net.head.weight.data[...] = 0.0
        net.head.bias.data[...] = [1.0, 0.0]
        x = np.zeros((4, 4), dtype=np.float32)
        y = np.array([0, 0, -1, -1])
        assert evaluate(net, x, y) == pytest.approx(1.0)

    def test_empty_test_set_rejected(self):
        net = build_mlp(4, [6], 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, np.zeros((0, 4), dtype=np.float32), np.zeros(0))

    def test_argmax_invariant_to_positive_rescaling(self):
        net = build_mlp(4, [6], 3, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 4)).astype(np.float32)
        logits = net.forward(x, False)
        assert (np.argmax(logits, axis=1) == np.argmax(3.7 * logits, axis=1)).all()


class TestScoringIsReadOnly:
    def test_scoring_leaves_network_bit_identical(self):
        """query_scores, memory_scores, sample_entropies, bootstrap_threshold,
        filter_stream and evaluate run in eval mode: every parameter and every
        batch-norm running statistic is bit-identical afterwards, both in the
        live state_dict() views and against copies."""
        tasks = tiny_tasks()
        net = tiny_net()
        engine_mod._train_supervised(net, tasks.pretrain_inputs, tasks.pretrain_labels,
                                     SgdOptimizer(), 2, 32, np.random.default_rng(0))
        live = net.state_dict()
        before = {name: array.copy() for name, array in live.items()}
        assert any(name.endswith("running_mean") for name in before)
        inputs, labels = tasks.pretrain_inputs, tasks.pretrain_labels
        rng = np.random.default_rng(1)
        buffer = init_buffer(inputs, labels, 40, net, rng)
        pool = CandidatePool()
        pool.append_batch(inputs[:30], labels[:30], np.arange(30))
        queried = SampleSet(inputs[30:40], labels[30:40], np.arange(30, 40))

        query_scores(net, pool)
        memory_scores(buffer, queried, net)
        sample_entropies(net, inputs[:50])
        tau = bootstrap_threshold(net, buffer.inputs_matrix(), ThresholdConfig(10, 4, 0.9), rng)
        filter_stream(net, tasks.streams[0], tau)
        evaluate(net, tasks.test_inputs, tasks.test_labels)

        after = net.state_dict()
        for name, array in before.items():
            np.testing.assert_array_equal(live[name], array, err_msg=name)
            np.testing.assert_array_equal(after[name], array, err_msg=name)


class TestDeterminism:
    def test_identical_config_identical_report(self):
        reports = []
        for _ in range(2):
            rep = run_variant(tiny_net(), tiny_config(), tiny_tasks())
            reports.append(rep)
        a, b = reports
        assert a.task_accuracies == b.task_accuracies
        assert a.total_steps == b.total_steps
        assert a.insert_log == b.insert_log
        ua = np.array([dataclasses.astuple(u) for u in a.updates], dtype=np.float64)
        ub = np.array([dataclasses.astuple(u) for u in b.updates], dtype=np.float64)
        np.testing.assert_array_equal(ua, ub)  # treats matching NaNs as equal

    def test_summary_text_identical(self, tmp_path):
        paths = []
        for i in range(2):
            rep = run_variant(tiny_net(), tiny_config(), tiny_tasks())
            p = tmp_path / f"summary{i}.txt"
            write_summary(rep, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestLoopStructure:
    def test_training_consumes_only_memory_buffer(self, monkeypatch):
        """After pretraining, every epoch of a buffer variant trains on exactly
        the rows of the buffer made last (initial fill or latest update)."""
        buffers, epochs = [], []
        original_init = MemoryBuffer.__init__
        original_epoch = engine_mod.train_one_epoch

        def record_buffer(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            buffers.append(self)

        def spy(net, inputs, labels, opt, minibatch_size, rng):
            if buffers:
                current = buffers[-1].entries
                assert np.array_equal(inputs, current.inputs)
                assert np.array_equal(labels, current.labels)
                epochs.append(len(labels))
            return original_epoch(net, inputs, labels, opt, minibatch_size, rng)

        monkeypatch.setattr(MemoryBuffer, "__init__", record_buffer)
        monkeypatch.setattr(engine_mod, "train_one_epoch", spy)
        for variant in ("full", "no_ood", "random_query", "balanced_buffer"):
            buffers.clear()
            epochs.clear()
            run_variant(tiny_net(), tiny_config(), tiny_tasks(), variant)
            assert epochs, f"{variant} never trained on its buffer"

    def test_head_width_tracks_discovered_classes(self):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks())
        widths = [t.head_width for t in rep.tasks]
        assert widths == sorted(widths)
        assert widths[-1] == 6
        assert [t.new_classes for t in rep.tasks] == [2, 2]

    def test_step_accounting(self):
        cfg = tiny_config()
        rep = run_variant(tiny_net(), cfg, tiny_tasks())
        assert rep.total_steps == rep.updates[-1].global_step
        # every update trains ceil(|M|/mb) * epochs steps on a full buffer
        per_update = np.diff([rep.pretrain_steps] + [u.global_step for u in rep.updates])
        expected = math.ceil(100 / cfg.minibatch_size) * cfg.epochs_per_update
        assert (per_update == expected).all()

    def test_empty_stream_carries_accuracy(self):
        tasks = tiny_tasks()
        tasks.streams[1] = Stream.cut(np.zeros((0, 8)), np.zeros(0), 8)  # no data
        rep = run_variant(tiny_net(), tiny_config(), tasks)
        assert rep.task_accuracies[2] == rep.task_accuracies[1]
        assert all(u.timestep != 2 for u in rep.updates)

    def test_no_ood_pool_equals_stream(self):
        tasks = tiny_tasks()
        rep = run_variant(tiny_net(), tiny_config(), tasks, "no_ood")
        for task, record in zip(tasks.streams, rep.tasks):
            assert record.pool_size == len(task.labels)
            assert record.rejected_batches == 0

    def test_full_pool_fully_queried(self):
        tasks = tiny_tasks()
        rep = run_variant(tiny_net(), tiny_config(), tasks)
        for t, record in zip((1, 2), rep.tasks):
            queried = sum(u.queried for u in rep.updates if u.timestep == t)
            assert queried == record.pool_size

    def test_random_query_budget_capped_by_capacity(self):
        tasks = tiny_tasks()
        cfg = tiny_config()
        rep = run_variant(tiny_net(), cfg, tasks, "random_query")
        for t, record in zip((1, 2), rep.tasks):
            queried = sum(u.queried for u in rep.updates if u.timestep == t)
            assert queried <= min(record.pool_size, cfg.buffer_capacity) + cfg.acquisition_batch
            assert queried < record.pool_size

    def test_odp_counts_unique_buffer_insertions(self):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks())
        assert rep.odp == len({i for i, _ in rep.insert_log})
        assert rep.odp <= sum(u.n_new_inserted for u in rep.updates)

    def test_capacity_below_batch_warns(self):
        with pytest.warns(UserWarning, match="capacity") as caught:
            tiny_config(buffer_capacity=16, acquisition_batch=48)
        # Reported at the caller's line (in tiny_config), not at "<string>",
        # the dataclass's generated __init__.
        assert caught[0].filename == __file__

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            run_variant(tiny_net(), tiny_config(), tiny_tasks(), "mystery")

    @pytest.mark.parametrize("field, value", [("epochs_per_update", 0),
                                              ("minibatch_size", 1),
                                              ("buffer_capacity", 0),
                                              ("acquisition_batch", 0),
                                              ("pretrain_epochs", -1),
                                              ("baseline_epochs_per_task", 0)])
    def test_invalid_loop_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_buffer_below_the_bootstrap_size_refuses_only_a_filter(self, variant):
        """tau resamples the buffer, so a filtering variant with a buffer of 3
        rows, below the bootstrap size 4, is refused before pretraining; a
        variant that admits every batch runs."""
        net, config = tiny_net(), tiny_config(buffer_capacity=3, acquisition_batch=3)
        before = copy.deepcopy(net.state_dict())
        if engine_mod.VARIANTS[variant].ood_filter:
            with pytest.raises(ValueError, match=r"min\(buffer_capacity 3, 160 pretraining "
                                                 r"rows\) = 3, is below the bootstrap size 4"):
                run_variant(net, config, tiny_tasks(), variant)
            assert all(np.array_equal(before[k], v) for k, v in net.state_dict().items())
        else:
            report = run_variant(net, config, tiny_tasks(), variant)
            assert not report.aborted and set(report.task_accuracies) == {0, 1, 2}


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_variant_completes_with_sane_report(self, variant):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks(), variant)
        assert not rep.aborted
        assert set(rep.task_accuracies) == {0, 1, 2}
        assert all(0.0 <= a <= 1.0 for a in rep.task_accuracies.values())
        assert rep.total_steps > 0

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_minibatch_of_one(self, variant):
        """129 pretraining samples at minibatch 64 leave a last minibatch of
        one; every training path duplicates it instead of crashing batch norm."""
        train = synth_generate(4, 8, 0.3, 0.1, 257, seed=1, clip_unit=True)
        test = synth_generate(4, 8, 0.3, 0.1, 80, seed=2, clip_unit=True)
        tasks = split_experiment(train, test, [[0, 1], [2, 3]], 8, seed=3)
        assert tasks.pretrain_inputs.shape[0] % 64 == 1
        rep = run_variant(tiny_net(), tiny_config(minibatch_size=64), tasks, variant)
        assert not rep.aborted
        assert len(rep.tasks) == 1 and rep.total_steps > rep.pretrain_steps

    @pytest.mark.parametrize("mixed", [False, True])
    def test_tasks_unchanged_by_every_variant(self, mixed):
        """``bowl ablate`` shares one seed's tasks across its variants, so no
        variant may write to any array of them."""
        foreign = synth_generate(6, 8, 6.0, 0.1, 600, seed=400)
        tasks = tiny_tasks(mix=MixSpec(0.25, 0.25, "gaussian", 0.5, foreign) if mixed else None)
        kinds = set(np.concatenate([stream.kinds for stream in tasks.streams]))
        assert kinds == ({"clean", "corrupted", "foreign"} if mixed else {"clean"})
        before = copy.deepcopy(tasks)
        for variant in VARIANT_NAMES:
            assert not run_variant(tiny_net(), tiny_config(), tasks, variant).aborted
            for name in ("pretrain_inputs", "pretrain_labels", "test_inputs", "test_labels"):
                np.testing.assert_array_equal(getattr(tasks, name), getattr(before, name))
            assert tasks.schedule == before.schedule
            assert len(tasks.streams) == len(before.streams)
            for stream, old in zip(tasks.streams, before.streams):
                for name in ("inputs", "labels", "sizes", "kinds"):
                    np.testing.assert_array_equal(getattr(stream, name), getattr(old, name),
                                                  err_msg=f"{variant}: {name}")

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_zero_norm_stream_row(self, variant):
        """A zero input has cosine 0 to every row; it no longer stops the run."""
        tasks = tiny_tasks()
        tasks.streams[0].inputs[0] = 0.0
        rep = run_variant(tiny_net(), tiny_config(), tasks, variant)
        assert not rep.aborted and len(rep.tasks) == 2

    def test_finetune_observes_all_task_samples(self):
        tasks = tiny_tasks()
        rep = run_variant(tiny_net(), tiny_config(), tasks, "finetune")
        assert rep.odp == tasks.total_stream_size()

    def test_balanced_buffer_stays_balanced(self):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks(), "balanced_buffer")
        comp = rep.tasks[-1].buffer_composition
        counts = list(comp.values())
        assert len(comp) == 6
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_balanced_buffer_fills_free_slots_then_balances(self, seed, monkeypatch):
        """20 pretraining rows leave 30 of 50 slots free. Each fill appends rows
        in its permutation's order while a slot is free and only then lets a
        row replace a member of the largest class; the buffer holds every row
        seen until it is full, and balanced classes after that."""
        tasks = tiny_tasks(seed, npc=10)  # 20 rows per timestep
        config = tiny_config(seed, buffer_capacity=50)
        fill = engine_mod.VARIANTS["balanced_buffer"].memory
        fills = []

        def spy(buffer, rows, net, rng):
            order = copy.deepcopy(rng).permutation(len(rows))  # the fill's first draw
            new, inserted = fill(buffer, rows, net, rng)
            fills.append((buffer.ids(), rows.ids[order].tolist(), new.ids(), inserted))
            return new, inserted

        monkeypatch.setitem(engine_mod.VARIANTS, "balanced_buffer", dataclasses.replace(
            engine_mod.VARIANTS["balanced_buffer"], memory=spy))
        rep = run_variant(tiny_net(seed), config, tasks, "balanced_buffer")
        assert not rep.aborted and len(fills) == 2
        for before, visited, after, inserted in fills:
            free = config.buffer_capacity - len(before)
            appended, replacing = inserted[:free], inserted[free:]
            assert appended == visited[:free]
            # Every slot holds what the fill put there, or a row that replaced it.
            placed = before + appended
            assert len(after) == len(placed)
            assert all(a == p or a in replacing for a, p in zip(after, placed))
        assert rep.tasks[0].buffer_composition == {c: 10 for c in range(4)}  # 40 < 50
        seen = len(tasks.pretrain_labels)
        for record, stream in zip(rep.tasks, tasks.streams):
            seen += len(stream.labels)
            counts = list(record.buffer_composition.values())
            assert sum(counts) == min(config.buffer_capacity, seen)
            if sum(counts) == config.buffer_capacity:
                assert max(counts) - min(counts) <= 1
        logged = [i for i, _ in rep.insert_log]
        assert rep.odp == len(logged) == len(set(logged)) == sum(len(f[3]) for f in fills)

    def test_no_cl_never_builds_buffer(self):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks(), "no_cl")
        assert all(t.buffer_composition == {} for t in rep.tasks)

    def test_average_accuracy_over_incremental_steps(self):
        rep = run_variant(tiny_net(), tiny_config(), tiny_tasks())
        expected = np.mean([rep.task_accuracies[1], rep.task_accuracies[2]])
        assert rep.average_task_accuracy == pytest.approx(expected)


class TestEmpiricalBehaviors:
    def _toy(self, seed=0):
        train = synth_generate(10, 16, 0.24, 0.1, 3000, seed=1000 + seed,
                               clip_unit=True)
        test = synth_generate(10, 16, 0.24, 0.1, 1500, seed=2000 + seed,
                              clip_unit=True)
        tasks = split_experiment(train, test, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
                                 8, seed=3000 + seed)
        cfg = LoopConfig(acquisition_batch=128, buffer_capacity=300,
                         epochs_per_update=2, pretrain_epochs=30, minibatch_size=64,
                         bootstrap=ThresholdConfig(100, 3, 0.99), weight_decay=5e-4,
                         eval_every_update=False, seed=seed)
        net = build_mlp(16, [16, 8], 2,
                        np.random.default_rng(np.random.SeedSequence([seed, 2])),
                        class_ids=[0, 1])
        return net, cfg, tasks, test

    def test_procurement_declines_within_tasks(self):
        """Later acquisition rounds insert fewer new samples into the buffer."""
        net, cfg, tasks, _ = self._toy()
        rep = run_variant(net, cfg, tasks)
        per_task = {}
        for u in rep.updates:
            per_task.setdefault(u.timestep, []).append(u.n_new_inserted)
        declining = 0
        for inserted in per_task.values():
            half = len(inserted) // 2
            if inserted[0] > inserted[-1] and \
               np.mean(inserted[:half]) > np.mean(inserted[half:]):
                declining += 1
        assert declining >= 3  # holds on at least 3 of the 4 tasks

    def _two_task(self, seed=0):
        train = synth_generate(6, 16, 0.24, 0.1, 1800, seed=1000 + seed,
                               clip_unit=True)
        test = synth_generate(6, 16, 0.24, 0.1, 900, seed=2000 + seed,
                              clip_unit=True)
        tasks = split_experiment(train, test, [[0, 1], [2, 3], [4, 5]], 8,
                                 seed=3000 + seed)
        cfg = LoopConfig(acquisition_batch=128, buffer_capacity=300,
                         epochs_per_update=2, pretrain_epochs=30, minibatch_size=64,
                         bootstrap=ThresholdConfig(100, 3, 0.99), weight_decay=5e-4,
                         eval_every_update=False, seed=seed)
        net = build_mlp(16, [16, 8], 2,
                        np.random.default_rng(np.random.SeedSequence([seed, 2])),
                        class_ids=[0, 1])
        return net, cfg, tasks, test

    def test_forgetting_without_memory(self):
        """On two disjoint tasks, dropping replay costs >= 30 points on the
        first incremental task's classes."""
        net, cfg, tasks, test = self._two_task()
        run_variant(net, cfg, tasks)
        net2, cfg2, tasks2, _ = self._two_task()
        run_variant(net2, cfg2, tasks2, "no_cl")
        first_task = np.isin(test.labels, [2, 3])
        acc_full = evaluate(net, test.inputs[first_task], test.labels[first_task])
        acc_nocl = evaluate(net2, test.inputs[first_task], test.labels[first_task])
        assert acc_full - acc_nocl >= 0.30

    def test_finetune_near_chance_on_old_classes(self):
        net, cfg, tasks, test = self._two_task()
        run_variant(net, cfg, tasks, "finetune")
        old = np.isin(test.labels, [0, 1, 2, 3])
        acc_old = evaluate(net, test.inputs[old], test.labels[old])
        assert acc_old <= 1.0 / 6.0 + 0.10  # at or below chance plus slack


def _drawn_tasks(seed, dims, n_pretrain, ood_batch, kinds, zero_row):
    """Pretraining on classes 0 and 1, then one task per entry of ``kinds``:
    "clean" (the next two classes), "empty" (no batches) or "foreign" (only
    sentinel-labeled rows). ``zero_row`` zeroes the first stream row."""
    rng = np.random.default_rng(seed)
    centers = rng.random((2 + 2 * len(kinds), dims))

    def rows(classes, n):
        labels = np.resize(np.asarray(classes), n)
        x = centers[labels] + 0.05 * rng.normal(size=(n, dims))
        return x.astype(np.float32), labels

    pre_x, pre_y = rows([0, 1], n_pretrain)
    streams, test = [], [rows([0, 1], 8)]
    for i, kind in enumerate(kinds):
        classes = [2 + 2 * i, 3 + 2 * i]
        if kind == "empty":
            streams.append(Stream.cut(np.zeros((0, dims)), np.zeros(0), ood_batch))
            continue
        x, y = rows(classes, 3 * ood_batch)
        if kind == "foreign":
            x, y = rng.random(x.shape).astype(np.float32), np.full(len(y), SENTINEL_LABEL)
        else:
            test.append(rows(classes, 8))
        streams.append(Stream.cut(x, y, ood_batch, kind))
    if zero_row and any(len(stream) for stream in streams):
        next(stream for stream in streams if len(stream)).inputs[0] = 0.0
    return SplitTasks(pre_x, pre_y, streams, np.concatenate([x for x, _ in test]),
                      np.concatenate([y for _, y in test]),
                      [[0, 1]] + [[2 + 2 * i, 3 + 2 * i] for i in range(len(kinds))])


class TestLoopProperties:
    @given(seed=st.integers(0, 2**16), minibatch=st.integers(2, 6),
           odd_pretrain=st.booleans(), capacity=st.integers(2, 12),
           acquisition=st.integers(1, 12), ood_batch=st.integers(1, 4),
           kinds=st.lists(st.sampled_from(["clean", "empty", "foreign"]),
                          min_size=1, max_size=3),
           zero_row=st.booleans())
    @example(seed=0, minibatch=4, odd_pretrain=True, capacity=3, acquisition=8,
             ood_batch=2, kinds=["clean", "empty", "foreign"], zero_row=True)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_loop_invariants(self, seed, minibatch, odd_pretrain, capacity, acquisition,
                             ood_batch, kinds, zero_row):
        n_pretrain = 2 * minibatch + (1 if odd_pretrain else 3)
        tasks = _drawn_tasks(seed, 4, n_pretrain, ood_batch, kinds, zero_row)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # capacity below the acquisition batch
            cfg = LoopConfig(acquisition_batch=acquisition, buffer_capacity=capacity,
                             epochs_per_update=1, pretrain_epochs=2,
                             minibatch_size=minibatch, bootstrap=ThresholdConfig(5, 2, 0.9),
                             eval_every_update=False, baseline_epochs_per_task=2, seed=seed)
        original = engine_mod.train_one_epoch

        def spy(net, inputs, labels, opt, minibatch_size, rng):
            assert not np.any(np.asarray(labels) == SENTINEL_LABEL)
            return original(net, inputs, labels, opt, minibatch_size, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "train_one_epoch", spy)
            for variant in VARIANT_NAMES:
                net = build_mlp(4, [5, 3], 2, np.random.default_rng(seed), class_ids=[0, 1])
                rep = run_variant(net, cfg, tasks, variant)
                if rep.aborted:
                    assert rep.abort_reason.startswith("loss diverged")
                    continue
                assert len(rep.tasks) == len(kinds)
                for record, stream in zip(rep.tasks, tasks.streams):
                    assert record.accepted_batches + record.rejected_batches == len(stream)
                    assert sum(record.buffer_composition.values()) <= capacity
                    # Pool conservation: every admitted row is queried, except
                    # that random rounds stop after one buffer's worth.
                    queried = sum(u.queried for u in rep.updates
                                  if u.timestep == record.timestep)
                    expected = record.pool_size
                    if variant == "random_query":
                        rounds = math.ceil(min(expected, capacity) / acquisition)
                        expected = min(expected, rounds * acquisition)
                    assert queried == expected, variant
                assert rep.odp <= rep.oracle_reveals <= tasks.total_stream_size()
                width = 2 + sum(record.new_classes for record in rep.tasks)
                assert rep.tasks[-1].head_width == net.n_classes == width

    @staticmethod
    def _full_runs(seed, batch, clean, mixed):
        """``full`` on the ``clean`` and the ``mixed`` tasks, and whether the
        filter admitted clean batches only, in both runs."""
        cfg = tiny_config(seed, acquisition_batch=32, buffer_capacity=60,
                          pretrain_epochs=30, bootstrap=ThresholdConfig(30, batch, 0.99),
                          eval_every_update=True)
        admitted = []
        original = engine_mod.filter_stream

        def spy(net, stream, tau):
            result = original(net, stream, tau)
            admitted.append(stream.kinds[result.accepted])
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "filter_stream", spy)
            reports = [run_variant(tiny_net(seed), cfg, tasks, "full") for tasks in (clean, mixed)]
        return reports, all((kinds == "clean").all() for kinds in admitted)

    @staticmethod
    def _assert_unchanged_but_rejected(clean_run, mixed_run, injected):
        """``mixed_run`` equals ``clean_run`` except ``injected[t - 1]`` more
        rejected batches in task t and the ids in its insert log."""
        assert not clean_run.aborted
        assert [dataclasses.replace(record, rejected_batches=record.rejected_batches - n)
                for record, n in zip(mixed_run.tasks, injected)] == clean_run.tasks
        assert ([t for _, t in mixed_run.insert_log]
                == [t for _, t in clean_run.insert_log])
        assert (dataclasses.replace(mixed_run, tasks=[], insert_log=[])
                == dataclasses.replace(clean_run, tasks=[], insert_log=[]))

    def test_rejected_injections_leave_the_run_unchanged(self):
        """A mixed ``full`` run whose filter rejects every injected batch
        equals the clean run with the same seed, except the ids in its insert
        log and the injected batches in its reject counts: a batch's eta1
        depends only on its own rows, tau draws from its own generator, and
        admitted rows keep their emission order."""
        held = []

        @given(seed=st.integers(0, 2**16), per_class=st.integers(30, 80),
               batch=st.integers(4, 12), corrupted=st.floats(0.1, 0.5),
               foreign=st.floats(0.1, 0.5))
        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        def relation(seed, per_class, batch, corrupted, foreign):
            train = synth_generate(6, 8, 0.3, 0.1, 6 * per_class, seed=seed, clip_unit=True)
            test = synth_generate(6, 8, 0.3, 0.1, 120, seed=seed + 1, clip_unit=True)
            junk = synth_generate(6, 8, 6.0, 0.1, 300, seed=seed + 2)
            mix = MixSpec(corrupted, foreign, "gaussian", 0.5, junk)
            clean, mixed = (split_experiment(train, test, [[0, 1], [2, 3], [4, 5]], batch,
                                             seed=seed + 3, mix=spec) for spec in (None, mix))
            (clean_run, mixed_run), only_clean = self._full_runs(seed, batch, clean, mixed)
            injected = [int((stream.kinds != "clean").sum()) for stream in mixed.streams]
            held.append(sum(injected) > 0 and only_clean)
            if held[-1]:
                self._assert_unchanged_but_rejected(clean_run, mixed_run, injected)

        relation()
        assert sum(held) > len(held) / 2, held

    def test_one_rejected_foreign_batch_leaves_the_run_unchanged(self):
        """One foreign batch spliced into a clean stream, when the filter
        rejects it, changes only its task's reject count and the ids in the
        insert log."""
        held = []

        @given(seed=st.integers(0, 2**16), batch=st.integers(4, 12),
               task=st.integers(0, 1), position=st.integers(0, 40))
        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        def relation(seed, batch, task, position):
            train = synth_generate(6, 8, 0.3, 0.1, 360, seed=seed, clip_unit=True)
            test = synth_generate(6, 8, 0.3, 0.1, 120, seed=seed + 1, clip_unit=True)
            junk = synth_generate(6, 8, 6.0, 0.1, batch, seed=seed + 2)
            clean = split_experiment(train, test, [[0, 1], [2, 3], [4, 5]], batch,
                                     seed=seed + 3)
            stream = clean.streams[task]
            at = position % (len(stream) + 1)
            row = int(stream.sizes[:at].sum())
            sizes, kinds = stream.sizes.tolist(), stream.kinds.tolist()
            sizes.insert(at, batch)
            kinds.insert(at, "foreign")
            streams = list(clean.streams)
            streams[task] = Stream(np.insert(stream.inputs, row, junk.inputs, axis=0),
                                   np.insert(stream.labels, row, np.full(batch, SENTINEL_LABEL)),
                                   sizes, kinds)
            mixed = dataclasses.replace(clean, streams=streams)
            (clean_run, mixed_run), only_clean = self._full_runs(seed, batch, clean, mixed)
            held.append(only_clean)
            if held[-1]:
                self._assert_unchanged_but_rejected(clean_run, mixed_run,
                                                    [int(t == task) for t in range(2)])

        relation()
        assert sum(held) > len(held) / 2, held
