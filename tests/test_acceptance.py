"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Each test exercises the full behavior it names (no mocks); tolerances are
stated inline.  The verdict lines are echoed after the pytest summary via
the hook in conftest.py.
"""

import functools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from patchmix import workflow
from patchmix.cli import (
    BEST_INDIVIDUAL_FILE,
    FINAL_METRICS_FILE,
    FINAL_MODEL_FILE,
    FITNESS_METRICS_FILE,
    FITNESS_MODEL_FILE,
    GUIDED_MANIFEST_FILE,
    SEARCH_HISTORY_FILE,
    main,
    run_boundary_demo,
)
from patchmix.data import synth_shapes, toy_2d_three_class
from patchmix.evolution import (
    Rules,
    SearchConfig,
    crossover,
    flip_tails,
    init_population,
    pair_count,
    run_search,
    transpose_tails,
)
from patchmix.evolution import Individual, repair
from patchmix.losses import combined_loss
from patchmix.masks import sample_random_mask
from patchmix.mixing import MixedBatch, patchmix, patchmix_batch, unpatchify
from patchmix.model import (
    ReferenceModel,
    TrainConfig,
    adversarial_accuracy,
    backward,
    batch_gradients,
    forward_batch,
    patchify,
    train_random_patchmix,
)
from patchmix.workflow import (
    ablation_csv_lines,
    ablation_grid,
    run_guided_pipeline,
    train_final,
)

from test_cli import config_data
from test_evolution import reference_fitness


def criterion(number, description):
    """Record one PASS/FAIL line per criterion next to the test outcome."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"FAIL criterion {number}: {description}")
                raise
            suffix = f" [{detail}]" if detail else ""
            ACCEPTANCE_LINES.append(
                f"PASS criterion {number}: {description}{suffix}"
            )

        return wrapper

    return decorate


def oracle_cross_entropy(logits, target):
    """Direct re-computation: normalize the exponentials, then take logs."""
    z = np.asarray(logits, dtype=np.float64)
    p = np.exp(z - z.max())
    p /= p.sum()
    return float(-(np.asarray(target, dtype=np.float64) * np.log(p)).sum())


@criterion(1, "equation suite matches direct re-computation within 1e-9")
def test_equation_suite():
    rng = np.random.default_rng(1001)
    cases = 0

    # Mixing ratio: the first source's label weight in a row of the batched
    # composer training runs is the kept-patch fraction of the grid.
    for _ in range(250):
        p = int(rng.integers(2, 9))
        mask = rng.integers(0, 2, (p, p), dtype=np.uint8)
        images = np.zeros((2, p, p, 1))  # one pixel per cell
        row = patchmix_batch(images, [0], [1], [0], [1], mask[None], 2)
        assert abs(row.image_labels[0, 0] - mask.sum() / p**2) <= 1e-9
        cases += 1

    # Composition: pixels routed by the expanded mask, label split by area.
    for _ in range(250):
        p = int(rng.choice([2, 4]))
        classes = int(rng.integers(2, 6))
        x_i = rng.random((8, 8, 1), dtype=np.float64).astype(np.float32)
        x_j = rng.random((8, 8, 1), dtype=np.float64).astype(np.float32)
        y_i, y_j = (int(c) for c in rng.integers(0, classes, 2))
        bits = rng.integers(0, 2, (p, p), dtype=np.uint8)
        sample = patchmix(x_i, y_i, x_j, y_j, bits, classes)
        lam = bits.sum() / p**2
        pixel = np.kron(bits, np.ones((8 // p, 8 // p), dtype=np.uint8))[..., None]
        np.testing.assert_array_equal(
            sample.patches, patchify(np.where(pixel == 1, x_i, x_j).astype(np.float64)[None], p)
        )
        expected_label = lam * np.eye(classes)[y_i] + (1 - lam) * np.eye(classes)[y_j]
        assert np.abs(sample.image_labels[0] - expected_label).max() <= 1e-9
        # The label weight of the first source (all of it when both are one class).
        assert abs(sample.image_labels[0, y_i] - (lam if y_i != y_j else 1.0)) <= 1e-9
        np.testing.assert_array_equal(
            sample.patch_labels[0], np.where(bits.ravel() == 1, y_i, y_j)
        )
        # The batched composer training runs gives the same row.
        row = patchmix_batch(
            np.stack([x_i, x_j]), [0], [1], [y_i], [y_j], bits[None], classes
        )
        np.testing.assert_array_equal(row.patches, sample.patches)
        np.testing.assert_array_equal(row.image_labels, sample.image_labels)
        np.testing.assert_array_equal(row.patch_labels, sample.patch_labels)
        cases += 1

    # The training loss, as model.backward computes it: the image-level
    # soft-target cross-entropy, the patch-level SUM of one-hot
    # cross-entropies, and their combination in all three modes, against the
    # oracle on the forward_batch logits.  Each case checks every single row
    # and the whole batch, whose loss is the mean over its rows.
    worst = 0.0
    for _ in range(750):
        p = int(rng.integers(1, 5))
        classes = int(rng.integers(2, 11))
        rows = int(rng.integers(1, 5))
        model = ReferenceModel.initialize(p, classes, 6, 4, rng)  # 2x2-pixel patches
        # Scaled heads: the logits of a sample span about 2 to 30 units.
        model.w_patch *= rng.uniform(1, 10)
        model.w_img *= rng.uniform(1, 10)
        images = rng.random((rows, 2 * p, 2 * p, 1))
        batch = MixedBatch(
            patchify(images, p),
            rng.dirichlet(np.ones(classes), size=rows),
            rng.integers(0, classes, (rows, p * p)),
        )
        patch_logits, image_logits = forward_batch(model, images)
        l_img = np.array([
            oracle_cross_entropy(logits, target)
            for logits, target in zip(image_logits, batch.image_labels)
        ])
        l_patch = np.array([
            sum(
                oracle_cross_entropy(logits, np.eye(classes)[int(label)])
                for logits, label in zip(sample_logits, labels)
            )
            for sample_logits, labels in zip(patch_logits, batch.patch_labels)
        ])
        oracle = {
            "image_only": l_img,
            "patch_only": l_patch / p**2,
            "both": (l_img + l_patch / p**2) / 2,
        }
        for mode, expected in oracle.items():
            for r in range(rows):
                single = MixedBatch(
                    batch.patches[r : r + 1], batch.image_labels[r : r + 1],
                    batch.patch_labels[r : r + 1],
                )
                loss, _ = backward(model, single, mode)
                assert abs(loss - expected[r]) <= 1e-9
                worst = max(worst, abs(loss - expected[r]))
            loss, _ = backward(model, batch, mode)
            assert abs(loss - expected.mean()) <= 1e-9
            worst = max(worst, abs(loss - expected.mean()))
        cases += 1

    assert combined_loss(2.0, 32.0, 4, "both") == 2.0  # worked example, exact
    assert cases >= 1000
    return f"{cases} randomized cases, worst loss error {worst:.1e}"


@criterion(2, "mask pixel expansion: popcount scaling and region constancy on 1000 masks")
def test_mask_pixel_consistency():
    rng = np.random.default_rng(2002)
    height = width = 16
    # The composer's pixel map: an all-ones image over an all-zeros one.
    ones, zeros = np.ones((height, width, 1)), np.zeros((height, width, 1))
    for i in range(1000):
        p = (2, 4, 8)[i % 3]
        mask = sample_random_mask(p, rng)
        row = patchmix(ones, 0, zeros, 1, mask, 2)
        pixel = unpatchify(row.patches, (1, height, width, 1), p)[0, :, :, 0]
        block_h, block_w = height // p, width // p
        assert int(pixel.sum()) == int(mask.sum()) * block_h * block_w
        regions = pixel.reshape(p, block_h, p, block_w)
        for r in range(p):
            for c in range(p):
                region = regions[r, :, c, :]
                assert (region == mask[r, c]).all()
    return "P in {2,4,8}, 16x16 pixels"


@criterion(3, "analytic gradients match central differences, max rel err < 1e-4")
def test_gradient_check():
    rng = np.random.default_rng(3003)
    model = ReferenceModel.initialize(2, 3, 6, 12, rng)  # 4x4x3 images, P=2
    images = rng.random((3, 4, 4, 3))
    targets = rng.dirichlet(np.ones(3), size=3)
    patch_labels = rng.integers(0, 3, (3, 4))

    def loss_at():
        loss, _, _ = batch_gradients(model, images, targets, patch_labels, "both")
        return loss

    _, grads, input_grads = batch_gradients(model, images, targets, patch_labels, "both")
    h = 1e-4
    worst = 0.0
    probes = 0
    blocks = list(grads.keys())
    while probes < 50:
        if probes % 4 == 3:  # every fourth probe hits an input pixel
            idx = tuple(int(rng.integers(s)) for s in images.shape)
            saved = images[idx]
            images[idx] = saved + h
            up = loss_at()
            images[idx] = saved - h
            down = loss_at()
            images[idx] = saved
            analytic = input_grads[idx]
        else:
            name = blocks[int(rng.integers(len(blocks)))]
            block = getattr(model, name)
            idx = tuple(int(rng.integers(s)) for s in block.shape)
            saved = block[idx]
            block[idx] = saved + h
            up = loss_at()
            block[idx] = saved - h
            down = loss_at()
            block[idx] = saved
            analytic = grads[name][idx]
        numeric = (up - down) / (2 * h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, rel)
        probes += 1
    assert worst < 1e-4
    return f"50 probes, worst rel err {worst:.2e}"


@criterion(4, "operator algebra: involutions, crossover split, repair bound")
def test_operator_algebra():
    rng = np.random.default_rng(4004)

    # Involutions on random genomes.
    for _ in range(300):
        classes = int(rng.integers(2, 5))
        p = int(rng.choice([2, 4]))
        n = pair_count(classes)
        head = (rng.random(n) < 0.5).astype(np.uint8)
        head[int(rng.integers(n))] = 1
        ind = Individual(head, rng.integers(0, 2, (n, p, p), dtype=np.uint8))
        np.testing.assert_array_equal(flip_tails(flip_tails(ind)).masks, ind.masks)
        np.testing.assert_array_equal(
            transpose_tails(transpose_tails(ind)).masks, ind.masks
        )

    # Column-split crossover on the all-ones / all-zeros parent pair.
    n = pair_count(3)
    head = np.zeros(n, dtype=np.uint8)
    head[:2] = 1
    ones = Individual(head.copy(), np.ones((n, 4, 4), dtype=np.uint8))
    zeros = Individual(head.copy(), np.zeros((n, 4, 4), dtype=np.uint8))
    child1, child2 = crossover(ones, zeros, rng, Rules.of(SearchConfig(max_active_pairs=2), 3))
    expected1 = np.concatenate(
        [np.ones((n, 4, 2), dtype=np.uint8), np.zeros((n, 4, 2), dtype=np.uint8)], axis=2
    )
    np.testing.assert_array_equal(child1.masks, expected1)
    np.testing.assert_array_equal(child2.masks, 1 - expected1)

    # Repair restores the active-pair budget on 1000 violating heads.
    classes, limit = 4, 3
    n = pair_count(classes)
    rules = Rules.of(SearchConfig(max_active_pairs=limit), classes)
    for _ in range(1000):
        head = np.zeros(n, dtype=np.uint8)
        over = int(rng.integers(limit + 1, n + 1))
        head[rng.choice(n, size=over, replace=False)] = 1
        masks = rng.integers(0, 2, (n, 2, 2), dtype=np.uint8)
        fixed = Individual(head, masks.copy())
        repair(fixed, rules, rng)
        assert 1 <= int(fixed.head.sum()) <= limit
        np.testing.assert_array_equal(fixed.masks, masks)
    return "300 involution genomes, 1000 repaired violations"


@criterion(5, "search recovers exhaustive and Hamming oracles, monotone best history")
def test_search_oracle_equivalence():
    # (a) P=2, one always-active pair: the 16-mask table optimum.
    table = np.random.default_rng(999).permutation(16).astype(np.float64)
    best_id = int(np.argmin(table))
    weights = np.array([8, 4, 2, 1])

    def table_fitness(individual):
        slot = individual.active_slots()[0]
        return float(table[int(individual.masks[slot].ravel() @ weights)])

    exhaustive_hits = 0
    for seed in range(20):
        cfg = SearchConfig(population_size=32, generations=40, patience=40, seed=seed)
        best, history = run_search(cfg, 1, 2, table_fitness)
        bests = [h.best for h in history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        mask_id = int(best.masks[best.active_slots()[0]].ravel() @ weights)
        if best.fitness == 0.0 and mask_id == best_id:
            exhaustive_hits += 1
    assert exhaustive_hits >= 19

    # (b) hidden 4x4 target, Hamming distance fitness, population 100.
    target = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8)

    def hamming(individual):
        slot = individual.active_slots()[0]
        return float((individual.masks[slot] != target).sum())

    hamming_hits = 0
    for seed in range(20):
        cfg = SearchConfig(
            population_size=100, generations=60, patience=60, seed=100 + seed
        )
        best, history = run_search(cfg, 1, 4, hamming)
        bests = [h.best for h in history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert history[-1].generation <= 60
        if best.fitness == 0.0:
            hamming_hits += 1
    assert hamming_hits >= 19
    return f"exhaustive {exhaustive_hits}/20, hamming {hamming_hits}/20"


@pytest.fixture(scope="module")
def toy_training():
    train = synth_shapes(3, 16, 200, 1)
    val = synth_shapes(3, 16, 50, 2)
    cfg = TrainConfig(epochs=60, seed=0)
    start = time.monotonic()
    model, metrics = train_random_patchmix(train, val, cfg)
    elapsed = time.monotonic() - start
    return model, metrics, val, elapsed


@criterion(6, "toy training reaches 0.90 and guided stays within 0.02 of baseline")
def test_end_to_end_toy_training(toy_training):
    model, metrics, _, elapsed = toy_training
    top1 = metrics[-1].val_top1
    assert top1 >= 0.90
    assert elapsed < 300.0

    # Directional comparison over 5 seeds at reduced scale: full guided
    # pipeline versus the same final trainer without guided samples.
    train = synth_shapes(3, 16, 60, 11)
    val = synth_shapes(3, 16, 25, 12)
    guided_scores, baseline_scores = [], []
    for seed in range(5):
        cfg = TrainConfig(epochs=15, batch_size=60, hidden_dim=32, seed=seed)
        search = SearchConfig(
            population_size=12, generations=5, pairs_per_combo=8, patience=8, seed=seed
        )
        result = run_guided_pipeline(train, val, cfg, search)
        guided_scores.append(result.final_metrics[-1].val_top1)
        base_cfg = replace(cfg, loss_mode="image_only")
        _, base_metrics = train_final(train, val, base_cfg, [], ratio=(1, 1, 0))
        baseline_scores.append(base_metrics[-1].val_top1)
    guided_mean = float(np.mean(guided_scores))
    baseline_mean = float(np.mean(baseline_scores))
    assert guided_mean >= baseline_mean - 0.02
    return (
        f"top1 {top1:.3f} in {elapsed:.1f}s; guided {guided_mean:.3f} "
        f"vs baseline {baseline_mean:.3f} over 5 seeds"
    )


@criterion(7, "attack accuracy decreases along the epsilon ladder, zero equals clean")
def test_fgsm_monotonicity(toy_training):
    model, metrics, val, _ = toy_training
    clean = metrics[-1].val_top1
    at = {eps: adversarial_accuracy(model, val, eps) for eps in (0.0, 0.1, 0.2, 0.3)}
    assert at[0.0] == clean
    assert at[0.1] >= at[0.2] >= at[0.3]
    assert all(at[eps] <= clean for eps in (0.1, 0.2, 0.3))
    return f"clean {clean:.3f}, eps ladder {at[0.1]:.3f}/{at[0.2]:.3f}/{at[0.3]:.3f}"


@criterion(8, "ablation harness emits the full 9-row grid")
def test_ablation_harness():
    train = synth_shapes(3, 16, 20, 31)
    val = synth_shapes(3, 16, 8, 32)
    cfg = TrainConfig(epochs=3, batch_size=60, hidden_dim=16, seed=7)
    rows = ablation_grid(train, val, cfg)  # (2, 4, 8) x three loss modes
    assert len(rows) == 9
    assert {(r.grid_size, r.loss_mode) for r in rows} == {
        (p, m) for p in (2, 4, 8) for m in ("both", "image_only", "patch_only")
    }
    for row in rows:
        assert np.isfinite(row.train_loss)
        assert 0.0 <= row.val_top1 <= 1.0
        assert 0.0 <= row.val_patch_acc <= 1.0
    lines = ablation_csv_lines(rows)
    assert len(lines) == 10
    assert lines[0] == "grid_size,loss_mode,train_loss,val_top1,val_patch_acc"
    return "9 rows plus header"


PIPELINE_ARTIFACTS = (
    FITNESS_MODEL_FILE,
    FITNESS_METRICS_FILE,
    SEARCH_HISTORY_FILE,
    BEST_INDIVIDUAL_FILE,
    GUIDED_MANIFEST_FILE,
    FINAL_MODEL_FILE,
    FINAL_METRICS_FILE,
)


@criterion(9, "pipeline artifacts bit-identical across reruns and to composite-forward scoring")
def test_artifact_determinism(tmp_path, monkeypatch):
    def run(name, **overrides):
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config_data(out, **overrides)))
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        return out

    first = run("a")
    second = run("b")

    # The default objective saturates on this config (every genome scores
    # 1.0); the loss objective ranks genomes, so there the fitness table
    # must reproduce forwarding every composite to the last bit.
    scorers = []

    class CompositeForward:
        """Phase-2 scorer that forwards every composite, in place of the table."""

        terms, form = (), "composite forward"

        def __init__(self, model, val, cfg):
            self.args, self.scored = (model, val, cfg), 0
            scorers.append(self)

        build = classmethod(lambda cls, *args: cls(*args))

    def forward_fitness(individual, scorer):
        scorer.scored += 1
        return reference_fitness(individual, *scorer.args)

    loss = {"search": {"objective": "min_lp"}}
    from_table = run("c-table", **loss)
    monkeypatch.setattr(workflow, "FitnessTable", CompositeForward)
    monkeypatch.setattr(workflow, "evaluate_fitness", forward_fitness)
    forwarded = run("c-forward", **loss)
    assert len(scorers) == 1 and scorers[0].scored > 0
    for artifact in PIPELINE_ARTIFACTS:
        reference = (first / artifact).read_bytes()
        assert (second / artifact).read_bytes() == reference, artifact
        assert (forwarded / artifact).read_bytes() == (from_table / artifact).read_bytes(), artifact
    assert (first / "config.json").read_bytes() == (second / "config.json").read_bytes()
    return f"7 artifacts x 3 runs, and min_lp against {scorers[0].scored} forwarded genomes"


@criterion(10, "boundary rasters complete for every method, none matches centroids")
def test_boundary_demo(tmp_path):
    raw = toy_2d_three_class(100, 0)
    feats = raw.images.reshape(len(raw), 2).astype(np.float64)
    centroids = np.stack([feats[raw.labels == c].mean(axis=0) for c in range(3)])

    lines = run_boundary_demo("none", seed=0)
    assert len(lines) == 1 + 200 * 200
    agree = 0
    seen = set()
    for line in lines[1:]:
        x, y, cls = line.split(",")
        point = np.array([float(x), float(y)])
        seen.add(int(cls))
        oracle = int(np.argmin(((centroids - point) ** 2).sum(axis=1)))
        agree += int(oracle == int(cls))
    assert seen == {0, 1, 2}
    agreement = agree / (200 * 200)
    assert agreement >= 0.95

    for method in ("mixup", "cutmix", "patchmix", "guided"):
        lines = run_boundary_demo(method, seed=0, samples_per_class=60, epochs=80)
        assert len(lines) == 1 + 200 * 200, method
        classes = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
        assert classes == {0, 1, 2}, method
    return f"none agrees with centroid oracle on {agreement:.1%} of cells"
