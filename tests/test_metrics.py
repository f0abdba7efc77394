"""Metric arithmetic against hand oracles, plus report formatting."""

from __future__ import annotations

import math
import random
from decimal import Decimal

import numpy as np
import pytest

from chidt.errors import ValidationError
from chidt.evaluation import (
    ConfusionMatrix,
    ErrorStats,
    MetricsReport,
    _mean_errors,
    accuracy,
    format_report,
    kappa,
    probabilistic_errors,
)

from conftest import GOLDEN_DIR


def oracle_kappa(counts) -> float:
    counts = [list(map(float, row)) for row in counts]
    n = sum(map(sum, counts))
    k = len(counts)
    p_o = sum(counts[i][i] for i in range(k)) / n
    p_e = 0.0
    for j in range(k):
        row = sum(counts[j])
        col = sum(counts[i][j] for i in range(k))
        p_e += row * col / (n * n)
    if p_e >= 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def oracle_errors(predicted, targets, prior):
    n, k = len(predicted), len(prior)
    abs_sum = sq_sum = base_abs = base_sq = 0.0
    for i in range(n):
        for j in range(k):
            d = predicted[i][j] - targets[i][j]
            abs_sum += abs(d)
            sq_sum += d * d
            b = prior[j] - targets[i][j]
            base_abs += abs(b)
            base_sq += b * b
    mae = abs_sum / (n * k)
    rmse = math.sqrt(sq_sum / (n * k))
    rae = None if base_abs == 0 else 100.0 * abs_sum / base_abs
    rrse = None if base_sq == 0 else 100.0 * math.sqrt(sq_sum / base_sq)
    return mae, rmse, rae, rrse


def random_distribution(rng, k):
    raw = [rng.random() for _ in range(k)]
    total = sum(raw)
    return [v / total for v in raw]


class TestAccuracy:
    @pytest.mark.parametrize(
        "correct,total,rendered",
        [
            (52, 53, "98.1132"),
            (185, 196, "94.3878"),
            (183, 196, "93.3673"),
            (184, 196, "93.8776"),
        ],
    )
    def test_table_values(self, correct, total, rendered):
        cm = ConfusionMatrix(
            ("right", "wrong"), [[correct, total - correct], [0, 0]]
        )
        got_correct, pct = accuracy(cm)
        assert got_correct == correct
        assert f"{pct:.4f}" == rendered

    def test_identity_matrix_is_perfect(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.eye(3, dtype=int) * 4)
        assert accuracy(cm) == (12, 100.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            accuracy(ConfusionMatrix(("a",), [[0]]))


class TestKappa:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(("a", "b"), [[7, 0], [0, 5]])
        assert kappa(cm) == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_two_by_two(self):
        cm = ConfusionMatrix(("a", "b"), [[20, 5], [10, 15]])
        assert kappa(cm) == pytest.approx(0.4, abs=1e-12)

    def test_single_column_uniform_rows_not_positive(self):
        cm = ConfusionMatrix(("a", "b", "c"), [[5, 0, 0], [5, 0, 0], [5, 0, 0]])
        assert kappa(cm) <= 0.0
        assert kappa(cm) == pytest.approx(oracle_kappa(cm.counts), abs=1e-12)

    def test_degenerate_single_cell(self):
        cm = ConfusionMatrix(("a", "b"), [[9, 0], [0, 0]])
        assert kappa(cm) == 0.0

    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(20)
        for _ in range(100):
            k = rng.randrange(2, 6)
            counts = [[rng.randrange(0, 20) for _ in range(k)] for _ in range(k)]
            if sum(map(sum, counts)) == 0:
                counts[0][0] = 1
            cm = ConfusionMatrix(tuple(f"c{i}" for i in range(k)), counts)
            assert kappa(cm) == pytest.approx(oracle_kappa(counts), abs=1e-12)
            assert kappa(cm) <= 1.0
            off_diag = cm.total - cm.correct
            # kappa reaches 1 exactly when nothing sits off the diagonal
            if off_diag == 0:
                assert kappa(cm) in (0.0, 1.0)  # 0.0 only in the degenerate p_e=1 case
            else:
                assert kappa(cm) < 1.0

    def test_invariant_under_simultaneous_permutation(self):
        rng = random.Random(21)
        for _ in range(25):
            k = rng.randrange(2, 5)
            counts = np.array([[rng.randrange(0, 9) for _ in range(k)] for _ in range(k)])
            counts[0][0] += 1
            perm = list(range(k))
            rng.shuffle(perm)
            permuted = counts[np.ix_(perm, perm)]
            names = tuple(f"c{i}" for i in range(k))
            assert kappa(ConfusionMatrix(names, counts)) == pytest.approx(
                kappa(ConfusionMatrix(names, permuted)), abs=1e-12
            )


class TestProbabilisticErrors:
    def test_perfect_one_hot_predictions(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        stats = probabilistic_errors(t, t, [0.5, 0.5])
        assert stats.mae == 0.0
        assert stats.rmse == 0.0

    def test_prior_predictor_scores_exactly_100(self):
        rng = random.Random(30)
        k = 3
        prior = random_distribution(rng, k)
        targets = []
        for _ in range(20):
            row = [0.0] * k
            row[rng.randrange(k)] = 1.0
            targets.append(row)
        pred = [list(prior)] * 20
        stats = probabilistic_errors(pred, targets, prior)
        assert stats.rae_pct == pytest.approx(100.0, abs=1e-9)
        assert stats.rrse_pct == pytest.approx(100.0, abs=1e-9)

    def test_matches_oracle_on_random_fixture(self):
        rng = random.Random(40)
        pred, targets = [], []
        for _ in range(10):
            pred.append(random_distribution(rng, 4))
            row = [0.0] * 4
            row[rng.randrange(4)] = 1.0
            targets.append(row)
        prior = random_distribution(rng, 4)
        stats = probabilistic_errors(pred, targets, prior)
        o_mae, o_rmse, o_rae, o_rrse = oracle_errors(pred, targets, prior)
        assert stats.mae == pytest.approx(o_mae, abs=1e-12)
        assert stats.rmse == pytest.approx(o_rmse, abs=1e-12)
        assert stats.rae_pct == pytest.approx(o_rae, abs=1e-12)
        assert stats.rrse_pct == pytest.approx(o_rrse, abs=1e-12)

    def test_probability_inputs_keep_errors_in_unit_range(self):
        rng = random.Random(41)
        for _ in range(30):
            n, k = rng.randrange(1, 8), rng.randrange(2, 5)
            pred = [random_distribution(rng, k) for _ in range(n)]
            targets = []
            for _ in range(n):
                row = [0.0] * k
                row[rng.randrange(k)] = 1.0
                targets.append(row)
            stats = probabilistic_errors(pred, targets, random_distribution(rng, k))
            assert 0.0 <= stats.mae <= 1.0
            assert 0.0 <= stats.rmse <= 1.0

    def test_constant_corpus_reports_undefined_not_crash(self):
        targets = np.array([[1.0, 0.0]] * 4)
        stats = probabilistic_errors(targets, targets, [1.0, 0.0])
        assert stats.rae_pct is None
        assert stats.rrse_pct is None

    def test_mean_skips_undefined_relative_errors(self):
        # per code in multilabel mode, per fold in a k-fold aggregate: a mean over no defined value is undefined
        stats = [ErrorStats(0.25, 0.5, 40.0, None), ErrorStats(0.75, 1.0, None, None)]
        assert _mean_errors(stats) == ErrorStats(0.5, 0.75, 40.0, None)


def report_for(correct, total, kappa_v, mae, rmse, rae, rrse, mode="multilabel",
               protocol="resubstitution"):
    return MetricsReport(
        mode=mode,
        protocol=protocol,
        correct=correct,
        total=total,
        kappa=kappa_v,
        mae=mae,
        rmse=rmse,
        rae_pct=rae,
        rrse_pct=rrse,
    )


class TestFormatReport:
    def test_table_one_shape(self):
        text = format_report(report_for(52, 53, 0.9756, 0.012, 0.0818, 4.5652, 22.5907))
        lines = text.splitlines()
        assert lines[1] == "Correctly Classified Instances\t52\t98.1132 %"
        assert lines[2] == "Incorrectly Classified Instances\t1\t1.8868 %"
        assert "Kappa statistic\t0.9756" in text
        assert "Mean absolute error\t0.0120" in text
        assert "Relative absolute error\t4.5652 %" in text
        assert "Root relative squared error\t22.5907 %" in text
        assert lines[-1] == "Total Number of Instances\t53"

    def test_kappa_one_renders_with_four_decimals(self):
        text = format_report(report_for(10, 10, 1.0, 0.0, 0.0, 0.0, 0.0))
        assert "Kappa statistic\t1.0000" in text

    def test_undefined_relative_errors(self):
        text = format_report(report_for(5, 5, 0.0, 0.0, 0.0, None, None))
        assert "Relative absolute error\tundefined" in text
        assert "Root relative squared error\tundefined" in text

    def test_accuracy_and_error_render_to_exactly_100(self):
        rng = random.Random(50)
        for _ in range(200):
            total = rng.randrange(1, 400)
            correct = rng.randrange(0, total + 1)
            text = format_report(report_for(correct, total, 0.5, 0.1, 0.2, 10.0, 20.0))
            acc_line, err_line = text.splitlines()[1:3]
            acc = Decimal(acc_line.split("\t")[2].split()[0])
            err = Decimal(err_line.split("\t")[2].split()[0])
            assert acc + err == Decimal("100.0000")

    def test_golden_file(self):
        text = format_report(report_for(185, 196, 0.9323, 0.0107, 0.0927, 7.0466, 33.6758))
        golden = (GOLDEN_DIR / "report_multilabel.txt").read_text(encoding="utf-8")
        assert text + "\n" == golden


class TestReportInvariants:
    def test_kappa_above_one_rejected(self):
        with pytest.raises(ValidationError, match="kappa"):
            report_for(10, 10, 1.5, 0.0, 0.0, 0.0, 0.0)

    def test_impossible_counts_rejected(self):
        with pytest.raises(ValidationError, match="counts"):
            report_for(11, 10, 0.5, 0.0, 0.0, 0.0, 0.0)
