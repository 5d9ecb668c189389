import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpat import evaluate as ev
from lpat import model, training


class FakeSample:
    def __init__(self, features, label, serial="s0"):
        self.features = features
        self.label = label
        self.serial = serial


def biased_net(logit_bias):
    """Tiny net whose output distribution is the softmax of a fixed bias."""
    net = model.init_network(2, 3, 3, 4, 3, seed=0)
    net.dense3.W[...] = 0.0
    net.dense3.b[...] = np.asarray(logit_bias, dtype=float)
    return net


def test_perfect_predictions_score_one():
    cm = np.diag([5, 3, 8])
    rep = ev.metrics_from_confusion(cm)
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == 1.0
    assert np.all(rep.precision == 1.0)
    assert np.all(rep.recall == 1.0)


def test_hand_counted_confusion_example():
    cm = ev.confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
    rep = ev.metrics_from_confusion(cm)
    assert rep.accuracy == pytest.approx(0.75)
    assert rep.precision[0] == pytest.approx(1.0)
    assert rep.recall[0] == pytest.approx(0.5)
    assert rep.f1[0] == pytest.approx(2 / 3, abs=1e-12)


def test_never_predicting_a_class_scores_zero_by_convention():
    cm = ev.confusion_matrix([0, 0, 1, 2, 2], [2, 1, 1, 2, 2])
    rep = ev.metrics_from_confusion(cm)
    assert rep.recall[0] == 0.0
    assert rep.precision[0] == 0.0
    assert rep.f1[0] == 0.0


def test_accuracy_is_trace_over_total():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, size=60)
    p = rng.integers(0, 3, size=60)
    rep = ev.metrics_from_confusion(ev.confusion_matrix(t, p))
    assert rep.accuracy == np.trace(rep.confusion) / 60
    assert rep.total == 60


def test_macro_f1_averages_only_ground_truth_present_classes():
    cm = ev.confusion_matrix([0, 0, 2, 2], [0, 2, 2, 2])
    rep = ev.metrics_from_confusion(cm)
    # class 1 absent from the truth: macro over classes 0 and 2 only
    assert rep.macro_f1 == pytest.approx((rep.f1[0] + rep.f1[2]) / 2)


def test_constant_classifier_on_balanced_set_scores_below_half():
    t = [0, 1, 2] * 10
    p = [2] * 30
    rep = ev.metrics_from_confusion(ev.confusion_matrix(t, p))
    assert rep.macro_f1 < 0.5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_sample_order_does_not_change_the_report(pairs, rnd):
    t = [a for a, _ in pairs]
    p = [b for _, b in pairs]
    rep1 = ev.metrics_from_confusion(ev.confusion_matrix(t, p))
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    rep2 = ev.metrics_from_confusion(
        ev.confusion_matrix([a for a, _ in shuffled], [b for _, b in shuffled]))
    assert np.array_equal(rep1.confusion, rep2.confusion)
    assert rep1.macro_f1 == rep2.macro_f1


def test_evaluate_runs_a_plain_forward_over_samples():
    net = biased_net([10.0, 0.0, -10.0])  # always predicts class 0
    rng = np.random.default_rng(1)
    samples = [FakeSample(rng.uniform(size=(3, 2)), label) for label in (0, 0, 1, 2)]
    rep = ev.evaluate(net, samples)
    assert rep.accuracy == pytest.approx(0.5)
    assert rep.recall[0] == 1.0


def test_chunked_inference_agrees_with_one_full_batch_forward():
    # 1100 windows cross two chunk boundaries and end in a partial chunk
    net = model.init_network(2, 4, 4, 5, 3, seed=3)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1100, 3, 2)) * 3.0
    labels = rng.integers(0, 3, size=1100)
    full = model.forward_batch(net, X).probs
    probs = model.predict_proba(net, X)
    assert probs.shape == full.shape
    np.testing.assert_allclose(probs, full, rtol=0, atol=1e-12)
    preds = ev.predict_classes(net, X)
    assert np.array_equal(preds, full.argmax(axis=1))
    assert ev.predict_classes(net, X[:0]).shape == (0,)
    loss, f1 = training._validate(
        net, [FakeSample(x, int(y)) for x, y in zip(X, labels)])
    assert loss == pytest.approx(training.nll_loss(full, labels), rel=1e-12)
    expected = ev.metrics_from_confusion(ev.confusion_matrix(labels, full.argmax(axis=1)))
    assert f1 == expected.macro_f1


def test_evaluate_rejects_empty_and_unlabeled_input():
    net = biased_net([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ev.evaluate(net, [])
    with pytest.raises(ValueError):
        ev.evaluate(net, [FakeSample(np.zeros((3, 2)), None)])


def test_horizon_breakdown_rows_and_order():
    cm = ev.confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
    rep = ev.metrics_from_confusion(cm)
    rows = ev.per_horizon_breakdown(rep)
    assert [r[0] for r in rows] == ["<=5", "<=15"]
    name, prec, rec, f1 = rows[0]
    assert (prec, rec) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3, abs=1e-3)


def test_horizon_breakdown_perfect_report_is_all_ones():
    rep = ev.metrics_from_confusion(np.diag([4, 4, 4]))
    for _, prec, rec, f1 in ev.per_horizon_breakdown(rep):
        assert (prec, rec, f1) == (1.0, 1.0, 1.0)


def test_metrics_file_round_trip_is_exact():
    cm = ev.confusion_matrix([0, 0, 1, 2, 1, 2, 2], [0, 1, 1, 2, 0, 2, 1])
    rep = ev.metrics_from_confusion(cm)
    text = ev.format_metrics(rep)
    back = ev.parse_metrics(text)
    assert np.array_equal(back.confusion, rep.confusion)
    assert back.accuracy == rep.accuracy
    assert back.macro_f1 == rep.macro_f1
    assert np.array_equal(back.f1, rep.f1)


def test_parse_metrics_rejects_garbage():
    good = ev.format_metrics(ev.metrics_from_confusion(np.diag([4, 4, 4]))).splitlines()
    no_confusion = [ln for ln in good if not ln.startswith("confusion=")]
    short = no_confusion + ["confusion=4,0,0,0,4"]
    for text, match in [("hello\n", "not a metrics file"),
                        ("\n".join(no_confusion), "no 'confusion' entry"),
                        ("\n".join(short), "'confusion' holds 5 counts, expected 9")]:
        with pytest.raises(ValueError, match=match):
            ev.parse_metrics(text)


def test_table_formatting_prints_one_decimal_percentages():
    rep = ev.metrics_from_confusion(np.diag([4, 4, 4]))
    table = ev.format_table(rep)
    assert "100.0" in table
    assert "<=5" in table and "<=15" in table
    assert "Precision" in table and "Recall" in table and "Macro-F1" in table
