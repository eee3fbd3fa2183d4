from __future__ import annotations  # require_fields reads annotations as strings

import math
from dataclasses import dataclass

import numpy as np
import pytest

from din.numerics import (
    cross_entropy_from_logits,
    dropout_scales,
    from_fields,
    glorot_uniform,
    make_rng,
    require_fields,
    softmax,
)
from din.selftest import check_cross_entropy, check_softmax_law


@dataclass
class Record:
    count: int
    rate: float
    sizes: tuple[int, ...] = (1,)
    limit: int | None = None
    label: str = ""


class TestRecordChecks:
    def test_valid_record_passes_as_given(self):
        record = Record(np.int64(3), 2, [4, 5], None, "x")
        require_fields(record, finite=True)
        assert record.rate == 2 and type(record.rate) is int  # checked, not coerced

    @pytest.mark.parametrize("field, value", [
        ("count", 2.0), ("count", True), ("count", "3"), ("count", None), ("rate", False),
        ("rate", "0.5"), ("rate", None), ("sizes", 3), ("sizes", "12"), ("sizes", [1, 2.5]),
        ("sizes", [True]), ("sizes", None), ("limit", 1.5),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        record = Record(1, 0.5)
        setattr(record, field, value)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            require_fields(record)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_numbers_fail_only_when_asked(self, value):
        record = Record(1, value)
        require_fields(record)
        with pytest.raises(ValueError, match="^rate must be finite"):
            require_fields(record, finite=True)

    def test_huge_integers_are_finite(self):
        require_fields(Record(10**400, 10**400, [10**400]), finite=True)

    @pytest.mark.parametrize("field", ["count", "rate", "sizes"])
    def test_bad_value_shows_in_one_short_line_however_deep(self, field):
        deep, wide, long = [], [], "x" * 10_000
        for _ in range(10_000):  # far deeper than repr() can recurse
            deep = [deep]
        for _ in range(7):  # 6**7 leaves: reprlib's default form is 345 KB
            wide = [wide] * 6
        for value in (deep, wide, [long], long, {long: long}):
            record = Record(1, 0.5)
            setattr(record, field, value)
            with pytest.raises(ValueError, match=f"^{field} must be") as raised:
                require_fields(record)
            assert len(str(raised.value)) < 300 and "\n" not in str(raised.value)

    def test_from_fields_takes_exactly_the_fields(self):
        d = {"count": 1, "rate": 0.5, "sizes": [2], "limit": 3, "label": "x"}
        assert from_fields(Record, d) == Record(1, 0.5, [2], 3, "x")
        assert from_fields(Record, {k: d[k] for k in ("count", "sizes", "limit", "label")},
                           rate=0.25) == Record(1, 0.25, [2], 3, "x")
        with pytest.raises(ValueError, match="Record: missing key 'limit'"):
            from_fields(Record, {k: v for k, v in d.items() if k != "limit"})
        with pytest.raises(ValueError, match="Record: unknown key 'extra'"):
            from_fields(Record, {**d, "extra": 0})
        with pytest.raises(ValueError, match="Record: unknown key 'rate'"):
            from_fields(Record, d, rate=0.25)


class TestRng:
    def test_same_seed_same_draws(self):
        a = make_rng(42).normal(size=100)
        b = make_rng(42).normal(size=100)
        assert np.array_equal(a, b)

    def test_keys_derive_distinct_streams(self):
        a = make_rng(42, 1, 0).normal(size=10)
        b = make_rng(42, 1, 1).normal(size=10)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)


class TestSoftmax:
    def test_uniform_under_equal_logits(self):
        assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)

    def test_stable_for_large_equal_logits(self):
        assert np.allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5], atol=1e-15)

    def test_log_integer_logits(self):
        # softmax(ln 1, ln 2, ln 3) = (1, 2, 3) / 6, derived by hand.
        got = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert np.abs(got - np.array([1.0, 2.0, 3.0]) / 6.0).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    @pytest.mark.parametrize("logits", [[np.inf, 0.0], [np.nan]])
    def test_non_finite_logits_are_a_floating_point_error(self, logits):
        with pytest.raises(FloatingPointError, match="finite logits"):
            softmax(np.array(logits))

    def test_shift_invariance(self):
        rng = make_rng(5)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 12)))
            shift = float(rng.normal()) * 100.0
            assert np.abs(softmax(v) - softmax(v + shift)).max() < 1e-12

    def test_matrix_rows_are_softmaxed_independently(self):
        rng = make_rng(9)
        logits = rng.normal(size=(4, 6)) * 10.0
        got = softmax(logits)
        for b in range(4):
            assert np.array_equal(got[b], softmax(logits[b]))
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 0)))
        with pytest.raises(ValueError):
            softmax(np.zeros((1, 2, 3)))

    def test_sums_to_one_even_at_magnitude_1000(self):
        check_softmax_law(make_rng(6), 200)


class TestCrossEntropy:
    def test_symmetric_two_class(self):
        loss, grad = cross_entropy_from_logits(np.zeros((2, 2)), [0, 1])
        assert np.abs(loss - math.log(2.0)).max() < 1e-15
        assert np.abs(grad - np.array([[-0.5, 0.5], [0.5, -0.5]])).max() < 1e-15

    def test_confident_correct(self):
        loss, grad = cross_entropy_from_logits(np.array([[10.0, -10.0]]), [0])
        assert abs(loss[0]) < 1e-8
        assert np.abs(grad).max() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros((1, 3)), [3])
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros((2, 3)), [0, -1])

    def test_out_of_range_error_names_only_the_first_bad_label(self):
        labels = [0, 1] * 15 + [2, 1, 3, 0, 2] * 2
        with pytest.raises(ValueError) as err:
            cross_entropy_from_logits(np.zeros((40, 2)), labels)
        assert str(err.value) == "label 2 out of range for 2 classes"

    def test_malformed_batches_rejected(self):
        for logits, labels in (
            (np.zeros(3), 0),  # a vector, not a B x C matrix
            (np.zeros((2, 3)), [0]),  # one label for two rows
            (np.zeros((1, 3)), [0.0]),  # float label
            (np.zeros((0, 3)), []),  # empty batch
        ):
            with pytest.raises(ValueError):
                cross_entropy_from_logits(logits, labels)

    def test_rows_are_independent(self):
        rng = make_rng(8)
        logits = rng.normal(size=(5, 4)) * 3.0
        labels = rng.integers(4, size=5)
        loss, grad = cross_entropy_from_logits(logits, labels)
        for b in range(5):
            one_loss, one_grad = cross_entropy_from_logits(logits[b : b + 1], labels[b : b + 1])
            assert one_loss[0] == loss[b]
            assert np.array_equal(one_grad[0], grad[b])

    def test_gradient_matches_finite_differences(self):
        check_cross_entropy(make_rng(7), 100)


class TestGlorot:
    def test_unit_limit_when_fans_are_three(self):
        w = glorot_uniform(make_rng(1), 3, 3, 40, 40)
        assert (np.abs(w) <= 1.0).all()

    def test_deterministic(self):
        a = glorot_uniform(make_rng(2), 5, 7, 5, 7)
        b = glorot_uniform(make_rng(2), 5, 7, 5, 7)
        assert np.array_equal(a, b)

    def test_sample_mean_near_zero(self):
        w = glorot_uniform(make_rng(3), 3, 3, 100, 100)
        assert abs(w.mean()) < 0.02

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            glorot_uniform(make_rng(0), 0, 3, 1, 1)


class TestDropout:
    def test_keep_one_is_identity_mask(self):
        mask = dropout_scales(make_rng(1).random(10), 1.0)
        assert np.array_equal(mask, np.ones(10))

    def test_elements_are_zero_or_inverse_keep(self):
        mask = dropout_scales(make_rng(2).random(1000), 0.3)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.3}

    def test_kept_fraction_concentrates(self):
        mask = dropout_scales(make_rng(3).random(10**5), 0.5)
        kept = (mask > 0).mean()
        assert abs(kept - 0.5) < 0.01

    def test_mask_mean_within_three_sigma(self):
        for p in (0.3, 0.5, 0.9):
            n = 10**5
            mask = dropout_scales(make_rng(4).random(n), p)
            bound = 3.0 * math.sqrt((1.0 - p) / (p * n))
            assert abs(mask.mean() - 1.0) <= bound

    def test_deterministic(self):
        a = dropout_scales(make_rng(5).random(100), 0.5)
        b = dropout_scales(make_rng(5).random(100), 0.5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("keep", [0.0, -0.1, 1.5])
    def test_invalid_keep_rejected(self, keep):
        with pytest.raises(ValueError):
            dropout_scales(make_rng(0).random(4), keep)
