import itertools
import math
import time

import numpy as np
import pytest

from propspan import crf as C
from propspan.tensor import Tensor, grad_check


def make_params(rng, n_labels, dtype=np.float64, zero=False):
    if zero:
        z = lambda shape: np.zeros(shape)
        return C.CrfParams(Tensor(z((n_labels, n_labels)), dtype=dtype),
                           Tensor(z(n_labels), dtype=dtype),
                           Tensor(z(n_labels), dtype=dtype))
    return C.CrfParams(
        Tensor(rng.normal(size=(n_labels, n_labels)), requires_grad=True, dtype=dtype),
        Tensor(rng.normal(size=n_labels), requires_grad=True, dtype=dtype),
        Tensor(rng.normal(size=n_labels), requires_grad=True, dtype=dtype))


def enumerate_paths(length, n_labels):
    return itertools.product(range(n_labels), repeat=length)


def brute_path_score(em, tr, st, en, path):
    s = st[path[0]] + en[path[-1]] + sum(em[t, path[t]] for t in range(len(path)))
    s += sum(tr[path[t - 1], path[t]] for t in range(1, len(path)))
    return float(s)


def brute_log_partition(em, tr, st, en):
    scores = [brute_path_score(em, tr, st, en, p)
              for p in enumerate_paths(em.shape[0], em.shape[1])]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(em, tr, st, en):
    best_path, best_score = None, -np.inf
    for p in enumerate_paths(em.shape[0], em.shape[1]):
        s = brute_path_score(em, tr, st, en, p)
        if s > best_score:  # strict: first (lexicographically lowest) max wins
            best_path, best_score = p, s
    return list(best_path), best_score


class TestPathScore:
    def test_length_one(self):
        params = make_params(None, 3, zero=True)
        em = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert C.path_score(em, [2], params).item() == pytest.approx(3.0)

    def test_length_two_hand_sum(self):
        rng = np.random.default_rng(0)
        em = rng.normal(size=(2, 2))
        tr = rng.normal(size=(2, 2))
        params = C.CrfParams(Tensor(tr), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        got = C.path_score(Tensor(em), [0, 1], params).item()
        assert got == pytest.approx(em[0, 0] + tr[0, 1] + em[1, 1], abs=1e-9)

    def test_all_zero(self):
        params = make_params(None, 2, zero=True)
        assert C.path_score(Tensor(np.zeros((3, 2))), [0, 1, 0], params).item() == 0.0

    def test_label_out_of_range(self):
        params = make_params(None, 2, zero=True)
        with pytest.raises(ValueError):
            C.path_score(Tensor(np.zeros((2, 2))), [0, 5], params)


class TestLogPartition:
    def test_length_one_direct(self):
        params = make_params(None, 2, zero=True)
        got = C.log_partition(Tensor(np.array([[1.0, 2.0]])), params).item()
        assert got == pytest.approx(np.logaddexp(1.0, 2.0), abs=1e-9)
        assert got == pytest.approx(2.3133, abs=5e-5)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            length, n_labels = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            em = rng.normal(size=(length, n_labels))
            params = make_params(rng, n_labels)
            got = C.log_partition(Tensor(em, dtype=np.float64), params).item()
            want = brute_log_partition(em, params.transitions.data,
                                       params.start_scores.data, params.end_scores.data)
            assert got == pytest.approx(want, abs=1e-6)

    def test_dominates_any_path_score(self):
        rng = np.random.default_rng(2)
        em = rng.normal(size=(4, 3))
        params = make_params(rng, 3)
        logz = C.log_partition(Tensor(em, dtype=np.float64), params).item()
        for path in enumerate_paths(4, 3):
            assert logz >= C.path_score(Tensor(em, dtype=np.float64),
                                        list(path), params).item()


class TestNll:
    def test_peaked_emissions_drive_nll_to_zero(self):
        em = np.full((5, 3), -20.0)
        gold = [0, 1, 2, 1, 0]
        for t, lab in enumerate(gold):
            em[t, lab] = 20.0
        params = make_params(None, 3, zero=True)
        assert C.nll(Tensor(em), gold, params).item() <= 0.01

    def test_uniform_single_position_is_ln3(self):
        params = make_params(None, 3, zero=True)
        got = C.nll(Tensor(np.zeros((1, 3))), [1], params).item()
        assert got == pytest.approx(math.log(3), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            em = rng.normal(size=(int(rng.integers(1, 6)), 3))
            params = make_params(rng, 3)
            tags = rng.integers(0, 3, size=em.shape[0]).tolist()
            assert C.nll(Tensor(em, dtype=np.float64), tags, params).item() >= -1e-9

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            length = int(rng.integers(1, 6))
            em = Tensor(rng.normal(size=(length, 3)), requires_grad=True,
                        dtype=np.float64)
            params = make_params(rng, 3)
            tags = rng.integers(0, 3, size=length).tolist()
            fn = lambda e, tr, st, en: C.nll(e, tags, C.CrfParams(tr, st, en))
            worst = max(worst, grad_check(
                fn, [em, params.transitions, params.start_scores, params.end_scores]))
        assert worst <= 1e-4

    def test_invalid_tags_under_constraint_rejected(self):
        params = make_params(None, 3, zero=True)
        with pytest.raises(ValueError):
            C.nll(Tensor(np.zeros((2, 3))), [0, 2], params,
                  constraint=C.ConstraintMask.bio())

    def test_shift_invariance_per_position(self):
        # adding c to every emission at one position shifts logZ and scores alike
        rng = np.random.default_rng(5)
        em = rng.normal(size=(4, 3))
        params = make_params(rng, 3)
        tags = [0, 1, 2, 0]
        before = C.nll(Tensor(em, dtype=np.float64), tags, params).item()
        em2 = em.copy()
        em2[2] += 7.5
        after = C.nll(Tensor(em2, dtype=np.float64), tags, params).item()
        assert after == pytest.approx(before, abs=1e-6)


class TestViterbi:
    def test_zero_transitions_per_position_argmax(self):
        rng = np.random.default_rng(6)
        em = rng.normal(size=(5, 4))
        params = make_params(None, 4, zero=True)
        path, _ = C.viterbi(em, params)
        assert path == em.argmax(axis=1).tolist()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            length, n_labels = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            em = rng.normal(size=(length, n_labels))
            params = make_params(rng, n_labels)
            path, score = C.viterbi(em, params)
            want_path, want_score = brute_viterbi(
                em, params.transitions.data, params.start_scores.data,
                params.end_scores.data)
            assert score == pytest.approx(want_score, abs=1e-6)
            assert path == want_path

    def test_constraint_forbids_O_to_I(self):
        rng = np.random.default_rng(8)
        mask = C.ConstraintMask.bio()
        for _ in range(100):
            em = rng.normal(0, 3, size=(6, 3))
            params = make_params(rng, 3)
            path, _ = C.viterbi(em, params, mask)
            for a, b in zip(path, path[1:]):
                assert not (a == 0 and b == 2)
            assert path[0] != 2

    def test_tie_break_lowest_label(self):
        params = make_params(None, 3, zero=True)
        path, _ = C.viterbi(np.zeros((4, 3)), params)
        assert path == [0, 0, 0, 0]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            C.viterbi(np.zeros((0, 3)), make_params(None, 3, zero=True))


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(10):
        length, n_labels = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        em = rng.normal(size=(length, n_labels))
        params = make_params(rng, n_labels)
        logz = C.log_partition(Tensor(em, dtype=np.float64), params).item()
        total = sum(math.exp(C.path_score(Tensor(em, dtype=np.float64),
                                          list(p), params).item() - logz)
                    for p in enumerate_paths(length, n_labels))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_batched_matches_single_sequence():
    rng = np.random.default_rng(10)
    lengths = np.array([3, 5, 1])
    n_labels = 3
    width = int(lengths.max())
    em = rng.normal(size=(3, width, n_labels))
    tags = rng.integers(0, n_labels, size=(3, width))
    params = make_params(rng, n_labels)
    tr, st, en = (params.transitions.data, params.start_scores.data,
                  params.end_scores.data)
    logz = C.log_partition_batch(Tensor(em, dtype=np.float64), lengths, params)
    gold = C.path_score_batch(Tensor(em, dtype=np.float64), tags, lengths, params)
    for i, ln in enumerate(lengths):
        assert logz.numpy()[i] == pytest.approx(
            brute_log_partition(em[i, :ln], tr, st, en), abs=1e-9)
        assert gold.numpy()[i] == pytest.approx(
            brute_path_score(em[i, :ln], tr, st, en, tags[i, :ln]), abs=1e-9)


def test_batched_nll_gradient():
    rng = np.random.default_rng(11)
    lengths = np.array([2, 4])
    em = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True, dtype=np.float64)
    tags = rng.integers(0, 3, size=(2, 4))
    params = make_params(rng, 3)
    fn = lambda e, tr, st, en: C.nll_batch(e, tags, lengths,
                                           C.CrfParams(tr, st, en), per_token=True)
    err = grad_check(fn, [em, params.transitions, params.start_scores,
                          params.end_scores])
    assert err <= 1e-4


def test_margin_loss_nonnegative_and_zero_on_viterbi_path():
    rng = np.random.default_rng(12)
    em = rng.normal(size=(5, 3))
    params = make_params(rng, 3)
    best, _ = C.viterbi(em, params)
    em_t = Tensor(em, dtype=np.float64)
    assert C.margin_loss(em_t, best, params).item() == pytest.approx(0.0, abs=1e-9)
    other = [(t + 1) % 3 for t in best]
    assert C.margin_loss(em_t, other, params).item() >= 0.0


def test_constraint_mask_validation():
    with pytest.raises(ValueError):
        C.ConstraintMask(np.ones((3, 3), dtype=bool), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        C.ConstraintMask(np.zeros((3, 3), dtype=bool),
                         np.array([True, False, False]))


def test_oracle_200_instances_under_10s():
    rng = np.random.default_rng(13)
    start = time.time()
    for _ in range(200):
        length, n_labels = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        em = rng.normal(size=(length, n_labels))
        params = make_params(rng, n_labels)
        logz = C.log_partition(Tensor(em, dtype=np.float64), params).item()
        want = brute_log_partition(em, params.transitions.data,
                                   params.start_scores.data, params.end_scores.data)
        assert logz == pytest.approx(want, abs=1e-6)
        path, score = C.viterbi(em, params)
        want_path, want_score = brute_viterbi(
            em, params.transitions.data, params.start_scores.data,
            params.end_scores.data)
        assert path == want_path and score == pytest.approx(want_score, abs=1e-6)
    assert time.time() - start < 10.0
