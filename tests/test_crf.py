import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propspan import crf as C
from propspan import tensor as T
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


def composite_log_partition_batch(emissions, lengths, params):
    """The forward recursion as a chain of autograd ops: the fused op's oracle."""
    lengths = np.asarray(lengths, dtype=np.int64)
    bsz, max_len, n_labels = emissions.shape
    alpha = T.reshape(params.start_scores, (1, -1)) + emissions[:, 0, :]
    for t in range(1, int(lengths.max())):
        inner = (T.reshape(alpha, (bsz, n_labels, 1))
                 + T.reshape(params.transitions, (1, n_labels, n_labels)))
        nxt = T.logsumexp_t(inner, axis=1) + emissions[:, t, :]
        alive = (lengths > t)[:, None]
        alpha = T.where(alive, nxt, alpha)
    return T.logsumexp_t(alpha + T.reshape(params.end_scores, (1, -1)), axis=1)


def path_score(em, path, params):
    """Gold path score of one sequence: a batch-size-1 ``path_score_batch`` call."""
    em = np.asarray(em, dtype=np.float64)
    return C.path_score_batch(Tensor(em[None], dtype=np.float64), np.asarray([path]),
                              [len(em)], params).numpy()[0]


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
        p = p[::-1]  # visit paths ordered by their last label, then the one before, ...
        s = brute_path_score(em, tr, st, en, p)
        if s > best_score:  # strict: of equal scores the first visited wins, which
            best_path, best_score = p, s  # is the path a lowest-id backtrace picks
    return list(best_path), best_score


def loop_viterbi(em, params, constraint=None):
    """Viterbi one sequence at a time: the batched decoder's oracle."""
    em = np.asarray(em, dtype=np.float64)
    length, n_labels = em.shape
    trans = params.transitions.data.astype(np.float64).copy()
    start = params.start_scores.data.astype(np.float64).copy()
    end = params.end_scores.data.astype(np.float64)
    if constraint is not None:
        trans[~constraint.allowed_transitions] = C.NEG_INF
        start[~constraint.allowed_start] = C.NEG_INF
    score = start + em[0]
    back = []
    for t in range(1, length):
        cand = score[:, None] + trans  # [from, to]
        best_from = cand.argmax(axis=0)
        back.append(best_from)
        score = cand[best_from, np.arange(n_labels)] + em[t]
    final = score + end
    path = [int(final.argmax())]
    for best_from in reversed(back):
        path.append(int(best_from[path[-1]]))
    return path[::-1], float(final[path[0]])


class TestPathScore:
    def test_length_one(self):
        params = make_params(None, 3, zero=True)
        assert path_score([[1.0, 2.0, 3.0]], [2], params) == pytest.approx(3.0)

    def test_length_two_hand_sum(self):
        rng = np.random.default_rng(0)
        em = rng.normal(size=(2, 2))
        tr = rng.normal(size=(2, 2))
        params = C.CrfParams(Tensor(tr), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        got = path_score(em, [0, 1], params)
        assert got == pytest.approx(em[0, 0] + tr[0, 1] + em[1, 1], abs=1e-9)

    def test_all_zero(self):
        params = make_params(None, 2, zero=True)
        assert path_score(np.zeros((3, 2)), [0, 1, 0], params) == 0.0

    def test_label_out_of_range(self):
        params = make_params(None, 2, zero=True)
        with pytest.raises(ValueError):
            path_score(np.zeros((2, 2)), [0, 5], params)


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
            assert logz >= path_score(em, list(path), params)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_log_partition_minus_path_score(self, dtype):
        # nll is the batch-size-1 nll_batch; it keeps the value and all four
        # gradients of the difference it replaced, bit for bit
        rng = np.random.default_rng(21)
        for _ in range(40):
            length = int(rng.integers(1, 8))
            em = rng.normal(size=(length, 3))
            tags = rng.integers(0, 3, size=length)
            results = []
            for use_nll in (True, False):
                params = make_params(np.random.default_rng(int(tags.sum())), 3, dtype)
                e = Tensor(em, requires_grad=True, dtype=dtype)
                if use_nll:
                    loss = C.nll(e, tags, params)
                else:
                    gold = C.path_score_batch(T.reshape(e, (1, length, 3)), tags[None],
                                              [length], params)
                    loss = C.log_partition(e, params) - T.reshape(gold, ())
                loss.backward()
                results.append([loss.data, e.grad, params.transitions.grad,
                                params.start_scores.grad, params.end_scores.grad])
            for got, want in zip(*results):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_tag_shape_and_range_checked(self):
        params = make_params(None, 3, zero=True)
        with pytest.raises(ValueError, match="expected 2 tags"):
            C.nll(Tensor(np.zeros((2, 3))), [0, 1, 0], params)
        with pytest.raises(ValueError, match="out of range"):
            C.nll(Tensor(np.zeros((2, 3))), [0, 3], params)

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
        total = sum(math.exp(path_score(em, list(p), params) - logz)
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
    fn = lambda e, tr, st, en: C.nll_batch(e, tags, lengths, C.CrfParams(tr, st, en)).sum()
    err = grad_check(fn, [em, params.transitions, params.start_scores,
                          params.end_scores])
    assert err <= 1e-4


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


def _padded_case(rng, em_dtype):
    bsz, n_labels, width = (int(rng.integers(lo, hi)) for lo, hi in ((1, 6), (2, 5), (1, 9)))
    lengths = rng.integers(1, width + 1, size=bsz)
    lengths[rng.integers(bsz)] = 1
    em = rng.normal(0.0, 3.0, size=(bsz, width, n_labels)).astype(em_dtype)
    params = [rng.normal(size=shape).astype(np.float32)
              for shape in ((n_labels, n_labels), (n_labels,), (n_labels,))]
    tags = rng.integers(0, n_labels, size=(bsz, width))
    return em, lengths, params, tags


def _run(log_partition, em, lengths, params, tags, with_gold):
    """Values and the four gradients of a scalar built on ``log_partition``."""
    em_t = Tensor(em.copy(), requires_grad=True)
    crf = C.CrfParams(*[Tensor(p.copy(), requires_grad=True) for p in params])
    logz = log_partition(em_t, lengths, crf)
    if with_gold:  # the training loss: gold scores share transitions and emissions
        loss = (logz - C.path_score_batch(em_t, tags, lengths, crf)).sum() \
            * (1.0 / lengths.sum())
    else:
        loss = (logz * Tensor(np.linspace(0.3, 1.7, len(lengths)))).sum()
    loss.backward()
    leaves = [em_t, crf.transitions, crf.start_scores, crf.end_scores]
    # a batch of length-1 rows never reaches the composite's transitions
    return [logz.data] + [np.zeros_like(t.data) if t.grad is None else t.grad
                          for t in leaves]


@pytest.mark.parametrize("em_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_gold", [False, True])
def test_fused_log_partition_bit_identical_to_composite(em_dtype, with_gold):
    rng = np.random.default_rng(14)
    for _ in range(50):
        case = _padded_case(rng, em_dtype)
        want = _run(composite_log_partition_batch, *case, with_gold)
        got = _run(C.log_partition_batch, *case, with_gold)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_fused_log_partition_is_one_graph_node():
    rng = np.random.default_rng(15)
    em, lengths, params, _ = _padded_case(rng, np.float64)
    em_t = Tensor(em, requires_grad=True)
    crf = C.CrfParams(*[Tensor(p, requires_grad=True) for p in params])
    logz = C.log_partition_batch(em_t, lengths, crf)
    assert logz._parents == (em_t, crf.transitions, crf.start_scores, crf.end_scores)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_rows_match_oracle_and_dominate_viterbi(bsz, width, n_labels, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, width + 1, size=bsz)
    em = rng.normal(0.0, 2.0, size=(bsz, width, n_labels))
    params = make_params(rng, n_labels)
    logz = C.log_partition_batch(Tensor(em), lengths, params).numpy()
    want = composite_log_partition_batch(Tensor(em), lengths, params).numpy()
    for i, ln in enumerate(lengths):
        assert logz[i] == want[i]
        _, best = C.viterbi(em[i, :ln], params)
        assert logz[i] >= best - 1e-9


@pytest.mark.parametrize("fn", ["log_partition_batch", "path_score_batch"])
@pytest.mark.parametrize("lengths, match", [
    ([2, 0], "row 1: length 0"),     # an empty row used to add a phantom loss
    ([5, 2], "row 0: length 5"),     # past the padded width: used to be an IndexError
    ([4], r"shape \(1,\)"),          # used to broadcast over the batch
])
def test_bad_lengths_rejected(fn, lengths, match):
    params = make_params(np.random.default_rng(16), 3)
    em = Tensor(np.zeros((2, 4, 3)))
    args = (em, np.zeros((2, 4), dtype=np.int64)) if fn == "path_score_batch" else (em,)
    with pytest.raises(ValueError, match=match):
        getattr(C, fn)(*args, lengths, params)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(2, 4), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_viterbi_batch_rows_match_loop_and_brute_force(bsz, width, n_labels, rounded,
                                                        bio, seed):
    rng = np.random.default_rng(seed)
    constraint = None
    if bio:
        n_labels, constraint = 3, C.ConstraintMask.bio()
    lengths = rng.integers(1, width + 1, size=bsz)
    em = rng.normal(0.0, 2.0, size=(bsz, width, n_labels))
    params = make_params(rng, n_labels)
    if rounded:  # small integers: sums are exact and many paths tie
        em = np.round(em)
        for p in (params.transitions, params.start_scores, params.end_scores):
            p.data = np.round(p.data)
    paths, scores = C.viterbi_batch(em, lengths, params, constraint)
    assert scores.shape == (bsz,) and scores.dtype == np.float64
    tr, st_, en = (p.data.copy() for p in (params.transitions, params.start_scores,
                                            params.end_scores))
    if bio:
        tr[~constraint.allowed_transitions] = C.NEG_INF
        st_[~constraint.allowed_start] = C.NEG_INF
    for i, ln in enumerate(lengths):
        want_path, want_score = loop_viterbi(em[i, :ln], params, constraint)
        assert (paths[i], scores[i]) == (want_path, want_score)
        brute_path, brute_score = brute_viterbi(em[i, :ln], tr, st_, en)
        assert paths[i] == brute_path
        assert scores[i] == (brute_score if rounded else pytest.approx(brute_score, abs=1e-9))
        assert C.viterbi(em[i, :ln], params, constraint) == (paths[i], scores[i])


def test_viterbi_batch_reports_infeasible_row():
    em = np.zeros((2, 3, 3))
    em[1, :, :2] = C.NEG_INF  # row 1 can only use I, which cannot start
    with pytest.raises(ValueError, match="row 1: no feasible path"):
        C.viterbi_batch(em, [3, 2], make_params(None, 3, zero=True), C.ConstraintMask.bio())
