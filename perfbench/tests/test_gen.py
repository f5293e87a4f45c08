import filecmp

import numpy as np
import pytest

from perfbench import gen


def _inputs(seed):
    rng = np.random.default_rng(seed)
    vocab = gen.make_vocab(rng, 300, 8, 6)
    docs = gen.make_docs(rng, 300, 6, 40, 20)
    questions = gen.make_questions(rng, docs, 10, 5)
    return vocab, docs, questions


def _arrays(seed):
    vocab, docs, questions = _inputs(seed)
    return [vocab.matrix, docs.indptr, docs.ids, questions.ids, questions.source]


def test_same_seed_gives_identical_arrays():
    for a, b in zip(_arrays(7), _arrays(7)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_different_seed_gives_different_arrays():
    assert any(a.tobytes() != b.tobytes() for a, b in zip(_arrays(7), _arrays(8)))


def _files(tmp_path, name, seed):
    return gen.write_files(tmp_path / name, *_inputs(seed))


def test_same_seed_gives_byte_identical_files(tmp_path):
    first, second = _files(tmp_path, "a", 3), _files(tmp_path, "b", 3)
    for key in first:
        assert filecmp.cmp(first[key], second[key], shallow=False), key


def test_different_seed_gives_different_files(tmp_path):
    first, second = _files(tmp_path, "a", 3), _files(tmp_path, "b", 4)
    assert not all(filecmp.cmp(first[k], second[k], shallow=False) for k in first)


def test_questions_come_from_their_source_document():
    _, docs, questions = _inputs(5)
    for ids, src in zip(questions.ids, questions.source):
        assert set(ids) <= set(docs.ids[docs.indptr[src]:docs.indptr[src + 1]])


def test_weighted_rows_match_a_per_document_loop():
    vocab, docs, _ = _inputs(9)
    weights = np.random.default_rng(0).random(300)
    rows = gen.weighted_rows(vocab, docs, weights, chunk=7)
    for i in range(docs.indptr.size - 1):
        ids = docs.ids[docs.indptr[i]:docs.indptr[i + 1]]
        want = (vocab.matrix[ids].astype(np.float64) * weights[ids, None]).sum(0) / weights[ids].sum()
        np.testing.assert_allclose(rows[i], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_docs", [1, 5])
def test_idf_is_log_ratio_of_document_frequency(n_docs):
    docs = gen.Docs(indptr=np.arange(n_docs + 1) * 2, ids=np.zeros(2 * n_docs, dtype=np.int32))
    idf = gen.idf_of(docs, 3)
    assert idf[0] == 0.0 and idf[1] == idf[2] == pytest.approx(np.log(n_docs))
