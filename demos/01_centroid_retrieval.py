"""Centroid retrieval from scratch: tokens -> vectors -> ranked documents.

A document (or question) is represented by one dense vector: the average
of its word embeddings, optionally weighted by TF*IDF so that rare,
informative words dominate.  Retrieval then ranks documents by the cosine
between the question centroid and each document centroid.

This walkthrough builds a six-document toy corpus with a hand-made
embedding table and shows why the IDF-weighted variant ("centidf") beats
the plain average ("cent") when common words would otherwise drown the
informative ones.
"""

import numpy as np

from centroid_ir import (DocumentRecord, EmbeddingStore, Question,
                         build_corpus_index, retrieve, tokenize)

# ---------------------------------------------------------------------------
# A tiny embedding table.  Real deployments load one from a text file with
# load_embeddings(); here we hand-place words so the geometry is obvious:
# heart words point one way, neuron words another, and "study"/"patients"
# sit in the middle, carrying no topical signal.
# ---------------------------------------------------------------------------
vectors = {
    "cardiac":    [1.00, 0.05, 0.0],
    "heart":      [0.95, 0.10, 0.0],
    "infarction": [0.90, 0.00, 0.2],
    "neuron":     [0.05, 1.00, 0.0],
    "synapse":    [0.10, 0.95, 0.0],
    "dopamine":   [0.00, 0.90, 0.2],
    "study":      [0.45, 0.45, 0.6],
    "patients":   [0.50, 0.50, 0.5],
}
vocab = {word: row for row, word in enumerate(vectors)}
store = EmbeddingStore(vocab, np.array(list(vectors.values()), dtype=np.float32))

documents = [
    DocumentRecord("pmid1", "Cardiac outcomes", "study of heart infarction in patients"),
    DocumentRecord("pmid2", "Heart failure", "cardiac study study study patients patients"),
    DocumentRecord("pmid3", "Synapse formation", "neuron synapse dopamine study"),
    DocumentRecord("pmid4", "Dopamine signalling", "dopamine neuron patients study"),
    DocumentRecord("pmid5", "Methods survey", "study patients study patients study"),
    DocumentRecord("pmid6", "Infarction imaging", "infarction cardiac heart"),
]

question = Question("q1", "infarction in patients")
print("question:", question.text)
print("tokens:  ", tokenize(question.text, frozenset({"in"})))
print()

# ---------------------------------------------------------------------------
# Plain centroids: every token counts equally, so the filler word
# "patients" drags the question centroid toward the middle of the space.
# Watch pmid5, the methods survey with zero topical content, come within
# a hair of pmid6, the most on-topic document in the corpus.
# ---------------------------------------------------------------------------
index_cent = build_corpus_index(documents, store, mode="cent")
run = retrieve([question], index_cent, store, mode="cent", k=6)
print("cent ranking (plain average):")
for rank, (doc_id, score) in enumerate(run["q1"], start=1):
    print(f"  {rank}. {doc_id}  cosine={score:.4f}")

# ---------------------------------------------------------------------------
# IDF-weighted centroids: compute_idf counts document frequencies, so
# words present in most documents get weight near 0 and the informative
# words dominate both the question and the document averages.  pmid6
# pulls clear of the methods survey, and the off-topic neuro documents
# drop away.
# ---------------------------------------------------------------------------
index_idf = build_corpus_index(documents, store, mode="centidf", compute_idf=True)
run = retrieve([question], index_idf, store, mode="centidf", k=6)
print("\ncentidf ranking (TF*IDF-weighted average):")
for rank, (doc_id, score) in enumerate(run["q1"], start=1):
    print(f"  {rank}. {doc_id}  cosine={score:.4f}")

print("\nIDF weights learned from the corpus:")
for word in sorted(vectors):
    print(f"  {word:<11s} idf={store.idf[word]:.3f}")

# A question made only of stop words has a zero centroid and retrieves
# nothing at all; downstream, a fallback system can fill the gap (see the
# hybrid combiner in the retrieval module).
empty = retrieve([Question("q2", "the of and")], index_idf, store, mode="centidf")
print("\nstop-word-only question retrieves:", empty["q2"])
