#!/usr/bin/env bash
# End-to-end command-line workflow on a generated toy dataset:
#   idf -> build-index -> search (+rerank) -> hybrid -> evaluate
# Every artifact is a plain file you can inspect; rerun the script and the
# outputs are byte-identical.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

CIR="${CIR:-centroid-ir}"   # set CIR='python -m centroid_ir' if not installed

# -- toy inputs ---------------------------------------------------------------
cat > "$WORK/vectors.txt" <<'EOF'
6 3
apoptosis 1.0 0.0 0.1
caspase 0.9 0.1 0.0
kinase 0.1 1.0 0.0
phosphorylation 0.0 0.9 0.1
cell 0.5 0.5 0.3
pathway 0.4 0.6 0.3
EOF

cat > "$WORK/corpus.jsonl" <<'EOF'
{"id": "d1", "title": "Apoptosis signalling", "abstract": "caspase apoptosis pathway in the cell"}
{"id": "d2", "title": "Kinase cascades", "abstract": "kinase phosphorylation pathway cell cell"}
{"id": "d3", "title": "Cell survey", "abstract": "cell cell pathway"}
EOF

cat > "$WORK/questions.jsonl" <<'EOF'
{"id": "q1", "text": "Which caspase drives apoptosis?"}
{"id": "q2", "text": "How does kinase phosphorylation proceed?"}
EOF

cat > "$WORK/qrels.txt" <<'EOF'
q1 0 d1 1
q2 0 d2 1
EOF

# External baseline results arrive as a TREC run file; q2 is missing from
# it, which is what the hybrid step will repair.
cat > "$WORK/baseline.run" <<'EOF'
q1 Q0 d3 1 2.1 baseline
q1 Q0 d1 2 1.4 baseline
EOF

# -- corpus statistics and index ----------------------------------------------
$CIR idf --corpus "$WORK/corpus.jsonl" --out "$WORK/corpus.idf"

$CIR build-index \
    --embeddings "$WORK/vectors.txt" --corpus "$WORK/corpus.jsonl" \
    --mode centidf --idf-file "$WORK/corpus.idf" \
    --engine ann --trees 8 --leaf-cap 2 --seed 42 \
    --out "$WORK/index.crvi"

# -- our run: centidf + ann + rwmd_q rerank ------------------------------------
$CIR search \
    --index "$WORK/index.crvi" --embeddings "$WORK/vectors.txt" \
    --questions "$WORK/questions.jsonl" --k 3 \
    --rerank rwmd_q --out "$WORK/ours.run"
echo "--- ours.run"; cat "$WORK/ours.run"

# -- rerank the external baseline with the same distance -----------------------
$CIR rerank \
    --run "$WORK/baseline.run" --questions "$WORK/questions.jsonl" \
    --corpus "$WORK/corpus.jsonl" --embeddings "$WORK/vectors.txt" \
    --method rwmd_q --out "$WORK/baseline-rwmdq.run"

# -- hybrid: baseline where it answered, ours where it was silent ---------------
$CIR hybrid \
    --primary "$WORK/baseline-rwmdq.run" --fallback "$WORK/ours.run" \
    --out "$WORK/hybrid.run"
echo "--- hybrid.run (q2 falls back to our ranking)"; cat "$WORK/hybrid.run"

# -- score everything -----------------------------------------------------------
# The baseline answered only q1, so its MAP is capped at 0.5; the hybrid
# keeps the baseline's q1 list and repairs q2 with ours.
for run in ours baseline-rwmdq hybrid; do
    echo "--- evaluate $run"
    $CIR evaluate --run "$WORK/$run.run" --qrels "$WORK/qrels.txt" --ndcg-k 3 | head -4
done
