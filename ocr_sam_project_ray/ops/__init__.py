"""Large-scale training-data operations (first-class engine components):
text dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard), distributed
connected-components cluster resolution (``graph``), bounded-memory Bloom
membership (``bloom``), per-error-class retry/backoff (``retry``),
embedding similarity (brute-force + IVF-bucketed ANN, cosine near-dup),
text analysis (language-ID, quality scoring, token counting,
fingerprinting), multimodal binary-column plumbing with real container
sniffing (``multimodal``), DSIR importance weights (``dsir``),
mojibake repair (``mojibake``), BPE encoding with a fixed merge list
(``bpe_apply``), inverted-index build and phrase search (``invindex``).

Every module serves extraction, curation or retrieval and is reached from a
pipeline, the CLI or a driver query; a static import scan
(tests/test_entry_contract.py::test_ops_modules_reachable) fails on a module
nothing reaches."""
