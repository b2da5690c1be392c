"""Large-scale training-data operations (first-class engine components):
text dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard), distributed
connected-components cluster resolution (``graph``), bounded-memory Bloom
membership (``bloom``), per-error-class retry/backoff (``retry``),
embedding similarity (brute-force + IVF-bucketed ANN, cosine near-dup),
text analysis (language-ID, quality scoring, token counting,
fingerprinting), mergeable sketches (``sketch``), multimodal
binary-column plumbing with real container sniffing (``multimodal``),
heavy hitters exact + count-min (``heavy``), DSIR importance weights
(``dsir``), mojibake repair (``mojibake``), BPE tokenizer fitting
(``bpe_learn``), inverted-index build (``invindex``), PMI collocations
(``pmi``), and crawl snapshot diffing (``snapshot_diff``).

Every module serves extraction, curation or retrieval and is reached from a
pipeline, a stage, the CLI or a driver query; a static import scan
(tests/test_entry_contract.py::test_ops_modules_reachable) fails on a module
nothing reaches."""
