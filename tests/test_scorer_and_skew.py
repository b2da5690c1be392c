import pyarrow as pa

from ocr_sam_project_ray.stages.scorer import (
    KEYWORDS, SUMMARY_CHARS, score_batch, score_one,
)

SF = "/root/testdata/sf0.001"


def test_scorer_deterministic_and_correct():
    batch = pa.table(
        {
            "extracted_text": pa.array(
                [
                    "Se decreta el   embargo y el secuestro de bienes. "
                    "Cedula 8-123-4567 por B/. 1,500.00.",
                    "",
                ]
            )
        }
    )
    out = score_batch(batch)
    assert out["summary"][0].as_py().startswith("Se decreta el embargo")
    assert out["risk_keyword_count"][0].as_py() == 2
    assert out["legal_density_ppm"][0].as_py() > 0
    assert out["risk_keyword_count"][1].as_py() == 0
    assert out["legal_density_ppm"][1].as_py() == 0
    out2 = score_batch(batch)
    assert out.equals(out2)


def test_scorer_summary_truncates():
    long = "palabra " * 100
    out = score_batch(pa.table({"extracted_text": pa.array([long])}))
    assert len(out["summary"][0].as_py()) == SUMMARY_CHARS


def test_poison_row_captured_not_fatal(monkeypatch):
    """A payload that makes the extractor raise must become an empty-text
    row, not a task failure (error-result parity, ocr_processor/app.py:120-138)."""
    import pyarrow as pa

    from ocr_sam_project_ray.stages import extract as ex

    real = ex.extract_main_text

    def bomb(payload):
        if b"BOOM" in payload:
            raise RuntimeError("synthetic parser crash")
        return real(payload)

    monkeypatch.setattr(ex, "extract_main_text", bomb)
    batch = pa.table(
        {
            "url": pa.array(["u1", "u2"]),
            "warc_ts": pa.array([1, 2], pa.int64()),
            "lang": pa.array(["es", "es"]),
            "doc_bytes": pa.array([10, 10], pa.int64()),
            "size_bucket": pa.array([3, 3], pa.int32()),
            "valid": pa.array([True, True]),
            "error": pa.array(["", ""]),
            "html": pa.array([b"<p>BOOM</p>", b"<!DOCTYPE html><html><body><p>"
                              + b"texto suficientemente largo para ser contenido bueno."
                              + b"</p></body></html>"], pa.binary()),
        }
    )
    out = ex.extract_batch(batch)
    assert out["url"].to_pylist() == ["u1", "u2"]
    assert out["extracted_text"][0].as_py() == ""      # poison captured
    assert "contenido" in out["extracted_text"][1].as_py()


def test_validator_size_boundaries():
    import pyarrow as pa

    from ocr_sam_project_ray.stages.validate import (
        MIN_HTML_BYTES, validate_batch,
    )

    def page(body: bytes) -> bytes:
        return b"<!DOCTYPE html><html><body>" + body + b"</body></html>"

    base = page(b"")
    pad = MIN_HTML_BYTES - len(base)
    exact_min = page(b"x" * pad)          # exactly MIN bytes
    one_under = page(b"x" * (pad - 1))    # MIN - 1
    assert len(exact_min) == MIN_HTML_BYTES
    batch = pa.table(
        {
            "url": pa.array(["a", "b", "c"]),
            "html": pa.array([exact_min, one_under,
                              b"%PDF-1.4\n@10,1:x\n%%EOF" + b"%" * MIN_HTML_BYTES],
                             pa.binary()),
        }
    )
    out = validate_batch(batch)
    assert out["valid"].to_pylist() == [True, False, True]
    assert "too small" in out["error"][1].as_py()


def test_scorer_fast_kernel_equals_reference_form():
    """The round-5 scorer kernel (bounded-prefix summary collapse +
    extract_spans windowed density) must be value-identical to the plain
    form: full-text regex whitespace collapse + six full finditer passes."""
    import re

    from ocr_sam_project_ray.functions.patterns import PANAMA_PATTERNS

    ws = re.compile(r"\s+")

    def reference(text):
        text = text or ""
        collapsed = ws.sub(" ", text).strip()
        summary = collapsed[:SUMMARY_CHARS]
        risk = len(KEYWORDS.findall(text.lower()))
        covered = 0
        for pat in PANAMA_PATTERNS.values():
            covered += sum(m.end() - m.start() for m in pat.finditer(text))
        density = int(covered * 1_000_000 / len(text)) if text else 0
        return summary, risk, density

    texts = [x for x in _corpus_texts() if x]
    assert len(texts) > 50
    for t in texts + _ADVERSARIAL:
        assert score_one(t) == reference(t), repr(t)[:80]


def test_score_batch_equals_score_one():
    """score_batch takes the spans of its whole batch from one scan; the
    scores equal score_one's, which scans each text on its own."""
    from test_patterns import _SPAN_EDGE_CASES

    texts = _corpus_texts() + _ADVERSARIAL + _SPAN_EDGE_CASES
    for batch in (texts, texts[:7], _SPAN_EDGE_CASES + ["", None], [None], []):
        out = score_batch(pa.table({"extracted_text": pa.array(batch, pa.string())}))
        assert list(zip(
            out["summary"].to_pylist(),
            out["risk_keyword_count"].to_pylist(),
            out["legal_density_ppm"].to_pylist(),
        )) == [score_one(t) for t in batch]


_ADVERSARIAL = [
    "", "   ", " \n\t " * 500,            # whitespace-dense: escalation path
    "a" * 50, "x" * 10_000,               # digit-free long text
    "w " * 2_000,                         # summary needs >1 escalation? no — wide prefix
    "B/. 1,234.56 " * 100,                # span-dense
    " " * 300 + "hola " * 100,            # leading-whitespace strip
    None,
]


def _corpus_texts():
    import glob as _glob

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    texts = []
    for f in sorted(_glob.glob(ensure_corpus(SF)["golden_segments"])):
        texts.extend(pq.read_table(f, columns=["extracted_text"])["extracted_text"].to_pylist())
    return texts

