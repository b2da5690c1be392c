"""Hypothesis property tests for the pure kernels: total functions never
raise, and structural invariants hold for arbitrary inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_sam_project_ray.functions import extract_core as core
from ocr_sam_project_ray.functions.textops import (
    parse_date_es, parse_monto, safe_number, safe_string, split_name,
)
from ocr_sam_project_ray.ops.textstats import (
    bpe_ish_token_count, lang_id, quality_row, rolling_fingerprint,
)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_date_es_total(s):
    out = parse_date_es(s, nullable=False)
    assert out is not None
    assert len(out) == 10 and out[4] == "-" and out[7] == "-"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=100))
def test_scalar_normalizers_total(s):
    assert isinstance(parse_monto(s), float)
    assert 0.0 <= safe_number(s) <= 999999999.0
    assert isinstance(safe_string(s, max_length=20), str)
    parts = split_name(s)
    assert set(parts) == {"nombre", "apellido_paterno", "apellido_materno",
                          "nombre_segundo"}


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_text_kernels_total(s):
    q = quality_row(s)
    assert q["n_tokens"] >= 0 and q["sum_token_len"] >= 0
    assert lang_id(s) in {"de", "en", "es", "fr", "und"}
    assert bpe_ish_token_count(s) >= 0
    assert rolling_fingerprint(s) >= 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_characters="\n"),
                        max_size=60), max_size=12))
def test_split_segments_partition_invariant(lines):
    """Every non-separator line of the input appears in exactly the segment
    order; separators never appear in any segment."""
    text = "\n".join(lines)
    segments = core.split_segments(text)
    joined = [ln for seg in segments for ln in seg.split("\n")]
    from ocr_sam_project_ray.functions.patterns import is_separator_line

    if not any(is_separator_line(ln) for ln in lines):
        # no separators → identity (single segment or empty)
        assert segments == ([text] if text else [])
    else:
        expected = [ln for ln in lines if not is_separator_line(ln)]
        # segments drop separator lines but preserve order of the rest —
        # modulo empty segments being dropped entirely
        assert [x for x in joined if x != ""] == [
            x for x in _expected_nonempty(lines, expected) if x != ""
        ]


def _expected_nonempty(lines, expected):
    # reproduce the reference's range semantics: lines before the first
    # separator, between separators, and after the last; empty ranges drop
    from ocr_sam_project_ray.functions.patterns import is_separator_line

    out = []
    current = []
    for ln in lines:
        if is_separator_line(ln):
            if current:
                out.extend(current)
            current = []
        else:
            current.append(ln)
    if current:
        out.extend(current)
    return out


# Alphabet biased toward span-pattern ingredients: digits (ASCII and
# Arabic-Indic), dashes, slashes, long whitespace runs, money/oficio
# prefixes (digitless "B/," too), date keywords, case-fold-exotic letters,
# the batch separator "\x00" and an all-caps name.
_span_chunks = st.sampled_from(
    ["1", "23", "4567", "-", "/", " ", "  ", " " * 40, " " * 300, "\n", ".",
     ",", ",,,", "No.", "No", "JE-", "DJ-", "B/.", "B/,", "b/", "de", "mayo",
     "x", "palabra ", "٣", "İ", "ı", "\x00", "|", "MARIA GOMEZ ",
     "texto sin cifras " * 20]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_span_chunks, min_size=1, max_size=60))
def test_extract_spans_equals_direct_fuzz(chunks):
    text = "".join(chunks)
    assert core.extract_spans(text) == core._extract_spans_direct(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_span_chunks, max_size=40).map("".join), min_size=1, max_size=6))
def test_annotate_texts_batch_equals_per_text_fuzz(texts):
    """The batch kernel maps the offsets of the joined batch back to each
    text: on mixed batches it must equal the per-text reference."""
    assert core.annotate_texts(texts) == [core.annotate_segment(t) for t in texts]
