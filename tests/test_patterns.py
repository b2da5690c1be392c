"""Regex parity tests — cases anchored to the cited reference semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_sam_project_ray.functions import patterns as P
from ocr_sam_project_ray.functions.extract_core import (
    extract_basic_info, extract_entities,
)


def test_cedula():
    pat = P.PANAMA_PATTERNS["cedula"]
    assert pat.search("cedula 8-123-4567 registrada")
    assert pat.search("12-1-1")
    assert not pat.search("123-45678-90123")
    assert not pat.search("sin numeros")


def test_ruc():
    pat = P.PANAMA_PATTERNS["ruc"]
    assert pat.search("155-123456-22")
    assert pat.search("8-123-45")


def test_oficio_number():
    pat = P.PANAMA_PATTERNS["oficio_number"]
    assert pat.search("JE-1234-2025")
    assert pat.search("DJ-456")
    assert pat.search("No. 123")
    assert not pat.search("XX-99")


def test_phone_money_date():
    assert P.PANAMA_PATTERNS["phone"].search("tel 263-4455")
    assert P.PANAMA_PATTERNS["money"].search("monto B/. 1,500.00")
    assert P.PANAMA_PATTERNS["money"].search("B/.250")
    assert P.PANAMA_PATTERNS["date_es"].search("el 23 de mayo de 2025")
    assert not P.PANAMA_PATTERNS["date_es"].search("23/05/2025")


def test_person_row_reference_example():
    # the worked example from post_ocr_validator.py:106 / ocr_service.py prompt
    text = "MINI SUPER AYACUCHO/RICARDO QIU ZHANG | 8-947-865, D.V. 86 | 467.50"
    ents = extract_entities(text)
    assert len(ents) == 1
    e = ents[0]
    assert e["nombre_completo"] == "MINI SUPER AYACUCHO/RICARDO QIU ZHANG"
    assert e["numero_identificacion"] == "8-947-865, D.V. 86"
    assert e["monto"] == "467.50"
    assert e["monto_numerico"] == 467.50
    assert e["tipo_persona"] == "Extraído del texto"


def test_person_row_multiple_and_comma_amount():
    text = (
        "MARIA GOMEZ LOPEZ | 8-123-4567 | 1,234.50\n"
        "PEDRO RIOS | 2-456-7890, D.V. 11 | 99.00"
    )
    ents = extract_entities(text)
    assert [e["nombre_completo"] for e in ents] == ["MARIA GOMEZ LOPEZ", "PEDRO RIOS"]
    assert ents[0]["monto"] == "1234.50"  # commas stripped, reference behavior
    assert ents[0]["monto_numerico"] == 1234.50


def test_person_row_no_match_in_prose():
    assert extract_entities("la cedula 8-123-4567 por B/. 500.00") == []


def test_separator_lines():
    assert P.is_separator_line("SEPARADOR DE OFICIOS")
    assert P.is_separator_line("=====================")
    assert P.is_separator_line("--- DIVISOR ---")
    assert not P.is_separator_line("x" * 150 + " --- " + "y" * 60)  # too long
    assert not P.is_separator_line("linea normal de contenido")


def test_separator_probe_reduction_equals_full_list():
    """SEPARATOR_PROBES must be boolean-equal to SEPARATOR_PATTERNS: the two
    dropped patterns are superstrings of kept ones, so `any` is unchanged."""
    cases = [
        "separador de oficios",
        "SEPARADOR",
        "=" * 21,
        "===",
        "==",                       # too short for any pattern
        "--",
        "--- corte ---",
        "divisor de lote",
        "separad",                  # prefix only → False
        "linea normal",
        "",
        "ſeparador",                # long-s: both forms must agree (False)
    ]
    for c in cases:
        low = c.lower()
        full = any(p in low for p in P.SEPARATOR_PATTERNS)
        reduced = any(p in low for p in P.SEPARATOR_PROBES)
        assert full == reduced, c
        # and the two is_separator_line call forms agree
        assert P.is_separator_line(c) == P.is_separator_line(c, low)


def test_basic_info():
    info = extract_basic_info(
        "OFICIO: JE-881-2025\nJuzgado Primero de Circuito hace saber. "
        "Fechado el 12/05/2025."
    )
    assert info["numero_oficio"] == "JE-881-2025"
    assert info["autoridad"].startswith("Juzgado Primero")
    assert info["fecha_emision"] == "12/05/2025"


def test_basic_info_no_captures_garbage_tolerated():
    # reference mechanics: "no" inside words can capture (app.py:553-556);
    # we only assert determinism, not prettiness
    a = extract_basic_info("las normas vigentes")
    b = extract_basic_info("las normas vigentes")
    assert a == b


def test_should_have_persons():
    assert P.should_have_persons("tabla de Agente Económico con filas")
    assert P.should_have_persons("8-123-456 con monto 1,500.00")
    assert not P.should_have_persons("texto sin indicadores de tabla")


def _corpus_texts():
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    import glob as _glob

    import pyarrow.parquet as pq

    p = ensure_corpus("/root/testdata/sf0.001")
    texts = []
    for f in sorted(_glob.glob(p["golden_segments"]))[:2]:
        texts.extend(
            x for x in pq.read_table(f, columns=["extracted_text"])[
                "extracted_text"
            ].to_pylist() if x
        )
    assert len(texts) > 100
    return texts


_PAD = "texto relleno sin cifras aqui. " * 60          # >1024 chars, digitless
_SPAN_EDGE_CASES = [
    "8-123-456",                                    # match == whole text
    "B/. 1,500.00" + " x" * 600,                    # match at start
    "y " * 600 + "12 de mayo de 2024",              # match at end
    "1" + " z" * 300 + "2",
    "texto sin digitos " * 100,                     # no digit runs at all
    _PAD + "No." + " " * 300 + "123-2024" + _PAD,   # long ws run in prefix
    _PAD + "B/." + " " * 400 + "1,500.00" + _PAD,   # long ws run, money
    _PAD + "12" + " " * 300 + "de" + " " * 300
    + "mayo" + " " * 300 + "de" + " " * 300
    + "2024" + _PAD,                                # multi-gap date_es
    _PAD + "8-123-456 " + _PAD + " 7-88-999" + _PAD,  # far-apart matches
    ("8-1-1 " + _PAD) * 3,                          # repeated hits
    # digitless money: [\d,]+ accepts a run of commas
    "x" * 600 + " pago B/,a realizado " + "y" * 600,
    "8 " + "x" * 600 + " pago B/,,, realizado " + "y" * 600,
    "b/. ,",
    # prefixes and digits the candidate finder must place exactly
    "No5 no 6 No.7 NO. \t 8 JE-12-2024 dj-3 xNo 9 No.\u3000٣٤ ano 10",
    "٣-٤٥-٦ y ١٢ de mayo de ٢٠٢٤, tel 263-4455, 01/02/2023",
    "İNo. 12 ı 8-1-1\x00B/. 5 \x00 1-2-3",
    "12/05/2025 y 3-4-2024 123/4/2024 1/22/20245",
]


def test_extract_spans_equals_direct_corpus():
    """extract_spans, which tries each pattern only where a match can
    start, must be byte-identical to the direct six-pass scan — over real
    corpus segment texts plus adversarial edge cases (matches at text
    start/end, long whitespace runs, digitless money, Unicode digits)."""
    from ocr_sam_project_ray.functions.extract_core import (
        _extract_spans_direct,
        extract_spans,
    )

    for t in _corpus_texts() + _SPAN_EDGE_CASES:
        assert extract_spans(t) == _extract_spans_direct(t), t[:80]


def test_digitless_money_span_is_kept():
    from ocr_sam_project_ray.functions.extract_core import (
        annotate_texts,
        extract_spans,
    )

    t = "x" * 600 + " pago B/,a realizado " + "y" * 600
    want = [{"field": "money", "start": 606, "end": 609, "text": "B/,"}]
    assert extract_spans(t) == want
    assert annotate_texts([t])[0]["spans"] == want


def test_annotate_texts_equals_annotate_segment_corpus():
    """The batch kernel equals the per-text reference annotate_segment,
    whatever the batch cut: the whole corpus as one batch, small batches,
    and the edge cases mixed into a batch with corpus texts and empties."""
    from ocr_sam_project_ray.functions.extract_core import (
        annotate_segment,
        annotate_texts,
    )

    texts = _corpus_texts()
    want = [annotate_segment(t) for t in texts]
    assert annotate_texts(texts) == want
    got = []
    for i in range(0, len(texts), 7):
        got += annotate_texts(texts[i:i + 7])
    assert got == want
    mixed = [""] + _SPAN_EDGE_CASES[:8] + texts[:5] + [""] + _SPAN_EDGE_CASES[8:]
    assert annotate_texts(mixed) == [annotate_segment(t) for t in mixed]
    assert annotate_texts([]) == []


def test_person_row_skipped_without_triple_is_fast():
    """All-caps text with no digit triple: PERSON_ROW backtracks
    quadratically on it, and the kernel must not run it there."""
    import signal

    from ocr_sam_project_ray.functions.extract_core import annotate_texts

    def _timeout(signum, frame):
        raise TimeoutError("annotate_texts took more than 5 s")

    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        ann = annotate_texts(["NOMBRE PEREZ " * 2000])[0]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert ann["entities"] == [] and ann["should_have_persons"] is False


def test_candidate_finder_character_classes():
    """What the candidate finder in extract_core rests on, over every code
    point: ``\\d`` is str.isdecimal and ``\\s`` is str.isspace (str
    patterns are Unicode), and lower() keeps decimals and '-' and makes
    neither from any other character, so a text and its lower() have the
    same digit triples."""
    import re
    import sys

    digit, space = re.compile(r"\d"), re.compile(r"\s")
    for c in range(sys.maxunicode + 1):
        ch = chr(c)
        assert bool(digit.match(ch)) == ch.isdecimal(), hex(c)
        assert bool(space.match(ch)) == ch.isspace(), hex(c)
        low = ch.lower()
        if ch.isdecimal() or ch == "-":
            assert low == ch, hex(c)
        else:
            assert not any(x.isdecimal() or x == "-" for x in low), hex(c)


def test_prefix_letters_fold_only_to_their_ascii_pair():
    """Under re.IGNORECASE the letters of the oficio and money prefixes
    (JE-, DJ-, No, B/) and of the indicator leads in patterns.py match
    only their own ASCII upper/lower pair."""
    import re
    import sys

    for letter in "bjednoagtmplr":
        pat = re.compile(letter, re.IGNORECASE)
        hits = {c for c in range(sys.maxunicode + 1) if pat.match(chr(c))}
        assert hits == {ord(letter), ord(letter.upper())}, letter


def test_should_have_persons_guarded_equals_reference():
    """The necessary-literal guards must never change the boolean: equality
    vs the unguarded reference over corpus segment texts plus
    fold-adversarial strings (dotless 'ı' U+0131 and long-s 'ſ' U+017F fold
    to i/s under re.IGNORECASE, which is why guards avoid those letters)."""
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    import glob as _glob

    import pyarrow.parquet as pq

    p = ensure_corpus("/root/testdata/sf0.001")
    texts = []
    for f in sorted(_glob.glob(p["golden_segments"]))[:2]:
        texts.extend(
            x for x in pq.read_table(f, columns=["extracted_text"])[
                "extracted_text"
            ].to_pylist() if x
        )
    assert len(texts) > 100
    adversarial = [
        "",
        "texto sin indicadores",
        "AGENTE  ECONÓMICO listado",          # ws run + case
        "agente\teconómico",
        "lıſtado de clıentes aqui",           # fold-exotic listado…cliente
        "liſtado ... cliente",                # long-s only
        "LISTADO X CLIENTE",
        "R.U.C. 123",
        "r.u.c",
        "ru.c escondido",
        "C.I.P. 9",
        "cıp oculto",                          # dotless-i cip
        "mınıterıo",                           # junk that must stay False
        "tabla---persona",
        "N° Exp 55",
        "nº  exp",
        "monto  b/ 1.00",
        "| nombre |",
        "8-123-456 con 1,500.00",
        "8-123-456 sin decimales",
        "trıbunal superıor",                   # guards must not matter here
    ]
    for t in texts + adversarial:
        assert P.should_have_persons(t) == P.should_have_persons_reference(t), t


def test_extract_basic_info_guarded_equals_reference():
    """Authority-regex guards are necessary conditions — the guarded
    extractor must return the exact dict the plain first-match loop does."""
    from ocr_sam_project_ray.functions.extract_core import extract_basic_info
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    import glob as _glob

    import pyarrow.parquet as pq

    def reference(text):
        info = {"numero_oficio": None, "autoridad": None, "fecha_emision": None}
        m = P.BASIC_OFICIO.search(text)
        if m:
            info["numero_oficio"] = m.group(1)
        for pat in P.BASIC_AUTORIDAD:
            m = pat.search(text)
            if m:
                info["autoridad"] = m.group(1)
                break
        m = P.BASIC_DATE.search(text)
        if m:
            info["fecha_emision"] = m.group(1)
        return info

    p = ensure_corpus("/root/testdata/sf0.001")
    texts = []
    for f in sorted(_glob.glob(p["golden_segments"]))[:2]:
        texts.extend(
            x for x in pq.read_table(f, columns=["extracted_text"])[
                "extracted_text"
            ].to_pylist() if x
        )
    assert len(texts) > 100
    adversarial = [
        "",
        "JUZGADO primero de lo civil. Oficio: 12-2024 del 01/02/2024",
        "TRIBUNAL superior",
        "trıbunal de cuentas",                 # dotless-i: regex matches, guard 'bunal' holds
        "Ministerio público. fecha 3-4-2024",
        "mınısterıo publico",                  # dotless-ı: guard variant 'terıo' holds
        "MİNİSTERİO PÚBLICO",                  # Turkish İ: lower() → 'teri̇o' variant
        "mİnİsterİo de salud",                 # mixed-İ lowercase form
        "criterio y cementerio 1/1/2024",      # guard 'terio' passes, regex must say no
        "sin autoridad aqui 9/9/2024",
        "juzgado",                             # keyword with no trailing text
    ]
    for t in texts + adversarial:
        assert extract_basic_info(t) == reference(t), t


# --- property fuzz of the guard equalities (round 5) ----------------------
# The corpus + hand-picked adversarial cases above pin known hazards; this
# generator composes guard-adjacent tokens, fold-adversarial codepoints
# (ı, İ, ſ, K, ﬁ), digits, pipes and long runs into arbitrary documents so
# NEW hazard combinations are searched every run. An 8000-example run of
# the same property passed during round 5; CI keeps a lighter count.
_GUARD_FRAGMENTS = st.sampled_from([
    "monto", "b/", "B/", "|", "nombre", "NOMBRE", "n°", "Nº", "exp", "EXP",
    "agente", "económico", "empleador", "ruc", "R.U.C.", "c.i.p", "C.I.P",
    "cıp", "CİP", "tabla", "persona", "listado", "cliente", "juzgado",
    "JUZGADO", "tribunal", "TRIBUNAL", "ministerio", "MINISTERIO",
    "minısterıo", "MİNİSTERİO", "ſ", "ı", "İ", "K", "ﬁ", "oficio", "No.",
    "12345", "8-123-456", "B/. 1,234.56", "01/02/2023", "cédula",
    "separador", "SEPARADOR DE OFICIOS", "divisor", "---", "===", "=" * 25,
    " ", "\n", "\t", "x" * 300, "juzgado primero de lo civil", "del", ":",
])
_GUARD_DOCS = st.lists(_GUARD_FRAGMENTS, min_size=0, max_size=40).map("".join)


@settings(max_examples=150, deadline=None)
@given(_GUARD_DOCS)
def test_guard_equalities_fuzz(t):
    from ocr_sam_project_ray.functions.extract_core import extract_basic_info

    assert P.should_have_persons(t) == P.should_have_persons_reference(t)

    info_ref = {"numero_oficio": None, "autoridad": None, "fecha_emision": None}
    m = P.BASIC_OFICIO.search(t)
    if m:
        info_ref["numero_oficio"] = m.group(1)
    for pat in P.BASIC_AUTORIDAD:
        m = pat.search(t)
        if m:
            info_ref["autoridad"] = m.group(1)
            break
    m = P.BASIC_DATE.search(t)
    if m:
        info_ref["fecha_emision"] = m.group(1)
    assert extract_basic_info(t) == info_ref

    low = t.lower()
    t_lines, low_lines = t.split("\n"), low.split("\n")
    if len(t_lines) == len(low_lines):  # lower() never creates/removes \n
        for line, lline in zip(t_lines, low_lines):
            full = len(line.strip()) < P.SEPARATOR_MAX_LEN and any(
                p in line.lower() for p in P.SEPARATOR_PATTERNS
            )
            assert P.is_separator_line(line, lline) == full
