from ocr_sam_project_ray.functions import textops as T


def test_clean_text():
    assert T.clean_text("  hola   mundo  ") == "hola mundo"
    assert T.clean_text("a@#b") == "ab"
    assert T.clean_text(None) == ""


def test_clean_value():
    assert T.clean_value(None) == ""
    assert T.clean_value("null") == ""
    assert T.clean_value(5) == "5"
    assert T.clean_value(" x ") == "x"


def test_extract_numbers():
    assert T.extract_numbers("Oficio 123-2024, monto B/. 1,500.75") == [
        123, 2024, 1, 500, 75]
    assert T.extract_numbers("007 y 0") == [7, 0]
    assert T.extract_numbers("sin cifras") == []
    assert T.extract_numbers(None) == []


def test_normalize_company_name():
    assert T.normalize_company_name("ACME CORP") == "Acme"
    assert T.normalize_company_name("banco sol S.A.") == "Banco Sol"
    assert T.normalize_company_name("") == "No especificado"


def test_safe_string():
    assert T.safe_string(None) == ""
    assert T.safe_string("No especificado", default="d") == "d"
    assert T.safe_string("abcdef", max_length=5) == "ab..."
    assert T.safe_string("a\nb\rc\x00") == "a bc"  # \r stripped, \n → space


def test_safe_number_clamps():
    assert T.safe_number("B/. 1,500.00") == 1500.0
    assert T.safe_number("-5") == 0.0
    assert T.safe_number("9999999999") == 999999999.0
    assert T.safe_number("garbage", default=7.0) == 7.0
    assert T.safe_number(None) == 0.0


def test_safe_date():
    assert T.safe_date("2025-05-23") == "2025-05-23"
    assert T.safe_date("23/05/2025") == "1900-01-01"
    assert T.safe_date("") == "1900-01-01"


def test_parse_date_es_long_form():
    assert T.parse_date_es("23 de mayo de 2025") == "2025-05-23"
    assert T.parse_date_es("1 de enero de 2024") == "2024-01-01"


def test_parse_date_es_numeric_ladder():
    assert T.parse_date_es("23/05/2025") == "2025-05-23"
    assert T.parse_date_es("23-05-2025") == "2025-05-23"
    assert T.parse_date_es("23.05.2025") == "2025-05-23"
    assert T.parse_date_es("2025-05-23") == "2025-05-23"


def test_parse_date_es_sentinels():
    assert T.parse_date_es("no es fecha") is None
    assert T.parse_date_es("no es fecha", nullable=False) == "1900-01-01"
    assert T.parse_date_es("", nullable=False) == "1900-01-01"


def test_parse_monto():
    assert T.parse_monto("B/. 1,500.00") == 1500.0
    assert T.parse_monto("467.50") == 467.50
    assert T.parse_monto("junk") == 0.0


def test_split_name_flavor_a():
    # ocr_processor/app.py:499-503: tok0/tok1/tok2/tok3+
    s = T.split_name("JUAN CARLOS MARTINEZ ROJAS QUINTERO")
    assert s == {
        "nombre": "JUAN",
        "apellido_paterno": "CARLOS",
        "apellido_materno": "MARTINEZ",
        "nombre_segundo": "ROJAS QUINTERO",
    }
    assert T.split_name("ANA")["apellido_paterno"] == ""
    assert T.split_name("")["nombre"] == ""


def test_split_name_flavor_b():
    # crm_integrator/app.py:377-394: surnames LAST; middle → nombre_segundo
    s = T.split_name_b("JUAN CARLOS MARTINEZ ROJAS QUINTERO")
    assert s == {
        "nombre": "JUAN",
        "nombre_segundo": "CARLOS MARTINEZ",
        "apellido_paterno": "ROJAS",
        "apellido_materno": "QUINTERO",
    }
    assert T.split_name_b("ANA LOPEZ DIAZ") == {
        "nombre": "ANA", "nombre_segundo": "",
        "apellido_paterno": "LOPEZ", "apellido_materno": "DIAZ",
    }
    # the reference's 2-token quirk: tokens[-2] of a 2-list is tokens[0]
    s2 = T.split_name_b("JUAN PEREZ")
    assert s2["nombre"] == "JUAN"
    assert s2["apellido_paterno"] == "JUAN"
    assert s2["apellido_materno"] == ""
    assert T.split_name_b("ANA") == {
        "nombre": "ANA", "nombre_segundo": "",
        "apellido_paterno": "", "apellido_materno": "",
    }
    assert T.split_name_b("")["nombre"] == ""


def test_recover_json_embedded_dict():
    out = T.recover_json('Aquí está el análisis: {"tipo_documento": "escritura", "n": 3} fin.')
    assert out == {"tipo_documento": "escritura", "n": 3}


def test_recover_json_nested_braces_span_first_to_last():
    # first '{' .. last '}' spans the whole nested object
    out = T.recover_json('x {"a": {"b": 1}} y')
    assert out == {"a": {"b": 1}}


def test_recover_json_no_braces_fallback():
    out = T.recover_json("plain prose, no json at all")
    assert out["tipo_documento"] == "No identificado"
    assert out["nivel_confianza"] == "bajo"
    assert out["informacion_clave"] == {}
    assert out["raw_response"] == "plain prose, no json at all"
    assert "parsing_error" not in out


def test_recover_json_malformed_error_structure():
    out = T.recover_json('prefix {"a": 1,,} suffix')
    assert out["tipo_documento"] == "Error de parsing"
    assert out["nivel_confianza"] == "bajo"
    assert "parsing_error" in out and out["parsing_error"]
    assert out["raw_response"] == 'prefix {"a": 1,,} suffix'


def test_recover_json_non_dict_payload_and_none():
    # greedy first-to-last span may capture invalid middle text → error path,
    # but a scalar-parsing span that is not a dict takes the fallback path
    out = T.recover_json(None)
    assert out["tipo_documento"] == "No identificado"
    assert out["raw_response"] == ""


def test_coerce_structured():
    assert T.coerce_structured({"a": 1}) == {"a": 1}
    assert T.coerce_structured('{"a": 1}') == {"a": 1}
    assert T.coerce_structured("not json") == {"texto_completo": "not json"}
    # non-dict JSON payloads keep the stable dict return type
    assert T.coerce_structured("[1, 2]") == {"texto_completo": "[1, 2]"}
    assert T.coerce_structured(42) == {"texto_completo": "42"}
    assert T.coerce_structured(None) == {"texto_completo": "None"}
