import random

import duckdb
import pytest

import ray.data

from ocr_sam_project_ray.ops.bpe_apply import (
    DEMO_MERGES, PUA_BASE, bpe_encode_stats, bpe_token_freqs,
    build_replace_table, encode_word,
    sql_bpe_encode_stats, sql_bpe_token_freqs, sql_replace_chain,
)

SF = "/root/testdata/sf0.001"


def merge_word(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """Merge leftmost non-overlapping occurrences of ``pair`` in one
    word's symbol sequence (reference BPE semantics)."""
    a, b = pair
    out: list[str] = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _sequential_apply(word: str, merges) -> list[str]:
    """Reference encode: merge_word applied in merge order."""
    syms = list(word)
    for m in merges:
        syms = merge_word(syms, m)
    return syms


def test_encode_matches_sequential_merge_word_demo():
    for w in ["the", "data", "join", "order", "stream", "spark",
              "aaaa", "thethe", "datadata", "x", ""]:
        assert encode_word(w, DEMO_MERGES) == _sequential_apply(
            w, DEMO_MERGES)


def test_encode_matches_sequential_fuzz():
    # random legal merge lists: each merge draws both elements from the
    # current symbol pool (chars + earlier outputs), like learning does
    rng = random.Random(4242)
    alphabet = "abcd"
    for _ in range(60):
        pool = list(alphabet)
        merges = []
        for _ in range(rng.randint(1, 10)):
            a, b = rng.choice(pool), rng.choice(pool)
            merges.append((a, b))
            pool.append(a + b)
        for _ in range(30):
            w = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 12)))
            assert encode_word(w, merges) == _sequential_apply(w, merges), (
                w, merges)


def test_encode_matches_sequential_learned_merges():
    texts = ["the data join order stream",
             "data data the customer filter",
             "join the stream order order data"] * 3
    # the first 8 merges a frequency-ranked BPE learner picks on texts
    merges = [("e", "r"), ("a", "t"), ("at", "a"), ("d", "ata"),
              ("d", "er"), ("h", "e"), ("o", "r"), ("or", "der")]
    for w in set(" ".join(texts).split()):
        assert encode_word(w, merges) == _sequential_apply(w, merges)


def test_duplicate_output_string_reuses_symbol():
    # (a,bc) and (ab,c) both yield "abc" — string-valued BPE treats them
    # as the SAME symbol; the packed table must reuse the char
    merges = [("b", "c"), ("a", "bc"), ("a", "b"), ("ab", "c")]
    table, decode = build_replace_table(merges)
    outs = [rep for _, rep in table]
    assert outs[1] == outs[3]  # same packed char for "abc"
    assert encode_word("abc", merges) == ["abc"]
    assert encode_word("abcabc", merges) == ["abc", "abc"]


def test_unreachable_merge_dropped():
    # "xy" is never produced by an earlier merge -> ("xy","z") can never
    # fire; sequential merge_word agrees (no symbol ever equals "xy")
    merges = [("a", "b"), ("xy", "z")]
    table, _ = build_replace_table(merges)
    assert len(table) == 1
    assert encode_word("xyz", merges) == ["x", "y", "z"]
    assert encode_word("xyz", merges) == _sequential_apply("xyz", merges)


def test_self_overlap_single_pass():
    merges = [("a", "a")]
    assert encode_word("aaaa", merges) == ["aa", "aa"]
    assert encode_word("aaa", merges) == ["aa", "a"]
    assert encode_word("aaaaa", merges) == ["aa", "aa", "a"]


def test_pua_guard_raises(ray_session):
    bad = ray.data.from_items(
        [{"doc_id": 0, "text": "ok " + chr(PUA_BASE)}])
    with pytest.raises(Exception, match="private-use"):
        bpe_encode_stats(bad, DEMO_MERGES).take_all()


def test_encode_stats_values(ray_session):
    docs = ray.data.from_items([
        {"doc_id": 1, "text": "the data join order"},
        {"doc_id": 2, "text": "   "},
        {"doc_id": 3, "text": "stream spark aaaa the the"},
    ])
    got = {r["doc_id"]: r for r in bpe_encode_stats(docs).take_all()}
    # the(1)+data(1)+join(1)+order(3 -> or d er)
    assert (got[1]["n_words"], got[1]["n_chars"], got[1]["n_tokens"]) == (
        4, 16, 6)
    # whitespace-only doc kept with zeros
    assert (got[2]["n_words"], got[2]["n_chars"], got[2]["n_tokens"]) == (
        0, 0, 0)
    # stream(5: st r e a m)+spark(4: s p ar k)+aaaa(4)+the+the
    assert (got[3]["n_words"], got[3]["n_chars"], got[3]["n_tokens"]) == (
        5, 21, 15)


def test_token_freqs_values(ray_session):
    docs = ray.data.from_items([
        {"doc_id": 1, "text": "the the data"},
        {"doc_id": 2, "text": "join the"},
    ])
    got = {r["token"]: r["freq"]
           for r in bpe_token_freqs(docs, num_partitions=2).take_all()}
    assert got == {"the": 3, "data": 1, "join": 1}


def test_sql_parity_on_corpus(ray_session):
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    stats = (bpe_encode_stats(docs).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    freqs = (bpe_token_freqs(docs, num_partitions=2).to_pandas()
             .sort_values("token").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{SF}/documents.parquet')")
    o_stats = con.execute(sql_bpe_encode_stats()).fetchdf()
    o_freqs = con.execute(sql_bpe_token_freqs()).fetchdf()
    assert stats.equals(o_stats)
    assert freqs.equals(o_freqs)
    # total realized tokens must tie out across the two contracts
    assert int(stats["n_tokens"].sum()) == int(freqs["freq"].sum())


def test_sql_chain_depth_guard():
    deep = [("a", "b")] + [(f"{'ab' * (i + 1)}", "c") for i in range(50)]
    with pytest.raises(ValueError, match="chain too deep"):
        sql_replace_chain("w", [("a", "b")] * 41)
    # dropped unreachable merges don't count toward the depth
    assert "replace" in sql_replace_chain("w", deep)


def test_pua_capacity_guard():
    merges = [("a", "b")] * 6401
    with pytest.raises(ValueError, match="6400"):
        build_replace_table(merges)
