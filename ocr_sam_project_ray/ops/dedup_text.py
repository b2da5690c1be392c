"""Text deduplication family over a (id, text) table:

- exact:          md5 fingerprint → hash-partition → keep min id per digest
- n-gram Jaccard: exact word-3-gram Jaccard over all pairs of a bounded id
                  subset (the verification kernel; SQL-oracle-checkable)
- MinHash + LSH:  64-perm signatures → banded LSH buckets → candidate pairs
                  scored by signature agreement (the scale path; candidates
                  only ever co-group per bucket — no all-pairs anywhere)
- SimHash:        64-bit token-hash aggregate; near-dup = small Hamming
                  distance within LSH-style prefix buckets

Hashing is fully vectorized (round-3 rework of the round-2 per-shingle
``hashlib.md5`` kernel, ~10-50× on the near-dup chain's hot stage):
each WORD is crc32-hashed once through a per-worker cache (Zipfian
vocabulary → cache hits dominate), n-gram hashes are a polynomial combine
of the word-hash array with uint64 wraparound, signatures come from one
``np.minimum.reduceat`` over the batch's concatenated shingle array, and
band keys are a vectorized splitmix64 finalize. All constants are fixed —
never builtin ``hash`` (salted per process) — so outputs are reproducible
across processes and runs.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Optional

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data import Dataset

from ..context import configure_data_context

_MERSENNE = (1 << 61) - 1
_N_PERM = 64
_BANDS = 16  # 16 bands × 4 rows
_ROWS = _N_PERM // _BANDS

# fixed universal-hash constants (deterministic, no RNG at import)
_A = np.array(
    [(0x9E3779B97F4A7C15 * (i + 1)) % _MERSENNE or 1 for i in range(_N_PERM)],
    dtype=np.uint64,
)
_B = np.array(
    [(0xBF58476D1CE4E5B9 * (i + 7)) % _MERSENNE for i in range(_N_PERM)],
    dtype=np.uint64,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_POLY = np.uint64(0xC2B2AE3D27D4EB4F)  # polynomial gram-combine multiplier


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (same mixer as ops/bloom.py)."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


# per-worker word→uint64 cache; vocabulary is Zipfian so hits dominate and
# the expensive path (two crc32 calls over the word's bytes) runs once per
# distinct word per worker. Bounded to keep long-lived workers flat.
_WORD_CACHE: dict[str, int] = {}
_WORD_CACHE_MAX = 1_000_000


def _hash_words(words: list[str]) -> np.ndarray:
    """uint64 hash per word via the cache (crc32 double-hash → 64 bits)."""
    if len(_WORD_CACHE) > _WORD_CACHE_MAX:
        _WORD_CACHE.clear()
    cache = _WORD_CACHE
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            b = w.encode("utf-8")
            h = zlib.crc32(b) | (zlib.crc32(b, 0x9E3779B1) << 32)
            cache[w] = h
        out[i] = h
    return out


def word_ngrams(text: str, n: int = 3) -> set[tuple[str, ...]]:
    """Docs with fewer than ``n`` words have NO grams (empty set) — matching
    the SQL oracle's generate_series expression, which yields an empty list
    for them; such docs can never form a near-dup pair."""
    words = (text or "").split()
    if len(words) < n:
        return set()
    return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}


def jaccard(a: set, b: set) -> float:
    """jaccard(∅, ∅) = 0.0 (the SQL oracle's 0/0 → NULL excludes the pair;
    gram-less docs therefore never pair — pinned by the short-doc tests)."""
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Sorted unique uint64 hash per word-n-gram — vectorized polynomial
    combine over the word-hash array (no per-shingle string building or
    digesting). < n words → empty (same contract as word_ngrams)."""
    words = (text or "").split()
    if len(words) < n:
        return np.zeros(0, dtype=np.uint64)
    w = _hash_words(words)
    length = len(words) - n + 1
    with np.errstate(over="ignore"):
        g = w[:length].copy()
        for k in range(1, n):
            g = g * _POLY + w[k : length + k]
    return np.unique(_splitmix64(g))


# cap the (64 × shingles) permutation matrix at ~32 MB per slab
_SIG_CHUNK_SHINGLES = 65536


def _sig_matrix(hash_arrays: list[np.ndarray]) -> np.ndarray:
    """(n_docs, 64) uint64 signature matrix for NON-EMPTY shingle arrays:
    one (perm × shingle) multiply + ``np.minimum.reduceat`` per bounded
    slab instead of a per-doc Python loop."""
    if not hash_arrays:
        return np.zeros((0, _N_PERM), dtype=np.uint64)
    sigs = np.empty((len(hash_arrays), _N_PERM), dtype=np.uint64)
    i = 0
    while i < len(hash_arrays):
        j, total = i, 0
        while j < len(hash_arrays) and (total == 0 or total + hash_arrays[j].size <= _SIG_CHUNK_SHINGLES):
            total += hash_arrays[j].size
            j += 1
        h = np.concatenate(hash_arrays[i:j])
        with np.errstate(over="ignore"):
            y = h[None, :] * _A[:, None] + _B[:, None]
            # y % (2^61−1) via Mersenne folding — BIT-IDENTICAL to the
            # `%` operator for any uint64 y (y = q·2^61 + r with q ≤ 7,
            # 2^61 ≡ 1 mod M → y ≡ q + r, one conditional subtract
            # suffices since q + r < 2M), and ~5× faster than the
            # hardware unsigned modulo that dominated this stage's
            # profile (55% of the LSH signature wall).
            mm = np.uint64(_MERSENNE)
            vals = (y & mm) + (y >> np.uint64(61))
            vals = np.where(vals >= mm, vals - mm, vals)
        sizes = np.array([a.size for a in hash_arrays[i:j]], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        sigs[i:j] = np.minimum.reduceat(vals, starts, axis=1).T
        i = j
    return sigs


def minhash_signature(text: str, n: int = 3) -> np.ndarray:
    """64-perm MinHash signature (uint64[64]); empty text → all MAX."""
    h = shingle_hashes(text, n)
    if h.size == 0:
        return np.full(_N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    return _sig_matrix([h])[0]


def _band_key_matrix(sigs: np.ndarray) -> np.ndarray:
    """(n_docs, 16) int64 band keys: polynomial combine of each band's 4
    signature values + the band index, splitmix-finalized. int64 keys hash-
    partition cheaper than the round-2 md5-hex strings."""
    n = len(sigs)
    r = sigs.reshape(n, _BANDS, _ROWS)
    with np.errstate(over="ignore"):
        g = r[:, :, 0].copy()
        for k in range(1, _ROWS):
            g = g * _POLY + r[:, :, k]
        g = _splitmix64(g ^ (np.arange(_BANDS, dtype=np.uint64)[None, :] * _GOLDEN))
    return g.view(np.int64)


def simhash64(text: str) -> int:
    toks = (text or "").split()
    if not toks:
        return 0
    hashes = _splitmix64(_hash_words(toks))
    # (tokens × 64) bit matrix in one vectorized shift — no per-bit Python
    bits = (hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    weights = (acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
    return int(weights.sum())


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ---------------------------------------------------------------------------
# Dataset-level operators
# ---------------------------------------------------------------------------

def _keep_min_id_per_key(batch: pa.Table, key: str, id_col: str) -> pa.Table:
    import pyarrow.compute as pc

    if len(batch) <= 1:
        return batch
    idx = pc.sort_indices(batch, sort_keys=[(key, "ascending"), (id_col, "ascending")])
    batch = batch.take(idx)
    keys = batch[key].combine_chunks()
    first = np.empty(len(batch), dtype=bool)
    first[0] = True
    first[1:] = pc.not_equal(keys.slice(1), keys.slice(0, len(batch) - 1)).to_numpy(
        zero_copy_only=False
    )
    return batch.filter(pa.array(first))


def dedup_exact(
    ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
    num_partitions: int = 8,
) -> Dataset:
    """Exact content dedup: md5(text) → hash repartition → keep min id.
    Same shuffle shape as the url dedup (stages/dedup.py) but keyed on the
    content digest, so byte-identical documents collapse across the corpus."""
    configure_data_context()

    def add_fp(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch[text_col].to_pylist()
        ]
        return batch.append_column("content_fp", pa.array(fps, pa.string()))

    ds = ds.map_batches(add_fp, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: _keep_min_id_per_key(b, "content_fp", id_col),
        batch_format="pyarrow",
    )  # local combiner
    ds = ds.repartition(num_blocks=num_partitions, keys=["content_fp"])
    return ds.map_batches(
        lambda b: _keep_min_id_per_key(b, "content_fp", id_col),
        batch_format="pyarrow",
        batch_size=None,
    )


def ngram_jaccard_pairs(
    ds: Dataset, threshold: float, id_col: str = "doc_id",
    text_col: str = "text", max_id: Optional[int] = None,
) -> Dataset:
    """EXACT all-pairs word-3-gram Jaccard over a bounded subset
    (``id < max_id``) — the verification kernel for near-dup work and the
    SQL-oracle-checkable variant. The bound is the documented scale guard:
    unbounded all-pairs is quadratic; at scale use minhash_lsh_pairs and
    feed only candidate pairs through this exact check."""
    import pyarrow.compute as pc

    if max_id is not None:
        ds = ds.map_batches(
            lambda b: b.filter(pc.less(b[id_col], max_id)), batch_format="pyarrow"
        )
    # bounded subset → single partition all-pairs (vectorized set math)
    ds = ds.repartition(1)

    def pairs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        sets = [word_ngrams(t) for t in batch[text_col].to_pylist()]
        order = np.argsort(np.asarray(ids))
        out_a, out_b, out_j = [], [], []
        for x in range(len(order)):
            i = order[x]
            for y in range(x + 1, len(order)):
                j = order[y]
                jac = jaccard(sets[i], sets[j])
                if jac >= threshold:
                    out_a.append(ids[i])
                    out_b.append(ids[j])
                    # ppm int via floor: identical IEEE division on both
                    # sides → exact integer comparison with the SQL oracle
                    out_j.append(int(jac * 1e6))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "jaccard_ppm": pa.array(out_j, pa.int64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)


MAX_LSH_BUCKET = 200  # hot-bucket guard (see minhash_lsh_pairs docstring)


@ray.remote(num_cpus=0)
class LshDropStats:
    """Zero-CPU counter actor recording what the hot-bucket guard skipped —
    the no-silent-caps rule: recall loss from dropped buckets must be
    OBSERVABLE, not invisible. One fire-and-forget call per batch that
    actually skipped something (the common case makes no calls at all)."""

    def __init__(self):
        self.skipped_buckets = 0
        self.skipped_members = 0

    def add(self, buckets: int, members: int) -> None:
        self.skipped_buckets += buckets
        self.skipped_members += members

    def get(self) -> dict:
        return {
            "skipped_buckets": self.skipped_buckets,
            "skipped_members": self.skipped_members,
        }


def minhash_lsh_pairs(
    ds: Dataset, threshold: float = 0.7, id_col: str = "doc_id",
    text_col: str = "text", num_partitions: int = 8,
    max_bucket: int = MAX_LSH_BUCKET,
    drop_stats: Optional["ray.actor.ActorHandle"] = None,
    band_sig_bytes: int = 1,
) -> Dataset:
    """MinHash+LSH near-dup candidates at scale:
    signature per doc (batched ``np.minimum.reduceat``) → explode to
    (band_key:int64, id, sig) rows — sig is the LOW BYTE of each perm
    (64 B/doc; see the inflation note in ``sigs``) → hash repartition on
    band_key → within-bucket pairs scored by byte agreement as one
    (m, m, 64) matrix comparison (est. Jaccard = matching bytes / 64, an
    upper-bound estimate: inflated by ~(1−j)/256, never deflated — the
    candidate gate keeps a superset and exact verification downstream is
    unaffected) → global pair dedup. Only same-bucket docs are compared.

    Skew guards (hot keys are THE failure mode of LSH dedup at scale):
    - empty/shingle-less docs emit NO bands (their all-MAX signatures would
      otherwise all collide into one giant bucket — run dedup_exact first
      to collapse byte-identical docs);
    - buckets larger than ``max_bucket`` are skipped entirely instead of
      generating O(n²) pairs — a bucket that hot is a degenerate-content
      cluster (boilerplate), not a near-dup candidate set; handle those
      with exact dedup on a normalized fingerprint. Skips are COUNTED:
      pass ``drop_stats`` (a ``LshDropStats`` handle) and read
      ``ray.get(drop_stats.get.remote())`` after consuming the result —
      (skipped_buckets, skipped_members) quantify the recall cap."""
    if band_sig_bytes not in (1, 8):
        raise ValueError(f"band_sig_bytes must be 1 or 8, got {band_sig_bytes}")
    configure_data_context()
    # The estimate column's NAME declares which contract produced it:
    # 'est_jaccard' is the unbiased 8-byte perm agreement, 'est_jaccard_u8'
    # the low-byte agreement (upward-biased ~(1-j)/256) — so a caller
    # gating on the estimate alone cannot mistake the biased default for
    # the unbiased one (round-4 advice). id columns are unchanged either
    # way, which is all the internal callers read.
    est_col = "est_jaccard" if band_sig_bytes == 8 else "est_jaccard_u8"

    def sigs(batch: pa.Table) -> pa.Table:
        # the band rows carry ids as int64; a string id (e.g. extraction's
        # "url#seg001") would otherwise fail as an opaque Arrow cast error
        id_type = batch.schema.field(id_col).type
        if not pa.types.is_integer(id_type):
            raise TypeError(
                f"MinHash near-dup needs an integer id column; "
                f"{id_col!r} is {id_type}"
            )
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        hash_arrays = [shingle_hashes(t) for t in batch[text_col].to_pylist()]
        nonempty = [a for a in hash_arrays if a.size]  # empty-shingle guard
        mask = np.array([a.size > 0 for a in hash_arrays], dtype=bool)
        sig_m = _sig_matrix(nonempty)
        keys = _band_key_matrix(sig_m) if len(sig_m) else np.zeros((0, _BANDS), np.int64)
        # band_sig_bytes=1 (default): ship each perm's LOW BYTE only
        # (64 B per band row instead of 512 — an 8× shuffle cut; at
        # 500k docs the full-signature band shuffle was ~4 GB and
        # spilled the object store: 219 s → 39.5 s measured). The
        # agreement estimate compares bytes: a truly-equal perm pair
        # always matches, a differing pair false-matches with P=1/256 —
        # the estimate can only be INFLATED (~(1−j)/256), so the
        # candidate gate keeps a strict superset and callers that
        # EXACT-verify downstream (near_dup_verified) are unchanged.
        # The biased estimate is emitted under the DISTINCT column name
        # est_jaccard_u8 (unbiased 8-byte runs keep est_jaccard), so
        # est-gating callers must opt in knowingly; dedup_near_minhash
        # passes band_sig_bytes=8.
        ship = (
            (sig_m & np.uint64(0xFF)).astype(np.uint8)
            if band_sig_bytes == 1 else sig_m
        )
        sig_bytes = [row.tobytes() for row in ship]
        return pa.table(
            {
                "band_key": pa.array(keys.reshape(-1), pa.int64()),
                "id": pa.array(np.repeat(ids[mask], _BANDS), pa.int64()),
                "sig": pa.array(
                    [s for s in sig_bytes for _ in range(_BANDS)], pa.binary()
                ),
            }
        )

    exploded = ds.map_batches(sigs, batch_format="pyarrow")
    exploded = exploded.repartition(num_blocks=num_partitions, keys=["band_key"])

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                est_col: pa.array([], pa.float64()),
            }
        )
        if len(batch) == 0:
            return empty
        keys = batch["band_key"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = batch["id"].combine_chunks().to_numpy(zero_copy_only=False)
        sig_col = batch["sig"].combine_chunks()
        sigs_m = np.frombuffer(
            b"".join(sig_col.to_pylist()),
            dtype=np.uint8 if band_sig_bytes == 1 else np.uint64,
        ).reshape(len(batch), _N_PERM)
        order = np.argsort(keys, kind="stable")
        keys, ids, sigs_m = keys[order], ids[order], sigs_m[order]
        bounds = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(keys)]))
        out_a, out_b, out_e = [], [], []
        n_skip_buckets = n_skip_members = 0
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if m > max_bucket:  # hot-bucket guard (see docstring)
                n_skip_buckets += 1
                n_skip_members += m
                continue
            sub_order = np.argsort(ids[s:e], kind="stable")
            sub_ids = ids[s:e][sub_order]
            sub_sigs = sigs_m[s:e][sub_order]
            # (m, m) agreement fractions in one broadcast comparison
            agree = (
                (sub_sigs[:, None, :] == sub_sigs[None, :, :]).sum(axis=2)
                / _N_PERM
            )
            ia, ib = np.triu_indices(m, k=1)
            sel = (agree[ia, ib] >= threshold) & (sub_ids[ia] != sub_ids[ib])
            out_a.append(sub_ids[ia[sel]])
            out_b.append(sub_ids[ib[sel]])
            out_e.append(agree[ia[sel], ib[sel]])
        if (n_skip_buckets or n_skip_members) and drop_stats is not None:
            drop_stats.add.remote(n_skip_buckets, n_skip_members)
        if not out_a:
            return empty
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a), pa.int64()),
                "id_b": pa.array(np.concatenate(out_b), pa.int64()),
                est_col: pa.array(np.concatenate(out_e), pa.float64()),
            }
        )

    pairs = exploded.map_batches(bucket_pairs, batch_format="pyarrow", batch_size=None)

    # a pair can surface from several bands → dedup on (id_a, id_b)
    def add_key(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.binary_join_element_wise(
            pc.cast(b["id_a"], pa.string()), pc.cast(b["id_b"], pa.string()), ":"
        )
        return b.append_column("pair_key", k)

    pairs = pairs.map_batches(add_key, batch_format="pyarrow")
    pairs = pairs.repartition(num_blocks=max(2, num_partitions // 2), keys=["pair_key"])
    pairs = pairs.map_batches(
        lambda b: _keep_min_id_per_key(b, "pair_key", "id_a"),
        batch_format="pyarrow",
        batch_size=None,
    )
    return pairs.drop_columns(["pair_key"])


def dedup_near_minhash(
    ds: Dataset, threshold: float = 0.7, id_col: str = "doc_id",
    text_col: str = "text", num_partitions: int = 8,
    drop_stats: Optional["ray.actor.ActorHandle"] = None,
) -> Dataset:
    """Near-dedup with TRANSITIVE cluster resolution: LSH candidate pairs →
    distributed connected components (ops/graph.py) → one survivor (min id)
    per component, losers removed by a hash anti-join. No loser-id set ever
    lands on the driver — safe at any duplicate fraction. ``drop_stats``
    (LshDropStats handle) records what the hot-bucket guard skipped.

    Pairs are gated on est_jaccard with NO exact verification, so the
    full 8-byte signatures are shipped (band_sig_bytes=8): the low-byte
    estimate is upward-biased (~(1−j)/256) and would admit borderline
    below-threshold pairs straight into the drop. Scale-sensitive
    callers should prefer the exact-verified chain
    (near_dup_verified → connected_components → drop)."""
    from .graph import connected_components, drop_by_components

    pairs = minhash_lsh_pairs(
        ds, threshold, id_col, text_col, num_partitions,
        drop_stats=drop_stats, band_sig_bytes=8,
    )
    comps = connected_components(pairs, num_partitions=num_partitions)
    return drop_by_components(ds, comps, id_col, num_partitions=num_partitions)


def simhash_near_pairs(
    ds: Dataset, max_hamming: int = 8, id_col: str = "doc_id",
    text_col: str = "text", num_partitions: int = 4,
) -> Dataset:
    """SimHash near-dup pairs via 16-bit-chunk LSH: each doc lands in 4
    buckets (one per chunk); only same-bucket docs are compared. Pigeonhole
    GUARANTEES recall for Hamming ≤ 3 (4 chunks can't all be touched);
    pairs with 4 ≤ d ≤ max_hamming are found iff at least one chunk is
    untouched (high-probability for clustered bit flips, best-effort for
    spread ones — raise the chunk count for a stronger guarantee)."""
    configure_data_context()

    def explode(batch: pa.Table) -> pa.Table:
        ids, keys, hs = [], [], []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            h = simhash64(t)
            for c in range(4):
                chunk = (h >> (16 * c)) & 0xFFFF
                ids.append(i)
                keys.append(f"{c}:{chunk:04x}")
                hs.append(f"{h:016x}")
        return pa.table(
            {
                "bucket": pa.array(keys, pa.string()),
                "id": pa.array(ids, pa.int64()),
                "h": pa.array(hs, pa.string()),
            }
        )

    ex = ds.map_batches(explode, batch_format="pyarrow")
    ex = ex.repartition(num_blocks=num_partitions, keys=["bucket"])

    def pairs(batch: pa.Table) -> pa.Table:
        import collections

        by_key = collections.defaultdict(list)
        for k, i, h in zip(
            batch["bucket"].to_pylist(), batch["id"].to_pylist(),
            batch["h"].to_pylist(),
        ):
            by_key[k].append((i, int(h, 16)))
        out = {"id_a": [], "id_b": [], "hamming": []}
        for members in by_key.values():
            members.sort()
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    d = hamming64(members[x][1], members[y][1])
                    if d <= max_hamming and members[x][0] != members[y][0]:
                        out["id_a"].append(members[x][0])
                        out["id_b"].append(members[y][0])
                        out["hamming"].append(d)
        return pa.table(
            {
                "id_a": pa.array(out["id_a"], pa.int64()),
                "id_b": pa.array(out["id_b"], pa.int64()),
                "hamming": pa.array(out["hamming"], pa.int64()),
            }
        )

    p = ex.map_batches(pairs, batch_format="pyarrow", batch_size=None)

    def add_key(b: pa.Table) -> pa.Table:
        k = [f"{a}:{c}" for a, c in zip(b["id_a"].to_pylist(), b["id_b"].to_pylist())]
        return b.append_column("pair_key", pa.array(k, pa.string()))

    p = p.map_batches(add_key, batch_format="pyarrow")
    p = p.repartition(num_blocks=2, keys=["pair_key"])
    p = p.map_batches(
        lambda b: _keep_min_id_per_key(b, "pair_key", "id_a"),
        batch_format="pyarrow", batch_size=None,
    )
    return p.drop_columns(["pair_key"])


def near_dup_verified(
    ds: Dataset, threshold: float = 0.8, id_col: str = "doc_id",
    text_col: str = "text", num_partitions: int = 8,
    candidate_threshold: float = 0.5,
) -> Dataset:
    """The canonical two-stage near-dup pipeline (LSH candidates → exact
    verification), FULLY DISTRIBUTED — nothing unbounded ever lands on the
    driver:

      1. MinHash+LSH proposes candidate pairs (only same-bucket docs meet);
      2. the text table is semi-joined down to candidate ids (a hash
         shuffle of only the candidate fraction's texts);
      3. each pair picks up text_a / text_b via two hash joins;
      4. exact word-3-gram Jaccard runs inside ``map_batches`` over pairs
         only — the quadratic kernel never sees the full corpus.

    Returns a Dataset (id_a, id_b, jaccard_ppm) with exact Jaccard >=
    threshold (proven equal to the brute-force kernel by the SQL oracle)."""
    import pyarrow.compute as pc

    import ray.data

    cands = minhash_lsh_pairs(
        ds, threshold=candidate_threshold, id_col=id_col, text_col=text_col,
        num_partitions=num_partitions,
    ).materialize()
    n_cands = cands.count()
    if n_cands == 0:
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "jaccard_ppm": pa.array([], pa.int64())})
        )
    # compact away empty blocks: the join shuffle drops empty blocks before
    # its schema broadcast, which breaks sparse partitions downstream
    cands = cands.repartition(num_blocks=min(num_partitions, n_cands))

    def explode_ids(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cid": pa.concat_arrays(
                    [batch["id_a"].combine_chunks(), batch["id_b"].combine_chunks()]
                )
            }
        )

    cand_ids = cands.map_batches(explode_ids, batch_format="pyarrow")
    texts = ds.select_columns([id_col, text_col]).join(
        cand_ids,
        join_type="left_semi",
        num_partitions=num_partitions,
        on=(id_col,),
        right_on=("cid",),
    ).materialize()
    # ≥2 rows whenever cands is non-empty; compact for the joins below
    texts = texts.repartition(num_blocks=min(num_partitions, texts.count()))

    # disjoint column names per side → no join suffix ambiguity
    texts_a = texts.map_batches(
        lambda t: pa.table({"_ja": t[id_col], "_text_a": t[text_col]}),
        batch_format="pyarrow",
    )
    texts_b = texts.map_batches(
        lambda t: pa.table({"_jb": t[id_col], "_text_b": t[text_col]}),
        batch_format="pyarrow",
    )
    with_a = cands.join(
        texts_a,
        join_type="inner",
        num_partitions=num_partitions,
        on=("id_a",),
        right_on=("_ja",),
    )
    with_ab = with_a.join(
        texts_b,
        join_type="inner",
        num_partitions=num_partitions,
        on=("id_b",),
        right_on=("_jb",),
    )

    def verify(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a, b, t_a, t_b in zip(
            batch["id_a"].to_pylist(), batch["id_b"].to_pylist(),
            batch["_text_a"].to_pylist(), batch["_text_b"].to_pylist(),
        ):
            jac = jaccard(word_ngrams(t_a), word_ngrams(t_b))
            if jac >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(int(jac * 1e6))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "jaccard_ppm": pa.array(out_j, pa.int64()),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow")
