"""Compression-ratio signal: kernel invariants + gating behavior."""

from pathlib import Path

import pyarrow as pa

import ray.data

from ocr_sam_project_ray.ops.compressratio import (
    RATIO_HI_PPM, RATIO_LO_PPM, compression_ratio_ppm, compression_signal,
)


def test_kernel_edges():
    assert compression_ratio_ppm("") == -1
    assert compression_ratio_ppm(None) == -1
    assert compression_ratio_ppm("a") > 0  # tiny docs inflate, that's fine


def test_repetitive_compresses_below_natural():
    spam = "buy cheap now " * 500
    prose = (
        "The committee reviewed seventeen distinct proposals during the "
        "quarterly session, weighing infrastructure costs against the "
        "projected enrollment growth across rural districts. "
    ) * 20
    r_spam = compression_ratio_ppm(spam)
    r_prose = compression_ratio_ppm(prose)
    assert r_spam < r_prose
    assert r_spam < RATIO_LO_PPM


def test_encoded_blobs_fire_hi_gate():
    # encoded payloads masquerading as text: base64 of random bytes
    # (~0.76) and printable noise (~0.82) both exceed the 0.70 gate;
    # genuine prose and source code stay well below it
    import base64

    import numpy as np

    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, 8000).astype(np.uint8).tobytes()
    assert compression_ratio_ppm(base64.b64encode(raw).decode()) > RATIO_HI_PPM
    noise = "".join(chr(33 + int(x)) for x in rng.integers(0, 90, 8000))
    assert compression_ratio_ppm(noise) > RATIO_HI_PPM
    root = Path(__file__).resolve().parents[1]
    code = (root / "ocr_sam_project_ray" / "ops" / "bm25.py").read_text()
    assert compression_ratio_ppm(code) < RATIO_HI_PPM


def test_signal_gates():
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [
                    "spam spam spam " * 300,
                    "",
                    None,
                    "short but random qz7#k",  # under MIN_BYTES
                ],
            }
        )
    )
    out = compression_signal(docs).to_pandas().set_index("doc_id")
    assert out.loc[1, "gate"] == "too_repetitive"
    assert out.loc[2, "gate"] == "empty" and out.loc[2, "ratio_ppm"] == -1
    assert out.loc[3, "gate"] == "empty"
    # tiny docs: zlib overhead dominates, ratio is meaningless → 'short'
    assert out.loc[4, "gate"] == "short"


def test_deterministic():
    t = "mixed content with some repetition repetition repetition " * 40
    assert compression_ratio_ppm(t) == compression_ratio_ppm(t)
