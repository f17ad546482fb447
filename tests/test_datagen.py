import hashlib
from pathlib import Path

import numpy as np
import pytest

from cardest.datagen import DataGenConfig, gen_star_schema
from cardest.errors import ValidationError
from cardest.relational import load_dataset, save_dataset


def dataset_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_determinism_byte_identical(tmp_path):
    cfg = DataGenConfig(hub_rows=500, dim_rows=(40, 30), seed=7)
    save_dataset(gen_star_schema(cfg), tmp_path / "a")
    save_dataset(gen_star_schema(cfg), tmp_path / "b")
    assert dataset_digest(tmp_path / "a") == dataset_digest(tmp_path / "b")


def test_roundtrip_through_files(tmp_path):
    cfg = DataGenConfig(hub_rows=200, dim_rows=(20,), dim_cat_cards=(6,), seed=1)
    db = gen_star_schema(cfg)
    save_dataset(db, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.table_names() == db.table_names()
    for a, b in zip(db.tables, loaded.tables):
        assert a.row_count == b.row_count
        for col_a, col_b in zip(a.data, b.data):
            np.testing.assert_array_equal(col_a, col_b)


def test_uniform_frequencies_within_20pct():
    cfg = DataGenConfig(hub_rows=10_000, dim_rows=(50,), dim_cat_cards=(6,),
                        profile="uniform", hub_cat_cards=(10,), seed=2)
    db = gen_star_schema(cfg)
    codes = db.table("fact").column("status")
    counts = np.bincount(codes, minlength=10)
    assert counts.min() > 800 and counts.max() < 1200


def test_zipf_skew_ratio():
    cfg = DataGenConfig(hub_rows=10_000, dim_rows=(50,), dim_cat_cards=(6,),
                        profile="skewed", zipf_s=1.5, hub_cat_cards=(100,), seed=3)
    db = gen_star_schema(cfg)
    codes = db.table("fact").column("status")
    counts = np.bincount(codes, minlength=100)
    present = counts[counts > 0]
    assert present.max() / present.min() > 50


def test_skew_has_rare_value():
    cfg = DataGenConfig(hub_rows=10_000, dim_rows=(50, 50), seed=4)
    db = gen_star_schema(cfg)
    counts = np.bincount(db.table("fact").column("status"),
                         minlength=cfg.hub_cat_cards[0])
    assert counts[counts > 0].min() < 10


def test_fk_coverage_validates():
    db = gen_star_schema(DataGenConfig(hub_rows=300, dim_rows=(25, 10), seed=5))
    db.validate()  # raises on dangling foreign keys


def test_bad_config_rejected():
    with pytest.raises(ValidationError):
        gen_star_schema(DataGenConfig(hub_rows=0))
    with pytest.raises(ValidationError):
        gen_star_schema(DataGenConfig(zipf_s=0.0))
    with pytest.raises(ValidationError):
        gen_star_schema(DataGenConfig(profile="banana"))
