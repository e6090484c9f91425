"""scripts/check_oracles.py's in-DuckDB compare for huge results
(``big_compare``), checked against a negative control: two differing row
sets that the old COUNT + SUM(hash) compare could not tell apart."""

from __future__ import annotations

import importlib.util
import os

import duckdb
import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_MASK = (1 << 64) - 1
_MURMUR_K = 0xD6E8FEB86659FD93


def _big_compare():
    spec = importlib.util.spec_from_file_location(
        "check_oracles", os.path.join(ROOT, "scripts", "check_oracles.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.big_compare


def _unmurmur64(h: int) -> int:
    """Inverse of the 64-bit murmur finalizer DuckDB hashes a BIGINT with
    (``x ^= x >> 32; x *= K`` twice, then ``x ^= x >> 32``): each xor-shift
    by 32 is its own inverse and K is odd."""
    k_inv = pow(_MURMUR_K, -1, 1 << 64)
    for _ in range(2):
        h ^= h >> 32
        h = h * k_inv & _MASK
    return h ^ (h >> 32)


def _signed(u: int) -> int:
    return u - (1 << 64) if u >= 1 << 63 else u


def test_equal_hash_sums_are_told_apart():
    con = duckdb.connect()

    def row_hash(v: int) -> int:
        return con.execute(f"SELECT hash({v}::BIGINT)").fetchone()[0]

    # {1, 2} against {c, d}, with d chosen so that the two hash sums agree
    c = 3
    while not 0 <= row_hash(1) + row_hash(2) - row_hash(c) <= _MASK:
        c += 1
    target = row_hash(1) + row_hash(2) - row_hash(c)
    d = _signed(_unmurmur64(target))
    assert row_hash(d) == target  # the control's premise: a real sum collision
    assert d not in (1, 2)

    def hash_sum(sql: str) -> int:
        return con.execute(f"SELECT SUM(CAST(hash(x) AS HUGEINT)) FROM ({sql})").fetchone()[0]

    other = f"SELECT * FROM (VALUES ({c}::BIGINT), ({d}::BIGINT)) t(x)"
    same = "SELECT * FROM (VALUES (2::BIGINT), (1::BIGINT)) t(x)"
    assert hash_sum(other) == hash_sum(same)

    big_compare = _big_compare()
    mine = pa.table({"x": pa.array([1, 2], type=pa.int64())})
    assert big_compare(con, [mine], other) == ["VALUES row-hash aggregates differ"]
    assert big_compare(con, [mine], same) == []
