"""Relational pipelines over the TPC-H-ish test tables, Ray-Data-first.

Patterns demonstrated (SURVEY.md §2.6 mapping):
  - column-pruned reads (``read_parquet_sliced(columns=...)`` — streaming
    ``read_parquet`` plus block shaping for the one-file test inputs,
    see deduce_ray.corpus.read_parquet_sliced),
  - vectorized per-batch filters/projections (pyarrow.compute),
  - partial aggregation before the shuffle (ops.agg.grouped_agg: an Arrow
    combine per block, one sampling-free exchange on the key shard, an
    Arrow merge — null and NUL-bearing keys keep their own groups),
  - broadcast hash joins for small dimension tables (ray.put once, probe
    per batch — never a shuffle join against a small side),
  - distributed sort + limit for top-k.

All money columns are aggregated in integer cents so results match the
DuckDB oracles bit-for-bit (no float-sum drift).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from deduce_ray.corpus import read_parquet_sliced
from deduce_ray.ops.agg import grouped_agg, key_shards, merge_shards, shard_exchange


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    # half_towards_infinity = SQL round() for the positive money values in
    # these tables; pyarrow's default half_to_even would diverge from the
    # DuckDB oracles on exact half-cents
    try:
        return pc.cast(
            pc.round(
                pc.multiply(col, 100.0), round_mode="half_towards_infinity"
            ),
            pa.int64(),
        )
    except pa.ArrowInvalid as exc:
        # loud, actionable contract error instead of a bare truncation
        # message: DuckDB's CAST(... AS BIGINT) fails on the same rows,
        # so both sides refuse rather than silently summing wrong
        raise ValueError(
            "money value outside the integer-cents contract "
            "(|value| <= ~9.2e16, and not NaN/Inf): exact integer-cents "
            f"aggregation cannot represent it in int64 [{exc}]"
        ) from exc


def _one_minus_disc_cents(discount_col) -> pa.ChunkedArray:
    """round((1 - discount) * 100) as int64 — the discount side of the
    integer-cents revenue product, shared by pricing_summary and the
    bucketed join so the rounding mode can never drift between them."""
    return _cents(pc.subtract(1.0, discount_col))


def pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary over lineitem."""
    import ray.data

    cutoff = pd.Timestamp("1998-09-02")

    ds = read_parquet_sliced(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def project(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch.column("l_shipdate"), pa.scalar(cutoff))
        )
        ext_cents = _cents(batch.column("l_extendedprice"))
        disc_cents = _one_minus_disc_cents(batch.column("l_discount"))
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": pc.cast(
                    pc.round(
                        batch.column("l_quantity"),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
                "ext_cents": ext_cents,
                "disc_units": pc.multiply(ext_cents, disc_cents),
            }
        )

    agged = grouped_agg(
        ds.map_batches(project, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        aggs={
            "sum_qty": ("qty", "sum"),
            "sum_base_cents": ("ext_cents", "sum"),
            "sum_disc_units": ("disc_units", "sum"),
            "count_order": (None, "count"),
        },
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": _nullable_int(df["sum_qty"]),
                "sum_base_price": df["sum_base_cents"] / 100.0,
                "sum_disc_price": df["sum_disc_units"] / 10000.0,
                "avg_qty": df["sum_qty"] / df["count_order"],
                "count_order": df["count_order"].astype("int64"),
            }
        )
        return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)

    return agged.map_batches(finish, batch_format="pandas")


def pricing_summary_sql() -> str:
    return """
        SELECT
          l_returnflag,
          l_linestatus,
          CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
          SUM(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0
            AS sum_base_price,
          SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
              * CAST(round((1 - l_discount) * 100) AS BIGINT)) / 10000.0
            AS sum_disc_price,
          SUM(CAST(round(l_quantity) AS BIGINT)) * 1.0 / COUNT(*) AS avg_qty,
          COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """


def _nullable_int(col: pd.Series) -> pd.Series:
    """A BIGINT column as pandas' nullable Int64: every block maps to the
    same Arrow int64, with or without nulls, so the blocks of a
    multi-partition result concatenate, and the whole result's
    ``to_pandas`` gives DuckDB's .df() dtype (int64 when null-free,
    float64 with NaN otherwise)."""
    return col.astype("Int64")


def top_customers(sf_dir: str, k: int = 10):
    """Top-k customers by order revenue: partial agg over orders, then a
    broadcast join against the small customer dimension."""
    import ray
    import ray.data

    orders = read_parquet_sliced(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    # the SQL contract is an INNER join: orders whose custkey matches no
    # customer (or is null) must not reach the ranking — filtering AFTER
    # the top-k would let a dangling key displace a legitimate customer.
    # One driver read of the small side serves both the key filter and
    # the name attach; null c_custkey rows are excluded up front (NaN
    # would astype to INT64_MIN, a phantom join key).
    import pyarrow.parquet as _pq

    _raw = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    # drop null KEYS only — a customer with a valid key but NULL name
    # still joins (SQL emits the NULL name)
    cust_tbl = _raw.filter(
        pc.is_valid(_raw.column("c_custkey"))
    ).combine_chunks()
    cust_keys = np.sort(
        cust_tbl.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
    )
    cust_keys_ref = ray.put(cust_keys)

    def project(batch: pa.Table) -> pa.Table:
        keys = ray.get(cust_keys_ref)
        ck = batch.column("o_custkey")
        valid_np = pc.is_valid(ck).to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            keep = pa.array(np.zeros(len(batch), dtype=bool))
        else:
            ints = ck.fill_null(0).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            pos = np.clip(np.searchsorted(keys, ints), 0, len(keys) - 1)
            # validity is its own mask (no sentinel value — a genuine
            # negative custkey must still be joinable)
            keep = pa.array((keys[pos] == ints) & valid_np)
        batch = batch.filter(keep)
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "cents": _cents(batch.column("o_totalprice")),
            }
        )

    agged = grouped_agg(
        orders.map_batches(project, batch_format="pyarrow"),
        keys=["o_custkey"],
        aggs={"revenue_cents": ("cents", "sum"), "n_orders": (None, "count")},
    )

    # top-k without a global range-shuffle sort: per-batch local top-k
    # (candidates shrink to <= k per block), then ONE single-group merge
    # over the tiny candidate set — "prune locally, merge globally"
    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["revenue_cents", "o_custkey"], ascending=[False, True]
        ).head(k)
        return df.assign(__g=0)

    def global_top(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["revenue_cents", "o_custkey"], ascending=[False, True])
            .head(k)
            .drop(columns=["__g"])
        )

    top = (
        agged.map_batches(local_top, batch_format="pandas")
        .groupby("__g")
        .map_groups(global_top, batch_format="pandas")
    )

    # broadcast the (small) customer name map; at scale this is ray.put
    # once — reusing the single driver read above
    names_ref = ray.put(
        (cust_tbl.column("c_custkey"), cust_tbl.column("c_name"))
    )

    def attach_names(batch: pa.Table) -> pa.Table:
        # vectorized broadcast join: index_in + take (unmatched -> null),
        # no per-row Python dict probes
        key_arr, val_arr = ray.get(names_ref)
        idx = pc.index_in(batch.column("o_custkey"), value_set=key_arr)
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "c_name": val_arr.take(idx),
                "n_orders": pc.cast(batch.column("n_orders"), pa.int64()),
                "revenue": pc.divide(
                    pc.cast(batch.column("revenue_cents"), pa.float64()), 100.0
                ),
            }
        )

    return top.map_batches(attach_names, batch_format="pyarrow")


def top_customers_sql(k: int = 10) -> str:
    return f"""
        WITH agg AS (
          SELECT o_custkey,
                 SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS revenue_cents,
                 COUNT(*) AS n_orders
          FROM orders GROUP BY o_custkey
        )
        SELECT a.o_custkey, c.c_name, a.n_orders,
               a.revenue_cents / 100.0 AS revenue
        FROM agg a JOIN customer c ON c.c_custkey = a.o_custkey
        ORDER BY a.revenue_cents DESC, a.o_custkey
        LIMIT {k}
    """


def events_by_type(sf_dir: str):
    """Events rollup: count, distinct users, exact value sum and average."""
    import ray.data

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "user_id": batch.column("user_id"),
                "cents": _cents(batch.column("value")),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow")

    # exact distinct users without funnelling all (type, user) pairs into
    # one task per type: aggregate on the FINE key (event_type, user_id)
    # first — that shuffle spreads by user hash, no skew — carrying the
    # event counts and cent sums along, then fold per type in a second
    # (tiny) grouped_agg: one row per user becomes one count
    per_user = grouped_agg(
        projected,
        keys=["event_type", "user_id"],
        aggs={"n": (None, "count"), "cents": ("cents", "sum")},
    )

    # null-user rows ride per_user (dropna=False) so their events count
    # toward n_events/sum, but COUNT(DISTINCT user_id) ignores nulls —
    # flag real users and sum the flag instead of counting rows
    def flag_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["is_user"] = df["user_id"].notna().astype("int64")
        return df

    per_type = grouped_agg(
        per_user.map_batches(flag_user, batch_format="pandas"),
        keys=["event_type"],
        aggs={
            "n_events": ("n", "sum"),
            "sum_cents": ("cents", "sum"),
            "n_users": ("is_user", "sum"),
        },
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": df["n_events"].astype("int64"),
                "n_users": df["n_users"].astype("int64"),
                "sum_value": df["sum_cents"] / 100.0,
                "avg_value": (df["sum_cents"] / 100.0) / df["n_events"],
            }
        )

    return per_type.map_batches(finish, batch_format="pandas")


def events_by_type_sql() -> str:
    return """
        SELECT event_type,
               COUNT(*) AS n_events,
               COUNT(DISTINCT user_id) AS n_users,
               SUM(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value,
               (SUM(CAST(round(value * 100) AS BIGINT)) / 100.0) / COUNT(*)
                 AS avg_value
        FROM events
        GROUP BY event_type
        ORDER BY event_type
    """


def events_hourly(sf_dir: str):
    """Windowed aggregate: per (event_type, hour) event counts and exact
    value sums — the batch shape of a streaming tumbling window."""
    import ray.data

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def project(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch.column("ts"), pa.int64())
        hour_epoch = pc.multiply(pc.divide(micros, 3_600_000_000), 3600)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_epoch": pc.cast(hour_epoch, pa.int64()),
                "cents": _cents(batch.column("value")),
            }
        )

    agged = grouped_agg(
        ds.map_batches(project, batch_format="pyarrow"),
        keys=["event_type", "hour_epoch"],
        aggs={"n_events": (None, "count"), "sum_cents": ("cents", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                # null ts -> NULL hour group (SQL); dtype mirrors DuckDB
                "hour_epoch": _nullable_int(df["hour_epoch"]),
                "n_events": df["n_events"].astype("int64"),
                "sum_value": df["sum_cents"] / 100.0,
            }
        )
        return out.sort_values(["event_type", "hour_epoch"]).reset_index(drop=True)

    return agged.map_batches(finish, batch_format="pandas")


def events_hourly_sql() -> str:
    return """
        SELECT event_type,
               CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_epoch,
               COUNT(*) AS n_events,
               SUM(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value
        FROM events
        GROUP BY 1, 2
        ORDER BY 1, 2
    """


def brand_volume(sf_dir: str):
    """lineitem x part broadcast join -> quantity by brand."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    part_tbl = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    # drop null-keyed parts: pc.index_in matches null probes TO a null
    # value-set entry, which would join a null l_partkey to that part's
    # brand where SQL's NULL = NULL never matches
    part_tbl = part_tbl.filter(
        pc.is_valid(part_tbl.column("p_partkey"))
    ).combine_chunks()
    brand_ref = ray.put(
        (part_tbl.column("p_partkey"), part_tbl.column("p_brand"))
    )

    lineitem = read_parquet_sliced(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity"]
    )

    def join_project(batch: pa.Table) -> pa.Table:
        key_arr, val_arr = ray.get(brand_ref)
        idx = pc.index_in(batch.column("l_partkey"), value_set=key_arr)
        # INNER join: drop lineitems with no matching part (incl. null
        # keys); a matched part with a NULL brand keeps its NULL group
        keep = pc.is_valid(idx)
        batch = batch.filter(keep)
        idx = idx.filter(keep)
        return pa.table(
            {
                "p_brand": val_arr.take(idx),
                "qty": pc.cast(
                    pc.round(
                        batch.column("l_quantity"),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    agged = grouped_agg(
        lineitem.map_batches(join_project, batch_format="pyarrow"),
        keys=["p_brand"],
        aggs={"sum_qty": ("qty", "sum"), "n_items": (None, "count")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        # an all-null-quantity group sums to NULL (SQL); dtype mirrors
        # DuckDB (int64 clean, float64+NaN when a null exists)
        df["sum_qty"] = _nullable_int(df["sum_qty"])
        df["n_items"] = df["n_items"].astype("int64")
        return df.sort_values("p_brand").reset_index(drop=True)

    return agged.map_batches(finish, batch_format="pandas")


def brand_volume_sql() -> str:
    return """
        SELECT p.p_brand,
               CAST(SUM(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
               COUNT(*) AS n_items
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
        GROUP BY p.p_brand
        ORDER BY p.p_brand
    """


def bucketed_join_revenue(sf_dir: str, n_buckets: int = 32):
    """Large x large join via explicit bucketed hash join: both sides get a
    ``bucket = key & (B-1)`` column (``n_buckets`` must be a power of
    two), one groupby co-locates matching buckets, and the join happens
    per bucket inside map_groups — the portable pattern when neither side
    fits a broadcast.  Output: revenue per o_orderpriority.
    """
    import ray.data

    if n_buckets <= 0 or n_buckets & (n_buckets - 1):
        raise ValueError(f"n_buckets must be a power of two, got {n_buckets}")

    orders = read_parquet_sliced(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    lineitem = read_parquet_sliced(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def tag_orders(batch: pa.Table) -> pa.Table:
        # SQL inner join never matches NULL keys, but pandas merge pairs
        # NaN with NaN — drop them before bucketing (both sides).  An
        # explicit ``side`` column discriminates dim vs fact rows: keying
        # on disc_units nullability would misclassify a fact whose
        # measure is legitimately NULL (SQL joins it, sums it as NULL)
        batch = batch.filter(pc.is_valid(batch.column("o_orderkey")))
        keys = batch.column("o_orderkey")
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(keys, n_buckets - 1), pa.int32()
                ),
                "key": keys,
                "side": pa.array(
                    np.zeros(batch.num_rows, dtype=np.int8), type=pa.int8()
                ),
                "o_orderpriority": batch.column("o_orderpriority"),
                "disc_units": pa.nulls(batch.num_rows, type=pa.int64()),
            }
        )

    def tag_lineitem(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column("l_orderkey")))
        keys = batch.column("l_orderkey")
        ext_cents = _cents(batch.column("l_extendedprice"))
        disc_cents = _one_minus_disc_cents(batch.column("l_discount"))
        return pa.table(
            {
                "bucket": pc.cast(
                    pc.bit_wise_and(keys, n_buckets - 1), pa.int32()
                ),
                "key": keys,
                "side": pa.array(
                    np.ones(batch.num_rows, dtype=np.int8), type=pa.int8()
                ),
                "o_orderpriority": pa.nulls(batch.num_rows, type=pa.string()),
                "disc_units": pc.multiply(ext_cents, disc_cents),
            }
        )

    both = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        lineitem.map_batches(tag_lineitem, batch_format="pyarrow")
    )

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        dims = df[df["side"] == 0][["key", "o_orderpriority"]]
        facts = df[df["side"] == 1][["key", "disc_units"]]
        joined = facts.merge(dims, on="key", how="inner")
        # dropna=False keeps the NULL-priority group (SQL GROUP BY does);
        # min_count=1 makes an all-NULL measure group sum to NULL, not 0
        return (
            joined.groupby("o_orderpriority", as_index=False, dropna=False)
            .agg(
                disc_units=("disc_units", lambda s: s.sum(min_count=1)),
                n_items=("key", "count"),
            )
        )

    per_bucket = both.groupby("bucket").map_groups(
        join_bucket, batch_format="pandas"
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("o_orderpriority", as_index=False, dropna=False).agg(
            disc_units=("disc_units", lambda s: s.sum(min_count=1)),
            n_items=("n_items", "sum"),
        )
        pri = out["o_orderpriority"].astype(object)
        return pd.DataFrame(
            {
                # None, not pandas' NaN, for the null group key (typed
                # NULL after Arrow conversion, matching the SQL output)
                "o_orderpriority": pri.where(pri.notna(), None),
                "revenue": out["disc_units"] / 10000.0,
                "n_items": out["n_items"].astype("int64"),
            }
        ).sort_values("o_orderpriority").reset_index(drop=True)

    # final merge across buckets is tiny (<= priorities x buckets rows);
    # wrapped back into a Dataset so every query returns the same type
    # (a bare DataFrame would break consumers probing .count())
    return ray.data.from_pandas(finish(per_bucket.to_pandas()))


def bucketed_join_revenue_sql() -> str:
    return """
        SELECT o.o_orderpriority,
               SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                   * CAST(round((1 - l.l_discount) * 100) AS BIGINT)) / 10000.0
                 AS revenue,
               COUNT(*) AS n_items
        FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
        GROUP BY o.o_orderpriority
        ORDER BY o.o_orderpriority
    """


def user_sessions(sf_dir: str, gap_minutes: int = 30):
    """Sessionization: per-user tumbling-gap windows over the event log —
    the batch shape of stream session windows.  Events are grouped by
    user (one shuffle), sorted by (ts, event_id) within the group, and a
    new session starts when the gap to the previous event exceeds
    ``gap_minutes``.
    """
    import ray.data

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )

    from deduce_ray.ops.agg import merge_shards_pow2

    gap = pd.Timedelta(minutes=gap_minutes)
    n_shards = merge_shards_pow2()

    def add_shard(batch: pa.Table) -> pa.Table:
        # fill_null: SQL's GROUP BY keeps one NULL-user group, so null
        # users must land in ONE deterministic shard, not a null key
        shard = pc.cast(
            pc.bit_wise_and(
                pc.fill_null(pc.cast(batch.column("user_id"), pa.int64()), 0),
                n_shards - 1,
            ),
            pa.int64(),
        )
        return batch.append_column("__shard", shard)

    def sessions_shard(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized sessionization for ALL users in the shard at once
        # (one map_groups UDF call per user would dominate wall-clock at
        # realistic user cardinality): sort by (user, ts, event_id); a new
        # session starts on a user change or a gap beyond the threshold.
        # Null users form ONE group (SQL GROUP BY semantics): the change
        # detector compares a sentinel-filled copy (NaN != NaN would make
        # every null-user row its own session) and the groupby keeps the
        # null key.
        df = df.sort_values(["user_id", "ts", "event_id"])
        # plain int64 (not nullable Int64) so shift()'s leading NA uses
        # numpy semantics (NaN != x -> True) instead of propagating pd.NA
        # into the session flag
        uid = df["user_id"].fillna(-(2**63)).astype("int64")
        user_change = uid.ne(uid.shift())
        new_session = user_change | (df["ts"].diff() > gap)
        df = df.assign(__new=new_session.astype("int64"))
        out = df.groupby("user_id", as_index=False, dropna=False).agg(
            n_sessions=("__new", "sum"), n_events=("__new", "count")
        )
        return out

    out = (
        ds.map_batches(add_shard, batch_format="pyarrow", batch_size=65536)
        .groupby("__shard")
        .map_groups(
            lambda df: sessions_shard(df.drop(columns=["__shard"])),
            batch_format="pandas",
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        # a null-user group must survive as null, not crash the int64
        # cast — but only pay the nullable-Int64 dtype when nulls exist,
        # so the common all-present case keeps plain int64 (what DuckDB
        # hands back for the oracle comparison)
        if df["user_id"].isna().any():
            df["user_id"] = df["user_id"].astype("Int64")
        else:
            df["user_id"] = df["user_id"].astype("int64")
        for col in ("n_sessions", "n_events"):
            df[col] = df[col].astype("int64")
        return df.sort_values("user_id").reset_index(drop=True)

    return out.map_batches(finish, batch_format="pandas")


def user_sessions_sql(gap_minutes: int = 30) -> str:
    return f"""
        WITH ordered AS (
          SELECT user_id, ts,
                 CASE WHEN lag(ts) OVER w IS NULL
                        OR ts - lag(ts) OVER w > INTERVAL {gap_minutes} MINUTE
                      THEN 1 ELSE 0 END AS new_session
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id,
               CAST(SUM(new_session) AS BIGINT) AS n_sessions,
               COUNT(*) AS n_events
        FROM ordered
        GROUP BY user_id
        ORDER BY user_id
    """


def events_props_stats(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column, group by
    the extracted key — the batch shape of log/metadata field extraction."""
    import json as jsonlib

    import ray.data

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["props", "value"]
    )

    def project(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        # Arrow has no JSON-path kernel; extract the flat {"k": N} shape
        # with a vectorized RE2 anchored to the WHOLE string, so any richer
        # document (nested objects, floats, extra keys) falls back to the
        # exact per-row json.loads path instead of a lossy regex guess.
        props = batch.column("props")
        # <= 18 digits so the int64 cast cannot overflow; longer ints
        # fall through to the json path, which range-checks explicitly.
        # The group follows the JSON number grammar (no leading zeros):
        # '{"k": 007}' is invalid JSON, so it must fall through to
        # json.loads and land in the -1 bucket exactly like the
        # json_valid-guarded SQL oracle — a bare \d{1,18} would
        # silently accept it as 7.
        ex = pc.extract_regex(
            props, pattern=r'^\{"k": (?P<k>-?(?:0|[1-9]\d{0,17}))\}$'
        )
        k_str = pc.struct_field(ex, "k")
        # fill misses with "0" BEFORE the cast so the numpy array stays
        # int64 end-to-end (a null-bearing int64 column converts through
        # float64, which would round k values above 2^53)
        miss_mask = pc.is_null(k_str)
        ks = pc.cast(
            pc.if_else(miss_mask, pa.scalar("0"), k_str), pa.int64()
        ).to_numpy(zero_copy_only=False).astype(np.int64, copy=True)
        misses = np.flatnonzero(miss_mask.to_numpy(zero_copy_only=False))
        if len(misses):
            raw = props.to_pylist()
            for i in misses:
                try:
                    v = jsonlib.loads(raw[i])["k"]
                    # exact in-range JSON integers only (the SQL mirror
                    # is TRY_CAST of the raw json text, which rejects
                    # floats/strings/bools and overflows to NULL);
                    # type(v) is int also excludes bool, an int subclass
                    ks[i] = (
                        v
                        if type(v) is int and -(2**63) <= v < 2**63
                        else -1
                    )
                except (TypeError, ValueError, KeyError, OverflowError):
                    ks[i] = -1
        buckets = np.where(ks >= 0, ks % 10, -1)
        return pa.table(
            {
                "k_bucket": pa.array(buckets, type=pa.int64()),
                "cents": _cents(batch.column("value")),
            }
        )

    agged = grouped_agg(
        ds.map_batches(project, batch_format="pyarrow"),
        keys=["k_bucket"],
        aggs={"n_events": (None, "count"), "sum_cents": ("cents", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "k_bucket": df["k_bucket"].astype("int64"),
                "n_events": df["n_events"].astype("int64"),
                "sum_value": df["sum_cents"] / 100.0,
            }
        )
        return out.sort_values("k_bucket").reset_index(drop=True)

    return agged.map_batches(finish, batch_format="pandas")


def events_props_stats_sql() -> str:
    # json_valid guard + TRY_CAST of the RAW json text: malformed props,
    # null props, missing keys, floats, bools, and string-typed numbers
    # ('"5"' keeps its quotes through CAST AS VARCHAR) all land in the
    # engine's -1 fallback bucket instead of erroring the query
    return """
        WITH parsed AS (
          SELECT TRY_CAST(CAST(CASE WHEN props IS NOT NULL
                                     AND json_valid(props)
                                    THEN json_extract(props, '$.k')
                               END AS VARCHAR) AS BIGINT) AS k,
                 value
          FROM events
        )
        SELECT CAST(CASE WHEN k IS NOT NULL AND k >= 0 THEN k % 10
                         ELSE -1 END AS BIGINT) AS k_bucket,
               COUNT(*) AS n_events,
               SUM(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value
        FROM parsed
        GROUP BY 1
        ORDER BY 1
    """


def region_customers(sf_dir: str):
    """customer -> nation -> region broadcast join chain, count per region."""
    import ray
    import ray.data
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    region_names = {
        k: v
        for k, v in zip(
            region.column("r_regionkey").to_pylist(),
            region.column("r_name").to_pylist(),
        )
        if k is not None  # NULL r_regionkey matches no nation (SQL)
    }
    # pre-compose the two small dims driver-side, broadcast one arrow
    # pair.  INNER chain: a nation whose regionkey is null or matches no
    # region is dropped here (its customers then drop at the probe)
    pairs = [
        (k, region_names[r])
        for k, r in zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_regionkey").to_pylist(),
        )
        if k is not None and r in region_names
    ]
    nat_keys = pa.array([k for k, _ in pairs], type=pa.int64())
    nat_region = pa.array([v for _, v in pairs], type=pa.string())
    lookup_ref = ray.put((nat_keys, nat_region))

    customers = read_parquet_sliced(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey"]
    )

    def project(batch: pa.Table) -> pa.Table:
        key_arr, val_arr = ray.get(lookup_ref)
        idx = pc.index_in(
            pc.cast(batch.column("c_nationkey"), pa.int64()), value_set=key_arr
        )
        idx = idx.filter(pc.is_valid(idx))  # INNER: unmatched drop
        return pa.table({"r_name": val_arr.take(idx)})

    agged = grouped_agg(
        customers.map_batches(project, batch_format="pyarrow"),
        keys=["r_name"],
        aggs={"n_customers": (None, "count")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_customers"] = df["n_customers"].astype("int64")
        return df.sort_values("r_name").reset_index(drop=True)

    return agged.map_batches(finish, batch_format="pandas")


def region_customers_sql() -> str:
    return """
        SELECT r.r_name, COUNT(*) AS n_customers
        FROM customer c
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = n.n_regionkey
        GROUP BY r.r_name
        ORDER BY r.r_name
    """


def click_attribution(sf_dir: str, n_shards: int | None = None):
    """As-of join: each 'click' event matched to the same user's most
    recent 'view' at or before the click time (inner semantics).

    Ray Data has no as-of join operator; the composition is the documented
    custom-operator shape: filter both sides at the read, ONE hash shuffle
    on a user-id shard (n_shards must be a power of two; all of a user's
    rows land together and user ids spread uniformly, so no skew), then a
    vectorized pandas merge_asof per shard.
    Partitioning assumption: a single user's event history fits in one
    task — holds for any realistic per-user volume.
    """
    import ray.data

    from deduce_ray.ops.agg import merge_shards_pow2

    if n_shards is None:
        n_shards = merge_shards_pow2()

    events = read_parquet_sliced(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(
            pc.and_(
                pc.is_in(
                    batch.column("event_type"),
                    value_set=pa.array(["click", "view"]),
                ),
                # SQL equality never matches NULL, but pandas merge_asof
                # by= would pair NaN with NaN — drop null users up front
                pc.is_valid(batch.column("user_id")),
            )
        )
        shard = pc.cast(
            pc.bit_wise_and(pc.cast(batch.column("user_id"), pa.int64()), n_shards - 1),
            pa.int64(),
        )
        return pa.table(
            {
                "shard": shard,
                "event_id": batch.column("event_id"),
                "ts": batch.column("ts"),
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
            }
        )

    def asof_shard(df: pd.DataFrame) -> pd.DataFrame:
        clicks = df[df["event_type"] == "click"].sort_values("ts")
        views = df[df["event_type"] == "view"].sort_values("ts")
        if clicks.empty or views.empty:
            return pd.DataFrame(
                columns=["event_id", "user_id", "ts", "view_ts"]
            ).astype(
                {
                    "event_id": "int64",
                    "user_id": "int64",
                    "ts": "datetime64[us]",
                    "view_ts": "datetime64[us]",
                }
            )
        joined = pd.merge_asof(
            clicks[["event_id", "user_id", "ts"]],
            views[["user_id", "ts"]].rename(columns={"ts": "view_ts"}),
            left_on="ts",
            right_on="view_ts",
            by="user_id",
            direction="backward",
        )
        joined = joined[joined["view_ts"].notna()]
        return joined[["event_id", "user_id", "ts", "view_ts"]]

    return (
        events.map_batches(project, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda df: asof_shard(df.drop(columns=["shard"])),
            batch_format="pandas",
        )
    )


def click_attribution_sql() -> str:
    return """
        SELECT c.event_id, c.user_id, c.ts, v.ts AS view_ts
        FROM (SELECT * FROM events WHERE event_type = 'click') c
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'view') v
          ON c.user_id = v.user_id AND c.ts >= v.ts
    """


def events_value_quantiles(sf_dir: str, qs=(0.5, 0.95)):
    """EXACT distributed quantiles of event value per type, via an integer
    cents histogram: fine-key (event_type, cents) pre-aggregation (uniform
    shuffle), then per-type cumulative counts over the tiny histogram.
    Quantile definition (shared verbatim with the SQL oracle): the
    smallest value whose cumulative count reaches ceil(q * total), with q
    applied in double precision."""
    import math

    import ray.data

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": _cents(batch.column("value")),
            }
        )

    hist = grouped_agg(
        ds.map_batches(project, batch_format="pyarrow"),
        keys=["event_type", "cents"],
        aggs={"n": (None, "count")},
    )

    def quantiles(rows: pa.Table) -> pa.Table:
        # one group per distinct event_type (null its own), cents
        # ascending with nulls last (the window's NULLS LAST): a group
        # whose ceil(q * total) lands on the null cents reports NULL
        types = pc.dictionary_encode(rows.column("event_type").combine_chunks())
        code = pc.fill_null(types.indices, -1).to_numpy()
        cents = rows.column("cents")
        null_cents = cents.is_null().to_numpy(zero_copy_only=False)
        value = pc.fill_null(cents, 0).to_numpy()
        order = np.lexsort((value, null_cents, code))
        code, null_cents, value = code[order], null_cents[order], value[order]
        cum = np.cumsum(rows.column("n").to_numpy()[order])
        starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        ends = np.r_[starts[1:], len(code)] - 1
        before = np.r_[0, cum[ends[:-1]]]
        out = {"event_type": pc.take(rows.column("event_type"), order[starts])}
        for q in qs:
            need = np.array([math.ceil(q * int(t)) for t in cum[ends] - before])
            hit = np.maximum(np.searchsorted(cum, before + need), starts)
            out[f"p{int(q * 100)}"] = pa.array(value[hit] / 100.0, mask=null_cents[hit])
        return pa.table(out)

    # per-type histograms are tiny (distinct cent values); shard on the
    # type alone so each type's whole histogram meets in one merge
    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__shard", key_shards([batch.column("event_type")], n_shards)
        )

    n_shards = merge_shards()
    return shard_exchange(
        hist.map_batches(tag, batch_size=None, batch_format="pyarrow"),
        "__shard",
        n_shards,
        quantiles,
    )


def events_value_quantiles_sql(qs=(0.5, 0.95)) -> str:
    cols = ",\n               ".join(
        f"MIN(CASE WHEN cum >= ceil(CAST({q} AS DOUBLE) * total) THEN c END)"
        f" / 100.0 AS p{int(q * 100)}"
        for q in qs
    )
    return f"""
        WITH cents AS (
          SELECT event_type, CAST(round(value * 100) AS BIGINT) AS c
          FROM events
        ),
        hist AS (
          SELECT event_type, c, COUNT(*) AS n FROM cents GROUP BY 1, 2
        ),
        cum AS (
          SELECT event_type, c,
                 SUM(n) OVER (PARTITION BY event_type ORDER BY c) AS cum,
                 SUM(n) OVER (PARTITION BY event_type) AS total
          FROM hist
        )
        SELECT event_type,
               {cols}
        FROM cum GROUP BY event_type
    """


def campaign_attribution(sf_dir: str, n_campaigns: int = 40):
    """Range join with NO equality key: events matched to every
    (deterministic, overlapping) campaign window containing their
    timestamp, aggregated per campaign.

    The interval side is tiny, so this is a BROADCAST range join: the
    window table ships once via ray.put and each batch evaluates interval
    containment vectorized, emitting per-batch partial aggregates (the
    combiner) before one small merge shuffle.  For a large interval table
    the same op would bucket both sides by coarse time range first
    (equality key on the bucket, then the residual range predicate inside
    each bucket) — documented here as the scale path.
    """
    import ray
    import ray.data

    base = pd.Timestamp("2024-01-01")
    starts = np.array(
        [(base + pd.Timedelta(hours=11 * i)).to_datetime64() for i in range(n_campaigns)]
    )
    ends = np.array(
        [
            (base + pd.Timedelta(hours=11 * i + 16)).to_datetime64()
            for i in range(n_campaigns)
        ]
    )
    windows_ref = ray.put((starts, ends))

    events = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        s, e = ray.get(windows_ref)
        ts = df["ts"].to_numpy()
        # floor(x + 0.5) = SQL round() for non-negative values (np.rint
        # rounds half to even and would diverge on exact half-cents).
        # NULL values: COUNT(*) counts the row but SUM skips it — a bare
        # astype would turn NaN into INT64_MIN and poison the sum
        vals = df["value"].to_numpy(dtype=np.float64)
        has_val = ~np.isnan(vals)
        cents = np.floor(np.where(has_val, vals, 0.0) * 100.0 + 0.5).astype(
            np.int64
        )
        rows = []
        for cid in range(len(s)):
            mask = (ts >= s[cid]) & (ts < e[cid])
            if mask.any():
                mv = mask & has_val
                rows.append(
                    {
                        "campaign_id": cid,
                        "n_events": int(mask.sum()),
                        # a window whose every event has NULL value sums
                        # to NULL (SQL), not 0
                        "sum_cents": (
                            int(cents[mv].sum()) if mv.any() else np.nan
                        ),
                    }
                )
        return pd.DataFrame(rows, columns=["campaign_id", "n_events", "sum_cents"])

    agged = grouped_agg(
        events.map_batches(partials, batch_format="pandas"),
        keys=["campaign_id"],
        aggs={"n_events": ("n_events", "sum"), "sum_cents": ("sum_cents", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "campaign_id": df["campaign_id"].astype("int64"),
                "n_events": df["n_events"].astype("int64"),
                "sum_value": df["sum_cents"] / 100.0,
            }
        )

    return agged.map_batches(finish, batch_format="pandas")


def campaign_attribution_sql(n_campaigns: int = 40) -> str:
    return f"""
        WITH campaigns AS (
          SELECT i AS campaign_id,
                 TIMESTAMP '2024-01-01' + INTERVAL 1 HOUR * (i * 11) AS start_ts,
                 TIMESTAMP '2024-01-01' + INTERVAL 1 HOUR * (i * 11 + 16) AS end_ts
          FROM generate_series(0, {n_campaigns - 1}) t(i)
        )
        SELECT CAST(c.campaign_id AS BIGINT) AS campaign_id,
               COUNT(*) AS n_events,
               SUM(CAST(round(e.value * 100) AS BIGINT)) / 100.0 AS sum_value
        FROM events e
        JOIN campaigns c ON e.ts >= c.start_ts AND e.ts < c.end_ts
        GROUP BY 1
    """


def events_sliding(sf_dir: str, window_hours: int = 3, slide_hours: int = 1):
    """Sliding-window aggregate: per event_type, counts and exact sums over
    3-hour windows sliding hourly — each event belongs to
    window_hours/slide_hours overlapping windows, so the map side EMITS one
    row per covering window (the streaming sliding-window expansion), then
    the usual combiner + sharded merge aggregate.  Window key is the epoch
    second of the window START."""
    import ray.data

    n_covering = window_hours // slide_hours
    slide_s = slide_hours * 3600

    ds = read_parquet_sliced(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def expand(batch: pa.Table) -> pa.Table:
        import numpy as np

        ts_col = pc.cast(batch.column("ts"), pa.int64())
        ts_null = pc.is_null(ts_col).to_numpy(zero_copy_only=False)
        micros = ts_col.fill_null(0).to_numpy(zero_copy_only=False)
        slot = (micros // 1_000_000) // slide_s  # slide-aligned slot index
        cents_col = _cents(batch.column("value"))
        c_null = pc.is_null(cents_col).to_numpy(zero_copy_only=False)
        cents = cents_col.fill_null(0).to_numpy(zero_copy_only=False)
        types = batch.column("event_type").to_pylist()
        win_parts, cent_parts, out_type = [], [], []
        for j in range(n_covering):
            # window starting at (slot - j) covers this event; null ts
            # stays a NULL window group (SQL arithmetic on NULL)
            win_parts.append((slot - j) * slide_s)
            cent_parts.append(cents)
            out_type.extend(types)
        n = len(win_parts)
        return pa.table(
            {
                "event_type": pa.array(out_type),
                "window_start": pa.array(
                    np.concatenate(win_parts),
                    type=pa.int64(),
                    mask=np.tile(ts_null, n),
                ),
                "cents": pa.array(
                    np.concatenate(cent_parts),
                    type=pa.int64(),
                    mask=np.tile(c_null, n),
                ),
            }
        )

    agged = grouped_agg(
        ds.map_batches(expand, batch_format="pyarrow"),
        keys=["event_type", "window_start"],
        aggs={"n_events": (None, "count"), "sum_cents": ("cents", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "window_start": _nullable_int(df["window_start"]),
                "n_events": df["n_events"].astype("int64"),
                "sum_value": df["sum_cents"] / 100.0,
            }
        )

    return agged.map_batches(finish, batch_format="pandas")


def events_sliding_sql(window_hours: int = 3, slide_hours: int = 1) -> str:
    n_covering = window_hours // slide_hours
    slide_s = slide_hours * 3600
    return f"""
        WITH expanded AS (
          SELECT event_type,
                 (((epoch_us(ts) // 1000000) // {slide_s}) - j) * {slide_s}
                   AS window_start,
                 CAST(round(value * 100) AS BIGINT) AS cents
          FROM events, generate_series(0, {n_covering - 1}) t(j)
        )
        SELECT event_type, window_start,
               COUNT(*) AS n_events,
               SUM(cents) / 100.0 AS sum_value
        FROM expanded
        GROUP BY 1, 2
    """
