// Batch-at-a-time execution pipeline: RowBatch mechanics, batch-size
// invariance of results and simulated times (batch capacity is a wall-clock
// knob only), LIMIT cutting a batch mid-fill, empty results, cursor
// rebind-and-reopen on cached plans, EXPLAIN ANALYZE counters, and the
// app-server regression that tuple shipping stays charged per tuple no
// matter how many tuples a FetchBatch call returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "appsys/connection.h"
#include "common/sim_clock.h"
#include "common/str_util.h"
#include "rdbms/db.h"
#include "rdbms/exec/join_table.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                      \
  do {                                       \
    ::r3::Status _st = (expr);               \
    ASSERT_TRUE(_st.ok()) << _st.ToString(); \
  } while (false)

TEST(RowBatchTest, AppendTruncatePop) {
  RowBatch batch(4);
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_TRUE(batch.empty());
  for (int i = 0; i < 4; ++i) {
    Row& r = batch.AppendRow();
    r.push_back(Value::Int(i));
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.row(2)[0].AsInt(), 2);

  batch.PopRow();
  EXPECT_EQ(batch.size(), 3u);
  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.row(0)[0].AsInt(), 0);

  // Reset empties but keeps capacity; appended slots are reused cleared.
  batch.Reset(4);
  EXPECT_TRUE(batch.empty());
  Row& r = batch.AppendRow();
  EXPECT_TRUE(r.empty());
}

TEST(RowBatchTest, KeepCompactsFromOffset) {
  RowBatch batch(8);
  for (int i = 0; i < 8; ++i) {
    batch.AppendRow().push_back(Value::Int(i));
  }
  // Keep rows 0..2 untouched, then survivors {4, 6, 7} of the tail.
  SelVector sel = {4, 6, 7};
  batch.Keep(sel, /*first=*/3);
  ASSERT_EQ(batch.size(), 6u);
  const int64_t expect[] = {0, 1, 2, 4, 6, 7};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch.row(i)[0].AsInt(), expect[i]) << "row " << i;
  }
}

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  Status st = db->Execute(
      "CREATE TABLE t (id INT, grp INT, val DECIMAL, PRIMARY KEY (id))");
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = db->Execute("CREATE TABLE s (id INT, t_grp INT, PRIMARY KEY (id))");
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (int64_t i = 0; i < 500; ++i) {
    st = db->InsertRow("t", Row{Value::Int(i), Value::Int(i % 100),
                                Value::Decimal(static_cast<double>(i) / 7.0)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  for (int64_t i = 0; i < 200; ++i) {
    st = db->InsertRow("s", Row{Value::Int(i), Value::Int(i % 50)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = db->Analyze();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

std::vector<std::string> RowStrings(const QueryResult& r) {
  std::vector<std::string> out;
  out.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Results and simulated times must be identical at batch 1 (the legacy
// row-at-a-time shape), a deliberately awkward 7, and the default 1024 —
// across scans, filters, aggregation, sort, distinct, joins, and LIMIT.
TEST(BatchSizeInvarianceTest, RowsAndSimTimesIdenticalAcrossBatchSizes) {
  const std::vector<std::string> queries = {
      "SELECT grp, COUNT(*), SUM(val) FROM t WHERE val > 10.0 GROUP BY grp",
      "SELECT DISTINCT grp FROM t WHERE id < 200",
      "SELECT id, val FROM t ORDER BY val DESC LIMIT 10",
      "SELECT COUNT(*) FROM t, s WHERE t.id = s.t_grp",
      "SELECT id FROM t WHERE id >= 100 LIMIT 37",
  };

  // Per batch size, a fresh (deterministically identical) database; the
  // simulated time of each query must not depend on the batch capacity.
  std::vector<std::vector<int64_t>> times;
  std::vector<std::vector<std::vector<std::string>>> rows;
  for (size_t batch_rows : {size_t{1}, size_t{7}, kDefaultBatchRows}) {
    auto db = MakeDb();
    db->set_batch_rows(batch_rows);
    times.emplace_back();
    rows.emplace_back();
    for (const std::string& q : queries) {
      ASSERT_OK(db->pool()->Reset());
      SimTimer t(*db->clock());
      auto res = db->Query(q);
      times.back().push_back(t.ElapsedUs());
      ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
      rows.back().push_back(RowStrings(res.value()));
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t k = 1; k < times.size(); ++k) {
      EXPECT_EQ(times[0][qi], times[k][qi])
          << queries[qi] << ": batch-size run " << k
          << " changed simulated time";
      EXPECT_EQ(rows[0][qi], rows[k][qi])
          << queries[qi] << ": batch-size run " << k << " changed rows";
    }
  }
}

// The index key-range cursor carries its position across NextBatch calls:
// an IndexScan over several ranges and an IndexNLJoin over several probes
// with several matches each return the same rows, in key order, and the
// same simulated time whether a batch holds one row or many.
TEST(BatchSizeInvarianceTest, IndexRangesAndProbesAcrossBatchSizes) {
  struct Case {
    std::string sql;
    std::string plan_part;
    std::vector<std::string> first_rows;
    size_t rows;
  };
  const std::vector<Case> cases = {
      {"SELECT id FROM big WHERE id IN (4999, 3, 2500, 17, 3)", "ranges=5",
       {"3|", "17|", "2500|", "4999|"}, 4},
      // `id = 1` overlaps `id < 3`: the two merge into one descent.
      {"SELECT id FROM big WHERE id < 3 OR id > 4996 OR id = 1", "ranges=3",
       {"0|", "1|", "2|", "4997|", "4998|", "4999|"}, 6},
      {"SELECT id FROM big WHERE id >= 2 AND id < 5", "lo=2, hi=5",
       {"2|", "3|", "4|"}, 3},
      {"SELECT drv.id, big.id FROM drv, big "
       "WHERE big.grp = drv.g AND drv.id < 3",
       "IndexNLJoin(big via big_grp", {"0|0|", "0|1000|", "0|2000|"}, 15},
  };
  std::vector<std::vector<int64_t>> times;
  std::vector<std::vector<std::vector<std::string>>> rows;
  for (size_t batch_rows : {size_t{1}, size_t{7}, kDefaultBatchRows}) {
    Database db;
    ASSERT_OK(db.Execute(
        "CREATE TABLE big (id INT, grp INT, pad CHAR(60), PRIMARY KEY (id))"));
    ASSERT_OK(db.Execute("CREATE INDEX big_grp ON big (grp)"));
    ASSERT_OK(db.Execute("CREATE TABLE drv (id INT, g INT)"));
    for (int64_t i = 0; i < 5000; ++i) {
      ASSERT_OK(db.InsertRow(
          "big", Row{Value::Int(i), Value::Int(i % 1000), Value::Str("p")}));
    }
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_OK(db.InsertRow("drv", Row{Value::Int(i), Value::Int(i * 7)}));
    }
    ASSERT_OK(db.Analyze());
    db.set_bind_peeking(true);
    db.set_batch_rows(batch_rows);
    times.emplace_back();
    rows.emplace_back();
    for (const Case& c : cases) {
      auto plan = db.Explain(c.sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_NE(plan.value().find(c.plan_part), std::string::npos)
          << plan.value();
      ASSERT_OK(db.pool()->Reset());
      SimTimer t(*db.clock());
      auto res = db.Query(c.sql);
      times.back().push_back(t.ElapsedUs());
      ASSERT_TRUE(res.ok()) << c.sql << ": " << res.status().ToString();
      rows.back().push_back(RowStrings(res.value()));
      const std::vector<std::string>& got = rows.back().back();
      ASSERT_EQ(got.size(), c.rows) << c.sql;
      for (size_t i = 0; i < c.first_rows.size(); ++i) {
        EXPECT_EQ(got[i], c.first_rows[i]) << c.sql << " row " << i;
      }
    }
  }
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    for (size_t k = 1; k < times.size(); ++k) {
      EXPECT_EQ(times[0][ci], times[k][ci]) << cases[ci].sql;
      EXPECT_EQ(rows[0][ci], rows[k][ci]) << cases[ci].sql;
    }
  }
}

TEST(BatchExecTest, LimitCutsMidBatch) {
  auto db = MakeDb();
  for (size_t batch_rows : {size_t{1}, size_t{7}, kDefaultBatchRows}) {
    db->set_batch_rows(batch_rows);
    auto res = db->Query("SELECT id FROM t WHERE id >= 100 LIMIT 37");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res.value().rows.size(), 37u) << "batch " << batch_rows;
    for (size_t i = 0; i < 37; ++i) {
      EXPECT_EQ(res.value().rows[i][0].AsInt(), static_cast<int64_t>(100 + i));
    }
  }
}

TEST(BatchExecTest, EmptyResultAndStickyExhaustion) {
  auto db = MakeDb();
  auto res = db->Query("SELECT id FROM t WHERE id < 0");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res.value().rows.empty());

  auto stmt = db->Prepare("SELECT id FROM t WHERE id < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db->OpenCursor(stmt.value(), {Value::Int(0)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(db->batch_rows());
  auto got = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value());
  EXPECT_TRUE(batch.empty());
  // Exhaustion is sticky: further fetches keep returning false.
  got = cur.value().FetchBatch(&batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value());
  ASSERT_OK(cur.value().Close());
}

TEST(BatchExecTest, CursorFetchGranularityAndRebind) {
  auto db = MakeDb();
  db->set_batch_rows(10);
  auto stmt = db->Prepare("SELECT id FROM t WHERE id < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  // 25 qualifying rows arrive as batches of 10, 10, 5.
  auto cur = db->OpenCursor(stmt.value(), {Value::Int(25)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(10);
  std::vector<size_t> batch_sizes;
  int64_t next_id = 0;
  while (true) {
    auto got = cur.value().FetchBatch(&batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    batch_sizes.push_back(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.row(i)[0].AsInt(), next_id++);
    }
  }
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{10, 10, 5}));
  ASSERT_OK(cur.value().Close());

  // Rebind-and-reopen the same cached plan with new parameters.
  auto cur2 = db->OpenCursor(stmt.value(), {Value::Int(3)});
  ASSERT_TRUE(cur2.ok()) << cur2.status().ToString();
  size_t rows = 0;
  while (true) {
    auto got = cur2.value().FetchBatch(&batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    rows += batch.size();
  }
  EXPECT_EQ(rows, 3u);
  ASSERT_OK(cur2.value().Close());

  // And the plain prepared path still works after cursor use.
  auto res = db->ExecutePrepared(stmt.value(), {Value::Int(7)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().rows.size(), 7u);
}

// Every event that flushes the plan cache (a DOP change, ANALYZE, CREATE
// INDEX) can land while a cursor is open on a cached plan. The cursor
// shares ownership of its plan, so it drains to the end unharmed.
TEST(BatchExecTest, OpenCursorOutlivesPlanCacheFlush) {
  auto db = MakeDb();
  db->set_batch_rows(10);
  auto stmt = db->Prepare("SELECT id FROM t WHERE id < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db->OpenCursor(stmt.value(), {Value::Int(25)});
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch(10);
  std::vector<int64_t> ids;
  while (true) {
    auto got = cur.value().FetchBatch(&batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(batch.row(i)[0].AsInt());
    }
    if (ids.size() == 10) {  // after the first batch: flush three ways
      db->set_dop(4);
      ASSERT_OK(db->Execute("ANALYZE"));
      ASSERT_OK(db->Execute("CREATE INDEX t_grp ON t (grp)"));
    }
  }
  ASSERT_OK(cur.value().Close());
  std::vector<int64_t> want(25);
  for (int64_t i = 0; i < 25; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(ids, want);
}

TEST(BatchExecTest, ExplainAnalyzeShowsRuntimeCounters) {
  auto db = MakeDb();
  const std::string q =
      "SELECT grp, COUNT(*) FROM t WHERE val > 10.0 GROUP BY grp";

  auto plain = db->Explain(q);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value().find("[rows="), std::string::npos) << plain.value();

  auto analyzed = db->ExplainAnalyze(q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed.value().find("[rows="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("sim="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("Totals:"), std::string::npos)
      << analyzed.value();
  // Stripped of the annotations, the analyzed plan is the plain plan.
  EXPECT_NE(analyzed.value().find("HashAggregate"), std::string::npos)
      << analyzed.value();
}

// The app server's interface cost is per tuple crossing the wire plus one
// round trip per call — batching the fetch amortizes neither. The cursor
// path must cost exactly rpc_round_trip + n * tuple_ship more than the
// same prepared statement executed inside the database, at every batch
// size.
TEST(BatchExecTest, ConnectionChargesTupleShipPerTuple) {
  for (size_t batch_rows : {size_t{2}, kDefaultBatchRows}) {
    auto db = MakeDb();
    db->set_batch_rows(batch_rows);
    appsys::DbConnection conn(db.get(), db->clock());
    const std::string sql = "SELECT id FROM t WHERE grp = ?";
    const std::vector<Value> params = {Value::Int(3)};

    // Warm: pays the hard parse so both timed runs are soft-parse.
    auto warm = conn.ExecuteCursor(sql, params);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const int64_t n = static_cast<int64_t>(warm.value().rows.size());
    ASSERT_EQ(n, 5);

    auto stmt = db->Prepare(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

    ASSERT_OK(db->pool()->Reset());
    SimTimer t_db(*db->clock());
    auto inside = db->ExecutePrepared(stmt.value(), params);
    int64_t db_us = t_db.ElapsedUs();
    ASSERT_TRUE(inside.ok()) << inside.status().ToString();

    conn.ResetStats();
    ASSERT_OK(db->pool()->Reset());
    SimTimer t_conn(*db->clock());
    auto shipped = conn.ExecuteCursor(sql, params);
    int64_t conn_us = t_conn.ElapsedUs();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();

    const CostModel& model = db->clock()->model();
    EXPECT_EQ(conn_us - db_us,
              model.rpc_round_trip_us + n * model.tuple_ship_us)
        << "batch " << batch_rows
        << ": interface overhead is not per-tuple (db=" << db_us
        << "us conn=" << conn_us << "us)";
    EXPECT_EQ(conn.stats().rows_shipped, n);
    EXPECT_EQ(conn.stats().round_trips, 1);
  }
}

// ---------------------------------------------------------------------------
// Projected decode: scans decode only the columns a query level reads
// ---------------------------------------------------------------------------

// CUST and ORD carry columns no projected query below reads (CHAR, VARCHAR,
// DATE, DECIMAL, and NULLs among them), so a projected decode that skipped
// or misplaced a column would change an answer. ORD is large enough for a
// parallel scan at DOP 4.
std::unique_ptr<Database> MakeProjectionDb(DatabaseOptions opts,
                                           const std::string& engine) {
  auto db = std::make_unique<Database>(nullptr, opts);
  const std::string clause = engine.empty() ? "" : " ENGINE=" + engine;
  Status st = db->Execute(
      "CREATE TABLE cust (ck INT, name CHAR(20), nation INT, note VARCHAR, "
      "bal DECIMAL, PRIMARY KEY (ck))" + clause);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = db->Execute(
      "CREATE TABLE ord (ok INT, ck INT, odate DATE, prio CHAR(12), "
      "comment VARCHAR, total DECIMAL, PRIMARY KEY (ok))" + clause);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (int64_t c = 0; c < 300; ++c) {
    st = db->InsertRow(
        "cust",
        Row{Value::Int(c), Value::Str("Customer#" + std::to_string(c)),
            Value::Int(c % 25),
            c % 7 == 0 ? Value::Null(DataType::kString)
                       : Value::Str("note for customer " + std::to_string(c)),
            Value::Decimal(static_cast<double>(c * 37 % 1000) / 3.0)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  // Customers 250..299 place no orders: the outer join NULL-fills them.
  for (int64_t o = 0; o < 8000; ++o) {
    st = db->InsertRow(
        "ord",
        Row{Value::Int(o), Value::Int(o * 7 % 250), Value::Date(9000 + o % 900),
            Value::Str(o % 5 == 0 ? "1-URGENT" : "3-MEDIUM"),
            o % 11 == 0
                ? Value::Null(DataType::kString)
                : Value::Str("order comment number " + std::to_string(o)),
            Value::Decimal(static_cast<double>(o % 977) + 0.25)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = db->Analyze();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

std::vector<std::string> SortedRows(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `sql` (reading a strict subset of the FROM tables' columns) and
/// `star_sql` (the same query with `SELECT *`), projects the star rows onto
/// `cols`, and expects the same multiset of rows. Returns the plan of
/// `sql` for shape assertions.
std::string ExpectProjectionMatchesStar(Database* db, const std::string& sql,
                                        const std::string& star_sql,
                                        const std::vector<size_t>& cols) {
  auto plan = db->Explain(sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  auto got = db->Query(sql);
  EXPECT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
  auto star = db->Query(star_sql);
  EXPECT_TRUE(star.ok()) << star_sql << ": " << star.status().ToString();
  if (!plan.ok() || !got.ok() || !star.ok()) return "";
  QueryResult projected;
  for (const Row& r : star.value().rows) {
    Row p;
    for (size_t c : cols) p.push_back(r[c]);
    projected.rows.push_back(std::move(p));
  }
  EXPECT_FALSE(got.value().rows.empty()) << sql;
  EXPECT_EQ(SortedRows(RowStrings(got.value())),
            SortedRows(RowStrings(projected)))
      << sql << "\n" << plan.value();
  return plan.value();
}

// Star column numbers: cust = 0 ck, 1 name, 2 nation, 3 note, 4 bal;
// ord after cust = 5 ok, 6 ck, 7 odate, 8 prio, 9 comment, 10 total.

TEST(ProjectedDecodeTest, SeqScanAndIndexScan) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  std::string plan = ExpectProjectionMatchesStar(
      db.get(), "SELECT note, bal FROM cust WHERE nation = 3",
      "SELECT * FROM cust WHERE nation = 3", {3, 4});
  EXPECT_NE(plan.find("SeqScan(cust"), std::string::npos) << plan;
  plan = ExpectProjectionMatchesStar(
      db.get(), "SELECT comment, odate FROM ord WHERE ok = 4321",
      "SELECT * FROM ord WHERE ok = 4321", {4, 2});
  EXPECT_NE(plan.find("IndexScan(ord"), std::string::npos) << plan;
}

TEST(ProjectedDecodeTest, IndexNestedLoopsJoin) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  ASSERT_OK(db->Execute("CREATE INDEX ord_ck ON ord (ck)"));
  ASSERT_OK(db->Analyze());
  std::string plan = ExpectProjectionMatchesStar(
      db.get(),
      "SELECT ord.comment, cust.name FROM cust, ord "
      "WHERE ord.ck = cust.ck AND cust.ck < 4",
      "SELECT * FROM cust, ord WHERE ord.ck = cust.ck AND cust.ck < 4",
      {9, 1});
  EXPECT_NE(plan.find("IndexNLJoin(ord"), std::string::npos) << plan;
}

TEST(ProjectedDecodeTest, GatherPartitionedHashBuild) {
  DatabaseOptions opts;
  opts.planner.dop = 4;
  auto db = MakeProjectionDb(opts, "");
  std::string plan = ExpectProjectionMatchesStar(
      db.get(),
      "SELECT cust.name, ord.prio, ord.total FROM cust, ord "
      "WHERE cust.ck = ord.ck AND cust.nation = 2",
      "SELECT * FROM cust, ord WHERE cust.ck = ord.ck AND cust.nation = 2",
      {1, 8, 10});
  EXPECT_NE(plan.find("HashJoin("), std::string::npos) << plan;
  EXPECT_NE(plan.find("Gather(dop=4)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ParallelSeqScan(ord"), std::string::npos) << plan;
}

TEST(ProjectedDecodeTest, LeftOuterHashJoinNullFillsBuildRanges) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  const std::string from =
      " FROM cust LEFT OUTER JOIN ord ON cust.ck = ord.ck AND "
      "ord.total > 900.0";
  std::string plan = ExpectProjectionMatchesStar(
      db.get(), "SELECT cust.name, ord.comment, ord.odate" + from,
      "SELECT *" + from, {1, 9, 7});
  EXPECT_NE(plan.find("HashLeftOuterJoin("), std::string::npos) << plan;
  // Customers without an order over 900 come back NULL-filled.
  auto nulls = db->Query("SELECT COUNT(*)" + from + " WHERE ord.ok IS NULL");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  EXPECT_GT(nulls.value().rows[0][0].AsInt(), 50);
}

TEST(ProjectedDecodeTest, ColumnarEngine) {
  auto db = MakeProjectionDb(DatabaseOptions(), "columnar");
  std::string plan = ExpectProjectionMatchesStar(
      db.get(),
      "SELECT cust.name, ord.prio FROM cust, ord "
      "WHERE cust.ck = ord.ck AND cust.nation = 4",
      "SELECT * FROM cust, ord WHERE cust.ck = ord.ck AND cust.nation = 4",
      {1, 8});
  EXPECT_NE(plan.find("ColumnarScan(ord"), std::string::npos) << plan;
}

// On the compact layout CUST.name sits at row position 0 but is table
// column 1. The columnar scan maps the filter's position back to the table
// column, so the dictionary-equality pushdown engages: a literal absent
// from the dictionary reads dictionaries only, and a present one scans
// every chunk. Mapping position 0 to column 0 (the INT key) would disable
// the pushdown and charge both the same chunk bytes.
TEST(ProjectedDecodeTest, ColumnarDictionaryPushdownOnCompactPositions) {
  auto db = MakeProjectionDb(DatabaseOptions(), "columnar");
  auto sim_us = [&](const std::string& sql, size_t* rows) {
    const int64_t t0 = db->clock()->NowMicros();
    auto res = db->Query(sql);
    EXPECT_TRUE(res.ok()) << sql << ": " << res.status().ToString();
    *rows = res.ok() ? res.value().rows.size() : 0;
    return db->clock()->NowMicros() - t0;
  };
  size_t present_rows = 0;
  size_t absent_rows = 0;
  const int64_t present =
      sim_us("SELECT bal FROM cust WHERE name = 'Customer#7'", &present_rows);
  const int64_t absent =
      sim_us("SELECT bal FROM cust WHERE name = 'Customer#x'", &absent_rows);
  EXPECT_EQ(present_rows, 1u);
  EXPECT_EQ(absent_rows, 0u);
  EXPECT_LT(absent, present);
}

Cursor OpenCursorOn(Database* db, const std::string& sql) {
  auto stmt = db->Prepare(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto cur = db->OpenCursor(stmt.value(), {});
  EXPECT_TRUE(cur.ok()) << cur.status().ToString();
  return std::move(cur.value());
}

/// Fetches the rows of an open cursor, projected onto `cols`, one batch of
/// `batch_rows` rows per FetchBatch call; stops after `max_batches` calls
/// (0 = drain).
std::vector<std::string> FetchProjected(Cursor* cur,
                                        const std::vector<size_t>& cols,
                                        size_t batch_rows,
                                        size_t max_batches = 0) {
  RowBatch batch(batch_rows);
  QueryResult fetched;
  for (size_t n = 0; max_batches == 0 || n < max_batches; ++n) {
    auto got = cur->FetchBatch(&batch);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok() || !got.value()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      Row r;
      for (size_t c : cols) r.push_back(batch.row(i)[c]);
      fetched.rows.push_back(std::move(r));
    }
  }
  return RowStrings(fetched);
}

// A cursor opened before an UPDATE and a DELETE keeps reading its snapshot:
// updated rows come from their alt versions and deleted rows from the
// page's ghosts, both decoded through the same projection.
TEST(ProjectedDecodeTest, MvccCursorSeesAltVersionsAndGhosts) {
  DatabaseOptions opts;
  opts.batch_rows = 1;
  auto db = MakeProjectionDb(opts, "");
  ASSERT_OK(db->EnableWal());  // turns MVCC on
  const std::string where = " FROM cust WHERE nation < 5";
  // Both cursors fetch one row, pinning their snapshots, before the writes.
  Cursor sub_cur = OpenCursorOn(db.get(), "SELECT note, bal" + where);
  Cursor star_cur = OpenCursorOn(db.get(), "SELECT *" + where);
  std::vector<std::string> subset = FetchProjected(&sub_cur, {0, 1}, 1, 1);
  std::vector<std::string> star = FetchProjected(&star_cur, {3, 4}, 1, 1);
  ASSERT_EQ(subset.size(), 1u);

  int64_t affected = 0;
  ASSERT_OK(db->Execute(
      "UPDATE cust SET note = 'rewritten', bal = 1.00 WHERE nation = 2", {},
      nullptr, &affected));
  EXPECT_GT(affected, 0);
  ASSERT_OK(db->Execute("DELETE FROM cust WHERE nation = 3", {}, nullptr,
                        &affected));
  EXPECT_GT(affected, 0);

  for (std::string& r : FetchProjected(&sub_cur, {0, 1}, 3)) {
    subset.push_back(std::move(r));
  }
  for (std::string& r : FetchProjected(&star_cur, {3, 4}, 3)) {
    star.push_back(std::move(r));
  }
  ASSERT_OK(sub_cur.Close());
  ASSERT_OK(star_cur.Close());
  EXPECT_EQ(SortedRows(subset), SortedRows(star));
  // Both saw the pre-update, pre-delete state: 5 nations of 12 customers.
  EXPECT_EQ(subset.size(), 60u);
  for (const std::string& r : subset) {
    EXPECT_EQ(r.find("rewritten"), std::string::npos) << r;
  }
  // A fresh statement sees the new state.
  auto now = db->Query("SELECT COUNT(*)" + where);
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_EQ(now.value().rows[0][0].AsInt(), 48);
}

// ---------------------------------------------------------------------------
// The flat hash-join table
// ---------------------------------------------------------------------------

TEST(JoinTableTest, ChainsKeepInsertionOrderThroughGrowth) {
  JoinTable table;
  table.Reset(/*width=*/2, /*est_rows=*/0);  // minimum slots: must grow
  EXPECT_EQ(table.Find("absent"), JoinTable::kEnd);
  for (int64_t i = 0; i < 3000; ++i) {
    Row packed{Value::Int(i), Value::Str("v" + std::to_string(i))};
    table.Insert("key" + std::to_string(i % 700), packed.data());
    EXPECT_TRUE(packed[1].string_value().empty());  // moved, not copied
  }
  EXPECT_EQ(table.num_rows(), 3000u);
  EXPECT_EQ(table.num_keys(), 700u);
  for (int64_t k = 0; k < 700; ++k) {
    std::vector<int64_t> got;
    for (uint32_t r = table.Find("key" + std::to_string(k));
         r != JoinTable::kEnd; r = table.Next(r)) {
      got.push_back(table.RowValues(r)[0].AsInt());
      EXPECT_EQ(table.RowValues(r)[1].string_value(),
                "v" + std::to_string(got.back()));
    }
    std::vector<int64_t> want;
    for (int64_t i = k; i < 3000; i += 700) want.push_back(i);
    ASSERT_EQ(got, want) << "key" << k;
  }
  EXPECT_EQ(table.Find("key700"), JoinTable::kEnd);
  // A key that differs only past an embedded NUL is its own key.
  Row a{Value::Int(-1), Value::Null()};
  table.Insert(std::string("key1\0x", 6), a.data());
  EXPECT_EQ(table.RowValues(table.Find(std::string("key1\0x", 6)))[0].AsInt(),
            -1);
  table.Release();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.Find("key1"), JoinTable::kEnd);
  table.Reset(0, 5);  // zero-width rows: a semi-join's build
  Row none;
  table.Insert("k", none.data());
  table.Insert("k", none.data());
  const uint32_t first = table.Find("k");
  ASSERT_NE(first, JoinTable::kEnd);
  EXPECT_NE(table.Next(first), JoinTable::kEnd);
}

// PR (probe) is the cheaper table, so it drives and BLD is the hash build.
// Neither has an index, so every equi join below is a hash join. BLD repeats
// each key and carries NULL keys; PR has a NULL key and a key (7) BLD lacks.
std::unique_ptr<Database> MakeHashJoinDb(DatabaseOptions opts) {
  auto db = std::make_unique<Database>(nullptr, opts);
  Status st = db->Execute("CREATE TABLE pr (tag CHAR(4), pad CHAR(30), k INT)");
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = db->Execute(
      "CREATE TABLE bld (seq INT, note VARCHAR, k INT, amt DECIMAL)");
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = db->Execute("CREATE TABLE empty_bld (k INT, seq INT)");
  EXPECT_TRUE(st.ok()) << st.ToString();
  const int64_t probe_keys[] = {3, -1, 0, 7, 3};  // -1 stands for NULL
  for (int64_t i = 0; i < 5; ++i) {
    const int64_t k = probe_keys[i];
    st = db->InsertRow("pr", Row{Value::Str("p" + std::to_string(i)),
                                 Value::Str("x"),
                                 k < 0 ? Value::Null() : Value::Int(k)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  for (int64_t i = 0; i < 60; ++i) {
    st = db->InsertRow(
        "bld", Row{Value::Int(i), Value::Str("note " + std::to_string(i)),
                   i % 6 == 5 ? Value::Null() : Value::Int((i * 7) % 5),
                   Value::Decimal(static_cast<double>(i) / 4.0)});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  st = db->Analyze();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

/// The rows `SELECT pr.tag, bld.seq FROM pr [LEFT OUTER] JOIN bld ON
/// pr.k = bld.k` must produce: PR in heap order, each row's matches in
/// BLD's insertion order; with `outer`, a NULL-extended row for a PR row
/// without matches.
std::vector<std::string> ExpectedHashJoinRows(bool outer) {
  const int64_t probe_keys[] = {3, -1, 0, 7, 3};
  std::vector<std::string> out;
  for (int64_t p = 0; p < 5; ++p) {
    bool matched = false;
    for (int64_t i = 0; i < 60; ++i) {
      if (i % 6 == 5 || probe_keys[p] < 0 || (i * 7) % 5 != probe_keys[p]) {
        continue;
      }
      out.push_back("p" + std::to_string(p) + "|" + std::to_string(i) + "|");
      matched = true;
    }
    if (outer && !matched) out.push_back("p" + std::to_string(p) + "|NULL|");
  }
  return out;
}

std::vector<std::string> QueryRows(Database* db, const std::string& sql) {
  auto res = db->Query(sql);
  EXPECT_TRUE(res.ok()) << sql << ": " << res.status().ToString();
  return res.ok() ? RowStrings(res.value()) : std::vector<std::string>{};
}

TEST(HashJoinTableTest, DuplicateKeysKeepBuildOrderAndNullKeysNeverMatch) {
  auto db = MakeHashJoinDb(DatabaseOptions());
  const std::string sql =
      "SELECT pr.tag, bld.seq FROM pr, bld WHERE pr.k = bld.k";
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("HashJoin(col#5=col#2)\n    SeqScan(bld)"),
            std::string::npos)
      << plan.value();
  EXPECT_EQ(QueryRows(db.get(), sql), ExpectedHashJoinRows(false));
}

TEST(HashJoinTableTest, LeftOuterJoinNullExtendsItsBuildSide) {
  auto db = MakeHashJoinDb(DatabaseOptions());
  const std::string sql =
      "SELECT pr.tag, bld.seq FROM pr LEFT OUTER JOIN bld ON pr.k = bld.k";
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("HashLeftOuterJoin("), std::string::npos)
      << plan.value();
  // The NULL-key probe row and the key-7 row come back NULL-extended.
  EXPECT_EQ(QueryRows(db.get(), sql), ExpectedHashJoinRows(true));
}

TEST(HashJoinTableTest, EmptyBuild) {
  auto db = MakeHashJoinDb(DatabaseOptions());
  const std::string sql =
      "SELECT pr.tag, empty_bld.seq FROM pr LEFT OUTER JOIN empty_bld "
      "ON pr.k = empty_bld.k";
  auto plan = db->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("HashLeftOuterJoin(col#3=col#2)\n"
                              "    SeqScan(empty_bld)"),
            std::string::npos)
      << plan.value();
  EXPECT_EQ(QueryRows(db.get(), sql),
            (std::vector<std::string>{"p0|NULL|", "p1|NULL|", "p2|NULL|",
                                      "p3|NULL|", "p4|NULL|"}));
  EXPECT_TRUE(QueryRows(db.get(),
                        "SELECT pr.tag FROM pr, empty_bld "
                        "WHERE pr.k = empty_bld.k")
                  .empty());
}

TEST(HashJoinTableTest, CachedPlanReopenedAfterCloseGivesIdenticalRows) {
  auto db = MakeHashJoinDb(DatabaseOptions());
  const std::string sql =
      "SELECT pr.tag, bld.seq, bld.note FROM pr, bld WHERE pr.k = bld.k";
  auto stmt = db->Prepare(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::vector<std::string> first;
  for (int run = 0; run < 3; ++run) {
    // A cursor closed early (one batch) must not leak into the next run.
    auto cur = db->OpenCursor(stmt.value(), {});
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    std::vector<std::string> rows =
        FetchProjected(&cur.value(), {0, 1, 2}, 4, run == 1 ? 1 : 0);
    ASSERT_OK(cur.value().Close());
    if (run == 0) {
      first = rows;
      EXPECT_EQ(first.size(), ExpectedHashJoinRows(false).size());
    } else if (run == 2) {
      EXPECT_EQ(rows, first);
    }
  }
  EXPECT_EQ(QueryRows(db.get(), sql), first);  // through the plan cache
}

TEST(HashJoinTableTest, PartitionedBuildAtDop4MatchesDop1RowForRow) {
  DatabaseOptions serial_opts;
  DatabaseOptions parallel_opts;
  parallel_opts.planner.dop = 4;
  auto serial = MakeProjectionDb(serial_opts, "");
  auto parallel = MakeProjectionDb(parallel_opts, "");
  // ORD, the build side, repeats every customer key across many morsels.
  for (const char* sql :
       {"SELECT cust.name, ord.ok, ord.prio FROM cust, ord "
        "WHERE cust.ck = ord.ck AND cust.nation = 2",
        "SELECT cust.ck, ord.comment, ord.total FROM cust, ord "
        "WHERE cust.ck = ord.ck AND cust.nation < 10 AND "
        "ord.total + cust.bal > 1000.0"}) {
    auto plan = parallel->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().find("ParallelSeqScan(ord"), std::string::npos)
        << plan.value();
    std::vector<std::string> want = QueryRows(serial.get(), sql);
    EXPECT_FALSE(want.empty()) << sql;
    EXPECT_EQ(QueryRows(parallel.get(), sql), want) << sql;
  }
}

// ---------------------------------------------------------------------------
// Compact row layout: NULL sides and correlated subqueries
// ---------------------------------------------------------------------------

TEST(CompactLayoutTest, IndexNestedLoopsOuterJoinNullSide) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  ASSERT_OK(db->Execute("CREATE INDEX ord_ck ON ord (ck)"));
  ASSERT_OK(db->Analyze());
  const std::string from =
      " FROM cust LEFT OUTER JOIN ord ON cust.ck = ord.ck AND "
      "ord.total > 900.0 WHERE cust.ck BETWEEN 246 AND 251";
  std::string plan = ExpectProjectionMatchesStar(
      db.get(), "SELECT ord.comment, cust.name, ord.total" + from,
      "SELECT *" + from, {9, 1, 10});
  EXPECT_NE(plan.find("IndexNLOuterJoin(ord"), std::string::npos) << plan;
  // Customers 250 and 251 place no orders at all.
  auto nulls = db->Query("SELECT cust.ck" + from + " AND ord.ok IS NULL");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  std::vector<std::string> got = RowStrings(nulls.value());
  EXPECT_NE(std::find(got.begin(), got.end(), "250|"), got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), "251|"), got.end());
}

TEST(CompactLayoutTest, HashOuterJoinNullSideInTheMiddleOfTheRow) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  ASSERT_OK(db->Execute(
      "CREATE TABLE nat (nk INT, nname CHAR(12), region INT)"));
  for (int64_t n = 0; n < 25; ++n) {
    ASSERT_OK(db->InsertRow("nat", Row{Value::Int(n),
                                       Value::Str("N" + std::to_string(n)),
                                       Value::Int(n % 5)}));
  }
  ASSERT_OK(db->Analyze());
  // Layout order is FROM order: cust, ord (the NULL side), nat.
  const std::string from =
      " FROM cust LEFT OUTER JOIN ord ON cust.ck = ord.ck AND "
      "ord.total > 900.0 JOIN nat ON nat.nk = cust.nation "
      "WHERE nat.region = 1";
  std::string plan = ExpectProjectionMatchesStar(
      db.get(), "SELECT nat.nname, ord.odate, cust.bal, ord.prio" + from,
      "SELECT *" + from, {12, 7, 4, 8});
  EXPECT_NE(plan.find("HashLeftOuterJoin("), std::string::npos) << plan;
}

// The outer level has a subquery, so it keeps the full-width layout its
// outer reference (outer#1 = ord.ck) addresses; the subquery's own level
// is compact (cust.ck, cust.bal at positions 0 and 1, not 0 and 4).
TEST(CompactLayoutTest, CorrelatedSubqueryCompactUnderFullWidthOuter) {
  auto db = MakeProjectionDb(DatabaseOptions(), "");
  const std::string sql =
      "SELECT ord.ok, ord.total FROM ord WHERE ord.total < "
      "(SELECT MAX(cust.bal) FROM cust WHERE cust.ck = ord.ck)";
  auto got = db->Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto custs = db->Query("SELECT * FROM cust");
  auto ords = db->Query("SELECT * FROM ord");
  ASSERT_TRUE(custs.ok() && ords.ok());
  std::vector<Value> bal_of(300);
  for (const Row& c : custs.value().rows) bal_of[c[0].AsInt()] = c[4];
  QueryResult want;
  for (const Row& o : ords.value().rows) {
    const Value& bal = bal_of[o[1].AsInt()];
    if (o[5].Compare(bal) < 0) want.rows.push_back(Row{o[0], o[5]});
  }
  EXPECT_FALSE(want.rows.empty());
  EXPECT_EQ(RowStrings(got.value()), RowStrings(want));
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
