// Optimizer v2 tests: equi-height histogram construction, the bind-peeking
// plan-variant cache, per-engine cost calibration, multi-range index access,
// and the peeking-off byte-identity contract over the TPC-D query sweep.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/str_util.h"
#include "rdbms/db.h"
#include "rdbms/optimizer/optimizer_costs.h"
#include "rdbms/optimizer/stats.h"
#include "tpcd/loader.h"
#include "tpcd/qgen.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

// ---------------------------------------------------------------------------
// Histogram construction
// ---------------------------------------------------------------------------

ColumnStats StatsFor(std::vector<Value> values, uint64_t null_count) {
  ColumnStats s;
  s.null_count = null_count;
  if (!values.empty()) {
    std::sort(values.begin(), values.end(),
              [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    s.valid = true;
    s.min = values.front();
    s.max = values.back();
    uint64_t ndv = 1;
    for (size_t i = 1; i < values.size(); ++i) {
      if (values[i].Compare(values[i - 1]) != 0) ++ndv;
    }
    s.ndv = ndv;
    BuildEquiHeightHistogram(std::move(values), &s);
  }
  return s;
}

TEST(HistogramTest, SkewedColumnBeatsUniformityAssumption) {
  // 1000 copies of 7 plus the singletons 101..200: the uniform-ndv model
  // claims every value selects 1/101 of the rows; the histogram knows the
  // heavy hitter holds ~91% of them.
  std::vector<Value> vals;
  for (int i = 0; i < 1000; ++i) vals.push_back(Value::Int(7));
  for (int i = 101; i <= 200; ++i) vals.push_back(Value::Int(i));
  ColumnStats s = StatsFor(std::move(vals), 0);
  ASSERT_FALSE(s.hist.empty());
  EXPECT_EQ(s.hist_rows, 1100u);
  double hist_eq = selectivity::Equals(s, Value::Int(7), /*use_histogram=*/true);
  EXPECT_NEAR(hist_eq, 1000.0 / 1100.0, 0.05);
  double flat_eq = selectivity::Equals(s, Value::Int(7), /*use_histogram=*/false);
  EXPECT_LT(flat_eq, 0.02);  // 1/101 — off by two orders of magnitude
  // Range estimation sees the mass concentrated at the low end.
  double lt = selectivity::LessThan(s, Value::Int(100), /*use_histogram=*/true);
  EXPECT_NEAR(lt, 1000.0 / 1100.0, 0.05);
}

TEST(HistogramTest, ConstantColumnIsOneBucket) {
  std::vector<Value> vals(500, Value::Str("301"));
  ColumnStats s = StatsFor(std::move(vals), 0);
  ASSERT_EQ(s.hist.size(), 1u);
  EXPECT_DOUBLE_EQ(
      selectivity::Equals(s, Value::Str("301"), /*use_histogram=*/true), 1.0);
  EXPECT_DOUBLE_EQ(
      selectivity::LessThan(s, Value::Str("301"), /*use_histogram=*/true), 0.0);
}

TEST(HistogramTest, NullHeavyColumnScalesByNonNullFraction) {
  std::vector<Value> vals;
  for (int i = 1; i <= 100; ++i) vals.push_back(Value::Int(i));
  ColumnStats s = StatsFor(std::move(vals), /*null_count=*/900);
  ASSERT_FALSE(s.hist.empty());
  // NULLs never satisfy a comparison: the histogram fractions shrink by the
  // non-null share (100 of 1000 rows).
  double lt = selectivity::LessThan(s, Value::Int(51), /*use_histogram=*/true);
  EXPECT_NEAR(lt, 0.05, 0.01);
  double eq = selectivity::Equals(s, Value::Int(42), /*use_histogram=*/true);
  EXPECT_NEAR(eq, 0.001, 0.0005);
}

TEST(HistogramTest, AnalyzePopulatesHistograms) {
  Database db;
  ASSERT_OK(db.Execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))"));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_OK(db.InsertRow("t", Row{Value::Int(i), Value::Int(i % 3)}));
  }
  ASSERT_OK(db.Analyze("t"));
  auto t = db.catalog()->GetTable("t");
  ASSERT_OK(t.status());
  const TableStats& stats = t.value()->stats;
  ASSERT_TRUE(stats.valid);
  EXPECT_FALSE(stats.columns[0].hist.empty());
  EXPECT_EQ(stats.columns[0].hist_rows, 200u);
  EXPECT_EQ(t.value()->mods_since_analyze, 0u);
}

// ---------------------------------------------------------------------------
// Bind peeking: plan-variant cache
// ---------------------------------------------------------------------------

class PeekFixture : public ::testing::Test {
 protected:
  void MakeDb(EngineKind engine) {
    DatabaseOptions opts;
    opts.buffer_pool_bytes = 512 * 1024;
    opts.default_engine = engine;
    opts.metrics = &metrics_;
    db_ = std::make_unique<Database>(nullptr, opts);
    ASSERT_OK(db_->Execute(
        "CREATE TABLE big (id INT, val INT, pad CHAR(60), PRIMARY KEY (id))"));
    for (int64_t i = 0; i < 10000; ++i) {
      ASSERT_OK(db_->InsertRow(
          "big", Row{Value::Int(i), Value::Int(i % 97), Value::Str("p")}));
    }
    ASSERT_OK(db_->Execute("ANALYZE"));
  }

  int64_t CounterValue(const std::string& name) {
    return metrics_.GetCounter(name)->Value();
  }

  MetricsRegistry metrics_;
  std::unique_ptr<Database> db_;
};

TEST_F(PeekFixture, BucketBoundaryCompilesExactlyTwoVariants) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT val FROM big WHERE id < ?";

  // Selective bound: ~0.1% of the table -> bucket 0, first hard parse.
  Database::BindPeekInfo info;
  auto s1 = db_->PrepareWithParams(sql, {Value::Int(5)}, &info);
  ASSERT_OK(s1.status());
  EXPECT_TRUE(info.peeked);
  EXPECT_EQ(info.bucket, 0);
  EXPECT_FALSE(info.hit);
  EXPECT_NE(s1.value()->ExplainPlan().find("IndexScan"), std::string::npos);

  // Same bucket, different literal: cache hit, same variant object.
  auto s2 = db_->PrepareWithParams(sql, {Value::Int(3)}, &info);
  ASSERT_OK(s2.status());
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(info.bucket, 0);
  EXPECT_EQ(s1.value(), s2.value());

  // Crossing the boundary: ~90% of the table -> bucket 3, one new variant.
  auto s3 = db_->PrepareWithParams(sql, {Value::Int(9000)}, &info);
  ASSERT_OK(s3.status());
  EXPECT_FALSE(info.hit);
  EXPECT_EQ(info.bucket, 3);
  EXPECT_NE(s3.value(), s1.value());
  EXPECT_NE(s3.value()->ExplainPlan().find("SeqScan"), std::string::npos);

  // Re-execution in the non-selective bucket: hit again.
  auto s4 = db_->PrepareWithParams(sql, {Value::Int(9500)}, &info);
  ASSERT_OK(s4.status());
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(s4.value(), s3.value());

  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.variants"), 2);
  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.bucket0_hits"), 1);
  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.bucket3_hits"), 1);

  // The variants return correct results for their buckets.
  auto r1 = db_->ExecutePrepared(s1.value(), {Value::Int(5)});
  ASSERT_OK(r1.status());
  EXPECT_EQ(r1.value().rows.size(), 5u);
  auto r3 = db_->ExecutePrepared(s3.value(), {Value::Int(9000)});
  ASSERT_OK(r3.status());
  EXPECT_EQ(r3.value().rows.size(), 9000u);
}

TEST_F(PeekFixture, PeekingOffForwardsToPlainPrepare) {
  MakeDb(EngineKind::kRowHeap);
  Database::BindPeekInfo info;
  auto s1 = db_->PrepareWithParams("SELECT val FROM big WHERE id < ?",
                                   {Value::Int(10)}, &info);
  ASSERT_OK(s1.status());
  EXPECT_FALSE(info.peeked);
  auto s2 = db_->Prepare("SELECT val FROM big WHERE id < ?");
  ASSERT_OK(s2.status());
  EXPECT_EQ(s1.value(), s2.value());  // same cache, same statement
  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.variants"), 0);
}

// DROP flushes the plan-variant cache along with the plain one: a cached
// variant would still hold the dropped table's TableInfo.
TEST_F(PeekFixture, DropTableFlushesPlanVariants) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT val FROM big WHERE id < ?";
  Database::BindPeekInfo info;
  // One variant per bucket, so no bucket could miss and recompile by luck.
  for (int64_t bound : {5, 100, 1000, 9000}) {
    ASSERT_OK(
        db_->PrepareWithParams(sql, {Value::Int(bound)}, &info).status());
  }
  ASSERT_EQ(CounterValue("rdbms.sql.plan_cache.variants"), kPeekBuckets);
  const int64_t parses = CounterValue("rdbms.sql.hard_parses");

  ASSERT_OK(db_->Execute("DROP TABLE big"));
  auto again = db_->PrepareWithParams(sql, {Value::Int(3)}, &info);
  EXPECT_FALSE(again.ok());  // recompiled against the catalog: no table
  EXPECT_FALSE(info.hit);
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"), parses + 1);
}

// A DOP change flushes the variants too: the next compile plans the new
// lane count.
TEST_F(PeekFixture, SetDopFlushesPlanVariants) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT val FROM big WHERE id < ?";
  Database::BindPeekInfo info;
  auto serial = db_->PrepareWithParams(sql, {Value::Int(9000)}, &info);
  ASSERT_OK(serial.status());
  EXPECT_EQ(serial.value()->ExplainPlan().find("Gather"), std::string::npos);

  db_->set_dop(4);
  auto parallel = db_->PrepareWithParams(sql, {Value::Int(9500)}, &info);
  ASSERT_OK(parallel.status());
  EXPECT_FALSE(info.hit);
  EXPECT_NE(parallel.value()->ExplainPlan().find("Gather(dop=4)"),
            std::string::npos)
      << parallel.value()->ExplainPlan();
  auto rows = db_->ExecutePrepared(parallel.value(), {Value::Int(9500)});
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows.value().rows.size(), 9500u);
}

// A new index is a new access path: CREATE INDEX flushes the cached plans,
// so the statement recompiles and picks the index up.
TEST_F(PeekFixture, CreateIndexFlushesPlans) {
  MakeDb(EngineKind::kRowHeap);
  const std::string sql = "SELECT id FROM big WHERE val = ?";
  auto before = db_->Prepare(sql);
  ASSERT_OK(before.status());
  EXPECT_NE(before.value()->ExplainPlan().find("SeqScan"), std::string::npos)
      << before.value()->ExplainPlan();
  const int64_t parses = CounterValue("rdbms.sql.hard_parses");

  ASSERT_OK(db_->Execute("CREATE INDEX big_val ON big (val)"));
  auto after = db_->Prepare(sql);
  ASSERT_OK(after.status());
  EXPECT_NE(after.value()->ExplainPlan().find("IndexScan"), std::string::npos)
      << after.value()->ExplainPlan();
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"), parses + 1);
}

// New statistics can change any plan choice: after ANALYZE the un-peeked
// plan and every peeked variant are misses.
TEST_F(PeekFixture, AnalyzeFlushesPlans) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT val FROM big WHERE id < ?";
  const std::vector<int64_t> bounds = {5, 100, 1000, 9000};  // one per bucket
  ASSERT_OK(db_->Prepare(sql).status());
  Database::BindPeekInfo info;
  for (int64_t bound : bounds) {
    ASSERT_OK(
        db_->PrepareWithParams(sql, {Value::Int(bound)}, &info).status());
  }
  const int64_t parses = CounterValue("rdbms.sql.hard_parses");
  const int64_t hits = CounterValue("rdbms.sql.prepared_cache_hits");

  ASSERT_OK(db_->Execute("ANALYZE"));
  ASSERT_OK(db_->Prepare(sql).status());
  for (int64_t bound : bounds) {
    ASSERT_OK(
        db_->PrepareWithParams(sql, {Value::Int(bound)}, &info).status());
    EXPECT_FALSE(info.hit) << "bound " << bound;
  }
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"),
            parses + 1 + static_cast<int64_t>(bounds.size()));
  EXPECT_EQ(CounterValue("rdbms.sql.prepared_cache_hits"), hits);
}

// A crash empties the buffer pool under every cached plan: after recovery
// the same statement text is a miss and compiles again.
TEST_F(PeekFixture, CrashFlushesPlans) {
  MakeDb(EngineKind::kRowHeap);
  ASSERT_OK(db_->EnableWal());
  const std::string sql = "SELECT val FROM big WHERE id = ?";
  ASSERT_OK(db_->Prepare(sql).status());
  ASSERT_OK(db_->Prepare(sql).status());  // warm: a hit
  const int64_t parses = CounterValue("rdbms.sql.hard_parses");
  const int64_t hits = CounterValue("rdbms.sql.prepared_cache_hits");

  ASSERT_OK(db_->SimulateCrash());
  ASSERT_OK(db_->Recover());
  auto again = db_->Prepare(sql);
  ASSERT_OK(again.status());
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"), parses + 1);
  EXPECT_EQ(CounterValue("rdbms.sql.prepared_cache_hits"), hits);
  auto rows = db_->ExecutePrepared(again.value(), {Value::Int(42)});
  ASSERT_OK(rows.status());
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].int_value(), 42 % 97);
}

// With peeking on, Prepare's un-peeked plan (bucket -1) and the peeked
// variants live side by side under one statement text, each a separate
// plan that hits on its own.
TEST_F(PeekFixture, PlainAndPeekedPlansShareOneEntry) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT val FROM big WHERE id < ?";
  const int64_t parses = CounterValue("rdbms.sql.hard_parses");
  Database::BindPeekInfo info;
  auto peeked = db_->PrepareWithParams(sql, {Value::Int(5)}, &info);
  ASSERT_OK(peeked.status());
  EXPECT_FALSE(info.hit);
  auto plain = db_->Prepare(sql);
  ASSERT_OK(plain.status());
  EXPECT_NE(plain.value(), peeked.value());
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"), parses + 2);
  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.variants"), 1);

  auto plain_again = db_->Prepare(sql);
  ASSERT_OK(plain_again.status());
  EXPECT_EQ(plain_again.value(), plain.value());
  auto peeked_again = db_->PrepareWithParams(sql, {Value::Int(3)}, &info);
  ASSERT_OK(peeked_again.status());
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(peeked_again.value(), peeked.value());
  EXPECT_EQ(CounterValue("rdbms.sql.hard_parses"), parses + 2);
  EXPECT_EQ(CounterValue("rdbms.sql.prepared_cache_hits"), 2);
  EXPECT_EQ(CounterValue("rdbms.sql.plan_cache.bucket0_hits"), 1);
}

TEST_F(PeekFixture, ExplainWithParamsShowsPeekAndCosts) {
  MakeDb(EngineKind::kRowHeap);
  auto plan =
      db_->Explain("SELECT val FROM big WHERE id < ?", {Value::Int(5)});
  ASSERT_OK(plan.status());
  EXPECT_NE(plan.value().find("Peek: bucket=0"), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("Costs(big):"), std::string::npos)
      << plan.value();
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
}

// ---------------------------------------------------------------------------
// Per-engine calibrated costs
// ---------------------------------------------------------------------------

TEST_F(PeekFixture, CalibratedCostsDivergePerEngine) {
  MakeDb(EngineKind::kRowHeap);
  auto row_t = db_->catalog()->GetTable("big");
  ASSERT_OK(row_t.status());
  const CostModel& cost = DefaultCostModel();
  OptimizerCosts row_costs = OptimizerCosts::ForTable(*row_t.value(), cost);
  // Row heap: fetching a row behind an index entry is a random page read.
  EXPECT_DOUBLE_EQ(row_costs.row_fetch_us, cost.random_page_read_us);
  EXPECT_DOUBLE_EQ(row_costs.index_entry_cpu_us, cost.dbms_tuple_cpu_us);
  EXPECT_DOUBLE_EQ(row_costs.index_descent_us, 2.0 * cost.random_page_read_us);

  MakeDb(EngineKind::kColumnar);
  auto col_t = db_->catalog()->GetTable("big");
  ASSERT_OK(col_t.status());
  OptimizerCosts col_costs = OptimizerCosts::ForTable(*col_t.value(), cost);
  // Columnar: Get() charges per-value CPU, no random page I/O — the PR 6
  // pessimization this calibration replaces.
  EXPECT_LT(col_costs.row_fetch_us, row_costs.row_fetch_us / 100.0);
  EXPECT_DOUBLE_EQ(col_costs.index_entry_cpu_us, cost.dbms_tuple_cpu_us);
}

TEST_F(PeekFixture, EnginesPickDifferentAccessPathsAtSameBound) {
  // The cheap columnar row fetch keeps the index attractive at fractions
  // where the row engine must already scan. Some bound in the sweep shows
  // the divergence on identical data and an identical statement.
  const std::string sql = "SELECT val FROM big WHERE id < ?";
  std::vector<int64_t> bounds = {20, 50, 100, 200, 500, 1000, 2000};
  std::vector<std::string> row_plans, col_plans;
  for (EngineKind engine : {EngineKind::kRowHeap, EngineKind::kColumnar}) {
    MakeDb(engine);
    for (int64_t b : bounds) {
      auto plan = db_->Explain(sql, {Value::Int(b)});
      ASSERT_OK(plan.status());
      bool index = plan.value().find("IndexScan") != std::string::npos;
      (engine == EngineKind::kRowHeap ? row_plans : col_plans)
          .push_back(index ? "index" : "scan");
    }
  }
  EXPECT_NE(row_plans, col_plans) << "engines never diverged over the sweep";
  // And the divergence goes the calibrated way: columnar holds onto the
  // index at least as long as the row engine does.
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (row_plans[i] == "index") {
      EXPECT_EQ(col_plans[i], "index")
          << "row engine indexed bound " << bounds[i] << " but columnar did not";
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-range index access
// ---------------------------------------------------------------------------

TEST_F(PeekFixture, InListCompilesToMultiRangeIndexScan) {
  MakeDb(EngineKind::kRowHeap);
  db_->set_bind_peeking(true);
  const std::string sql = "SELECT id FROM big WHERE id IN (3, 4711, 9200)";
  auto plan = db_->Explain(sql, {});
  ASSERT_OK(plan.status());
  EXPECT_NE(plan.value().find("ranges=3"), std::string::npos) << plan.value();
  auto res = db_->Query(sql);
  ASSERT_OK(res.status());
  ASSERT_EQ(res.value().rows.size(), 3u);
  // Key order, each row exactly once.
  EXPECT_EQ(res.value().rows[0][0].int_value(), 3);
  EXPECT_EQ(res.value().rows[1][0].int_value(), 4711);
  EXPECT_EQ(res.value().rows[2][0].int_value(), 9200);

  // OR of ranges folds the same way, overlaps merged.
  auto res2 = db_->Query(
      "SELECT id FROM big WHERE id < 3 OR (id > 9995 AND id <= 9997)");
  ASSERT_OK(res2.status());
  EXPECT_EQ(res2.value().rows.size(), 5u);

  // Peeking off: the same IN list estimates the legacy way, no ranges.
  db_->set_bind_peeking(false);
  auto plan_off = db_->Explain(sql);
  ASSERT_OK(plan_off.status());
  EXPECT_EQ(plan_off.value().find("ranges="), std::string::npos)
      << plan_off.value();
}

// ---------------------------------------------------------------------------
// Stale statistics + estimate drift observability
// ---------------------------------------------------------------------------

TEST_F(PeekFixture, StaleStatsWarnInExplainAnalyze) {
  MakeDb(EngineKind::kRowHeap);
  auto t = db_->catalog()->GetTable("big");
  ASSERT_OK(t.status());
  EXPECT_FALSE(t.value()->stats_stale());
  // Bulk DML past the 10% threshold flips the flag without an ANALYZE.
  for (int64_t i = 10000; i < 11200; ++i) {
    ASSERT_OK(db_->InsertRow(
        "big", Row{Value::Int(i), Value::Int(0), Value::Str("p")}));
  }
  EXPECT_TRUE(t.value()->stats_stale());
  auto out = db_->ExplainAnalyze("SELECT COUNT(*) FROM big", {});
  ASSERT_OK(out.status());
  EXPECT_NE(out.value().find("Stats: big stale"), std::string::npos)
      << out.value();
  // Operator annotations carry the estimate-vs-actual drift.
  EXPECT_NE(out.value().find("est_rows="), std::string::npos) << out.value();
  EXPECT_NE(out.value().find("drift="), std::string::npos) << out.value();
  // A fresh ANALYZE clears the warning.
  ASSERT_OK(db_->Analyze("big"));
  EXPECT_FALSE(t.value()->stats_stale());
  auto out2 = db_->ExplainAnalyze("SELECT COUNT(*) FROM big", {});
  ASSERT_OK(out2.status());
  EXPECT_EQ(out2.value().find("stale"), std::string::npos) << out2.value();
}

// ---------------------------------------------------------------------------
// Peeking-off byte identity
// ---------------------------------------------------------------------------

TEST_F(PeekFixture, HistogramsAreInvisibleWhenPeekingOff) {
  MakeDb(EngineKind::kRowHeap);
  const std::vector<std::string> queries = {
      "SELECT val FROM big WHERE id < 100",
      "SELECT val FROM big WHERE id BETWEEN 10 AND 20",
      "SELECT COUNT(*) FROM big WHERE val = 3",
      "SELECT val FROM big WHERE id IN (1, 2, 3)",
      "SELECT val FROM big WHERE id < ?",
  };
  std::vector<std::string> with_hist;
  for (const std::string& q : queries) {
    auto p = db_->Explain(q);
    ASSERT_OK(p.status());
    with_hist.push_back(p.value());
  }
  // Wipe every histogram; with peeking off the plans must not change.
  for (const TableInfo* t : db_->catalog()->AllTables()) {
    for (ColumnStats& cs : const_cast<TableInfo*>(t)->stats.columns) {
      cs.hist.clear();
      cs.hist_rows = 0;
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto p = db_->Explain(queries[i]);
    ASSERT_OK(p.status());
    EXPECT_EQ(p.value(), with_hist[i]) << queries[i];
  }
}

TEST(TpcdByteIdentityTest, ToggledPeekingLeavesTheSweepUntouched) {
  // Two identical TPC-D systems; B flips bind peeking on, plans a statement
  // under it, and flips it back off. The 17-query sweep must then be
  // byte-identical across the two systems: results, plan texts, and
  // per-query simulated times.
  constexpr double kSf = 0.002;
  tpcd::DbGen gen_a(kSf), gen_b(kSf);
  auto db_a = std::make_unique<Database>();
  auto db_b = std::make_unique<Database>();
  ASSERT_OK(tpcd::CreateTpcdSchema(db_a.get()));
  ASSERT_OK(tpcd::LoadTpcdDatabase(db_a.get(), &gen_a));
  ASSERT_OK(tpcd::CreateTpcdSchema(db_b.get()));
  ASSERT_OK(tpcd::LoadTpcdDatabase(db_b.get(), &gen_b));

  db_b->set_bind_peeking(true);
  auto peeked = db_b->Explain("SELECT COUNT(*) FROM LINEITEM WHERE L_TAX < ?",
                              {Value::Decimal(0.03)});
  ASSERT_OK(peeked.status());
  EXPECT_NE(peeked.value().find("Peek:"), std::string::npos);
  db_b->set_bind_peeking(false);

  auto q_a = tpcd::MakeRdbmsQuerySet(db_a.get());
  auto q_b = tpcd::MakeRdbmsQuerySet(db_b.get());
  tpcd::QueryParams params = tpcd::QueryParams::Defaults(kSf);
  for (int q = 1; q <= tpcd::kNumQueries; ++q) {
    SimTimer ta(*db_a->clock());
    auto ra = q_a->RunQuery(q, params);
    int64_t us_a = ta.ElapsedUs();
    SimTimer tb(*db_b->clock());
    auto rb = q_b->RunQuery(q, params);
    int64_t us_b = tb.ElapsedUs();
    ASSERT_OK(ra.status());
    ASSERT_OK(rb.status());
    EXPECT_EQ(us_a, us_b) << "Q" << q << " simulated time diverged";
    ASSERT_EQ(ra.value().rows.size(), rb.value().rows.size()) << "Q" << q;
    for (size_t r = 0; r < ra.value().rows.size(); ++r) {
      const Row& rowa = ra.value().rows[r];
      const Row& rowb = rb.value().rows[r];
      ASSERT_EQ(rowa.size(), rowb.size());
      for (size_t c = 0; c < rowa.size(); ++c) {
        EXPECT_EQ(rowa[c].ToString(), rowb[c].ToString())
            << "Q" << q << " row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
