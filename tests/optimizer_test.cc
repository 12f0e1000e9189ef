// Optimizer tests: selectivity estimation, access-path choice as a function
// of predicate visibility (literal vs parameter — the Table 6 mechanism),
// join-algorithm choice, and plan-shape checks via EXPLAIN.
#include <gtest/gtest.h>

#include "common/str_util.h"
#include "rdbms/db.h"
#include "rdbms/optimizer/stats.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

// ---------------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------------

ColumnStats IntStats(int64_t lo, int64_t hi, uint64_t ndv) {
  ColumnStats s;
  s.valid = true;
  s.min = Value::Int(lo);
  s.max = Value::Int(hi);
  s.ndv = ndv;
  return s;
}

TEST(SelectivityTest, EqualsUsesNdv) {
  ColumnStats s = IntStats(1, 100, 50);
  EXPECT_DOUBLE_EQ(selectivity::Equals(s, Value::Int(5)), 0.02);
}

TEST(SelectivityTest, EqualsOutOfDomainIsZero) {
  ColumnStats s = IntStats(1, 100, 50);
  EXPECT_DOUBLE_EQ(selectivity::Equals(s, Value::Int(101)), 0.0);
  EXPECT_DOUBLE_EQ(selectivity::Equals(s, Value::Int(0)), 0.0);
}

TEST(SelectivityTest, RangeInterpolates) {
  ColumnStats s = IntStats(0, 100, 100);
  EXPECT_NEAR(selectivity::LessThan(s, Value::Int(25)), 0.25, 0.01);
  EXPECT_NEAR(selectivity::GreaterThan(s, Value::Int(25)), 0.75, 0.01);
  EXPECT_DOUBLE_EQ(selectivity::LessThan(s, Value::Int(-5)), 0.0);
  EXPECT_DOUBLE_EQ(selectivity::LessThan(s, Value::Int(1000)), 1.0);
}

TEST(SelectivityTest, InvalidStatsFallBackToDefaults) {
  ColumnStats s;
  EXPECT_DOUBLE_EQ(selectivity::Equals(s, Value::Int(1)),
                   selectivity::kDefaultEquals);
  EXPECT_DOUBLE_EQ(selectivity::LessThan(s, Value::Int(1)),
                   selectivity::kDefaultRange);
}

// ---------------------------------------------------------------------------
// Access-path and join choices (EXPLAIN-based)
// ---------------------------------------------------------------------------

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small buffer pool so scans are not free.
    DatabaseOptions opts;
    opts.buffer_pool_bytes = 512 * 1024;
    db_ = std::make_unique<Database>(nullptr, opts);
    ASSERT_OK(db_->Execute(
        "CREATE TABLE big (id INT, grp INT, val INT, pad CHAR(200), "
        "PRIMARY KEY (id))"));
    ASSERT_OK(db_->Execute("CREATE INDEX big_grp ON big (grp)"));
    for (int64_t i = 0; i < 5000; ++i) {
      ASSERT_OK(db_->InsertRow(
          "big", Row{Value::Int(i), Value::Int(i % 10), Value::Int(i % 1000),
                     Value::Str("p")}));
    }
    ASSERT_OK(db_->Execute(
        "CREATE TABLE small (id INT, name CHAR(10), PRIMARY KEY (id))"));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_OK(db_->InsertRow(
          "small", Row{Value::Int(i), Value::Str(str::Format("n%lld",
                                                             (long long)i))}));
    }
    ASSERT_OK(db_->Execute("ANALYZE"));
  }

  std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << sql << ": " << p.status().ToString();
    return p.ok() ? p.value() : "";
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlanTest, UniquePointLookupUsesPk) {
  EXPECT_NE(Plan("SELECT val FROM big WHERE id = 17").find("IndexScan"),
            std::string::npos);
}

TEST_F(PlanTest, NonSelectiveLiteralUsesSeqScan) {
  // grp has 10 distinct values: 10% selectivity, index would random-fetch.
  EXPECT_NE(Plan("SELECT val FROM big WHERE grp = 3").find("SeqScan"),
            std::string::npos);
}

TEST_F(PlanTest, ParameterizedPredicateIsBlindlyIndexed) {
  std::string plan = Plan("SELECT val FROM big WHERE grp = ?");
  EXPECT_NE(plan.find("IndexScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("big_grp"), std::string::npos) << plan;
}

TEST_F(PlanTest, RangeOnPkUsesCostedChoice) {
  // Tight range -> index; full range -> scan.
  EXPECT_NE(Plan("SELECT val FROM big WHERE id BETWEEN 10 AND 20")
                .find("IndexScan"),
            std::string::npos);
  EXPECT_NE(Plan("SELECT val FROM big WHERE id >= 0").find("SeqScan"),
            std::string::npos);
}

TEST_F(PlanTest, SelectiveOuterDrivesIndexNlJoin) {
  // One small row probing the big table's pk -> index nested loops.
  std::string plan = Plan(
      "SELECT b.val FROM small s, big b WHERE s.id = 3 AND b.id = s.id");
  EXPECT_NE(plan.find("IndexNLJoin"), std::string::npos) << plan;
}

TEST_F(PlanTest, BulkEquiJoinUsesHashJoin) {
  std::string plan = Plan(
      "SELECT COUNT(*) FROM big b, small s WHERE b.grp = s.id");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(PlanTest, NonEquiJoinFallsBackToNestedLoops) {
  std::string plan = Plan(
      "SELECT COUNT(*) FROM small a, small b WHERE a.id < b.id");
  EXPECT_NE(plan.find("NLJoin"), std::string::npos) << plan;
}

TEST_F(PlanTest, AggregationAndSortAppearInPlan) {
  std::string plan = Plan(
      "SELECT grp, SUM(val) s FROM big GROUP BY grp ORDER BY s DESC");
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos);
  EXPECT_NE(plan.find("Sort"), std::string::npos);
}

TEST_F(PlanTest, DistinctAndLimitAppearInPlan) {
  std::string plan = Plan("SELECT DISTINCT grp FROM big LIMIT 3");
  EXPECT_NE(plan.find("Distinct"), std::string::npos);
  EXPECT_NE(plan.find("Limit"), std::string::npos);
}

TEST_F(PlanTest, BlindHeuristicCanBeDisabled) {
  DatabaseOptions opts;
  opts.planner.blind_prefers_index = false;
  Database db2(nullptr, opts);
  ASSERT_OK(db2.Execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))"));
  ASSERT_OK(db2.Execute("CREATE INDEX t_b ON t (b)"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(db2.InsertRow("t", Row{Value::Int(i), Value::Int(i % 5)}));
  }
  ASSERT_OK(db2.Execute("ANALYZE"));
  auto plan = db2.Explain("SELECT a FROM t WHERE b = ?");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("SeqScan"), std::string::npos) << plan.value();
}

TEST_F(PlanTest, ParameterizedAndLiteralPlansDiffer) {
  // The heart of Table 6, as a regression test.
  std::string lit = Plan("SELECT val FROM big WHERE grp = 3");
  std::string par = Plan("SELECT val FROM big WHERE grp = ?");
  EXPECT_NE(lit, par);
}

// A subquery-free level runs on the compact row layout: each table's needed
// columns, contiguous. EXPLAIN still renders the binder's wide-row
// positions, byte for byte as before the layout changed (small = 0..1,
// mid = 2..5, big = 6..9).
class CompactLayoutPlanTest : public PlanTest {
 protected:
  void SetUp() override {
    PlanTest::SetUp();
    ASSERT_OK(db_->Execute(
        "CREATE TABLE mid (mk INT, note CHAR(20), sid INT, amt DECIMAL)"));
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_OK(db_->InsertRow(
          "mid", Row{Value::Int(i), Value::Str("m"), Value::Int(i % 10),
                     Value::Decimal(static_cast<double>(i) * 1.5)}));
    }
    ASSERT_OK(db_->Execute("ANALYZE"));
  }
};

TEST_F(CompactLayoutPlanTest, ThreeTableJoinExplainKeepsBinderPositions) {
  const std::string sql =
      "SELECT s.name, m.amt, b.pad FROM small s, mid m, big b "
      "WHERE m.sid = s.id AND b.val = m.mk AND s.name <> 'n3'";
  EXPECT_EQ(Plan(sql),
            "Project(col#1, col#5, col#9)\n"
            "  HashJoin(col#8=col#2)\n"
            "    SeqScan(big)\n"
            "    HashJoin(col#4=col#0)\n"
            "      SeqScan(mid)\n"
            "      SeqScan(small, (col#1 <> 'n3'))");
  auto rows = db_->Query(sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().rows.size(), 1350u);
  for (const Row& r : rows.value().rows) {
    ASSERT_EQ(r.size(), 3u);
    EXPECT_NE(r[0].string_value(), "n3");
    EXPECT_EQ(r[2].string_value(), "p");
  }
}

// ---------------------------------------------------------------------------
// Statistics lifecycle
// ---------------------------------------------------------------------------

TEST_F(PlanTest, AnalyzePopulatesStats) {
  auto table = db_->catalog()->GetTable("big");
  ASSERT_TRUE(table.ok());
  const TableStats& stats = table.value()->stats;
  ASSERT_TRUE(stats.valid);
  EXPECT_EQ(stats.row_count, 5000u);
  EXPECT_EQ(stats.columns[1].ndv, 10u);  // grp
  EXPECT_EQ(stats.columns[0].min.int_value(), 0);
  EXPECT_EQ(stats.columns[0].max.int_value(), 4999);
}

TEST_F(PlanTest, RowCountMaintainedOnline) {
  auto table = db_->catalog()->GetTable("small");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->row_count, 10u);
  int64_t affected = 0;
  ASSERT_OK(db_->Execute("DELETE FROM small WHERE id < 3", {}, nullptr,
                         &affected));
  EXPECT_EQ(affected, 3);
  EXPECT_EQ(table.value()->row_count, 7u);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
