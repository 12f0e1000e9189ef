// Application-system layer tests: data dictionary (transparent/pool/cluster),
// Open SQL translation + release gating, Native SQL reachability, table
// buffering, report runtime, and batch input.
#include <gtest/gtest.h>

#include "appsys/app_server.h"
#include "common/metrics.h"

namespace r3 {
namespace appsys {
namespace {

using rdbms::ColChar;
using rdbms::ColDecimal;
using rdbms::ColInt;
using rdbms::CmpOp;
using rdbms::Row;
using rdbms::Schema;
using rdbms::Value;

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)
#define EXPECT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

class AppSysTest : public ::testing::Test {
 protected:
  void SetUp() override { Install(Release::kRelease30); }

  void Install(Release release) {
    AppServerOptions opts;
    opts.release = release;
    opts.table_buffer_bytes = 1u << 20;
    rdbms::DatabaseOptions db_opts;
    db_opts.metrics = &metrics_;
    sys_ = std::make_unique<R3System>(opts, db_opts);
    ASSERT_OK(sys_->app.Bootstrap());
    DefineSchema();
  }

  void DefineSchema() {
    DataDictionary* dict = sys_->app.dictionary();
    // A small material master (transparent).
    Schema mara({ColChar("MANDT", 3), ColChar("MATNR", 16),
                 ColChar("MTART", 4), ColDecimal("BRGEW")});
    ASSERT_OK(dict->DefineTransparent("MARA", mara, {"MANDT", "MATNR"}));
    // A pool table of pricing terms.
    Schema a004({ColChar("MANDT", 3), ColChar("KNUMH", 10),
                 ColChar("MATNR", 16), ColDecimal("KBETR")});
    ASSERT_OK(dict->DefinePool("A004", a004, {"MANDT", "KNUMH"}, "KAPOL"));
    // A cluster of document conditions: bundle per (MANDT, KNUMV).
    Schema konv({ColChar("MANDT", 3), ColChar("KNUMV", 10),
                 ColInt("KPOSN", 4), ColChar("KSCHL", 4),
                 ColDecimal("KBETR"), ColDecimal("KAWRT")});
    ASSERT_OK(dict->DefineCluster(
        "KONV", konv, {"MANDT", "KNUMV", "KPOSN", "KSCHL"}, 2, "KOCLU"));
  }

  Row MaraRow(const std::string& matnr, const std::string& mtart, double w) {
    return Row{Value::Str("301"), Value::Str(matnr), Value::Str(mtart),
               Value::Decimal(w)};
  }
  Row KonvRow(const std::string& knumv, int64_t posn, const std::string& kschl,
              double kbetr, double kawrt) {
    return Row{Value::Str("301"), Value::Str(knumv), Value::Int(posn),
               Value::Str(kschl), Value::Decimal(kbetr), Value::Decimal(kawrt)};
  }

  // Declared before sys_ so the system (whose TableBuffer and Database cache
  // counter pointers) is destroyed first.
  MetricsRegistry metrics_;
  std::unique_ptr<R3System> sys_;
};

TEST_F(AppSysTest, TransparentInsertAndOpenSqlSelect) {
  OpenSql* osql = sys_->app.open_sql();
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.5)));
  ASSERT_OK(osql->Insert("MARA", MaraRow("M2", "ROH", 2.5)));

  OpenSqlQuery q;
  q.table = "MARA";
  q.columns = {"MATNR"};
  q.where = {OsqlCond::Cmp("BRGEW", CmpOp::kGt, Value::Dbl(2.0))};
  auto res = osql->Select(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().rows.size(), 1u);
  EXPECT_EQ(res.value().rows[0][0].string_value(), "M2");
}

TEST_F(AppSysTest, MandtIsInjectedAutomatically) {
  OpenSql* osql = sys_->app.open_sql();
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));
  // A row of another business client, inserted behind Open SQL's back.
  ASSERT_OK(sys_->db.InsertRow(
      "MARA", Row{Value::Str("999"), Value::Str("MX"), Value::Str("FERT"),
                  Value::Decimal(9.0)}));
  OpenSqlQuery q;
  q.table = "MARA";
  auto res = osql->Select(q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().rows.size(), 1u);  // the other client is invisible

  // Native SQL sees everything unless the report writes MANDT itself.
  auto native = sys_->app.native_sql()->ExecSql("SELECT MATNR FROM MARA");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native.value().rows.size(), 2u);
}

TEST_F(AppSysTest, OpenSqlTranslationParameterizesLiterals) {
  OpenSqlQuery q;
  q.table = "MARA";
  q.columns = {"MATNR"};
  q.where = {OsqlCond::Cmp("BRGEW", CmpOp::kLt, Value::Dbl(42.0))};
  auto sql = sys_->app.open_sql()->TranslateForDisplay(q);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  // No literal 42 anywhere; the MANDT value is a parameter too.
  EXPECT_EQ(sql.value().find("42"), std::string::npos) << sql.value();
  EXPECT_EQ(sql.value().find("301"), std::string::npos) << sql.value();
  EXPECT_NE(sql.value().find("?"), std::string::npos);
}

TEST_F(AppSysTest, PoolTableRoundTrip) {
  DataDictionary* dict = sys_->app.dictionary();
  ASSERT_OK(dict->InsertLogical(
      "A004", Row{Value::Str("301"), Value::Str("K1"), Value::Str("M1"),
                  Value::Decimal(10.5)}));
  ASSERT_OK(dict->InsertLogical(
      "A004", Row{Value::Str("301"), Value::Str("K2"), Value::Str("M2"),
                  Value::Decimal(20.25)}));
  auto rows = dict->ReadLogical(
      "A004", {DictCond{"MANDT", CmpOp::kEq, Value::Str("301")},
               DictCond{"KNUMH", CmpOp::kEq, Value::Str("K2")}});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][2].string_value(), "M2");
  EXPECT_DOUBLE_EQ(rows.value()[0][3].AsDouble(), 20.25);
  // The logical table does not exist in the RDBMS schema.
  EXPECT_FALSE(sys_->db.catalog()->HasTable("A004"));
  EXPECT_TRUE(sys_->db.catalog()->HasTable("KAPOL"));
}

TEST_F(AppSysTest, ClusterBundlesRows) {
  DataDictionary* dict = sys_->app.dictionary();
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 1, "DISC", 50, 100)));
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 2, "DISC", 60, 200)));
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D2", 1, "TAX", 70, 300)));

  // One physical bundle per document.
  auto phys = sys_->db.Query("SELECT COUNT(*) FROM KOCLU");
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(phys.value().rows[0][0].AsInt(), 2);

  auto rows = dict->ReadLogical(
      "KONV", {DictCond{"MANDT", CmpOp::kEq, Value::Str("301")},
               DictCond{"KNUMV", CmpOp::kEq, Value::Str("D1")}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
}

TEST_F(AppSysTest, NativeSqlCannotReachEncapsulatedTables) {
  auto res = sys_->app.native_sql()->ExecSql(
      "SELECT * FROM KONV WHERE MANDT = '301'");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

TEST_F(AppSysTest, OpenSqlReadsEncapsulatedTables) {
  DataDictionary* dict = sys_->app.dictionary();
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 1, "DISC", 50, 100)));
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 2, "TAX", 60, 200)));
  OpenSqlQuery q;
  q.table = "KONV";
  q.columns = {"KPOSN", "KBETR"};
  q.where = {OsqlCond::Eq("KNUMV", Value::Str("D1")),
             OsqlCond::Eq("KSCHL", Value::Str("TAX"))};
  auto res = sys_->app.open_sql()->Select(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().rows.size(), 1u);
  EXPECT_EQ(res.value().rows[0][0].AsInt(), 2);
}

TEST_F(AppSysTest, Release22RejectsJoinAndAggregatePushdown) {
  Install(Release::kRelease22);
  OpenSqlQuery join_q;
  join_q.table = "MARA";
  join_q.joins.push_back(OsqlJoinTable{"A004", "", {{"MARA~MATNR", "A004~MATNR"}}, false});
  EXPECT_EQ(sys_->app.open_sql()->Select(join_q).status().code(),
            StatusCode::kUnsupported);

  OpenSqlQuery agg_q;
  agg_q.table = "MARA";
  agg_q.aggregates.push_back(OsqlAggregate{rdbms::AggFunc::kSum, "BRGEW", false});
  EXPECT_EQ(sys_->app.open_sql()->Select(agg_q).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(AppSysTest, Release30PushesJoinsAndSimpleAggregates) {
  OpenSql* osql = sys_->app.open_sql();
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));
  ASSERT_OK(osql->Insert("MARA", MaraRow("M2", "FERT", 3.0)));
  ASSERT_OK(osql->Insert("MARA", MaraRow("M3", "ROH", 5.0)));

  OpenSqlQuery agg;
  agg.table = "MARA";
  agg.group_by = {"MTART"};
  agg.aggregates = {OsqlAggregate{rdbms::AggFunc::kSum, "BRGEW", false},
                    OsqlAggregate{rdbms::AggFunc::kCountStar, "", false}};
  agg.order_by = {"MTART"};
  auto res = osql->Select(agg);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().rows.size(), 2u);
  EXPECT_EQ(res.value().rows[0][0].string_value(), "FERT");
  EXPECT_DOUBLE_EQ(res.value().rows[0][1].AsDouble(), 4.0);
  EXPECT_EQ(res.value().rows[0][2].AsInt(), 2);
}

TEST_F(AppSysTest, ClusterConversionGatedByRelease) {
  Install(Release::kRelease22);
  DataDictionary* dict = sys_->app.dictionary();
  EXPECT_EQ(dict->ConvertToTransparent("KONV", sys_->app.release()).code(),
            StatusCode::kUnsupported);
  // Pool conversion works even in 2.2.
  ASSERT_OK(dict->InsertLogical(
      "A004", Row{Value::Str("301"), Value::Str("K1"), Value::Str("M1"),
                  Value::Decimal(1.0)}));
  ASSERT_OK(dict->ConvertToTransparent("A004", sys_->app.release()));
  EXPECT_TRUE(sys_->db.catalog()->HasTable("A004"));
  EXPECT_FALSE(dict->IsEncapsulated("A004"));
  auto rows = dict->ReadLogical("A004", {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
}

TEST_F(AppSysTest, ClusterConversionIn30PreservesDataAndEnablesNativeSql) {
  DataDictionary* dict = sys_->app.dictionary();
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 1, "DISC", 50, 100)));
  ASSERT_OK(dict->InsertLogical("KONV", KonvRow("D1", 2, "TAX", 60, 200)));
  ASSERT_OK(dict->ConvertToTransparent("KONV", Release::kRelease30));
  auto res = sys_->app.native_sql()->ExecSql(
      "SELECT KPOSN FROM KONV WHERE MANDT = '301' AND KNUMV = 'D1' "
      "ORDER BY KPOSN");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().rows.size(), 2u);
  EXPECT_EQ(res.value().rows[0][0].AsInt(), 1);
}

TEST_F(AppSysTest, SelectSingleUsesTableBuffer) {
  OpenSql* osql = sys_->app.open_sql();
  TableBuffer* buffer = sys_->app.buffer();
  buffer->EnableFor("MARA");
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));

  DbConnection::Stats before = sys_->app.connection()->stats();
  for (int i = 0; i < 10; ++i) {
    auto row = osql->SelectSingle(
        "MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))});
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(row.value().has_value());
  }
  DbConnection::Stats after = sys_->app.connection()->stats();
  // Only the first lookup reaches the database.
  EXPECT_EQ(after.round_trips - before.round_trips, 1);
  EXPECT_EQ(buffer->stats().hits, 9);
}

TEST_F(AppSysTest, BufferInvalidatedOnWrite) {
  OpenSql* osql = sys_->app.open_sql();
  sys_->app.buffer()->EnableFor("MARA");
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));
  auto r1 = osql->SelectSingle("MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))});
  ASSERT_TRUE(r1.ok());
  ASSERT_OK(osql->Insert("MARA", MaraRow("M2", "FERT", 2.0)));  // invalidates
  DbConnection::Stats before = sys_->app.connection()->stats();
  auto r2 = osql->SelectSingle("MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(sys_->app.connection()->stats().round_trips - before.round_trips, 1);
}

TEST_F(AppSysTest, TableBufferMetricsMirrorBufferStats) {
  // The Table 8 instrumentation: every probe/hit/miss/invalidation the
  // buffer's own stats struct records is mirrored into the shared metrics
  // registry under appsys.table_buffer.*, where the performance monitor
  // computes its buffer-quality ratio from.
  OpenSql* osql = sys_->app.open_sql();
  TableBuffer* buffer = sys_->app.buffer();
  buffer->EnableFor("MARA");
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));

  for (int i = 0; i < 10; ++i) {
    auto row = osql->SelectSingle(
        "MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))});
    ASSERT_TRUE(row.ok()) << row.status().ToString();
  }
  // One miss (cold), nine hits — the Table 8 shape.
  EXPECT_EQ(buffer->stats().misses, 1);
  EXPECT_EQ(buffer->stats().hits, 9);

  // A local write drops the table's entry; the next probe misses again.
  ASSERT_OK(osql->Insert("MARA", MaraRow("M2", "FERT", 2.0)));
  EXPECT_EQ(buffer->stats().invalidations, 1);
  auto reload = osql->SelectSingle(
      "MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))});
  ASSERT_TRUE(reload.ok());

  const TableBuffer::Stats& s = buffer->stats();
  EXPECT_EQ(s.probes, s.hits + s.misses);
  EXPECT_EQ(metrics_.Value("appsys.table_buffer.probes"), s.probes);
  EXPECT_EQ(metrics_.Value("appsys.table_buffer.hits"), s.hits);
  EXPECT_EQ(metrics_.Value("appsys.table_buffer.misses"), s.misses);
  EXPECT_EQ(metrics_.Value("appsys.table_buffer.invalidations"),
            s.invalidations);
  EXPECT_EQ(metrics_.Value("appsys.table_buffer.evictions"), s.evictions);
  // The connection's round-trip mirror agrees with its struct stats too.
  EXPECT_EQ(metrics_.Value("appsys.connection.round_trips"),
            sys_->app.connection()->stats().round_trips);
}

TEST_F(AppSysTest, ExtractTwoPhaseGrouping) {
  Extract extract(&sys_->clock, {0});
  extract.Append(Row{Value::Str("B"), Value::Dbl(2.0)});
  extract.Append(Row{Value::Str("A"), Value::Dbl(1.0)});
  extract.Append(Row{Value::Str("B"), Value::Dbl(4.0)});
  int64_t before = sys_->clock.NowMicros();
  ASSERT_OK(extract.Sort());
  std::vector<std::pair<std::string, double>> groups;
  ASSERT_OK(extract.LoopGroups([&](const std::vector<Row>& g) {
    double sum = 0;
    for (const Row& r : g) sum += r[1].AsDouble();
    groups.emplace_back(g[0][0].string_value(), sum);
    return Status::OK();
  }));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, "A");
  EXPECT_DOUBLE_EQ(groups[1].second, 6.0);
  // The spool-out + re-read I/O was charged (phase separation).
  EXPECT_GT(sys_->clock.NowMicros() - before,
            sys_->clock.model().page_write_us);
}

TEST_F(AppSysTest, InternalTableBinarySearch) {
  InternalTable itab(&sys_->clock);
  itab.Append(Row{Value::Str("M2"), Value::Int(2)});
  itab.Append(Row{Value::Str("M1"), Value::Int(1)});
  itab.Append(Row{Value::Str("M3"), Value::Int(3)});
  itab.Sort({0});
  EXPECT_EQ(itab.BinarySearch({0}, Row{Value::Str("M2")}), 1);
  EXPECT_EQ(itab.BinarySearch({0}, Row{Value::Str("MX")}), -1);
}

TEST_F(AppSysTest, BatchInputChecksAndNumberRanges) {
  ASSERT_OK(sys_->app.CreateNumberRange("ORDER", 100));
  OpenSql* osql = sys_->app.open_sql();
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));

  BatchInput* bi = sys_->app.batch_input();
  BatchInput::Transaction txn = bi->Begin("VA01");
  txn.Screen();
  ASSERT_OK(txn.CheckExists("MARA", {OsqlCond::Eq("MATNR", Value::Str("M1"))}));
  auto num = txn.NextNumber("ORDER");
  ASSERT_TRUE(num.ok()) << num.status().ToString();
  EXPECT_EQ(num.value(), 101);
  ASSERT_OK(txn.Commit());

  // A missing master record fails the transaction.
  BatchInput::Transaction bad = bi->Begin("VA01");
  bad.Screen();
  EXPECT_EQ(
      bad.CheckExists("MARA", {OsqlCond::Eq("MATNR", Value::Str("NOPE"))}).code(),
      StatusCode::kConstraintViolation);
  EXPECT_FALSE(bad.Commit().ok());

  auto num2 = bi->Begin("VA01").NextNumber("ORDER");
  ASSERT_TRUE(num2.ok());
  EXPECT_EQ(num2.value(), 102);
}

TEST_F(AppSysTest, CursorCachingAvoidsRecompilation) {
  OpenSql* osql = sys_->app.open_sql();
  ASSERT_OK(osql->Insert("MARA", MaraRow("M1", "FERT", 1.0)));
  OpenSqlQuery q;
  q.table = "MARA";
  q.columns = {"MATNR"};
  q.where = {OsqlCond::Cmp("BRGEW", CmpOp::kGt, Value::Dbl(0.0))};
  ASSERT_TRUE(osql->Select(q).ok());
  DbConnection::Stats s1 = sys_->app.connection()->stats();
  // Same shape, different literal: the translated text is identical, so the
  // cursor cache hits.
  q.where = {OsqlCond::Cmp("BRGEW", CmpOp::kGt, Value::Dbl(99.0))};
  ASSERT_TRUE(osql->Select(q).ok());
  DbConnection::Stats s2 = sys_->app.connection()->stats();
  EXPECT_EQ(s2.cursor_cache_hits - s1.cursor_cache_hits, 1);
  EXPECT_EQ(s2.cursor_cache_misses, s1.cursor_cache_misses);
}

// A cursor hit needs the database's plan as well as the connection's
// memory of the statement: after a DOP change flushed the plan cache, the
// re-execution is a hard parse and must count (and trace) as a miss.
TEST_F(AppSysTest, FlushedPlanCountsAsCursorMiss) {
  DbConnection* conn = sys_->app.connection();
  SqlTrace trace;
  conn->set_sql_trace(&trace);
  const std::string sql = "SELECT MATNR FROM MARA WHERE BRGEW > ?";
  ASSERT_OK(conn->ExecuteCursor(sql, {Value::Dbl(0.0)}).status());
  DbConnection::Stats before = conn->stats();
  Counter* hard_parses = metrics_.GetCounter("rdbms.sql.hard_parses");
  const int64_t parses = hard_parses->Value();

  sys_->db.set_dop(2);
  ASSERT_OK(conn->ExecuteCursor(sql, {Value::Dbl(0.0)}).status());
  DbConnection::Stats after = conn->stats();
  EXPECT_EQ(after.cursor_cache_misses - before.cursor_cache_misses, 1);
  EXPECT_EQ(after.cursor_cache_hits, before.cursor_cache_hits);
  EXPECT_EQ(hard_parses->Value(), parses + 1);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[1].cursor, 0);

  // With the plan cached again, the next execution is a hit.
  ASSERT_OK(conn->ExecuteCursor(sql, {Value::Dbl(1.0)}).status());
  EXPECT_EQ(conn->stats().cursor_cache_hits - after.cursor_cache_hits, 1);
  EXPECT_EQ(trace.events()[2].cursor, 1);
  conn->set_sql_trace(nullptr);
}

}  // namespace
}  // namespace appsys
}  // namespace r3
