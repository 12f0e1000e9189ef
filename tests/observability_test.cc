// Observability-layer tests: the metrics registry (sharded counters, gauges,
// fixed-bucket histograms), cross-layer trace spans and their Chrome export,
// the JSON helper underneath both, the ST04-style performance monitor — and
// the headline determinism guarantee: simulated-time trace exports and the
// sim-charging counters are byte-identical no matter how many OS worker
// threads run the plan's lanes or how many rows travel per batch (DESIGN.md
// §7). Also the regression fence for per-statement state: operator runtime
// counters and trace output must not bleed between statements on a reused
// Database.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "appsys/app_server.h"
#include "appsys/perf_monitor.h"
#include "appsys/sql_trace.h"
#include "appsys/workload_monitor.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/wait_event.h"
#include "rdbms/txn/lock_manager.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"
#include "tpcd/schema.h"

namespace r3 {
namespace {

using rdbms::Value;

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

/// EXPECT_EQ on multi-megabyte strings prints both operands on failure;
/// this reports just the first differing byte with a little context.
void ExpectSameBytes(const std::string& a, const std::string& b,
                     const char* what) {
  if (a == b) return;
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  size_t from = i > 60 ? i - 60 : 0;
  ADD_FAILURE() << what << " differ (sizes " << a.size() << " vs " << b.size()
                << ") at byte " << i << ":\n  a: ..." << a.substr(from, 120)
                << "\n  b: ..." << b.substr(from, 120);
}

// -- Metrics ------------------------------------------------------------------

TEST(MetricsTest, CounterSumsExactlyAcrossThreads) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  c.Add(5);
  EXPECT_EQ(c.Value(), kThreads * kPerThread + 5);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge g;
  g.Set(42);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 40);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("h", {10, 100});
  h->Observe(5);
  h->Observe(10);   // bucket bounds are inclusive
  h->Observe(50);
  h->Observe(1000);  // overflow bucket
  EXPECT_EQ(h->TotalCount(), 4);
  EXPECT_EQ(h->Sum(), 1065);
  EXPECT_EQ(h->BucketCount(0), 2);
  EXPECT_EQ(h->BucketCount(1), 1);
  EXPECT_EQ(h->BucketCount(2), 1);  // overflow
  h->Reset();
  EXPECT_EQ(h->TotalCount(), 0);
  EXPECT_EQ(h->Sum(), 0);
}

TEST(MetricsTest, HistogramPercentilesAndMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("rdbms.test.latency_us", {10, 100, 1000});
  // Empty histogram: every summary statistic is 0.
  EXPECT_EQ(h->Percentile(0.50), 0);
  EXPECT_EQ(h->MaxValue(), 0);

  // 1..20: ten land in the <=10 bucket, ten in the <=100 bucket.
  for (int i = 1; i <= 20; ++i) h->Observe(i);
  EXPECT_EQ(h->Percentile(0.50), 10);  // rank 10 = last of bucket 0
  // Rank 19 lands in the <=100 bucket, but the bound is clamped to the
  // exact maximum — a percentile never exceeds the largest observation.
  EXPECT_EQ(h->Percentile(0.95), 20);
  EXPECT_EQ(h->MaxValue(), 20);  // exact, not a bucket bound

  // An overflow observation: percentiles that land past the last bound
  // report the exact maximum instead of a made-up bucket edge.
  h->Observe(5000);
  EXPECT_EQ(h->Percentile(1.0), 5000);
  EXPECT_EQ(h->MaxValue(), 5000);

  // The snapshot carries the same summary, and RenderText prints it.
  // With 21 observations the median rank (11) now lands in the second
  // bucket, and the p99 rank (21) in the overflow.
  std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].p50, 100);
  EXPECT_EQ(snap[0].p95, 100);
  EXPECT_EQ(snap[0].p99, 5000);
  EXPECT_EQ(snap[0].max, 5000);
  EXPECT_NE(registry.RenderText().find("p95="), std::string::npos);

  h->Reset();
  EXPECT_EQ(h->MaxValue(), 0);
  EXPECT_EQ(h->Percentile(0.99), 0);
}

TEST(MetricsTest, MetricNameConventionIsEnforceable) {
  // The three metric families, dot-separated lowercase segments.
  EXPECT_TRUE(IsValidMetricName("rdbms.bufferpool.physical_reads"));
  EXPECT_TRUE(IsValidMetricName("appsys.connection.round_trips"));
  EXPECT_TRUE(IsValidMetricName("columnar.segments_read"));
  EXPECT_TRUE(IsValidMetricName("rdbms.wait.buffer_pool_io_us"));

  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("rdbms"));          // family alone
  EXPECT_FALSE(IsValidMetricName("rdbms."));         // empty segment
  EXPECT_FALSE(IsValidMetricName("rdbms..x"));       // empty segment
  EXPECT_FALSE(IsValidMetricName("rdbms.foo."));     // trailing dot
  EXPECT_FALSE(IsValidMetricName("txn.lock_waits"));  // unknown family
  EXPECT_FALSE(IsValidMetricName("rdbms.Upper"));    // case
  EXPECT_FALSE(IsValidMetricName("rdbms.foo-bar"));  // bad character
}

TEST(MetricsTest, EveryRegisteredMetricNameFollowsTheConvention) {
  // Exercise enough of the system that every subsystem registers its
  // metrics — app server, Open SQL, buffer pool, WAL, txn/MVCC, locks —
  // then assert the registry holds no name outside the documented
  // rdbms.* / appsys.* / columnar.* convention (DESIGN.md §12).
  MetricsRegistry registry;
  rdbms::DatabaseOptions db_opts;
  db_opts.metrics = &registry;
  appsys::R3System sys(appsys::AppServerOptions{}, db_opts);
  ASSERT_OK(sys.app.Bootstrap());
  rdbms::Schema mara({rdbms::ColChar("MANDT", 3), rdbms::ColChar("MATNR", 16),
                      rdbms::ColDecimal("BRGEW")});
  ASSERT_OK(sys.app.dictionary()->DefineTransparent("MARA", mara,
                                                    {"MANDT", "MATNR"}));
  ASSERT_OK(sys.app.open_sql()->Insert(
      "MARA", {Value::Str("301"), Value::Str("M1"), Value::Decimal(1.0)}));
  appsys::OpenSqlQuery q;
  q.table = "MARA";
  ASSERT_TRUE(sys.app.open_sql()->Select(q).ok());
  ASSERT_OK(sys.db.EnableWal());
  ASSERT_OK(sys.db.Begin());
  ASSERT_OK(sys.db.Commit());

  std::vector<MetricSample> snap = registry.Snapshot();
  EXPECT_GT(snap.size(), 20u);
  for (const MetricSample& s : snap) {
    EXPECT_TRUE(IsValidMetricName(s.name)) << "bad metric name: " << s.name;
  }
}

TEST(MetricsTest, RegistrySnapshotAndRenderAreDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add(3);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("m.gauge")->Set(7);
  registry.GetHistogram("m.hist", {10})->Observe(4);

  EXPECT_EQ(registry.Value("a.first"), 1);
  EXPECT_EQ(registry.Value("m.gauge"), 7);
  EXPECT_EQ(registry.Value("no.such.metric"), 0);

  std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "a.first");  // sorted by name
  EXPECT_EQ(snap[3].name, "z.last");
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const MetricSample& x, const MetricSample& y) {
        return x.name < y.name;
      }));

  std::string text = registry.RenderText();
  EXPECT_EQ(text, registry.RenderText());
  EXPECT_NE(text.find("a.first"), std::string::npos);
  EXPECT_NE(text.find("m.hist"), std::string::npos);

  // ResetAll zeroes values but keeps the metric set (and bucket layout).
  registry.ResetAll();
  EXPECT_EQ(registry.Value("z.last"), 0);
  EXPECT_EQ(registry.Snapshot().size(), 4u);
  registry.GetCounter("z.last")->Add(2);
  EXPECT_EQ(registry.Value("z.last"), 2);
}

// -- JSON ---------------------------------------------------------------------

TEST(JsonTest, RoundTripPreservesDocument) {
  json::Value doc = json::Value::Object();
  doc.Set("name", json::Value::Str("bench \"quoted\"\n"));
  doc.Set("count", json::Value::Int(-12345));
  doc.Set("ratio", json::Value::Double(0.25));
  doc.Set("ok", json::Value::Bool(true));
  doc.Set("none", json::Value::Null());
  json::Value arr = json::Value::Array();
  arr.Append(json::Value::Int(1));
  arr.Append(json::Value::Str("two"));
  doc.Set("items", std::move(arr));

  std::string text = doc.Dump();
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& v = parsed.value();
  EXPECT_EQ(v.Get("name").string_value(), "bench \"quoted\"\n");
  EXPECT_EQ(v.Get("count").int_value(), -12345);
  EXPECT_DOUBLE_EQ(v.Get("ratio").double_value(), 0.25);
  EXPECT_TRUE(v.Get("ok").bool_value());
  EXPECT_TRUE(v.Get("none").is_null());
  ASSERT_EQ(v.Get("items").items().size(), 2u);
  EXPECT_EQ(v.Get("items").items()[1].string_value(), "two");
  // Re-dump of the parse is byte-identical (insertion order preserved).
  EXPECT_EQ(parsed.value().Dump(), text);
}

TEST(JsonTest, MalformedDocumentsAreRejected) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(json::Parse("{'a':1}").ok());
  EXPECT_FALSE(json::Validate("not json").ok());
  EXPECT_TRUE(json::Validate("{\"a\":[1,2,{\"b\":null}]}").ok());
}

// -- Trace spans across the RDBMS layers -------------------------------------

/// Category/name pairs present in a Chrome export.
std::set<std::pair<std::string, std::string>> EventSet(
    const std::string& chrome_json) {
  auto doc = json::Parse(chrome_json);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  std::set<std::pair<std::string, std::string>> out;
  if (!doc.ok()) return out;
  for (const json::Value& e : doc.value().Get("traceEvents").items()) {
    out.emplace(e.Get("cat").string_value(), e.Get("name").string_value());
  }
  return out;
}

TEST(TraceTest, SpansCoverSqlExecAndIoLayers) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions opts;
  opts.metrics = &registry;
  rdbms::Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT, b CHAR(16))"));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_OK(db.InsertRow("t", {Value::Int(i), Value::Str("some filler")}));
  }
  ASSERT_OK(db.pool()->Reset());  // cold pool: the scan pays physical I/O

  Tracer tracer(db.clock());
  auto res = db.Query("SELECT SUM(a) FROM t WHERE a >= 10");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  std::string exported = tracer.ExportChromeJson();
  ASSERT_OK(json::Validate(exported));
  auto events = EventSet(exported);
  // The sql pipeline stages...
  EXPECT_TRUE(events.count({"sql", "parse"}));
  EXPECT_TRUE(events.count({"sql", "optimize"}));
  EXPECT_TRUE(events.count({"sql", "execute"}));
  // ...the executor's per-operator spans...
  bool has_exec = false, has_io = false;
  for (const auto& [cat, name] : events) {
    if (cat == "exec") has_exec = true;
    if (cat == "io" && name.rfind("page_read", 0) == 0) has_io = true;
  }
  EXPECT_TRUE(has_exec);
  // ...and the buffer pool's physical transfers.
  EXPECT_TRUE(has_io);
  EXPECT_GT(registry.Value("rdbms.bufferpool.physical_reads"), 0);
}

TEST(TraceTest, TxnWalAndRecoverySpansAppear) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions opts;
  opts.metrics = &registry;
  rdbms::Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT, b CHAR(8))"));
  ASSERT_OK(db.EnableWal());

  Tracer tracer(db.clock());
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.InsertRow("t", {Value::Int(1), Value::Str("one")}));
  ASSERT_OK(db.Commit());
  ASSERT_OK(db.SimulateCrash());
  ASSERT_OK(db.Recover());

  auto events = EventSet(tracer.ExportChromeJson());
  EXPECT_TRUE(events.count({"wal", "flush"}));
  EXPECT_TRUE(events.count({"txn", "commit"}));
  EXPECT_TRUE(events.count({"recovery", "redo"}));
  // The subsystem's counters land in the Database's registry, not the
  // global one.
  EXPECT_GT(registry.Value("rdbms.wal.flushes"), 0);
  EXPECT_GT(registry.Value("rdbms.wal.appends"), 0);
  EXPECT_EQ(registry.Value("rdbms.txn.begins"), 1);
  EXPECT_EQ(registry.Value("rdbms.txn.commits"), 1);
  EXPECT_EQ(registry.Value("rdbms.recovery.runs"), 1);
}

TEST(TraceTest, TracingChargesNoSimulatedTime) {
  rdbms::Database db;
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT)"));
  for (int i = 0; i < 500; ++i) ASSERT_OK(db.InsertRow("t", {Value::Int(i)}));
  const std::string sql = "SELECT COUNT(*) FROM t WHERE a < 250";
  ASSERT_TRUE(db.Query(sql).ok());  // warm the pool

  SimTimer untraced(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  int64_t untraced_us = untraced.ElapsedUs();

  Tracer tracer(db.clock());
  SimTimer traced(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  EXPECT_EQ(traced.ElapsedUs(), untraced_us);
  EXPECT_GT(tracer.event_count(), 0u);
}

TEST(TraceTest, NoStateBleedsBetweenStatementsOnReusedDatabase) {
  rdbms::Database db;
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT, b INT)"));
  for (int i = 0; i < 800; ++i) {
    ASSERT_OK(db.InsertRow("t", {Value::Int(i), Value::Int(i % 7)}));
  }
  const std::string sql =
      "SELECT b, COUNT(*), SUM(a) FROM t WHERE a >= 100 GROUP BY b ORDER BY b";
  ASSERT_TRUE(db.Query(sql).ok());  // warm the pool

  TraceOptions trace_opts;
  trace_opts.include_wall_time = false;
  Tracer tracer(db.clock(), trace_opts);

  // Operator runtime counters reset per statement: repeated runs of the same
  // statement on the same Database trace identically (rows args included) and
  // charge identical simulated time.
  tracer.Clear();
  SimTimer t1(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  int64_t run1_us = t1.ElapsedUs();
  std::string export1 = tracer.ExportChromeJson();

  tracer.Clear();
  SimTimer t2(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  EXPECT_EQ(t2.ElapsedUs(), run1_us);
  ExpectSameBytes(export1, tracer.ExportChromeJson(),
                  "trace exports of identical consecutive statements");

  // The EXPLAIN ANALYZE counters are per-statement too: a second run reports
  // the same rows/batches/opens, not accumulated totals.
  auto ea1 = db.ExplainAnalyze(sql);
  ASSERT_TRUE(ea1.ok()) << ea1.status().ToString();
  auto ea2 = db.ExplainAnalyze(sql);
  ASSERT_TRUE(ea2.ok());
  ExpectSameBytes(ea1.value(), ea2.value(), "EXPLAIN ANALYZE reports");
}

// -- The app layer in the trace, and table-buffer metrics ---------------------

TEST(TraceTest, AppServerLayersAppearInTrace) {
  MetricsRegistry registry;
  appsys::AppServerOptions app_opts;
  app_opts.table_buffer_bytes = 1u << 20;
  rdbms::DatabaseOptions db_opts;
  db_opts.metrics = &registry;
  appsys::R3System sys(app_opts, db_opts);
  ASSERT_OK(sys.app.Bootstrap());
  rdbms::Schema mara({rdbms::ColChar("MANDT", 3), rdbms::ColChar("MATNR", 16),
                      rdbms::ColDecimal("BRGEW")});
  ASSERT_OK(sys.app.dictionary()->DefineTransparent("MARA", mara,
                                                    {"MANDT", "MATNR"}));
  appsys::OpenSql* osql = sys.app.open_sql();
  sys.app.buffer()->EnableFor("MARA");
  ASSERT_OK(osql->Insert(
      "MARA", {Value::Str("301"), Value::Str("M1"), Value::Decimal(1.5)}));

  Tracer tracer(sys.app.clock());
  auto miss = osql->SelectSingle(
      "MARA", {appsys::OsqlCond::Eq("MATNR", Value::Str("M1"))});
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit = osql->SelectSingle(
      "MARA", {appsys::OsqlCond::Eq("MATNR", Value::Str("M1"))});
  ASSERT_TRUE(hit.ok());
  appsys::OpenSqlQuery q;
  q.table = "MARA";
  ASSERT_TRUE(osql->Select(q).ok());

  auto events = EventSet(tracer.ExportChromeJson());
  EXPECT_TRUE(events.count({"app", "opensql.select"}));
  EXPECT_TRUE(events.count({"app", "opensql.translate"}));
  EXPECT_TRUE(events.count({"app", "table_buffer.hit"}));
  bool has_interface = false, has_sql = false;
  for (const auto& [cat, name] : events) {
    if (cat == "interface" && name.rfind("db_call.", 0) == 0)
      has_interface = true;
    if (cat == "sql") has_sql = true;
  }
  EXPECT_TRUE(has_interface);  // DbConnection round trips
  EXPECT_TRUE(has_sql);        // the RDBMS underneath the same spans

  // The connection's registry mirror agrees with its struct stats.
  EXPECT_EQ(registry.Value("appsys.connection.round_trips"),
            sys.app.connection()->stats().round_trips);
  EXPECT_GT(registry.Value("appsys.connection.round_trips"), 0);
}

// -- Performance monitor ------------------------------------------------------

TEST(PerfMonitorTest, AggregatesOperationsWithCounterDeltas) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions db_opts;
  db_opts.metrics = &registry;
  appsys::R3System sys(appsys::AppServerOptions{}, db_opts);
  ASSERT_OK(sys.app.Bootstrap());
  rdbms::Schema mara({rdbms::ColChar("MANDT", 3), rdbms::ColChar("MATNR", 16),
                      rdbms::ColDecimal("BRGEW")});
  ASSERT_OK(sys.app.dictionary()->DefineTransparent("MARA", mara,
                                                    {"MANDT", "MATNR"}));
  appsys::PerfMonitor monitor(sys.app.clock(), &registry);

  {
    appsys::PerfMonitor::Scope op(&monitor, "load");
    ASSERT_OK(sys.app.open_sql()->Insert(
        "MARA", {Value::Str("301"), Value::Str("M1"), Value::Decimal(1.0)}));
  }
  for (int i = 0; i < 2; ++i) {
    appsys::PerfMonitor::Scope op(&monitor, "report");
    appsys::OpenSqlQuery q;
    q.table = "MARA";
    ASSERT_TRUE(sys.app.open_sql()->Select(q).ok());
  }

  const auto& ops = monitor.operations();
  ASSERT_EQ(ops.size(), 2u);  // first-seen order, aggregated by name
  EXPECT_EQ(ops[0].name, "load");
  EXPECT_EQ(ops[0].calls, 1);
  EXPECT_EQ(ops[1].name, "report");
  EXPECT_EQ(ops[1].calls, 2);
  EXPECT_GT(ops[1].sim_us, 0);
  EXPECT_GT(ops[1].CounterValue("rdbms.sql.statements"), 0);
  EXPECT_EQ(ops[1].CounterValue("appsys.connection.round_trips"), 2);
  EXPECT_GE(monitor.Total("rdbms.sql.statements"),
            ops[0].CounterValue("rdbms.sql.statements") +
                ops[1].CounterValue("rdbms.sql.statements"));

  std::string report = monitor.RenderReport();
  EXPECT_NE(report.find("performance monitor"), std::string::npos);
  EXPECT_NE(report.find("report"), std::string::npos);
  auto parsed = json::Parse(monitor.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().Has("totals"));
  ASSERT_TRUE(parsed.value().Has("operations"));
  EXPECT_EQ(parsed.value().Get("operations").items().size(), 2u);

  monitor.Reset();
  EXPECT_TRUE(monitor.operations().empty());
  EXPECT_EQ(monitor.Total("rdbms.sql.statements"), 0);
}

TEST(PerfMonitorTest, OperationsDoNotNest) {
  appsys::R3System sys;
  appsys::PerfMonitor monitor(&sys.clock);
  monitor.BeginOperation("outer");
  sys.clock.Charge(10);
  monitor.BeginOperation("inner");  // closes "outer" first
  sys.clock.Charge(5);
  monitor.EndOperation();
  monitor.EndOperation();  // no-op: nothing open
  ASSERT_EQ(monitor.operations().size(), 2u);
  EXPECT_EQ(monitor.operations()[0].name, "outer");
  EXPECT_EQ(monitor.operations()[0].sim_us, 10);
  EXPECT_EQ(monitor.operations()[1].sim_us, 5);
}

TEST(PerfMonitorTest, ToJsonReportsHistogramPercentiles) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions opts;
  opts.metrics = &registry;
  rdbms::Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT)"));
  for (int i = 0; i < 200; ++i) ASSERT_OK(db.InsertRow("t", {Value::Int(i)}));
  ASSERT_OK(db.pool()->Reset());  // cold pool: the scan pays physical I/O

  appsys::PerfMonitor monitor(db.clock(), &registry);
  ASSERT_TRUE(db.Query("SELECT COUNT(*) FROM t").ok());

  json::Value j = monitor.ToJson();
  ASSERT_TRUE(j.Has("histograms"));
  const json::Value& hists = j.Get("histograms");
  ASSERT_TRUE(hists.Has("rdbms.wait.buffer_pool_io_us"));
  const json::Value& io = hists.Get("rdbms.wait.buffer_pool_io_us");
  EXPECT_GT(io.Get("count").int_value(), 0);
  EXPECT_GT(io.Get("p50").int_value(), 0);
  EXPECT_GE(io.Get("max").int_value(), io.Get("p50").int_value());
  // Wall-time histograms are excluded: their values depend on OS
  // scheduling and would break bench-document determinism.
  for (const auto& [name, v] : hists.members()) {
    (void)v;
    EXPECT_EQ(name.find("_wall_us"), std::string::npos) << name;
  }
}

// -- Wait events --------------------------------------------------------------

TEST(WaitEventTest, BufferPoolMissRecordsOneIoEvent) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions opts;
  opts.metrics = &registry;
  rdbms::Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT)"));
  for (int i = 0; i < 50; ++i) ASSERT_OK(db.InsertRow("t", {Value::Int(i)}));
  ASSERT_TRUE(db.Query("SELECT COUNT(*) FROM t").ok());  // warm the pool
  ASSERT_OK(db.pool()->Reset());  // one data page to re-read, cold

  int64_t phys_before = registry.Value("rdbms.bufferpool.physical_reads");
  WaitEventLog log(db.clock());
  ASSERT_TRUE(db.Query("SELECT COUNT(*) FROM t").ok());
  int64_t misses = registry.Value("rdbms.bufferpool.physical_reads") -
                   phys_before;

  // Exactly one physical transfer, exactly one correctly-classed event.
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(log.CountOf(WaitClass::kBufferPoolIo), misses);
  std::vector<WaitEvent> events = log.EventsOf(WaitClass::kBufferPoolIo);
  ASSERT_EQ(events.size(), static_cast<size_t>(misses));
  EXPECT_GT(events[0].sim_dur_us, 0);
  EXPECT_EQ(events[0].detail.rfind("page_read.", 0), 0u) << events[0].detail;
  EXPECT_EQ(log.SimUsOf(WaitClass::kBufferPoolIo), events[0].sim_dur_us);
  // No other class fired, and the always-on metric mirror agrees.
  EXPECT_EQ(log.CountOf(WaitClass::kLockWait), 0);
  EXPECT_EQ(log.CountOf(WaitClass::kWalFlush), 0);
  EXPECT_EQ(log.CountOf(WaitClass::kDeadlockAbort), 0);
  EXPECT_EQ(registry.Value("rdbms.wait.buffer_pool_io"),
            phys_before + misses);
  EXPECT_NE(log.RenderText().find("buffer_pool_io"), std::string::npos);
}

TEST(WaitEventTest, CommitGroupFlushRecordsOneWalFlushEvent) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions opts;
  opts.metrics = &registry;
  rdbms::Database db(nullptr, opts);
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT, b CHAR(8))"));
  ASSERT_OK(db.EnableWal());  // its checkpoint flush is before the log

  WaitEventLog log(db.clock());
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.InsertRow("t", {Value::Int(1), Value::Str("one")}));
  ASSERT_OK(db.Commit());

  // The commit's log force: one group flush, one event, and the stall's
  // simulated duration is the flush's page-write charge exactly.
  EXPECT_EQ(log.CountOf(WaitClass::kWalFlush), 1);
  std::vector<WaitEvent> events = log.EventsOf(WaitClass::kWalFlush);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "group_flush");
  EXPECT_EQ(events[0].sim_dur_us, db.clock()->model().page_write_us);
  EXPECT_EQ(log.SimUsOf(WaitClass::kWalFlush), events[0].sim_dur_us);
  EXPECT_EQ(events[0].sim_start_us + events[0].sim_dur_us,
            db.clock()->NowMicros());
  EXPECT_EQ(log.CountOf(WaitClass::kBufferPoolIo), 0);
  // The metric mirror counts EnableWal's baseline-checkpoint flush too;
  // the log, attached after EnableWal, saw only the commit's.
  EXPECT_EQ(registry.Value("rdbms.wait.wal_flush"), 2);
}

TEST(WaitEventTest, DeadlockVictimRecordsOneAbortEvent) {
  using rdbms::txn::LockKey;
  using rdbms::txn::LockManager;
  using rdbms::txn::LockMode;
  MetricsRegistry metrics;
  SimClock clock;
  LockManager lm(&metrics, &clock);
  WaitEventLog log(&clock);

  // The classic two-transaction cross acquisition (mvcc_test's pattern).
  const LockKey a = LockKey::Row(1, 1);
  const LockKey b = LockKey::Row(1, 2);
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(2, b, LockMode::kX).ok());
  auto cross = [&](uint64_t id, LockKey want) {
    Status st = lm.Acquire(id, want, LockMode::kX);
    if (!st.ok()) EXPECT_EQ(st.code(), StatusCode::kAborted);
    lm.ReleaseAll(id);
  };
  std::thread t1(cross, 1, b);
  std::thread t2(cross, 2, a);
  t1.join();
  t2.join();

  // Exactly one victim, exactly one abort event; at least one of the two
  // blocked acquisitions recorded a lock wait before the cycle closed.
  EXPECT_EQ(log.CountOf(WaitClass::kDeadlockAbort), 1);
  EXPECT_GE(log.CountOf(WaitClass::kLockWait), 1);
  std::vector<WaitEvent> aborts = log.EventsOf(WaitClass::kDeadlockAbort);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].detail, "txn2");  // deterministic youngest victim
  // Lock waits carry no simulated duration (their real duration is wall
  // time, which would break determinism): counts only.
  EXPECT_EQ(log.SimUsOf(WaitClass::kLockWait), 0);
  EXPECT_EQ(log.SimUsOf(WaitClass::kDeadlockAbort), 0);
  EXPECT_EQ(metrics.Value("rdbms.wait.deadlock_abort"), 1);
  EXPECT_EQ(metrics.Value("rdbms.wait.lock_wait"),
            metrics.Value("rdbms.txn.lock_waits"));
}

TEST(WaitEventTest, RecordingChargesNoSimulatedTime) {
  rdbms::Database db;
  ASSERT_OK(db.Execute("CREATE TABLE t (a INT)"));
  for (int i = 0; i < 500; ++i) ASSERT_OK(db.InsertRow("t", {Value::Int(i)}));
  const std::string sql = "SELECT COUNT(*) FROM t WHERE a < 250";

  ASSERT_OK(db.pool()->Reset());
  SimTimer unlogged(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  int64_t unlogged_us = unlogged.ElapsedUs();

  ASSERT_OK(db.pool()->Reset());
  WaitEventLog log(db.clock());
  SimTimer logged(*db.clock());
  ASSERT_TRUE(db.Query(sql).ok());
  EXPECT_EQ(logged.ElapsedUs(), unlogged_us);
  EXPECT_GT(log.event_count(), 0u);
}

// -- ST05 SQL trace -----------------------------------------------------------

TEST(SqlTraceTest, BlindCursorTopsTheReportAndIdenticalSelectsAreFlagged) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions db_opts;
  db_opts.metrics = &registry;
  appsys::R3System sys(appsys::AppServerOptions{}, db_opts);
  ASSERT_OK(sys.app.Bootstrap());
  // A miniature VBAP: client + position key, quantity column with a
  // secondary index — the Table 6 setup at toy scale.
  rdbms::Schema vbap({rdbms::ColChar("MANDT", 3), rdbms::ColChar("POSNR", 6),
                      rdbms::ColInt("KWMENG")});
  ASSERT_OK(sys.app.dictionary()->DefineTransparent("VBAP", vbap,
                                                    {"MANDT", "POSNR"}));
  appsys::OpenSql* osql = sys.app.open_sql();
  for (int i = 0; i < 1500; ++i) {
    char posnr[8];
    std::snprintf(posnr, sizeof(posnr), "%06d", i);
    ASSERT_OK(osql->Insert("VBAP", {Value::Str(sys.app.client()),
                                    Value::Str(posnr), Value::Int(i)}));
  }
  ASSERT_OK(sys.app.dictionary()->CreateSecondaryIndex("VBAP", "Q",
                                                       {"MANDT", "KWMENG"}));
  ASSERT_OK(sys.db.Analyze("VBAP"));

  appsys::SqlTrace trace;
  sys.app.connection()->set_sql_trace(&trace);
  auto select_lt = [&](int64_t bound) {
    appsys::OpenSqlQuery q;
    q.table = "VBAP";
    q.columns = {"KWMENG"};
    q.where = {appsys::OsqlCond::Cmp("KWMENG", rdbms::CmpOp::kLt,
                                     Value::Int(bound))};
    auto res = osql->Select(q);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  };
  // Open SQL parameterizes the literal, so all four runs share one cursor:
  // a cheap probe (0 rows, pays the hard parse), the expensive full range
  // twice (an identical-select repeat), and the cheap probe again (now a
  // cursor hit with trivial cost — the blind cursor's min/max spread).
  select_lt(0);
  select_lt(1000000);
  select_lt(1000000);
  select_lt(0);
  // One Native SQL statement to rank against.
  auto native = sys.app.native_sql()->ExecSql("SELECT COUNT(*) FROM VBAP");
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  sys.app.connection()->set_sql_trace(nullptr);

  ASSERT_EQ(trace.dropped_events(), 0u);
  std::vector<appsys::SqlStatementStats> top = trace.TopStatements();
  ASSERT_EQ(top.size(), 2u);  // the shared cursor aggregates to one entry
  const appsys::SqlStatementStats& s = top[0];
  // The blind cursor is the top db-time consumer, ahead of the native scan.
  EXPECT_EQ(s.interface_kind, appsys::SqlInterface::kOpenSql);
  EXPECT_GT(s.total_db_us, top[1].total_db_us);
  EXPECT_EQ(s.executions, 4);
  EXPECT_EQ(s.cursor_misses, 1);
  EXPECT_EQ(s.cursor_hits, 3);
  // Two bind groups, each executed twice: two identical-select repeats.
  EXPECT_EQ(s.identical_repeats, 2);
  EXPECT_EQ(s.rows, 2 * 1500);
  // The blind-cursor heuristic: cursor-cached, never peeked, and a >=10x
  // spread between its cheapest and costliest execution.
  EXPECT_FALSE(s.peeked_any);
  EXPECT_TRUE(s.blind_cursor_suspect);
  EXPECT_GE(s.max_exec_us, 10 * s.min_exec_us);
  EXPECT_FALSE(top[1].blind_cursor_suspect);
  EXPECT_EQ(top[1].interface_kind, appsys::SqlInterface::kNativeSql);

  std::string report = trace.RenderReport();
  EXPECT_NE(report.find("[blind-cursor]"), std::string::npos);
  EXPECT_NE(report.find("[identical-selects]"), std::string::npos);
  json::Value j = trace.ToJson();
  ASSERT_OK(json::Validate(j.Dump()));
  EXPECT_EQ(j.Get("statements").items().size(), 2u);
  EXPECT_TRUE(
      j.Get("statements").items()[0].Get("blind_cursor_suspect").bool_value());

  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.TopStatements().empty());
}

// -- ST03 workload monitor ----------------------------------------------------

TEST(WorkloadMonitorTest, StepDecompositionSumsExactly) {
  MetricsRegistry registry;
  rdbms::DatabaseOptions db_opts;
  db_opts.metrics = &registry;
  appsys::R3System sys(appsys::AppServerOptions{}, db_opts);
  ASSERT_OK(sys.app.Bootstrap());
  rdbms::Schema mara({rdbms::ColChar("MANDT", 3), rdbms::ColChar("MATNR", 16),
                      rdbms::ColDecimal("BRGEW")});
  ASSERT_OK(sys.app.dictionary()->DefineTransparent("MARA", mara,
                                                    {"MANDT", "MATNR"}));
  ASSERT_OK(sys.app.open_sql()->Insert(
      "MARA", {Value::Str("301"), Value::Str("M1"), Value::Decimal(1.0)}));

  appsys::WorkloadMonitor monitor(sys.app.clock());
  sys.app.connection()->set_workload_monitor(&monitor);

  SimTimer step_timer(*sys.app.clock());
  monitor.BeginStep("report");
  sys.app.clock()->Charge(7);  // dispatcher queue, booked as wait
  monitor.AddWaitTime(7);
  sys.app.clock()->Charge(5);  // program load, booked as load
  monitor.AddLoadTime(5);
  appsys::OpenSqlQuery q;
  q.table = "MARA";
  ASSERT_TRUE(sys.app.open_sql()->Select(q).ok());  // db-request time
  sys.app.clock()->Charge(100);  // ABAP processing: the unbooked residual
  monitor.EndStep();
  int64_t step_total = step_timer.ElapsedUs();

  ASSERT_EQ(monitor.steps().size(), 1u);
  const appsys::WorkloadMonitor::StepStats& s = monitor.steps()[0];
  EXPECT_EQ(s.task_type, "report");
  EXPECT_EQ(s.steps, 1);
  // The ST03 identity: the decomposition sums *exactly* to the step's
  // end-to-end simulated time, with every component where it belongs.
  EXPECT_EQ(s.total_us, step_total);
  EXPECT_EQ(s.wait_us + s.load_us + s.db_request_us + s.processing_us,
            s.total_us);
  EXPECT_EQ(s.wait_us, 7);
  EXPECT_EQ(s.load_us, 5);
  EXPECT_GT(s.db_request_us, 0);
  EXPECT_GE(s.processing_us, 100);

  // A second step of the same task type aggregates; a different type gets
  // its own line, and steps never nest (Begin closes the open step).
  {
    appsys::WorkloadMonitor::Scope scope(&monitor, "report");
    ASSERT_TRUE(sys.app.open_sql()->Select(q).ok());
  }
  monitor.BeginStep("dialog");
  monitor.BeginStep("dialog");  // closes the first "dialog" step
  monitor.EndStep();
  monitor.EndStep();  // no-op: nothing open
  ASSERT_EQ(monitor.steps().size(), 2u);
  EXPECT_EQ(monitor.steps()[0].steps, 2);
  EXPECT_EQ(monitor.steps()[1].task_type, "dialog");
  EXPECT_EQ(monitor.steps()[1].steps, 2);

  std::string report = monitor.RenderReport();
  EXPECT_NE(report.find("report"), std::string::npos);
  EXPECT_NE(report.find("dialog"), std::string::npos);
  json::Value j = monitor.ToJson();
  ASSERT_OK(json::Validate(j.Dump()));
  ASSERT_EQ(j.Get("steps").items().size(), 2u);
  const json::Value& js = j.Get("steps").items()[0];
  EXPECT_EQ(js.Get("wait_us").int_value() + js.Get("load_us").int_value() +
                js.Get("db_request_us").int_value() +
                js.Get("processing_us").int_value(),
            js.Get("total_us").int_value());

  monitor.Reset();
  EXPECT_TRUE(monitor.steps().empty());
}

// -- The headline guarantee ---------------------------------------------------

/// Counters whose values must not depend on worker-thread budget or batch
/// size: everything that charges simulated time, plus statement/plan counts.
/// (`rdbms.bufferpool.logical_reads` is deliberately absent — re-pinning a
/// page on every batch fill makes it batch-size-variant, and it charges no
/// simulated time; DESIGN.md §7.)
const char* const kInvariantCounters[] = {
    "rdbms.bufferpool.physical_reads",
    "rdbms.bufferpool.sequential_reads",
    "rdbms.bufferpool.random_reads",
    "rdbms.bufferpool.page_writes",
    "rdbms.sql.statements",
    "rdbms.sql.hard_parses",
    "rdbms.optimizer.plans",
    "rdbms.optimizer.seq_scans",
    "rdbms.optimizer.parallel_scans",
    "rdbms.optimizer.hash_joins",
    "rdbms.optimizer.sorts",
    "rdbms.optimizer.gather_nodes",
};

std::map<std::string, int64_t> InvariantCounterValues(
    const MetricsRegistry& registry) {
  std::map<std::string, int64_t> out;
  for (const char* name : kInvariantCounters) out[name] = registry.Value(name);
  return out;
}

/// Erases every `"ts":<n>` field from a Chrome export. Batch capacity
/// decides whether a consumer's per-tuple charges interleave between or
/// after its producer's, so timestamps *inside* a statement legitimately
/// shift with batch size; everything else — event order, names, categories,
/// durations, row-count args — must not (see trace.h).
std::string StripTimestamps(const std::string& chrome_json) {
  std::string out;
  out.reserve(chrome_json.size());
  size_t i = 0;
  const std::string key = "\"ts\":";
  while (i < chrome_json.size()) {
    if (chrome_json.compare(i, key.size(), key) == 0) {
      i += key.size();
      while (i < chrome_json.size() &&
             (chrome_json[i] == '-' || (chrome_json[i] >= '0' &&
                                        chrome_json[i] <= '9'))) {
        ++i;
      }
      out += "\"ts\":0";
      continue;
    }
    out += chrome_json[i++];
  }
  return out;
}

TEST(ObservabilityDeterminismTest, TraceAndCountersInvariantAcrossThreadsAndBatches) {
  constexpr double kSf = 0.002;
  MetricsRegistry registry;
  rdbms::DatabaseOptions db_opts;
  // Fixed plan-lane count: parallel plans in every run.
  db_opts.planner.dop = 2;
  db_opts.planner.parallel_threshold_rows = 500;
  db_opts.metrics = &registry;
  rdbms::Database db(nullptr, db_opts);
  tpcd::DbGen gen(kSf);
  ASSERT_OK(tpcd::CreateTpcdSchema(&db));
  ASSERT_OK(tpcd::LoadTpcdDatabase(&db, &gen));
  auto queries = tpcd::MakeRdbmsQuerySet(&db);
  tpcd::QueryParams params = tpcd::QueryParams::Defaults(kSf);

  // Per-query simulated elapsed times, collected alongside the row counts.
  auto run_all = [&](std::vector<size_t>* row_counts,
                     std::vector<int64_t>* sim_times) {
    for (int q = 1; q <= tpcd::kNumQueries; ++q) {
      SimTimer t(*db.clock());
      auto res = queries->RunQuery(q, params);
      ASSERT_TRUE(res.ok()) << "Q" << q << ": " << res.status().ToString();
      row_counts->push_back(res.value().rows.size());
      sim_times->push_back(t.ElapsedUs());
    }
  };

  // Warm-up pass so every measured pass starts from identical engine state.
  {
    std::vector<size_t> ignored_rows;
    std::vector<int64_t> ignored_times;
    run_all(&ignored_rows, &ignored_times);
  }

  TraceOptions trace_opts;
  trace_opts.include_wall_time = false;  // byte-comparable exports
  Tracer tracer(db.clock(), trace_opts);

  struct Pass {
    int exec_threads;   // OS-thread budget for the plan's 2 lanes
    size_t batch_rows;  // rows per RowBatch in the pipeline
    std::string exported;
    std::map<std::string, int64_t> counters;
    std::vector<size_t> rows;
    std::vector<int64_t> sim_times;
  };
  std::vector<Pass> passes = {
      {1, 1024}, {4, 1024}, {1, 1}, {4, 1}, {1, 7},
  };
  for (Pass& pass : passes) {
    db.set_exec_threads(pass.exec_threads);
    db.set_batch_rows(pass.batch_rows);
    ASSERT_OK(db.pool()->Reset());  // identical cold-cache start every pass
    registry.ResetAll();
    tracer.Clear();
    run_all(&pass.rows, &pass.sim_times);
    ASSERT_EQ(tracer.dropped_events(), 0u);
    pass.exported = tracer.ExportChromeJson();
    pass.counters = InvariantCounterValues(registry);
  }
  const Pass& ref = passes[0];

  // The baseline must actually exercise what the test claims to pin down:
  // parallel plans, physical I/O, and spans from every layer.
  EXPECT_GT(ref.counters.at("rdbms.optimizer.gather_nodes"), 0);
  EXPECT_GT(ref.counters.at("rdbms.bufferpool.physical_reads"), 0);
  // >= because some of the 17 report programs issue more than one statement.
  EXPECT_GE(ref.counters.at("rdbms.sql.statements"),
            static_cast<int64_t>(tpcd::kNumQueries));
  ASSERT_OK(json::Validate(ref.exported));
  for (const char* needle :
       {"\"cat\":\"sql\"", "\"cat\":\"exec\"", "\"cat\":\"io\""}) {
    EXPECT_NE(ref.exported.find(needle), std::string::npos) << needle;
  }

  const std::string ref_stripped = StripTimestamps(ref.exported);
  for (size_t i = 1; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    SCOPED_TRACE(::testing::Message() << "exec_threads=" << pass.exec_threads
                                      << " batch_rows=" << pass.batch_rows);
    EXPECT_EQ(pass.rows, ref.rows);
    EXPECT_EQ(pass.sim_times, ref.sim_times);  // per-query totals invariant
    EXPECT_EQ(pass.counters, ref.counters);
    if (pass.batch_rows == ref.batch_rows) {
      // Worker-thread budget: full byte-identical exports, timestamps and
      // all — the trace never sees OS scheduling.
      ExpectSameBytes(ref.exported, pass.exported,
                      "trace exports across exec_threads");
    } else {
      // Batch capacity: identical modulo intra-statement charge
      // interleaving (see StripTimestamps).
      ExpectSameBytes(ref_stripped, StripTimestamps(pass.exported),
                      "timestamp-stripped trace exports across batch sizes");
    }
  }
  // Thread-budget invariance at the small batch size too: passes {1,1} and
  // {4,1} must match byte-for-byte.
  ExpectSameBytes(passes[2].exported, passes[3].exported,
                  "trace exports across exec_threads at batch_rows=1");
}

}  // namespace
}  // namespace r3
